"""Independent dense oracles shared by the test modules.

Everything here recomputes expected results by a route different from the
library's own: dense mirrors for sparse storage, explicit dense operator
matrices for elimination/skeletonization, and SVD rank checks for the ID.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from hifde import (SparseSymMatrix, DofState, eliminate_cell, skeletonize_cell,
                   interpolative_decomposition)
from hifde import Record


def random_symmetric(rng, n: int, scale: float = 1.0) -> np.ndarray:
    m = rng.standard_normal((n, n))
    return scale * (m + m.T) / 2.0


def random_spd(rng, n: int, cond: float = 1e3) -> np.ndarray:
    q = sla.qr(rng.standard_normal((n, n)))[0]
    vals = np.geomspace(1.0, cond, n)
    m = (q * vals) @ q.T
    return 0.5 * (m + m.T)


def random_sparse_sym(rng, n: int, fill: float = 0.15, spd: bool = True):
    """Random symmetric sparse test matrix and its dense mirror."""
    dense = np.zeros((n, n))
    mask = rng.random((n, n)) < fill
    mask = np.triu(mask, 1)
    vals = rng.standard_normal((n, n))
    dense[mask] = vals[mask]
    dense = dense + dense.T
    if spd:
        # diagonal dominance makes every principal submatrix SPD
        dense[np.diag_indices(n)] = np.abs(dense).sum(axis=1) + rng.random(n) + 1.0
    else:
        dense[np.diag_indices(n)] = rng.standard_normal(n) * 2.0
    import scipy.sparse as sp
    return SparseSymMatrix.from_scipy(sp.csr_matrix(dense)), dense


def svd_rank(m: np.ndarray, rtol: float) -> int:
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def dense_s(rec: Record, n: int) -> np.ndarray:
    """Explicit elimination operator S over the full index space."""
    p, q = rec.rd, rec.sk
    s = np.eye(n)
    linv_t = rec.factor.solve_lt(np.eye(len(p)))
    s[np.ix_(p, p)] = linv_t
    if len(q):
        s[np.ix_(p, q)] = -linv_t @ rec.coupling
    return s


def dense_s_inv_t(rec: Record, n: int) -> np.ndarray:
    """S^{-T} = [[L, 0], [X^T, I]] over the full index space."""
    p, q = rec.rd, rec.sk
    s = np.eye(n)
    s[np.ix_(p, p)] = rec.factor.apply_l(np.eye(len(p)))
    if len(q):
        s[np.ix_(q, p)] = rec.coupling.T
    return s


def dense_q(rec: Record, n: int) -> np.ndarray:
    """Interpolation congruence Q = [[I, 0], [-T, I]] over (rd, sk)."""
    qm = np.eye(n)
    if len(rec.rd) and len(rec.sk):
        qm[np.ix_(rec.sk, rec.rd)] = -rec.interp
    return qm


def dense_q_inv_t(rec: Record, n: int) -> np.ndarray:
    qm = np.eye(n)
    if len(rec.rd) and len(rec.sk):
        qm[np.ix_(rec.rd, rec.sk)] = rec.interp.T
    return qm


def dense_after(a: SparseSymMatrix, rec: Record) -> np.ndarray:
    """Post-state as a dense matrix, with the decoupled D block restored."""
    out = a.to_dense()
    rd = rec.rd
    out[np.ix_(rd, rd)] = rec.factor.d.apply(np.eye(len(rd)))
    return out


# -- reference sweep: the factored operator one record at a time ------------
# The per-record actions of U = Q S and of D. Each acts in place on v, a
# vector or an (N, m) array of columns; rightmost factors act first.

def apply_u(rec: Record, v: np.ndarray) -> None:
    if not len(rec.rd):
        return
    t = v[rec.rd] - rec.coupling @ v[rec.sk]
    v[rec.rd] = rec.factor.solve_lt(t)
    if rec.interp is not None:
        v[rec.sk] -= rec.interp @ v[rec.rd]


def apply_ut(rec: Record, v: np.ndarray) -> None:
    if not len(rec.rd):
        return
    if rec.interp is not None:
        v[rec.rd] -= rec.interp.T @ v[rec.sk]
    t = rec.factor.solve_l(v[rec.rd])
    v[rec.sk] -= rec.coupling.T @ t
    v[rec.rd] = t


def apply_u_inv(rec: Record, v: np.ndarray) -> None:
    if not len(rec.rd):
        return
    if rec.interp is not None:
        v[rec.sk] += rec.interp @ v[rec.rd]
    v[rec.rd] = rec.factor.apply_lt(v[rec.rd]) + rec.coupling @ v[rec.sk]


def apply_u_inv_t(rec: Record, v: np.ndarray) -> None:
    if not len(rec.rd):
        return
    t = v[rec.rd]
    v[rec.sk] += rec.coupling.T @ t
    v[rec.rd] = rec.factor.apply_l(t)
    if rec.interp is not None:
        v[rec.rd] += rec.interp.T @ v[rec.sk]


def apply_d(rec: Record, v: np.ndarray) -> None:
    if len(rec.rd):
        v[rec.rd] = rec.factor.d.apply(v[rec.rd])


def solve_d(rec: Record, v: np.ndarray) -> None:
    if len(rec.rd):
        v[rec.rd] = rec.factor.d.solve(v[rec.rd])


def reference_apply(f, x: np.ndarray) -> np.ndarray:
    """A x through the factor's records one at a time (GeneralizedLDL.apply)."""
    v = np.array(x, dtype=float, copy=True)
    recs = f.records()
    for rec in recs:
        apply_u_inv(rec, v)
        apply_d(rec, v)
    v[f.top_idx] = f.top.apply(v[f.top_idx])
    for rec in reversed(recs):
        apply_u_inv_t(rec, v)
    return v


def reference_apply_inverse(f, b: np.ndarray) -> np.ndarray:
    """A^{-1} b through the factor's records one at a time
    (GeneralizedLDL.apply_inverse)."""
    v = np.array(b, dtype=float, copy=True)
    recs = f.records()
    for rec in recs:
        apply_ut(rec, v)
        solve_d(rec, v)
    v[f.top_idx] = f.top.solve(v[f.top_idx])
    for rec in reversed(recs):
        apply_u(rec, v)
    return v


# -- randomized property suites (shared with the acceptance gate) -----------

def check_id_properties(ncases: int, seed: int = 1234) -> None:
    """ID bounds against an SVD oracle: ||T|| and the reconstruction error
    within a 10x safety factor of the pivoted-QR guarantees, plus rank
    agreement for well-separated spectra."""
    rng = np.random.default_rng(seed)
    for case in range(ncases):
        m_rows = int(rng.integers(1, 30))
        n_cols = int(rng.integers(1, 30))
        style = case % 3
        if style == 0:
            m = rng.standard_normal((m_rows, n_cols))
        elif style == 1:
            r = int(rng.integers(1, min(m_rows, n_cols) + 1))
            m = rng.standard_normal((m_rows, r)) @ rng.standard_normal((r, n_cols))
        else:
            u, _ = np.linalg.qr(rng.standard_normal((m_rows, m_rows)))
            v, _ = np.linalg.qr(rng.standard_normal((n_cols, n_cols)))
            k = min(m_rows, n_cols)
            sv = np.geomspace(1.0, 10.0 ** -rng.integers(1, 14), k)
            m = (u[:, :k] * sv) @ v[:k]
        eps = float(10.0 ** -rng.integers(1, 13))
        res = interpolative_decomposition(m, eps)
        k, sk, rd, t = res.k, res.sk, res.rd, res.t
        assert len(sk) == k
        assert sorted(np.concatenate([sk, rd]).tolist()) == list(range(n_cols))
        nmk = k * (n_cols - k)
        if t.size:
            assert np.linalg.norm(t, 2) <= 10.0 * np.sqrt(4.0 * max(nmk, 1))
        sv = np.linalg.svd(m, compute_uv=False) if m.size else np.zeros(1)
        sigma_next = sv[k] if k < len(sv) else 0.0
        err = np.linalg.norm(m[:, rd] - m[:, sk] @ t, 2) if len(rd) else 0.0
        bound = 10.0 * np.sqrt(1.0 + 4.0 * max(nmk, 1)) * sigma_next
        assert err <= max(bound, 50 * np.finfo(float).eps * max(sv[0], 1.0)), \
            f"ID reconstruction {err:.3e} above oracle bound {bound:.3e}"


def check_elimination_properties(ncases: int, seed: int = 5678) -> None:
    """eliminate_cell against the explicit dense operator: the post-state
    matches S^T A S exactly (to rounding), and far-field interactions are
    bit-identical."""
    rng = np.random.default_rng(seed)
    for case in range(ncases):
        n = int(rng.integers(6, 36))
        spd = bool(rng.integers(0, 2))
        a, dense_before = random_sparse_sym(rng, n, fill=0.2, spd=spd)
        csize = int(rng.integers(1, max(2, n // 3)))
        c = np.sort(rng.choice(n, size=csize, replace=False)).astype(np.int64)
        state = DofState(n)
        far_before = None
        q = a.neighbors(c)
        far = np.setdiff1d(np.arange(n), np.concatenate([c, q]))
        if len(far):
            far_before = a.gather(far, far).copy()
        try:
            rec = eliminate_cell(a, state, c, 0.0, spd)
        except Exception:
            continue  # randomly singular pivot in indefinite mode
        s = dense_s(rec, n)
        expected = s.T @ dense_before @ s
        got = dense_after(a, rec)
        scale = np.linalg.norm(dense_before, 2)
        assert np.linalg.norm(expected - got, 2) <= 1e-11 * scale
        # c fully decoupled in storage
        others = np.setdiff1d(np.arange(n), c)
        assert not a.gather(c, others).any()
        if len(far):
            assert np.array_equal(a.gather(far, far), far_before)


def check_skeletonization_properties(ncases: int, seed: int = 9012) -> None:
    """skeletonize_cell against the explicit dense congruence: the
    reconstruction S~ A_after S~^T matches A_before to C * eps, rd is fully
    decoupled, and far interactions are untouched."""
    rng = np.random.default_rng(seed)
    c_factor = 100.0
    for case in range(ncases):
        n = int(rng.integers(8, 40))
        spd = bool(rng.integers(0, 2))
        a, dense_before = random_sparse_sym(rng, n, fill=0.25, spd=spd)
        csize = int(rng.integers(2, max(3, n // 3)))
        c = np.sort(rng.choice(n, size=csize, replace=False)).astype(np.int64)
        eps = float(10.0 ** -rng.integers(2, 12))
        state = DofState(n)
        q = a.neighbors(c)
        far = np.setdiff1d(np.arange(n), np.concatenate([c, q]))
        far_before = a.gather(far, far).copy() if len(far) else None
        try:
            rec = skeletonize_cell(a, state, c, eps, 0.0, spd)
        except Exception:
            continue  # B_rr randomly singular in indefinite mode
        after = dense_after(a, rec)
        stilde = dense_q_inv_t(rec, n) @ dense_s_inv_t(rec, n)
        recon = stilde @ after @ stilde.T
        scale = np.linalg.norm(dense_before, 2)
        err = np.linalg.norm(dense_before - recon, 2)
        assert err <= max(c_factor * eps * scale, 1e-10 * scale), \
            f"congruence error {err / scale:.3e} above {c_factor}*eps={c_factor * eps:.0e}"
        if len(rec.rd):
            others = np.setdiff1d(np.arange(n), rec.rd)
            assert not a.gather(rec.rd, others).any()
        if len(far):
            assert np.array_equal(a.gather(far, far), far_before)
