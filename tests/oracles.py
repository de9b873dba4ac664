"""Independent dense oracles shared by the test modules.

Everything here recomputes expected results by a route different from the
library's own: dense mirrors for sparse storage, explicit dense operator
matrices for elimination/skeletonization, SVD rank checks for the ID, and
the per-block kernels (one LAPACK or BLAS call per block, no stacks) that
the library's stacked kernels must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from hifde import (SparseSymMatrix, DofState, eliminate_cell, skeletonize_cell,
                   interpolative_decomposition)
from hifde import (BlockDiag, IdResult, IndefiniteBlockError, LdlFactor, Record,
                   SingularBlockError)
from hifde.dense import EMPTY_FACTOR, SINGULAR_PIVOT_RTOL, _solve_unit_lower
from hifde.sparse import row_entries


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


# -- per-block reference kernels: one factored block at a time ----------------
# The factor of one block (LdlFactor, BlockDiag) applied and solved with, and
# factored, block by block: what the stacked kernels of hifde.dense
# (d_stack, solve_unit_lower_stack, schur_stack, ldl_stack) and the top block
# of the solve plan must reproduce. P^T L and L^T P act in factored
# coordinates; the permutation is internal.

def solve_l(fac: LdlFactor, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if fac.n == 0 or b.size == 0:
        return b.copy()
    return _solve_unit_lower(fac.lower, b[fac.perm], trans=False)


def solve_lt(fac: LdlFactor, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if fac.n == 0 or b.size == 0:
        return b.copy()
    y = _solve_unit_lower(fac.lower, b, trans=True)
    out = np.empty_like(y)
    out[fac.perm] = y
    return out


def apply_l(fac: LdlFactor, b: np.ndarray) -> np.ndarray:
    y = fac.lower @ b
    out = np.empty_like(y)
    out[fac.perm] = y
    return out


def apply_lt(fac: LdlFactor, b: np.ndarray) -> np.ndarray:
    return fac.lower.T @ b[fac.perm]


def d_apply(d: BlockDiag, b: np.ndarray) -> np.ndarray:
    out = (d.diag * b.T).T if b.ndim == 2 else d.diag * b
    for i, a, c, dd in d.pairs:
        bi, bj = b[i].copy(), b[i + 1].copy()
        out[i] = a * bi + c * bj
        out[i + 1] = c * bi + dd * bj
    return out


def d_solve(d: BlockDiag, b: np.ndarray) -> np.ndarray:
    # the rows of the 2x2 pivots are set below; their diagonal may be 0
    div = d.diag.copy()
    for i, *_ in d.pairs:
        div[i] = div[i + 1] = 1.0
    out = (b.T / div).T if b.ndim == 2 else b / div
    for i, a, c, dd in d.pairs:
        det = a * dd - c * c
        bi, bj = b[i], b[i + 1]
        out[i] = (dd * bi - c * bj) / det
        out[i + 1] = (a * bj - c * bi) / det
    return out


def block_solve(fac: LdlFactor, b: np.ndarray) -> np.ndarray:
    """A^{-1} b via L, D, L^T solves."""
    return solve_lt(fac, d_solve(fac.d, solve_l(fac, b)))


def block_apply(fac: LdlFactor, b: np.ndarray) -> np.ndarray:
    """A b from the factored form."""
    return apply_l(fac, d_apply(fac.d, apply_lt(fac, b)))


def check_nonsingular(d: BlockDiag, scale: float) -> None:
    thr = SINGULAR_PIVOT_RTOL * max(scale, 1e-300)
    mask = np.ones(d.n, dtype=bool)
    for i, a, c, dd in d.pairs:
        mask[i] = mask[i + 1] = False
        # smallest singular value of the symmetric 2x2 pivot
        t = 0.5 * (a + dd)
        r = np.hypot(0.5 * (a - dd), c)
        if min(abs(t - r), abs(t + r)) <= thr:
            raise SingularBlockError("singular 2x2 pivot block")
    if mask.any() and np.min(np.abs(d.diag[mask])) <= thr:
        raise SingularBlockError("singular pivot")


def reference_ldl(block: np.ndarray, spd_mode: bool) -> LdlFactor:
    """One block factored through scipy's wrappers (sla.cholesky, sla.ldl):
    what ldl_stack must reproduce for each block of a stack."""
    block = np.asarray(block, dtype=float)
    n = block.shape[0]
    if block.ndim != 2 or block.shape[1] != n:
        raise ValueError("block must be square")
    if n == 0:
        return EMPTY_FACTOR[spd_mode]
    scale = float(np.max(np.abs(np.diag(block))))
    if scale == 0.0:
        scale = float(np.max(np.abs(block)))
    if spd_mode:
        try:
            c = sla.cholesky(block, lower=True, check_finite=False)
        except sla.LinAlgError as exc:
            raise IndefiniteBlockError(str(exc)) from exc
        dc = np.diagonal(c).copy()
        lower = c * (1.0 / dc)[None, :]
        fac = LdlFactor("cholesky", lower, BlockDiag(dc * dc), np.arange(n))
    else:
        lu, dd, perm = sla.ldl(block, lower=True, check_finite=False)
        d = BlockDiag(np.diagonal(dd).copy(), np.diagonal(dd, -1))
        fac = LdlFactor("ldl", lu[perm], d, np.asarray(perm))
    check_nonsingular(fac.d, scale)
    return fac


def schur_complement(a_qq: np.ndarray, a_qp: np.ndarray,
                     ldl_pp: LdlFactor) -> tuple[np.ndarray, np.ndarray]:
    """Coupling X = D^{-1} L^{-1} A_qp^T and the Schur complement
    B = A_qq - A_qp A_pp^{-1} A_qp^T, using two triangular solves.

    B is explicitly symmetrized to suppress rounding asymmetry.
    """
    y = solve_l(ldl_pp, np.asarray(a_qp, float).T)
    x = d_solve(ldl_pp.d, y)
    b = np.asarray(a_qq, float) - y.T @ x
    return x, 0.5 * (b + b.T)


def assert_noninteracting(a, cs) -> None:
    """Check A_{c,c'} = 0 for all distinct cells of an interior CellSet of
    the SparseSymMatrix ``a``."""
    if not cs.cells:
        return
    members = cs.all_members()
    owner = np.repeat(np.arange(cs.ncells), [len(c) for c in cs.cells])
    cell_of = np.full(a.n, -1, dtype=np.int64)
    cell_of[members] = owner
    row, at = row_entries(a.indptr, members)
    cnb = cell_of[a.indices[at]]
    if np.any((cnb != -1) & (cnb != owner[row])):
        raise AssertionError(f"cells interact at level {cs.level}")


def dense_s(rec: Record, n: int) -> np.ndarray:
    """Explicit elimination operator S over the full index space."""
    p, q = rec.rd, rec.sk
    s = np.eye(n)
    linv_t = solve_lt(rec.factor, np.eye(len(p)))
    s[np.ix_(p, p)] = linv_t
    if len(q):
        s[np.ix_(p, q)] = -linv_t @ rec.coupling
    return s


def dense_s_inv_t(rec: Record, n: int) -> np.ndarray:
    """S^{-T} = [[L, 0], [X^T, I]] over the full index space."""
    p, q = rec.rd, rec.sk
    s = np.eye(n)
    s[np.ix_(p, p)] = apply_l(rec.factor, np.eye(len(p)))
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
    out[np.ix_(rd, rd)] = d_apply(rec.factor.d, np.eye(len(rd)))
    return out


def reference_id(m: np.ndarray, eps: float) -> IdResult:
    """The column ID through scipy's wrappers (sla.qr, which also forms the
    economic Q, and sla.solve_triangular): what
    interpolative_decomposition must reproduce bit for bit."""
    m = np.asarray(m, dtype=float)
    ncols = m.shape[1]
    if m.size == 0 or not np.any(m):
        return IdResult(np.arange(0), np.arange(ncols), np.zeros((0, ncols)), 0, 0.0)
    _, r, piv = sla.qr(m, mode="economic", pivoting=True, check_finite=False)
    rdiag = np.abs(np.diag(r))
    r11 = rdiag[0]
    thr = eps * r11 if eps > 0.0 else max(m.shape) * np.finfo(float).eps * r11
    below = np.nonzero(rdiag <= thr)[0]
    k = int(below[0]) if below.size else rdiag.size
    t = sla.solve_triangular(r[:k, :k], r[:k, k:], lower=False, check_finite=False) \
        if k else np.zeros((0, ncols))
    resid = float(rdiag[k] / r11) if k < rdiag.size else 0.0
    return IdResult(piv[:k].copy(), piv[k:].copy(), t, k, resid)


def reference_csr(a: SparseSymMatrix):
    """SparseSymMatrix.to_scipy and nnz as a loop over the rows."""
    import scipy.sparse as sp
    rows = np.concatenate([np.full(len(ix), i, dtype=np.int64)
                           for i, ix in enumerate(a.row_idx)] or [np.zeros(0, np.int32)])
    cols = np.concatenate([ix.astype(np.int64) for ix in a.row_idx] or [np.zeros(0, np.int32)])
    vals = np.concatenate(a.row_val or [np.zeros(0)])
    csr = sp.coo_matrix((vals, (rows, cols)), shape=(a.n, a.n)).tocsr()
    ndiag = sum(1 for i, ix in enumerate(a.row_idx)
                if len(ix) and ix.searchsorted(i) < len(ix) and ix[ix.searchsorted(i)] == i)
    return csr, (sum(len(ix) for ix in a.row_idx) + ndiag) // 2


# -- reference sweep: the factored operator one record at a time ------------
# The per-record actions of U = Q S and of D. Each acts in place on v, a
# vector or an (N, m) array of columns; rightmost factors act first.

def apply_u(rec: Record, v: np.ndarray) -> None:
    if not len(rec.rd):
        return
    t = v[rec.rd] - rec.coupling @ v[rec.sk]
    v[rec.rd] = solve_lt(rec.factor, t)
    if rec.interp is not None:
        v[rec.sk] -= rec.interp @ v[rec.rd]


def apply_ut(rec: Record, v: np.ndarray) -> None:
    if not len(rec.rd):
        return
    if rec.interp is not None:
        v[rec.rd] -= rec.interp.T @ v[rec.sk]
    t = solve_l(rec.factor, v[rec.rd])
    v[rec.sk] -= rec.coupling.T @ t
    v[rec.rd] = t


def apply_u_inv(rec: Record, v: np.ndarray) -> None:
    if not len(rec.rd):
        return
    if rec.interp is not None:
        v[rec.sk] += rec.interp @ v[rec.rd]
    v[rec.rd] = apply_lt(rec.factor, v[rec.rd]) + rec.coupling @ v[rec.sk]


def apply_u_inv_t(rec: Record, v: np.ndarray) -> None:
    if not len(rec.rd):
        return
    t = v[rec.rd]
    v[rec.sk] += rec.coupling.T @ t
    v[rec.rd] = apply_l(rec.factor, t)
    if rec.interp is not None:
        v[rec.rd] += rec.interp.T @ v[rec.sk]


def apply_d(rec: Record, v: np.ndarray) -> None:
    if len(rec.rd):
        v[rec.rd] = d_apply(rec.factor.d, v[rec.rd])


def solve_d(rec: Record, v: np.ndarray) -> None:
    if len(rec.rd):
        v[rec.rd] = d_solve(rec.factor.d, v[rec.rd])


def reference_apply(f, x: np.ndarray) -> np.ndarray:
    """A x through the factor's records one at a time (GeneralizedLDL.apply)."""
    v = np.array(x, dtype=float, copy=True)
    recs = f.records()
    for rec in recs:
        apply_u_inv(rec, v)
        apply_d(rec, v)
    v[f.top_idx] = block_apply(f.top, v[f.top_idx])
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
    v[f.top_idx] = block_solve(f.top, v[f.top_idx])
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


# -- reference factorization: the per-cell loop --------------------------------

def reference_factor(a, grid, algo: str, eps: float = 0.0, spd: bool = True,
                     skip_levels: int | None = None, verify: bool = False):
    """The factor of ``factor_<algo>`` built group by group with
    eliminate_cell and skeletonize_cell on the row-list matrix ``a``, over
    the same schedule: the per-cell loop the level steps must reproduce."""
    from hifde import driver
    from hifde.dense import FactorizationError, ldl

    if algo == "mf":
        schedule = driver._mf_schedule(grid)
    elif algo == "hifde":
        schedule = driver._hifde_schedule(grid, skip_levels or 0)
    else:
        schedule = driver._hifde3x_schedule(grid, 1 if skip_levels is None else skip_levels)
    state = DofState(a.n)
    levels = []
    for tag, cs, is_skel in schedule(a):
        if verify and not is_skel:
            assert_noninteracting(a, cs)
        records = []
        for i, members in enumerate(cs.cells):
            try:
                if is_skel:
                    records.append(skeletonize_cell(a, state, members, eps, tag, spd))
                else:
                    records.append(eliminate_cell(a, state, members, tag, spd))
            except FactorizationError as exc:
                exc.locate(tag, i, len(members))
                raise
        records.sort(key=lambda r: (len(r.rd), len(r.sk), r.interp is not None))
        levels.append(reference_level(tag, spd, records))
    s_top = np.flatnonzero(a.active)
    try:
        top = ldl(a.gather(s_top, s_top), spd)
    except FactorizationError as exc:
        exc.locate(None, None, len(s_top))
        raise
    f = driver.GeneralizedLDL(n=a.n, dim=grid.dim, spd=spd, eps=eps, levels=levels,
                              top_idx=s_top, top=top)
    f.check()
    return f


# -- reference packer: a level's flat arrays from its records ------------------

def _flat(parts: list, dtype) -> np.ndarray:
    """The arrays ``parts``, each raveled, joined into one of ``dtype``."""
    return np.concatenate(parts + [np.zeros(0, dtype)], axis=None, dtype=dtype)


def _pack(recs: list[Record], facs: list) -> dict:
    """The file layout of the records ``recs`` and the block factors
    ``facs``: for each flat array, its parts in order and its dtype."""
    return dict(
        rd_len=([np.array([len(r.rd) for r in recs], "<i8")], "<i8"),
        sk_len=([np.array([len(r.sk) for r in recs], "<i8")], "<i8"),
        has_interp=([np.array([r.interp is not None for r in recs], "?")], "?"),
        rd=([r.rd for r in recs], "<i8"), sk=([r.sk for r in recs], "<i8"),
        coupling=([r.coupling for r in recs], "<f8"),
        interp=([r.interp for r in recs if r.interp is not None], "<f8"),
        lower=([fac.lower for fac in facs], "<f8"),
        perm=([fac.perm for fac in facs], "<i8"),
        diag=([fac.d.diag for fac in facs], "<f8"),
        sub=([fac.d.subdiag() for fac in facs], "<f8"),
    )


def reference_level(tag: float, spd: bool, records: list):
    """The LevelFactor of ``records``, packed from the record objects."""
    from hifde import driver
    packed = _pack(records, [r.factor for r in records])
    return driver._level(tag, spd, {k: _flat(*v) for k, v in packed.items()})


def reference_save(f, path, levels: list | None = None) -> None:
    """Write ``f`` as a version-2 archive packed from record objects, the
    way factors were written when each level held its records: ``levels``
    gives each level's records in file order (default: ``lf.records``)."""
    import zipfile
    levels = [lf.records for lf in f.levels] if levels is None else levels
    recs = [rec for records in levels for rec in records]
    members = dict(
        version=2, n=f.n, dim=f.dim, spd=f.spd, eps=f.eps,
        level_tags=np.array([lf.level for lf in f.levels], "<f8"),
        level_sizes=np.array([len(records) for records in levels], "<i8"),
        top_idx=f.top_idx.astype("<i8"),
        **_pack(recs, [r.factor for r in recs] + [f.top]),
    )
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as zf:
        for key, value in members.items():
            with zf.open(f"{key}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, _flat(*value) if isinstance(value, tuple) else np.asanyarray(value),
                    allow_pickle=False)


def factor_digest(f) -> str:
    """sha256 over every record's rd, sk, coupling, interp, lower, perm,
    diag and sub (as int64 / float64 bytes, with the shapes), then
    ``top_idx`` and the top block's factor."""
    import hashlib
    h = hashlib.sha256()

    def put(x, dtype):
        x = np.ascontiguousarray(x, dtype=dtype)
        h.update(repr(x.shape).encode())
        h.update(x.tobytes())

    for lf in f.levels:
        h.update(repr(lf.level).encode())
        for rec in lf.records:
            fac = rec.factor
            put(rec.rd, np.int64)
            put(rec.sk, np.int64)
            put(rec.coupling, np.float64)
            put(np.zeros((0, 0)) if rec.interp is None else rec.interp, np.float64)
            h.update(b"I" if rec.interp is not None else b"-")
            put(fac.lower, np.float64)
            put(fac.perm, np.int64)
            put(fac.d.diag, np.float64)
            put(fac.d.subdiag(), np.float64)
    put(f.top_idx, np.int64)
    put(f.top.lower, np.float64)
    put(f.top.perm, np.int64)
    put(f.top.d.diag, np.float64)
    put(f.top.d.subdiag(), np.float64)
    return h.hexdigest()
