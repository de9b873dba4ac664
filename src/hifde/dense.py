"""Dense factorization and compression kernels.

Everything here operates on stacks of small dense blocks extracted from
the sparse working matrix: symmetric LDL/Cholesky factorization
(``ldl_stack``), Schur complements (``schur_stack``), block-diagonal and
unit-lower-triangular solves (``d_stack``, ``solve_unit_lower_stack``),
and the interpolative decomposition (ID) built on a column-pivoted QR.
Each block operation has this one implementation: a single block is a
stack of one (``ldl`` is ``ldl_stack`` on one block), and ``LdlFactor``
and ``BlockDiag`` only hold a factored block's arrays. These are the only
places the package touches LAPACK.

The module also owns the BLAS thread policy. NumPy's matmul and SciPy's
trsm/LAPACK run on two separate OpenBLAS copies bundled with the wheels;
``blas_threads`` reads their thread counts and ``one_blas_thread`` pins
both to one thread for a block of code, through their own entry points
(ctypes), and restores the previous counts on exit. The pin is
process-wide; blocks that overlap in several threads share it. The
factorization runs on the process's thread count, because every level
kernel (the ID, potrf/sytrf, trsm, matmul) rounds differently with it, so
the factor's bits depend on it; only the multi-column solves are pinned
(``driver.GeneralizedLDL``).
"""

from __future__ import annotations

import ctypes
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg as sla
from scipy.linalg.blas import dtrsm as _dtrsm
from scipy.linalg.lapack import dgeqp3 as _dgeqp3
from scipy.linalg.lapack import dpotrf as _dpotrf
from scipy.linalg.lapack import dtrtrs as _dtrtrs


def _solve_unit_lower(tri: np.ndarray, b: np.ndarray, trans: bool) -> np.ndarray:
    """Unit-lower-triangular solve via BLAS trsm (thin wrapper, low overhead).

    A C-ordered L is handed to BLAS as the Fortran-ordered upper triangle
    L^T, with the transpose flag flipped: passing L itself would copy it to
    Fortran order on every call."""
    vec = b.ndim == 1
    rhs = b[:, None] if vec else b
    out = _dtrsm(1.0, tri.T, rhs, side=0, lower=0, trans_a=0 if trans else 1, diag=1)
    return out[:, 0] if vec else out


@lru_cache(maxsize=1)
def _openblas() -> tuple:
    """(package, get, set): the thread-count entry points of each OpenBLAS
    copy bundled with NumPy (its matmul) and SciPy (its BLAS and LAPACK),
    found as ``<package>.libs/*openblas*``; empty when there is none."""
    found = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for suffix in ("64_", ""):
                get = getattr(handle, f"scipy_openblas_get_num_threads{suffix}", None)
                put = getattr(handle, f"scipy_openblas_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    found.append((pkg.__name__, get, put))
                    break
    return tuple(found)


def blas_threads() -> dict | None:
    """The OpenBLAS thread count in effect per library, as
    {"numpy": k, "scipy": k}, or None when no OpenBLAS copy is found."""
    libs = _openblas()
    return {name: get() for name, get, _ in libs} if libs else None


class _Pin:
    """The process-wide pin of one_blas_thread: how many blocks hold it and
    the counts to restore when the last of them exits."""

    lock = threading.Lock()
    depth = 0
    saved: list = []


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread in every library found,
    process-wide, and restore each library's previous count on exit, also
    on an exception. Does nothing when no OpenBLAS copy is found.

    Blocks that overlap, in one thread or several, share the pin: the
    first one in saves the counts and pins, the last one out restores."""
    libs = _openblas()
    with _Pin.lock:
        if not _Pin.depth:
            _Pin.saved = [get() for _, get, _ in libs]
            for _, _, put in libs:
                put(1)
        _Pin.depth += 1
    try:
        yield
    finally:
        with _Pin.lock:
            _Pin.depth -= 1
            if not _Pin.depth:
                for (_, _, put), k in zip(libs, _Pin.saved):
                    put(k)


__all__ = [
    "blas_threads",
    "one_blas_thread",
    "FactorizationError",
    "IndefiniteBlockError",
    "SingularBlockError",
    "BlockDiag",
    "LdlFactor",
    "IdResult",
    "ldl",
    "ldl_stack",
    "interpolative_decomposition",
    "schur_stack",
    "d_stack",
    "solve_unit_lower_stack",
]

# Relative pivot threshold below which a diagonal block is reported singular.
SINGULAR_PIVOT_RTOL = 1e-14


class FactorizationError(Exception):
    """Base class for factorization failures.

    The driver that hits one names where: ``level`` (the level tag, None
    for the top block), ``group`` (the group's index within its level) and
    ``block_size`` (the group's DOF count), also appended to the message.
    """

    level: float | None = None
    group: int | None = None
    block_size: int | None = None

    def locate(self, level: float | None, group: int | None, block_size: int) -> None:
        self.level, self.group, self.block_size = level, group, block_size
        where = "top block" if level is None else f"level {level:.4g}, group {group}"
        msg = self.args[0] if self.args else ""
        self.args = (f"{msg} ({where}, {block_size} DOFs)", *self.args[1:])


class IndefiniteBlockError(FactorizationError):
    """Cholesky requested on a block that is not positive definite."""


class SingularBlockError(FactorizationError):
    """A pivot fell below the singularity threshold."""


class BlockDiag:
    """Block-diagonal matrix with 1x1 and 2x2 blocks, as data: the diagonal
    and the 2x2 pivots, where the subdiagonal ``sub`` is nonzero (the first
    row of each 2x2 pivot block of Bunch-Kaufman pivoting)."""

    def __init__(self, diag: np.ndarray, sub=()):
        self.n = len(diag)
        self.diag = np.asarray(diag, dtype=float)
        self.pairs = [(int(i), self.diag[i], sub[i], self.diag[i + 1])
                      for i in np.nonzero(sub)[0]]

    def subdiag(self) -> np.ndarray:
        """The subdiagonal, padded with a zero to length n."""
        out = np.zeros(self.n)
        for i, _, c, _ in self.pairs:
            out[i] = c
        return out

    def nfloats(self) -> int:
        return self.n + 3 * len(self.pairs)


@dataclass
class LdlFactor:
    """Factored form P A P^T = L D L^T with L unit lower triangular, as
    data; the solve plan applies it (``driver.Group``).

    ``mode`` is "cholesky" (SPD path, no pivoting, positive 1x1 D) or "ldl"
    (Bunch-Kaufman partial pivoting, 1x1/2x2 pivot blocks). ``perm`` is the
    row order of P (``(P b) = b[perm]``), the identity for Cholesky.
    """

    mode: str
    lower: np.ndarray
    d: BlockDiag
    perm: np.ndarray

    def __post_init__(self):
        # fixed memory layout so applies are bit-reproducible across
        # construction and reload
        self.lower = np.ascontiguousarray(self.lower)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def nfloats(self) -> int:
        return self.lower.size + self.d.nfloats()


# The factor of a 0x0 block in each mode (keyed by spd_mode), shared by every
# record that eliminates nothing.
EMPTY_FACTOR = {spd: LdlFactor("cholesky" if spd else "ldl", np.zeros((0, 0)),
                               BlockDiag(np.zeros(0)), np.arange(0))
                for spd in (True, False)}


def ldl(block: np.ndarray, spd_mode: bool) -> LdlFactor:
    """Factor a symmetric block as L D L^T: ``ldl_stack`` on a stack of one,
    raising its failure.

    In SPD mode a Cholesky factorization is used and normalized to unit
    diagonal (failure raises IndefiniteBlockError); otherwise Bunch-Kaufman
    partial pivoting with 1x1/2x2 pivots. Pivots below SINGULAR_PIVOT_RTOL
    times the diagonal scale raise SingularBlockError.
    """
    block = np.asarray(block, dtype=float)
    n = block.shape[0]
    if block.ndim != 2 or block.shape[1] != n:
        raise ValueError("block must be square")
    if n == 0:
        return EMPTY_FACTOR[spd_mode]
    lower, perm, diag, sub, failures = ldl_stack(block[None], spd_mode)
    if failures:
        raise failures[0][1]
    return LdlFactor("cholesky" if spd_mode else "ldl", lower[0], BlockDiag(diag[0], sub[0]),
                     perm[0])


def ldl_stack(blocks: np.ndarray, spd_mode: bool):
    """Factor each block of a stack (k, n, n), n >= 1, as L D L^T.

    Returns the stacked factors ``lower`` (k, n, n), ``perm`` (k, n) and
    ``diag``, ``sub`` (k, n) (sub zero-padded), and the failures: the
    (index, FactorizationError) pairs of the blocks refused, in block
    order. Each block is one LAPACK call (potrf in SPD mode, sytrf through
    ``sla.ldl`` otherwise); the rest of the work, the singular-pivot checks
    included, is stacked.
    """
    k, n = blocks.shape[:2]
    failures = []
    if spd_mode:
        c = np.empty((k, n, n))
        for j in range(k):
            cj, info = _dpotrf(blocks[j], lower=1, clean=1)
            if info > 0:
                # sla.cholesky's message
                failures.append((j, IndefiniteBlockError(
                    f"{info}-th leading minor of the array is not positive definite")))
                cj = np.eye(n)
            c[j] = cj
        dc = np.diagonal(c, axis1=1, axis2=2).copy()
        lower = c * (1.0 / dc)[:, None, :]
        diag, sub, perm = dc * dc, np.zeros((k, n)), np.tile(np.arange(n), (k, 1))
    else:
        lower, diag, sub = np.empty((k, n, n)), np.empty((k, n)), np.zeros((k, n))
        perm = np.empty((k, n), dtype=np.int64)
        for j in range(k):
            lu, dd, p = sla.ldl(blocks[j], lower=True, check_finite=False)
            lower[j], perm[j], diag[j] = lu[p], p, np.diagonal(dd)
            sub[j, :-1] = np.diagonal(dd, -1)
    scale = np.abs(np.diagonal(blocks, axis1=1, axis2=2)).max(axis=1)
    zero = scale == 0.0
    if zero.any():
        scale[zero] = np.abs(blocks[zero]).max(axis=(1, 2))
    thr = SINGULAR_PIVOT_RTOL * np.maximum(scale, 1e-300)
    # a 2x2 pivot is singular when its smallest singular value is; a block
    # with a singular 2x2 pivot is reported so before a singular 1x1 pivot
    g, i = np.nonzero(sub)
    a, s, d = diag[g, i], sub[g, i], diag[g, i + 1]
    t, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), s)
    lo, hi = np.abs(t - r), np.abs(t + r)
    bad2 = np.zeros(k, dtype=bool)
    bad2[g[np.where(hi < lo, hi, lo) <= thr[g]]] = True
    one = np.abs(diag)
    one[g, i] = one[g, i + 1] = np.inf
    failed = {j for j, _ in failures}
    failures += [(j, SingularBlockError("singular 2x2 pivot block" if bad2[j] else "singular pivot"))
                 for j in np.flatnonzero(bad2 | (one.min(axis=1) <= thr)).tolist()
                 if j not in failed]
    failures.sort(key=lambda f: f[0])
    return lower, perm, diag, sub, failures


@dataclass
class IdResult:
    """Interpolative decomposition of the columns of a dense matrix.

    ``sk`` and ``rd`` are disjoint 0-based column index arrays partitioning
    range(n); ``t`` has shape (k, n - k) and satisfies
    M[:, rd] ~= M[:, sk] @ t. ``resid`` is the relative magnitude of the
    first rejected pivot (0 when the cut is exact).
    """

    sk: np.ndarray
    rd: np.ndarray
    t: np.ndarray
    k: int
    resid: float


@lru_cache(maxsize=1024)
def _geqp3_lwork(m: int, n: int) -> int:
    """geqp3's optimal workspace for an m x n block, from a workspace query,
    as scipy.linalg.qr sizes it (geqp3's blocking, and so its rounding,
    depends on the workspace)."""
    return int(_dgeqp3(np.zeros((m, n)), lwork=-1)[3][0])


def interpolative_decomposition(m: np.ndarray, eps: float) -> IdResult:
    """Column ID at relative precision ``eps`` via column-pivoted QR.

    The rank is the first index at which the pivot magnitude |R_kk| drops
    to eps * |R_11| (k = 0 for a zero matrix). eps = 0 selects the numerical
    exact rank, with the cutoff at max(m, n) machine epsilons.

    LAPACK is called directly: geqp3 for the pivoted QR (Q is never formed)
    and trtrs for T = R_11^{-1} R_12, handed R_11 the way scipy's
    solve_triangular hands it a C-ordered R (transposed, with the lower and
    trans flags set), so the result is bit-identical to the
    ``sla.qr``/``sla.solve_triangular`` formulation.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    ncols = m.shape[1]
    if m.size == 0 or not np.any(m):
        return IdResult(np.arange(0), np.arange(ncols), np.zeros((0, ncols)), 0, 0.0)
    r, piv, _, _, _ = _dgeqp3(m, lwork=_geqp3_lwork(*m.shape))
    piv -= 1
    rdiag = np.abs(np.diag(r))
    r11 = rdiag[0]
    if eps > 0.0:
        thr = eps * r11
    else:
        thr = max(m.shape) * np.finfo(float).eps * r11
    below = np.nonzero(rdiag <= thr)[0]
    k = int(below[0]) if below.size else rdiag.size
    if k == 0:
        t = np.zeros((0, ncols))
    elif k == ncols:
        t = np.empty((k, 0))
    elif k == 1:
        t = _dtrtrs(r[:1, :1], r[:1, 1:])[0]
    else:
        t = _dtrtrs(r[:k, :k].T, r[:k, k:], lower=1, trans=1)[0]
    resid = float(rdiag[k] / r11) if k < rdiag.size else 0.0
    return IdResult(piv[:k].copy(), piv[k:].copy(), t, k, resid)


def d_stack(diag: np.ndarray, sub: np.ndarray, pairs, t: np.ndarray,
            inverse: bool) -> np.ndarray:
    """D t, or D^{-1} t, for a stack of block diagonals D given by ``diag``
    and ``sub`` (k, r) and t (k, r, m); ``pairs`` = np.nonzero(sub) locates
    the 2x2 pivots."""
    g, i = pairs
    div = diag
    if inverse and len(g):
        # the rows of the 2x2 pivots are set below; their diagonal may be 0
        div = diag.copy()
        div[g, i] = div[g, i + 1] = 1.0
    out = t / div[:, :, None] if inverse else t * diag[:, :, None]
    if len(g):
        a, c, d = diag[g, i, None], sub[g, i, None], diag[g, i + 1, None]
        ti, tj = t[g, i], t[g, i + 1]
        if inverse:
            det = a * d - c * c
            out[g, i], out[g, i + 1] = (d * ti - c * tj) / det, (a * tj - c * ti) / det
        else:
            out[g, i], out[g, i + 1] = a * ti + c * tj, c * ti + d * tj
    return out


def schur_stack(a_qp: np.ndarray, lower: np.ndarray, perm: np.ndarray,
                diag: np.ndarray, sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coupling X = D^{-1} L^{-1} P A_qp^T and the Schur update of each
    block of a stack, given the factors of ldl_stack and A_qp (k, q, p):
    returns X (k, p, q) and U = Y^T X (k, q, q), where Y = L^{-1} P A_qp^T
    (one trsm per block) and X = D^{-1} Y. The Schur complement
    A_qq - A_qp A_pp^{-1} A_qp^T is A_qq - U, symmetrized.
    """
    k, q, p = a_qp.shape
    yt = np.empty((k, q, p))
    if q:
        for j in range(k):
            yt[j] = _solve_unit_lower(lower[j], a_qp[j].T[perm[j]], trans=False).T
    # each block of x is Fortran-ordered (elementwise results keep the
    # layout of the transposed yt), so the matmul makes the BLAS calls of
    # the per-block product y.T @ x and rounds the same
    x = d_stack(diag, sub, np.nonzero(sub), yt.transpose(0, 2, 1), inverse=True)
    return x, yt @ x


def solve_unit_lower_stack(lower: np.ndarray, b: np.ndarray, trans: bool) -> np.ndarray:
    """Solve L y = b (L^T y = b when ``trans``) for each block of a stack of
    unit lower triangular ``lower`` (k, r, r) and right-hand sides ``b``
    (k, r, m). ``b`` may be overwritten.

    Substitution across the stack takes r - 1 NumPy steps whatever k is;
    one trsm per block takes k calls. So a stack of many small blocks
    (r <= k) is solved by substitution, one row at a time as a stacked dot
    product (measured faster than the column-oriented form), and a stack of
    a few large blocks by trsm.
    """
    k, r = lower.shape[:2]
    if r > k:
        return np.stack([_solve_unit_lower(tri, y, trans) for tri, y in zip(lower, b)])
    if trans:
        for i in range(r - 2, -1, -1):
            b[:, i] -= (lower[:, None, i + 1:, i] @ b[:, i + 1:])[:, 0]
    else:
        for i in range(1, r):
            b[:, i] -= (lower[:, i, None, :i] @ b[:, :i])[:, 0]
    return b
