"""Dense factorization and compression kernels.

Everything here operates on stacks of small dense blocks extracted from
the sparse working matrix: symmetric LDL/Cholesky factorization
(``ldl_stack``), Schur complements (``schur_stack``), block-diagonal and
unit-lower-triangular solves (``d_stack``, ``solve_unit_lower``, one
block by trsm), the inverses of unit lower triangular blocks
(``invert_unit_lower_stack``), and the interpolative decomposition (ID)
built on a column-pivoted QR, with an exact screen
(``keeps_every_column``): for a stack of ID blocks of at most
SCREEN_MAX_COLS columns it proves, from a bound on their singular values,
which ones the ID would keep whole, so that the ID need not run on them.
Each block operation has this one implementation: a single block is a
stack of one (``ldl`` is ``ldl_stack`` on one block), and ``LdlFactor``
and ``BlockDiag`` only hold a factored block's arrays. Each result comes
in the form the factor stores: the ID's index sets ascending, D's
subdiagonal zero-padded to D's length. These are the only places the
package touches LAPACK.

The module also owns the BLAS thread policy. NumPy's matmul and SciPy's
trsm/LAPACK run on two separate OpenBLAS copies bundled with the wheels;
``blas_threads`` reads their thread counts and ``one_blas_thread`` pins
the libraries its caller names to one thread for a block of code, through
their own entry points (ctypes), and restores each one's previous count
on exit. The pin is process-wide and kept per library; blocks that
overlap in several threads share it. The factorization pins SciPy's copy
only (``driver._factor_threads``): its level steps make thousands of
small per-block LAPACK calls, whose second thread only contends with
NumPy's pool for the cores. NumPy's stacked matmuls keep the process's
count, because pinning them too changes the 3D factors' ranks. The
multi-column solves pin both libraries (``driver.GeneralizedLDL``).
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
from scipy.linalg.blas import dtrsm as _dtrsm
from scipy.linalg.lapack import dgeqp3 as _dgeqp3
from scipy.linalg.lapack import dpotrf as _dpotrf
from scipy.linalg.lapack import dsytrf as _dsytrf
from scipy.linalg.lapack import dsytrf_lwork as _dsytrf_lwork
from scipy.linalg.lapack import dtrtrs as _dtrtrs


def solve_unit_lower(tri: np.ndarray, b: np.ndarray, trans: bool) -> np.ndarray:
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
    """The process-wide pin of one_blas_thread, kept per library (by its
    position in ``_openblas()``): how many blocks hold each one and the
    count to restore when the last of them exits."""

    lock = threading.Lock()
    depth: dict = {}
    saved: dict = {}


_LIBRARIES = ("numpy", "scipy")


@contextmanager
def one_blas_thread(*names: str):
    """Run the block on one OpenBLAS thread in the libraries named ("numpy"
    for NumPy's matmul, "scipy" for SciPy's BLAS and LAPACK; every library
    found when none is named), process-wide, and restore each one's
    previous count on exit, also on an exception. A library with no
    OpenBLAS copy found is left alone; an unknown name raises ValueError.

    Blocks that overlap, in one thread or several, share each library's
    pin: the first one in saves its count and pins it, the last one out
    restores it."""
    unknown = set(names).difference(_LIBRARIES)
    if unknown:
        raise ValueError(f"unknown BLAS libraries {sorted(unknown)}; expected some of {_LIBRARIES}")
    libs = [(i, get, put) for i, (name, get, put) in enumerate(_openblas())
            if not names or name in names]
    with _Pin.lock:
        for i, get, put in libs:
            if not _Pin.depth.get(i):
                _Pin.saved[i] = get()
                put(1)
            _Pin.depth[i] = _Pin.depth.get(i, 0) + 1
    try:
        yield
    finally:
        with _Pin.lock:
            for i, _, put in libs:
                _Pin.depth[i] -= 1
                if not _Pin.depth[i]:
                    put(_Pin.saved.pop(i))


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
    "keeps_every_column",
    "SCREEN_MAX_COLS",
    "schur_stack",
    "d_stack",
    "solve_unit_lower",
    "invert_unit_lower_stack",
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
    ``diag`` and the subdiagonal ``sub`` zero-padded to its length, nonzero
    where rows i, i + 1 form a 2x2 pivot of Bunch-Kaufman pivoting. Both are
    held as given, not copied; a ``sub`` of another length raises ValueError."""

    def __init__(self, diag: np.ndarray, sub: np.ndarray):
        self.diag = np.asarray(diag, dtype=float)
        self.sub = np.asarray(sub, dtype=float)
        self.n = len(self.diag)
        if len(self.sub) != self.n:
            raise ValueError(f"sub has length {len(self.sub)}, diag {self.n}")

    def nfloats(self) -> int:
        return self.n + 3 * int(np.count_nonzero(self.sub))


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
                               BlockDiag(np.zeros(0), np.zeros(0)), np.arange(0))
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
    order. Each block is one LAPACK call (potrf in SPD mode, sytrf
    otherwise, unpacked as ``sla.ldl`` unpacks it: ``_unpack_sytrf``); the
    rest of the work, the singular-pivot checks included, is stacked.
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
        ldu, ipiv = np.empty((k, n, n)), np.empty((k, n), dtype=np.int64)
        # sla.ldl's workspace: sytrf's blocking, and so its rounding, depends on it
        lwork = int(_dsytrf_lwork(n, lower=1)[0])
        for j in range(k):
            ldu[j], ipiv[j], _ = _dsytrf(blocks[j], lwork=lwork, lower=1)
        lower, perm, diag, sub = _unpack_sytrf(ldu, ipiv)
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


def _unpack_sytrf(ldu: np.ndarray, ipiv: np.ndarray):
    """L[p], p, D's diagonal and subdiagonal (zero-padded) of a stack of
    sytrf (lower) outputs ``ldu`` (k, n, n), ``ipiv`` (k, n), as ``sla.ldl``
    unpacks each: a 2x2 pivot has a negative ipiv in both rows, and the row
    interchanges are undone in reverse row order, here over all blocks at
    once at each row where one interchanges."""
    k, n = ipiv.shape
    rows = np.arange(n)
    # the negative runs pair up from their starts: each 2x2 pivot's block and first row
    neg = np.flatnonzero(np.c_[ipiv < 0, np.zeros(k, dtype=bool)])
    run = np.maximum.accumulate(np.where(np.diff(neg, prepend=-2) != 1, neg, 0))
    g, i = np.divmod(neg[(neg - run) % 2 == 0], n + 1)
    lu, sub, swap = np.tril(ldu, -1), np.zeros((k, n)), np.where(ipiv > 0, ipiv - 1, rows)
    lu[:, rows, rows] = 1.0
    sub[g, i], lu[g, i + 1, i], swap[g, i + 1] = ldu[g, i + 1, i], 0.0, -ipiv[g, i] - 1
    col, order = np.tile(rows, (k, 1)), np.tile(rows, (k, 1))
    col[g, i + 1] -= 1      # a 2x2 pivot's rows swap from its first column on
    for r in np.flatnonzero((swap != rows).any(axis=0))[::-1].tolist():
        b = np.flatnonzero(swap[:, r] != r)
        s, left, x = swap[b, r], rows < col[b, r, None], lu[b, r]
        lu[b, r], lu[b, s] = np.where(left, x, lu[b, s]), np.where(left, lu[b, s], x)
        order[b, r], order[b, s] = order[b, s], order[b, r]
    p = np.argsort(order, axis=1)
    return np.take_along_axis(lu, p[:, :, None], 1), p, ldu[:, rows, rows], sub


@dataclass
class IdResult:
    """Interpolative decomposition of the columns of a dense matrix.

    ``sk`` and ``rd`` are disjoint 0-based column index arrays partitioning
    range(n), each ascending, the form a factor stores them in; ``t`` has
    shape (k, n - k), rows in ``sk`` order and columns in ``rd`` order, and
    satisfies M[:, rd] ~= M[:, sk] @ t. ``resid`` is the relative magnitude
    of the first rejected pivot (0 when the cut is exact).
    """

    sk: np.ndarray
    rd: np.ndarray
    t: np.ndarray
    k: int
    resid: float


@lru_cache(maxsize=1024)
def _geqp3_lwork(n: int) -> int:
    """geqp3's optimal workspace for a block of n >= 1 columns and any
    number m >= 1 of rows, from a workspace query, as scipy.linalg.qr sizes
    it (geqp3's blocking, and so its rounding, depends on the workspace).
    LAPACK sizes it as 2n + (n + 1)·nb, with nb from ilaenv for geqrf,
    which does not depend on m, so a 1-row block is queried: f2py copies
    the queried block to Fortran order, and an m x n one costs m times
    more for the same answer."""
    return int(_dgeqp3(np.zeros((1, n)), lwork=-1)[3][0])


def interpolative_decomposition(m: np.ndarray, eps: float) -> IdResult:
    """Column ID at relative precision ``eps`` via column-pivoted QR.

    The rank is the first index at which the pivot magnitude |R_kk| drops
    to eps * |R_11| (k = 0 for a zero matrix). eps = 0 selects the numerical
    exact rank, with the cutoff at max(m, n) machine epsilons. ``sk`` and
    ``rd`` come ascending, sorted only when the rank is below n.

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
    r, piv, _, _, _ = _dgeqp3(m, lwork=_geqp3_lwork(ncols))
    piv -= 1
    rdiag = np.abs(np.diag(r))
    r11 = rdiag[0]
    if eps > 0.0:
        thr = eps * r11
    else:
        thr = max(m.shape) * np.finfo(float).eps * r11
    below = np.nonzero(rdiag <= thr)[0]
    k = int(below[0]) if below.size else rdiag.size
    if k == ncols:
        return IdResult(np.arange(ncols), np.arange(0), np.empty((k, 0)), k, 0.0)
    if k == 0:
        t = np.zeros((0, ncols))
    else:
        t = _dtrtrs(r[:k, :k].T, r[:k, k:], lower=1, trans=1)[0]
    resid = float(rdiag[k] / r11) if k < rdiag.size else 0.0
    sk_ord, rd_ord = np.argsort(piv[:k]), np.argsort(piv[k:])
    return IdResult(piv[:k][sk_ord], piv[k:][rd_ord], t[np.ix_(sk_ord, rd_ord)], k, resid)


# The most columns of an ID block that keeps_every_column screens. Wider
# blocks are the large fronts, which mostly compress: there the screen's
# cost would come on top of the ID it cannot spare.
SCREEN_MAX_COLS = 12


def keeps_every_column(blocks: np.ndarray, eps: float) -> np.ndarray:
    """For each block M of a stack (k, m, n), whether it is proven that
    ``interpolative_decomposition(M, eps)`` keeps every column, and so
    returns its fixed full-rank result: ``sk = arange(n)``, an empty ``rd``,
    an (n, 0) ``t``, ``k = n`` and ``resid = 0``.

    The proof: with singular values s_1 >= ... >= s_n, the ID's first pivot
    |R_11|, the largest column norm, is at most s_1, and every later |R_jj|,
    the distance of a column from the span of the columns pivoted before
    it, is at least s_n. So if s_n > c s_1, where c is the ID's cutoff ratio
    (eps, or max(m, n) u at eps = 0, u the machine epsilon), no pivot falls
    to the cutoff. The screen asks s_n > tau s_1 with tau = 2 max(eps,
    max(m, n) u) + 100 max(m, n) u, whose margin covers the rounding of
    geqp3 (of order n max(m, n) u s_1 at worst) for the at most
    SCREEN_MAX_COLS columns screened.

    The test runs on the Gram matrix G = M^T M, whose trace ||M||_F^2 is
    at least s_1^2: a Cholesky factorization of G - (tau^2 + rho) tr(G) I,
    with rho = 100 (m + n) u, stacked (one column of every block per step),
    that completes proves s_n^2 > tau^2 s_1^2. Its own rounding, (n + 1) u
    tr(G), and that of forming G, m u tr(G), are within rho. It costs a
    fraction of an SVD of the stack. Blocks with s_n / ||M||_F between tau
    and sqrt(tau^2 + rho) are not proven and go to the ID (sqrt(rho) is
    1e-6 for m + n = 45).

    Zero rows change neither G nor the singular values; they only raise m,
    and so tau and rho, which makes the test stricter: blocks of one width
    may be zero-padded to one row count and screened as one stack. Blocks
    with fewer rows than columns, none, or more than SCREEN_MAX_COLS columns
    never pass.
    """
    k, m, n = blocks.shape
    if not 0 < n <= min(m, SCREEN_MAX_COLS):
        return np.zeros(k, dtype=bool)
    u, big = np.finfo(float).eps, max(m, n)
    tau = 2.0 * max(eps, big * u) + 100.0 * big * u
    h = blocks.transpose(0, 2, 1) @ blocks
    shift = (tau * tau + 100.0 * (m + n) * u) * np.trace(h, axis1=1, axis2=2)
    h[:, np.arange(n), np.arange(n)] -= shift[:, None]
    # left-looking: column j of L from the columns before it, in the lower
    # triangle of h; a block that fails keeps zero columns from there on
    ok = np.ones(k, dtype=bool)
    for j in range(n):
        col = h[:, j:, j] - (h[:, j:, :j] @ h[:, j, :j, None])[:, :, 0]
        ok &= col[:, 0] > 0.0
        r = np.sqrt(np.where(ok, col[:, 0], 1.0))
        h[:, j:, j] = np.where(ok[:, None], col / r[:, None], 0.0)
    return ok


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
            yt[j] = solve_unit_lower(lower[j], a_qp[j].T[perm[j]], trans=False).T
    # each block of x is Fortran-ordered (elementwise results keep the
    # layout of the transposed yt), so the matmul makes the BLAS calls of
    # the per-block product y.T @ x and rounds the same
    x = d_stack(diag, sub, np.nonzero(sub), yt.transpose(0, 2, 1), inverse=True)
    return x, yt @ x


def invert_unit_lower_stack(lower: np.ndarray) -> np.ndarray:
    """W = L^{-1} for each block of a stack of unit lower triangular
    ``lower`` (k, r, r): substitution on the identity across the stack, r - 1
    NumPy steps whatever k is, one row at a time as a stacked dot product.
    Row i of W is -L[i, :i] W[:i, :i] left of the diagonal, so W is unit
    lower triangular exactly: ones on the diagonal, zeros above it.
    """
    k, r = lower.shape[:2]
    w = np.zeros((k, r, r))
    w[:, np.arange(r), np.arange(r)] = 1.0
    for i in range(1, r):
        w[:, i, :i] = -(lower[:, i, None, :i] @ w[:, :i, :i])[:, 0]
    return w
