"""Dense factorization and compression kernels.

Everything here operates on small dense blocks extracted from the sparse
working matrix, or on stacks of them: symmetric LDL/Cholesky
factorization, triangular solves, Schur complements, and the
interpolative decomposition (ID) built on a column-pivoted QR. These are
the only places the package touches LAPACK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg.blas import dtrsm as _dtrsm


def _solve_unit_lower(tri: np.ndarray, b: np.ndarray, trans: bool) -> np.ndarray:
    """Unit-lower-triangular solve via BLAS trsm (thin wrapper, low overhead).

    A C-ordered L is handed to BLAS as the Fortran-ordered upper triangle
    L^T, with the transpose flag flipped: passing L itself would copy it to
    Fortran order on every call."""
    vec = b.ndim == 1
    rhs = b[:, None] if vec else b
    out = _dtrsm(1.0, tri.T, rhs, side=0, lower=0, trans_a=0 if trans else 1, diag=1)
    return out[:, 0] if vec else out


__all__ = [
    "FactorizationError",
    "IndefiniteBlockError",
    "SingularBlockError",
    "BlockDiag",
    "LdlFactor",
    "IdResult",
    "ldl",
    "interpolative_decomposition",
    "schur_complement",
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
    """Block-diagonal matrix with 1x1 and 2x2 blocks.

    Built from the diagonal and the subdiagonal, which is nonzero only at
    the first row of each 2x2 pivot block produced by Bunch-Kaufman
    pivoting. Supports apply and solve on vectors or matrices without
    densifying.
    """

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

    def apply(self, b: np.ndarray) -> np.ndarray:
        out = (self.diag * b.T).T if b.ndim == 2 else self.diag * b
        for i, a, c, d in self.pairs:
            bi, bj = b[i].copy(), b[i + 1].copy()
            out[i] = a * bi + c * bj
            out[i + 1] = c * bi + d * bj
        return out

    def solve(self, b: np.ndarray) -> np.ndarray:
        out = (b.T / self.diag).T if b.ndim == 2 else b / self.diag
        for i, a, c, d in self.pairs:
            det = a * d - c * c
            bi, bj = b[i], b[i + 1]
            out[i] = (d * bi - c * bj) / det
            out[i + 1] = (a * bj - c * bi) / det
        return out

    def check_nonsingular(self, scale: float) -> None:
        thr = SINGULAR_PIVOT_RTOL * max(scale, 1e-300)
        mask = np.ones(self.n, dtype=bool)
        for i, a, c, d in self.pairs:
            mask[i] = mask[i + 1] = False
            # smallest singular value of the symmetric 2x2 pivot
            t = 0.5 * (a + d)
            r = np.hypot(0.5 * (a - d), c)
            if min(abs(t - r), abs(t + r)) <= thr:
                raise SingularBlockError("singular 2x2 pivot block")
        if mask.any() and np.min(np.abs(self.diag[mask])) <= thr:
            raise SingularBlockError("singular pivot")

    def nfloats(self) -> int:
        return self.n + 3 * len(self.pairs)


@dataclass
class LdlFactor:
    """Factored form P A P^T = L D L^T with L unit lower triangular.

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

    # P^T L and L^T P act in factored coordinates; the permutation is internal.
    def solve_l(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if self.n == 0 or b.size == 0:
            return b.copy()
        return _solve_unit_lower(self.lower, b[self.perm], trans=False)

    def solve_lt(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if self.n == 0 or b.size == 0:
            return b.copy()
        y = _solve_unit_lower(self.lower, b, trans=True)
        out = np.empty_like(y)
        out[self.perm] = y
        return out

    def apply_l(self, b: np.ndarray) -> np.ndarray:
        y = self.lower @ b
        out = np.empty_like(y)
        out[self.perm] = y
        return out

    def apply_lt(self, b: np.ndarray) -> np.ndarray:
        return self.lower.T @ b[self.perm]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """A^{-1} b via L, D, L^T solves."""
        return self.solve_lt(self.d.solve(self.solve_l(b)))

    def apply(self, b: np.ndarray) -> np.ndarray:
        """A b from the factored form."""
        return self.apply_l(self.d.apply(self.apply_lt(b)))

    def nfloats(self) -> int:
        return self.lower.size + self.d.nfloats()


# The factor of a 0x0 block in each mode (keyed by spd_mode), shared by every
# record that eliminates nothing.
EMPTY_FACTOR = {spd: LdlFactor("cholesky" if spd else "ldl", np.zeros((0, 0)),
                               BlockDiag(np.zeros(0)), np.arange(0))
                for spd in (True, False)}


def ldl(block: np.ndarray, spd_mode: bool) -> LdlFactor:
    """Factor a symmetric block as L D L^T.

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
    fac.d.check_nonsingular(scale)
    return fac


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


def interpolative_decomposition(m: np.ndarray, eps: float) -> IdResult:
    """Column ID at relative precision ``eps`` via column-pivoted QR.

    The rank is the first index at which the pivot magnitude |R_kk| drops
    to eps * |R_11| (k = 0 for a zero matrix). eps = 0 selects the numerical
    exact rank, with the cutoff at max(m, n) machine epsilons.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("expected a 2-d array")
    ncols = m.shape[1]
    if m.size == 0 or not np.any(m):
        return IdResult(np.arange(0), np.arange(ncols), np.zeros((0, ncols)), 0, 0.0)
    _, r, piv = sla.qr(m, mode="economic", pivoting=True, check_finite=False)
    rdiag = np.abs(np.diag(r))
    r11 = rdiag[0]
    if eps > 0.0:
        thr = eps * r11
    else:
        thr = max(m.shape) * np.finfo(float).eps * r11
    below = np.nonzero(rdiag <= thr)[0]
    k = int(below[0]) if below.size else rdiag.size
    t = sla.solve_triangular(r[:k, :k], r[:k, k:], lower=False, check_finite=False) \
        if k else np.zeros((0, ncols))
    resid = float(rdiag[k] / r11) if k < rdiag.size else 0.0
    return IdResult(piv[:k].copy(), piv[k:].copy(), t, k, resid)


def schur_complement(a_qq: np.ndarray, a_qp: np.ndarray,
                     ldl_pp: LdlFactor) -> tuple[np.ndarray, np.ndarray]:
    """Coupling X = D^{-1} L^{-1} A_qp^T and the Schur complement
    B = A_qq - A_qp A_pp^{-1} A_qp^T, using two triangular solves.

    B is explicitly symmetrized to suppress rounding asymmetry.
    """
    y = ldl_pp.solve_l(np.asarray(a_qp, float).T)
    x = ldl_pp.d.solve(y)
    b = np.asarray(a_qq, float) - y.T @ x
    return x, 0.5 * (b + b.T)


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
