"""Per-cell elimination and skeletonization of the working matrix.

Both operations mutate the matrix in place and return a record holding the
operators needed to replay (or invert) the transformation:

* eliminate_cell factors the principal block of a buffered cell, pushes its
  Schur complement onto the neighbor block, and retires the cell.
* skeletonize_cell compresses a group's external interactions with an ID,
  applies the corresponding congruence locally, truncates the residual
  coupling of the redundant DOFs, and eliminates them against the skeletons.

Both end in the same elimination step (``_eliminate``): factor the pivot
block, replace the neighbor block by its Schur complement, retire the
pivot DOFs.

Interactions outside the touched cell and its neighbor set are never read
or written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dense import LdlFactor, interpolative_decomposition, ldl, schur_complement
from .sparse import DofState, SparseSymMatrix

__all__ = ["EliminationRecord", "SkeletonRecord", "eliminate_cell", "skeletonize_cell"]


@dataclass
class EliminationRecord:
    """One application of the elimination operator S over (cell, nbrs).

    ``coupling`` is X = D^{-1} L^{-1} A_{qp}^T with shape (|cell|, |nbrs|),
    so S = [[L^{-T}, -L^{-T} X], [0, I]] in (cell, nbrs) coordinates.
    """

    cell: np.ndarray
    nbrs: np.ndarray
    factor: LdlFactor
    coupling: np.ndarray

    def __post_init__(self):
        self.coupling = np.ascontiguousarray(self.coupling)

    # The four unit-triangular actions of S (U = S for a plain elimination,
    # so the names match SkeletonRecord's) and the middle D block. All
    # operate in place on a full-length vector (or matrix of columns).
    def apply_u(self, v: np.ndarray) -> None:
        t = v[self.cell]
        if len(self.nbrs):
            t = t - self.coupling @ v[self.nbrs]
        v[self.cell] = self.factor.solve_lt(t)

    def apply_ut(self, v: np.ndarray) -> None:
        t = self.factor.solve_l(v[self.cell])
        if len(self.nbrs):
            v[self.nbrs] -= self.coupling.T @ t
        v[self.cell] = t

    def apply_u_inv(self, v: np.ndarray) -> None:
        t = self.factor.apply_lt(v[self.cell])
        if len(self.nbrs):
            t = t + self.coupling @ v[self.nbrs]
        v[self.cell] = t

    def apply_u_inv_t(self, v: np.ndarray) -> None:
        t = v[self.cell]
        if len(self.nbrs):
            v[self.nbrs] += self.coupling.T @ t
        v[self.cell] = self.factor.apply_l(t)

    def apply_d(self, v: np.ndarray) -> None:
        v[self.cell] = self.factor.apply_d(v[self.cell])

    def solve_d(self, v: np.ndarray) -> None:
        v[self.cell] = self.factor.solve_d(v[self.cell])

    def nfloats(self) -> int:
        return self.factor.nfloats() + self.coupling.size

    def eliminated(self) -> np.ndarray:
        return self.cell


@dataclass
class SkeletonRecord:
    """ID-based sparsification of one group followed by elimination of its
    redundant half. ``interp`` maps skeleton to redundant columns
    (shape (k, |rd|)); ``elim`` is the inner elimination of rd against sk
    and is None when the ID found no redundancy."""

    cell: np.ndarray
    sk: np.ndarray
    rd: np.ndarray
    interp: np.ndarray
    elim: Optional[EliminationRecord]

    def __post_init__(self):
        self.interp = np.ascontiguousarray(self.interp)

    # U = Q S with Q the interpolation congruence and S the inner
    # elimination; rightmost factors act first.
    def apply_u(self, v: np.ndarray) -> None:
        if self.elim is not None:
            self.elim.apply_u(v)
            v[self.sk] -= self.interp @ v[self.rd]

    def apply_ut(self, v: np.ndarray) -> None:
        if self.elim is not None:
            v[self.rd] -= self.interp.T @ v[self.sk]
            self.elim.apply_ut(v)

    def apply_u_inv(self, v: np.ndarray) -> None:
        if self.elim is not None:
            v[self.sk] += self.interp @ v[self.rd]
            self.elim.apply_u_inv(v)

    def apply_u_inv_t(self, v: np.ndarray) -> None:
        if self.elim is not None:
            self.elim.apply_u_inv_t(v)
            v[self.rd] += self.interp.T @ v[self.sk]

    def apply_d(self, v: np.ndarray) -> None:
        if self.elim is not None:
            self.elim.apply_d(v)

    def solve_d(self, v: np.ndarray) -> None:
        if self.elim is not None:
            self.elim.solve_d(v)

    def nfloats(self) -> int:
        base = self.interp.size
        return base + (self.elim.nfloats() if self.elim is not None else 0)

    def eliminated(self) -> np.ndarray:
        return self.rd


def _eliminate(a: SparseSymMatrix, state: DofState, p: np.ndarray,
               q: np.ndarray, m_pp: np.ndarray, m_qp: np.ndarray,
               m_qq: np.ndarray, level: float, spd: bool) -> EliminationRecord:
    """Eliminate the DOFs p against their neighbors q, given the blocks of
    the working matrix over (p, q): factor A_pp, replace A_qq by its Schur
    complement, and retire p."""
    fac = ldl(m_pp, spd)
    x, b = schur_complement(m_qq, m_qp, fac)
    if len(q):
        # replacement is the same arithmetic as adding the Schur update
        # onto the stored neighbor block, entry by entry
        a.replace_rows(q, np.concatenate([p, q]), q, b)
    a.clear_rows(p)
    a.active[p] = False
    state.mark_eliminated(p, level)
    return EliminationRecord(p, q, fac, x)


def eliminate_cell(a: SparseSymMatrix, state: DofState, c: np.ndarray,
                   level: float, spd: bool) -> EliminationRecord:
    """Eliminate the buffered cell c: Schur-update its neighbors, retire c."""
    c = np.asarray(c, dtype=np.int64)
    q = a.neighbors(c)
    nc = len(c)
    pq = np.concatenate([c, q])
    m = a.gather(pq, pq)
    return _eliminate(a, state, c, q, m[:nc, :nc], m[nc:, :nc], m[nc:, nc:],
                      level, spd)


def skeletonize_cell(a: SparseSymMatrix, state: DofState, c: np.ndarray,
                     eps: float, level: float, spd: bool) -> SkeletonRecord:
    """Skeletonize the group c at ID tolerance eps and eliminate the
    redundant DOFs. The coupling of rd to anything outside c is deleted
    (truncated), so afterwards rd interacts with nothing outside c."""
    c = np.asarray(c, dtype=np.int64)
    q = a.neighbors(c)
    nc = len(c)
    m = a.gather(np.concatenate([c, q]), c)
    idr = interpolative_decomposition(m[nc:], eps)

    # ascending index sets; permute the interpolation matrix to match
    sk_ord = np.argsort(idr.sk, kind="stable")
    rd_ord = np.argsort(idr.rd, kind="stable")
    lsk = idr.sk[sk_ord]
    lrd = idr.rd[rd_ord]
    skl = c[lsk]
    rdl = c[lrd]
    t = idr.t[np.ix_(sk_ord, rd_ord)]

    if len(rdl) == 0:
        return SkeletonRecord(c, skl, rdl, t, None)

    app = m[:nc]
    a_rr = app[np.ix_(lrd, lrd)]
    a_sr = app[np.ix_(lsk, lrd)]
    a_ss = app[np.ix_(lsk, lsk)]
    b_rr = a_rr - t.T @ a_sr - a_sr.T @ t + t.T @ (a_ss @ t)
    b_rr = 0.5 * (b_rr + b_rr.T)
    b_sr = a_sr - a_ss @ t
    a.drop_cols(q, rdl)
    try:
        elim = _eliminate(a, state, rdl, skl, b_rr, b_sr, a_ss, level, spd)
    except (ValueError, ArithmeticError):
        raise
    except Exception as exc:
        raise type(exc)(
            f"{exc} (skeletonizing group of {len(c)} DOFs at level {level})"
        ) from exc
    return SkeletonRecord(c, skl, rdl, t, elim)
