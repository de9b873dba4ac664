"""Per-cell elimination and skeletonization of the working matrix.

Both operations mutate the matrix in place and return a ``Record`` holding
the operators needed to replay (or invert) the transformation:

* eliminate_cell factors the principal block of a buffered cell, pushes its
  Schur complement onto the neighbor block, and retires the cell.
* skeletonize_cell compresses a group's external interactions with an ID,
  applies the corresponding congruence locally, truncates the residual
  coupling of the redundant DOFs, and eliminates them against the skeletons.

Both end in the same elimination step (``_eliminate``): factor the pivot
block, replace the neighbor block by its Schur complement, retire the
pivot DOFs. A record is therefore one elimination S of ``rd`` against
``sk``, preceded on a skeletonized group by the interpolation Q. A record
holds data only: the driver applies a level's records together, stacked
by shape (``driver.Group``).

Interactions outside the touched cell and its neighbor set are never read
or written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import EMPTY_FACTOR, LdlFactor, interpolative_decomposition, ldl, schur_complement
from .sparse import DofState, SparseSymMatrix

__all__ = ["Record", "eliminate_cell", "skeletonize_cell"]


@dataclass
class Record:
    """U = Q S for one group: the elimination S of the DOFs ``rd`` against
    ``sk``, after the interpolation Q when the group was skeletonized.

    ``coupling`` is X = D^{-1} L^{-1} A_{sk,rd}^T with shape (|rd|, |sk|),
    so S = [[L^{-T}, -L^{-T} X], [0, I]] in (rd, sk) coordinates.
    ``interp`` is None for a cell elimination, whose ``sk`` are the cell's
    neighbors. On a skeletonized group it is the ID's T with shape
    (|sk|, |rd|), so that the group's coupling to its neighbors q satisfies
    A_{q,rd} ~= A_{q,sk} T, and Q = [[I, 0], [-T, I]]. A group the ID did
    not compress has an empty ``rd`` and acts as the identity.

    In a finished factor the arrays are views of the level's stacked
    arrays (``driver.Group``), which the solve sweeps use.
    """

    rd: np.ndarray
    sk: np.ndarray
    factor: LdlFactor
    coupling: np.ndarray
    interp: np.ndarray | None = None

    def nfloats(self) -> int:
        extra = self.interp.size if self.interp is not None else 0
        return self.factor.nfloats() + self.coupling.size + extra

    def eliminated(self) -> np.ndarray:
        return self.rd


def _eliminate(a: SparseSymMatrix, state: DofState, p: np.ndarray,
               q: np.ndarray, m_pp: np.ndarray, m_qp: np.ndarray,
               m_qq: np.ndarray, level: float, spd: bool,
               interp: np.ndarray | None = None) -> Record:
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
    return Record(p, q, fac, x, interp)


def eliminate_cell(a: SparseSymMatrix, state: DofState, c: np.ndarray,
                   level: float, spd: bool) -> Record:
    """Eliminate the buffered cell c: Schur-update its neighbors, retire c."""
    c = np.asarray(c, dtype=np.int64)
    q = a.neighbors(c)
    nc = len(c)
    pq = np.concatenate([c, q])
    m = a.gather(pq, pq)
    return _eliminate(a, state, c, q, m[:nc, :nc], m[nc:, :nc], m[nc:, nc:],
                      level, spd)


def skeletonize_cell(a: SparseSymMatrix, state: DofState, c: np.ndarray,
                     eps: float, level: float, spd: bool) -> Record:
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
        return Record(rdl, skl, EMPTY_FACTOR[spd], np.zeros((0, len(skl))), t)

    app = m[:nc]
    a_rr = app[np.ix_(lrd, lrd)]
    a_sr = app[np.ix_(lsk, lrd)]
    a_ss = app[np.ix_(lsk, lsk)]
    b_rr = a_rr - t.T @ a_sr - a_sr.T @ t + t.T @ (a_ss @ t)
    b_rr = 0.5 * (b_rr + b_rr.T)
    b_sr = a_sr - a_ss @ t
    a.drop_cols(q, rdl)
    return _eliminate(a, state, rdl, skl, b_rr, b_sr, a_ss, level, spd, t)
