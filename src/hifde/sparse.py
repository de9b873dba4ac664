"""Symmetric sparse storage for the evolving working matrix.

The matrix is stored as one sorted (index, value) array pair per DOF,
mirrored so both (i, j) and (j, i) are present; the canonical row <= col
view is used for nonzero counts and Matrix Market export. An active flag
per DOF tracks which rows still participate: neighbor queries see active
DOFs only. The factorization retires a set of DOFs by writing its Schur
complement over the neighbors with ``replace_rows`` (which also drops the
neighbors' couplings to the retired set), emptying the retired rows with
``clear_rows`` and clearing their active flags, so no storage is left
between retired and active DOFs.

Fill-in entries are stored even when exactly zero: dropping happens only
through the explicit truncation step of skeletonization (``drop_cols``),
never by value.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["DofState", "SparseSymMatrix"]

_EMPTY_I = np.empty(0, dtype=np.int32)
_EMPTY_F = np.empty(0, dtype=np.float64)


class DofState:
    """Bookkeeping of the level at which each DOF left the active set."""

    def __init__(self, n: int):
        self.elim_level = np.full(n, np.nan)

    def mark_eliminated(self, c: np.ndarray, level: float) -> None:
        c = np.asarray(c, dtype=np.int64)
        if np.any(np.isfinite(self.elim_level[c])):
            raise ValueError("DOF eliminated twice")
        self.elim_level[c] = level


class SparseSymMatrix:
    """Order-N symmetric sparse matrix over an active DOF set."""

    def __init__(self, n: int):
        self.n = n
        self.row_idx: list[np.ndarray] = [_EMPTY_I] * n
        self.row_val: list[np.ndarray] = [_EMPTY_F] * n
        self.active = np.ones(n, dtype=bool)
        # scratch for stamped position lookups (single-threaded use)
        self._pos = np.zeros(n, dtype=np.int64)
        self._tok = np.zeros(n, dtype=np.int64)
        self._cur = 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_scipy(cls, s) -> "SparseSymMatrix":
        s = sp.csr_matrix(s)
        s.sum_duplicates()
        s.sort_indices()
        if not np.all(np.isfinite(s.data)):
            raise ValueError("matrix has non-finite entries")
        if (s != s.T).nnz != 0:
            raise ValueError("matrix is not symmetric")
        a = cls(s.shape[0])
        indptr, indices, data = s.indptr, s.indices, s.data
        for i in range(a.n):
            lo, hi = indptr[i], indptr[i + 1]
            if hi > lo:
                a.row_idx[i] = indices[lo:hi].astype(np.int32)
                a.row_val[i] = data[lo:hi].astype(np.float64)
        return a

    def to_scipy(self) -> sp.csr_matrix:
        """Full symmetric CSR copy (active and inactive rows alike)."""
        rows = np.concatenate([np.full(len(ix), i, dtype=np.int64)
                               for i, ix in enumerate(self.row_idx)] or [_EMPTY_I])
        cols = np.concatenate([ix.astype(np.int64) for ix in self.row_idx] or [_EMPTY_I])
        vals = np.concatenate(self.row_val or [_EMPTY_F])
        return sp.coo_matrix((vals, (rows, cols)), shape=(self.n, self.n)).tocsr()

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for i, (ix, v) in enumerate(zip(self.row_idx, self.row_val)):
            out[i, ix] = v
        return out

    # -- queries -----------------------------------------------------------

    def nnz(self) -> int:
        """Number of stored entries in the canonical row <= col view."""
        total = sum(len(ix) for ix in self.row_idx)
        ndiag = sum(1 for i, ix in enumerate(self.row_idx)
                    if len(ix) and ix.searchsorted(i) < len(ix) and ix[ix.searchsorted(i)] == i)
        return (total + ndiag) // 2

    def _stamp(self, cols: np.ndarray) -> int:
        self._cur += 1
        self._pos[cols] = np.arange(len(cols))
        self._tok[cols] = self._cur
        return self._cur

    def gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense copy of the (rows, cols) block."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if (len(rows) and (rows.min() < 0 or rows.max() >= self.n)) or \
           (len(cols) and (cols.min() < 0 or cols.max() >= self.n)):
            raise IndexError("gather index out of range")
        tok_val = self._stamp(cols)
        out = np.zeros((len(rows), len(cols)))
        if not len(rows) or not len(cols):
            return out
        parts = [self.row_idx[r] for r in rows]
        lens = np.fromiter((len(p) for p in parts), dtype=np.int64, count=len(parts))
        total = int(lens.sum())
        if total == 0:
            return out
        cat_i = np.concatenate(parts)
        cat_v = np.concatenate([self.row_val[r] for r in rows])
        row_rep = np.repeat(np.arange(len(rows)), lens)
        mask = self._tok[cat_i] == tok_val
        out[row_rep[mask], self._pos[cat_i[mask]]] = cat_v[mask]
        return out

    def neighbors(self, c: np.ndarray) -> np.ndarray:
        """Active DOFs outside c with a stored coupling to c, ascending."""
        c = np.asarray(c, dtype=np.int64)
        parts = [self.row_idx[i] for i in c if len(self.row_idx[i])]
        if not parts:
            return np.empty(0, dtype=np.int64)
        u = np.unique(np.concatenate(parts)).astype(np.int64)
        tok_val = self._stamp(c)
        keep = (self._tok[u] != tok_val) & self.active[u]
        return u[keep]

    # -- mutation ----------------------------------------------------------

    def drop_cols(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Remove any stored (r, c) entries for r in rows, c in cols."""
        cols = np.asarray(cols, dtype=np.int64)
        tok_val = self._stamp(cols)
        tok = self._tok
        for r in np.asarray(rows, dtype=np.int64):
            ix = self.row_idx[r]
            if not len(ix):
                continue
            keep = tok[ix] != tok_val
            if not keep.all():
                self.row_idx[r] = ix[keep]
                self.row_val[r] = self.row_val[r][keep]

    def replace_rows(self, rows: np.ndarray, drop: np.ndarray,
                     cols: np.ndarray, block: np.ndarray) -> None:
        """For each row r: remove stored entries with column in ``drop``,
        then insert the dense row (cols, block[i]). cols need not be
        disjoint from drop (replacement); block columns follow ascending
        cols order."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        tok_val = self._stamp(np.asarray(drop, dtype=np.int64))
        tok = self._tok
        order = np.argsort(cols, kind="stable")
        if np.array_equal(order, np.arange(len(cols))):
            c32 = cols.astype(np.int32)
            blk = np.ascontiguousarray(block, dtype=float)
        else:
            c32 = cols[order].astype(np.int32)
            blk = np.ascontiguousarray(block[:, order], dtype=float)
        nnew = len(c32)
        for i, r in enumerate(rows):
            ix = self.row_idx[r]
            if len(ix):
                keep = tok[ix] != tok_val
                ix = ix[keep]
                vv = self.row_val[r][keep]
            else:
                vv = _EMPTY_F
            nold = len(ix)
            out_i = np.empty(nold + nnew, dtype=np.int32)
            out_v = np.empty(nold + nnew, dtype=np.float64)
            pos_new = np.searchsorted(ix, c32) + np.arange(nnew)
            out_i[pos_new] = c32
            out_v[pos_new] = blk[i]
            if nold:
                old_mask = np.ones(nold + nnew, dtype=bool)
                old_mask[pos_new] = False
                out_i[old_mask] = ix
                out_v[old_mask] = vv
            self.row_idx[r] = out_i
            self.row_val[r] = out_v

    def clear_rows(self, rows: np.ndarray) -> None:
        for r in np.asarray(rows, dtype=np.int64):
            self.row_idx[r] = _EMPTY_I
            self.row_val[r] = _EMPTY_F

    # -- persistence -------------------------------------------------------

    def save_matrix_market(self, path) -> None:
        from scipy.io import mmwrite
        mmwrite(path, sp.tril(self.to_scipy()), symmetry="symmetric")

    @classmethod
    def load_matrix_market(cls, path) -> "SparseSymMatrix":
        from scipy.io import mmread
        return cls.from_scipy(mmread(path))

