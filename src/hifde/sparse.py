"""Symmetric sparse storage for the working matrix.

``SparseSymMatrix`` is the matrix as assembled: one sorted (index, value)
array pair per DOF, mirrored so both (i, j) and (j, i) are present; the
canonical row <= col view is used for nonzero counts and Matrix Market
export. An active flag per DOF tracks which rows still participate:
neighbor queries see active DOFs only. Its row-list methods (``gather``,
``neighbors``, ``replace_rows``, ``drop_cols``, ``clear_rows``) are the
storage of the per-cell elimination and skeletonization of ``factor_ops``
(``eliminate_cell``, ``skeletonize_cell``), the reference that the
factorization is tested against.

The factorization itself works on ``CsrMatrix``, one CSR snapshot of the
working matrix per level (``CsrMatrix.take`` of the assembled matrix,
then one ``CsrMatrix.rebuilt`` at the end of each level), and writes the
final snapshot back into the row lists (``CsrMatrix.store``). A retired
DOF keeps no stored entry, so storage only ever couples active DOFs.

Fill-in entries are stored even when exactly zero: dropping happens only
through the explicit truncation step of skeletonization, never by value.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["CsrMatrix", "DofState", "SparseSymMatrix"]

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
        lens = np.fromiter(map(len, self.row_idx), np.int64, self.n)
        s = sp.csr_matrix((np.concatenate(self.row_val + [_EMPTY_F]),
                           np.concatenate(self.row_idx + [_EMPTY_I]),
                           np.concatenate([[0], np.cumsum(lens)])), shape=(self.n, self.n))
        s.sum_duplicates()      # sorts and sums any row that is not canonical
        return s

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        for i, (ix, v) in enumerate(zip(self.row_idx, self.row_val)):
            out[i, ix] = v
        return out

    # -- queries -----------------------------------------------------------

    def nnz(self) -> int:
        """Number of stored entries in the canonical row <= col view."""
        lens = np.fromiter(map(len, self.row_idx), np.int64, self.n)
        cols = np.concatenate(self.row_idx + [_EMPTY_I])
        ndiag = np.count_nonzero(cols == np.repeat(np.arange(self.n), lens))
        return (len(cols) + ndiag) // 2

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


# entries (row entries, dense block entries, new pattern entries) handled at
# once by a step of the factorization
CHUNK = 1 << 17


def spans(costs: np.ndarray, budget: int = CHUNK) -> list[tuple[int, int]]:
    """Consecutive index ranges [a, b) whose costs sum to at most budget, or
    of one item."""
    ends = np.cumsum(costs)
    out, a = [], 0
    while a < len(costs):
        base = ends[a - 1] if a else 0
        b = max(a + 1, int(np.searchsorted(ends, base + budget, side="right")))
        out.append((a, b))
        a = b
    return out


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique by sorting (np.unique hashes, which is slower here)."""
    x = np.sort(x)
    return x[np.r_[True, x[1:] != x[:-1]]] if len(x) else x


def row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stored entries of ``rows`` in a CSR structure: for each entry, the
    index into ``rows`` of its row and its position in the CSR arrays."""
    lo = indptr[rows]
    lens = indptr[np.asarray(rows) + 1] - lo
    owner = np.repeat(np.arange(len(lens)), lens)
    return owner, np.arange(len(owner)) + np.repeat(lo - (np.cumsum(lens) - lens), lens)


class CsrMatrix:
    """A CSR snapshot of the working matrix: ``indptr``, column ``indices``
    (int32, ascending in each row) and ``data``, symmetric and mirrored like
    SparseSymMatrix, plus the ``active`` flags, shared with the matrix it
    was taken from. The factorization reads a whole level's fronts from one
    snapshot and replaces the stored entries once, at the level's end."""

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, active: np.ndarray):
        self.n, self.active = n, active
        self.indptr, self.indices, self.data = indptr, indices, data

    @classmethod
    def take(cls, a: SparseSymMatrix) -> "CsrMatrix":
        """A snapshot of ``a`` that takes over its entries: the rows of
        ``a`` are left empty until ``store`` writes them back."""
        s = a.to_scipy()
        s.sort_indices()
        a.row_idx, a.row_val = [_EMPTY_I] * a.n, [_EMPTY_F] * a.n
        return cls(a.n, s.indptr.astype(np.int64), s.indices.astype(np.int32), s.data, a.active)

    def to_scipy(self) -> sp.csr_matrix:
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n))

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored entries of ``rows``: the index into ``rows`` of each
        entry's row, its column and its value."""
        owner, at = row_entries(self.indptr, rows)
        return owner, self.indices[at], self.data[at]

    def block(self, idx: np.ndarray) -> np.ndarray:
        """Dense copy of the (idx, idx) block."""
        owner, cols, vals = self.entries(idx)
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[idx] = np.arange(len(idx))
        keep = pos[cols] >= 0
        out = np.zeros((len(idx), len(idx)))
        out[owner[keep], pos[cols[keep]]] = vals[keep]
        return out

    def rebuilt(self, retired: np.ndarray, cliques: np.ndarray,
                sizes: np.ndarray) -> "CsrMatrix":
        """A new snapshot, sharing ``active``: the stored entries that couple
        no DOF of the boolean mask ``retired``, and every pair (i, j) of
        each clique (``cliques`` flat, ``sizes`` each), zero where nothing
        was stored. Built a block of rows at a time, each block's new
        entries found by sorting keys (row - first row) * n + col."""
        n = self.n
        owner = np.repeat(np.arange(len(sizes)), sizes)
        by_row = np.argsort(cliques, kind="stable")
        inc_row, inc_clique = cliques[by_row], owner[by_row]
        start = np.cumsum(sizes) - sizes
        old_len = np.diff(self.indptr)
        keep = np.repeat(~retired, old_len)
        keep &= ~retired[self.indices]
        cost = old_len + np.bincount(inc_row, weights=sizes[inc_clique], minlength=n)
        blocks = spans(cost)

        def block(r0, r1):
            # the block's kept entries and new keys, (row - r0) * n + col
            lo, hi = self.indptr[r0], self.indptr[r1]
            k = keep[lo:hi]
            kept = np.repeat(np.arange(r1 - r0), old_len[r0:r1])[k] * n + self.indices[lo:hi][k]
            a, b = np.searchsorted(inc_row, [r0, r1])
            c = sizes[inc_clique[a:b]]
            local = np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c)
            pairs = (np.repeat(inc_row[a:b] - r0, c) * n
                     + cliques[np.repeat(start[inc_clique[a:b]], c) + local])
            return k, kept, sorted_unique(np.concatenate([kept, pairs]))

        # two passes, so that the new arrays are allocated once, up front
        new_len = np.zeros(n, dtype=np.int64)
        for r0, r1 in blocks:
            new_len[r0:r1] = np.bincount(block(r0, r1)[2] // n, minlength=r1 - r0)
        indptr = np.concatenate([[0], np.cumsum(new_len)])
        indices, data = np.empty(indptr[-1], dtype=np.int32), np.zeros(indptr[-1])
        for r0, r1 in blocks:
            k, kept, keys = block(r0, r1)
            lo = indptr[r0]
            indices[lo:lo + len(keys)] = keys % n
            data[lo + np.searchsorted(keys, kept)] = self.data[self.indptr[r0]:self.indptr[r1]][k]
        return CsrMatrix(n, indptr, indices, data, self.active)

    def find(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The positions in ``indices``/``data`` of the stored entries
        (rows[k], cols[k]), which must be stored: a vectorized binary
        search in each row."""
        lo, hi = self.indptr[rows], self.indptr[rows + 1]
        last = len(self.indices) - 1
        for _ in range(int(np.diff(self.indptr).max(initial=0)).bit_length()):
            mid = (lo + hi) >> 1
            go = (lo < hi) & (self.indices[np.minimum(mid, last)] < cols)
            lo = np.where(go, mid + 1, lo)
            hi = np.where(go, hi, mid)
        return lo

    def update(self, other: "CsrMatrix") -> None:
        """Take over the stored entries of ``other``."""
        self.indptr, self.indices, self.data = other.indptr, other.indices, other.data

    def store(self, a: SparseSymMatrix) -> None:
        """Write the stored entries into the row lists of ``a``."""
        a.row_idx, a.row_val = [_EMPTY_I] * self.n, [_EMPTY_F] * self.n
        ends = self.indptr.tolist()
        for r in np.flatnonzero(np.diff(self.indptr)).tolist():
            a.row_idx[r] = self.indices[ends[r]:ends[r + 1]]
            a.row_val[r] = self.data[ends[r]:ends[r + 1]]
