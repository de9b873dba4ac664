"""Symmetric sparse storage of the working matrix.

``SparseSymMatrix`` is the one sparse matrix, from assembly to the top
block of the factorization: the CSR arrays ``indptr`` (int64), ``indices``
(int32, ascending in each row) and ``data``, mirrored so both (i, j) and
(j, i) are stored, and an ``active`` flag per DOF. Neighbor queries see
active DOFs only; the canonical row <= col view is used for nonzero counts
and Matrix Market export. A retired DOF keeps no stored entry, so storage
only ever couples active DOFs.

The factorization reads a whole level's fronts from the matrix
(``entries``) and replaces its entries once, at the level's end:
``rebuilt`` lays out new arrays, the level step writes its Schur updates
into them (``find``) and the matrix takes them over (``update``). No
method writes into arrays it did not make, so the factorization starts
from its input's arrays without a copy and leaves the input unchanged.

The per-cell methods (``gather``, ``neighbors``, ``replace_rows``,
``drop_cols``, ``clear_rows``) are the storage of the per-cell elimination
and skeletonization of ``factor_ops`` (``eliminate_cell``,
``skeletonize_cell``), the reference that the factorization is tested
against. A method that changes the matrix computes each touched row on its
own and splices the rows into new arrays in one pass (``_set_rows``).

Fill-in entries are stored even when exactly zero: dropping happens only
through the explicit truncation step of skeletonization, never by value.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["DofState", "SparseSymMatrix"]

_EMPTY_I = np.empty(0, dtype=np.int32)
_EMPTY_F = np.empty(0, dtype=np.float64)

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
    """Order-N symmetric sparse matrix over an active DOF set, held as CSR
    arrays (see the module docstring)."""

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, active: np.ndarray):
        self.n, self.active = n, active
        self.indptr, self.indices, self.data = indptr, indices, data
        self._keys = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_scipy(cls, s) -> "SparseSymMatrix":
        """The matrix of ``s``, a square, real, symmetric scipy sparse
        matrix or dense array, with every DOF active; ``s`` is not changed.
        Any other input raises ValueError."""
        if np.ndim(s) != 2:
            raise ValueError(f"matrix must be 2-D, got a {np.ndim(s)}-D input")
        # a copy: canonicalizing works in place, on arrays a CSR input shares
        s = sp.csr_matrix(s, copy=True)
        if s.shape[0] != s.shape[1]:
            raise ValueError(f"matrix is not square: shape {s.shape}")
        if s.dtype.kind == "c":
            raise ValueError(f"matrix is complex ({s.dtype}); a real matrix is needed")
        s.sum_duplicates()
        s.sort_indices()
        if not np.all(np.isfinite(s.data)):
            raise ValueError("matrix has non-finite entries")
        if (s != s.T).nnz != 0:
            raise ValueError("matrix is not symmetric")
        n = s.shape[0]
        return cls(n, s.indptr.astype(np.int64), s.indices.astype(np.int32, copy=False),
                   s.data.astype(np.float64, copy=False), np.ones(n, dtype=bool))

    def to_scipy(self) -> sp.csr_matrix:
        """A CSR copy of the stored entries (active and inactive rows alike)."""
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n),
                             copy=True)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self._entry_rows(), self.indices] = self.data
        return out

    # -- queries -----------------------------------------------------------

    def nnz(self) -> int:
        """Number of stored entries in the canonical row <= col view."""
        ndiag = np.count_nonzero(self.indices == self._entry_rows())
        return (len(self.indices) + ndiag) // 2

    @property
    def row_idx(self) -> list[np.ndarray]:
        """Each row's column indices, as views of ``indices``."""
        return self._rows(self.indices)

    @property
    def row_val(self) -> list[np.ndarray]:
        """Each row's values, as views of ``data``: writing into one writes
        into the matrix."""
        return self._rows(self.data)

    def _rows(self, x: np.ndarray) -> list[np.ndarray]:
        ends = self.indptr.tolist()
        return [x[a:b] for a, b in zip(ends, ends[1:])]

    def _entry_rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def _positions(self, idx: np.ndarray) -> np.ndarray:
        """Each DOF's position in ``idx`` (its last, if repeated), -1 for a
        DOF outside ``idx``."""
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[idx] = np.arange(len(idx))
        return pos

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored entries of ``rows``: the index into ``rows`` of each
        entry's row, its column and its value."""
        owner, at = row_entries(self.indptr, rows)
        return owner, self.indices[at], self.data[at]

    def block(self, idx: np.ndarray) -> np.ndarray:
        """Dense copy of the (idx, idx) block."""
        return self._dense(idx, idx)

    def gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense copy of the (rows, cols) block."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if (len(rows) and (rows.min() < 0 or rows.max() >= self.n)) or \
           (len(cols) and (cols.min() < 0 or cols.max() >= self.n)):
            raise IndexError("gather index out of range")
        return self._dense(rows, cols)

    def _dense(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        owner, c, vals = self.entries(rows)
        at = self._positions(cols)[c]
        keep = at >= 0
        out = np.zeros((len(rows), len(cols)))
        out[owner[keep], at[keep]] = vals[keep]
        return out

    def neighbors(self, c: np.ndarray) -> np.ndarray:
        """Active DOFs outside c with a stored coupling to c, ascending."""
        c = np.asarray(c, dtype=np.int64)
        u = sorted_unique(self.indices[row_entries(self.indptr, c)[1]]).astype(np.int64)
        return u[(self._positions(c)[u] < 0) & self.active[u]]

    def find(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The positions in ``indices``/``data`` of the stored entries
        (rows[k], cols[k]), which must be stored: a binary search in the
        ascending keys row * n + col of the stored entries, built on the
        first call. Queries in ascending order run fastest."""
        if self._keys is None:
            self._keys = self._entry_rows() * self.n + self.indices
        return np.searchsorted(self._keys, np.asarray(rows, dtype=np.int64) * self.n + cols)

    # -- the level steps' replacement ----------------------------------------

    def rebuilt(self, retired: np.ndarray, cliques: np.ndarray,
                sizes: np.ndarray) -> "SparseSymMatrix":
        """A new matrix, sharing ``active``: the stored entries that couple
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
        return SparseSymMatrix(n, indptr, indices, data, self.active)

    def update(self, other: "SparseSymMatrix") -> None:
        """Take over the stored entries of ``other``."""
        self.indptr, self.indices, self.data = other.indptr, other.indices, other.data
        self._keys = None

    # -- the per-cell reference's mutations ----------------------------------

    def drop_cols(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Remove any stored (r, c) entries for r in rows, c in cols."""
        drop = self._positions(np.asarray(cols, dtype=np.int64)) >= 0
        rows = np.asarray(rows, dtype=np.int64)
        touched, new_i, new_v = [], [], []
        for r, lo, hi in zip(rows.tolist(), self.indptr[rows].tolist(),
                             self.indptr[rows + 1].tolist()):
            ix = self.indices[lo:hi]
            keep = ~drop[ix]
            if not keep.all():
                touched.append(r)
                new_i.append(ix[keep])
                new_v.append(self.data[lo:hi][keep])
        self._set_rows(touched, new_i, new_v)

    def replace_rows(self, rows: np.ndarray, drop: np.ndarray,
                     cols: np.ndarray, block: np.ndarray) -> None:
        """For each row r: remove stored entries with column in ``drop``,
        then insert the dense row (cols, block[i]). cols need not be
        disjoint from drop (replacement); block columns follow ascending
        cols order. The rows must be distinct."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        dropped = self._positions(np.asarray(drop, dtype=np.int64)) >= 0
        order = np.argsort(cols, kind="stable")
        if np.array_equal(order, np.arange(len(cols))):
            c32 = cols.astype(np.int32)
            blk = np.ascontiguousarray(block, dtype=float)
        else:
            c32 = cols[order].astype(np.int32)
            blk = np.ascontiguousarray(block[:, order], dtype=float)
        nnew = len(c32)
        new_i, new_v = [], []
        for i, (lo, hi) in enumerate(zip(self.indptr[rows].tolist(),
                                         self.indptr[rows + 1].tolist())):
            ix = self.indices[lo:hi]
            if len(ix):
                keep = ~dropped[ix]
                ix = ix[keep]
                vv = self.data[lo:hi][keep]
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
            new_i.append(out_i)
            new_v.append(out_v)
        self._set_rows(rows, new_i, new_v)

    def clear_rows(self, rows: np.ndarray) -> None:
        rows = np.asarray(rows, dtype=np.int64)
        self._set_rows(rows, [_EMPTY_I] * len(rows), [_EMPTY_F] * len(rows))

    def _set_rows(self, rows, idx: list, val: list) -> None:
        """Make (idx[k], val[k]) the stored entries of row rows[k], the rows
        distinct: new arrays, the kept runs of the old ones and the new rows
        joined in one pass."""
        if not len(rows):
            return
        order = np.argsort(rows)
        rows = np.asarray(rows, dtype=np.int64)[order]
        lo, hi = self.indptr[rows], self.indptr[rows + 1]
        # each row after a touched one moves by the length changes before it
        shift = np.cumsum(np.fromiter(map(len, idx), np.int64, len(idx))[order] - (hi - lo))
        indptr = self.indptr + np.repeat(np.append(0, shift),
                                         np.diff(rows + 1, prepend=0, append=self.n + 1))
        parts_i, parts_v, at = [], [], 0
        for k, a, b in zip(order.tolist(), lo.tolist(), hi.tolist()):
            parts_i += [self.indices[at:a], idx[k]]
            parts_v += [self.data[at:a], val[k]]
            at = b
        self.update(SparseSymMatrix(self.n, indptr, np.concatenate(parts_i + [self.indices[at:]]),
                                    np.concatenate(parts_v + [self.data[at:]]), self.active))

    # -- persistence -------------------------------------------------------

    def save_matrix_market(self, path) -> None:
        from scipy.io import mmwrite
        mmwrite(path, sp.tril(self.to_scipy()), symmetry="symmetric")

    @classmethod
    def load_matrix_market(cls, path) -> "SparseSymMatrix":
        from scipy.io import mmread
        return cls.from_scipy(mmread(path))
