"""Symmetric storage of the working matrix: sparse, then dense.

The working matrix has two storages. ``SparseSymMatrix`` holds it from
assembly on: the CSR arrays ``indptr`` (int64), ``indices`` (int32,
ascending in each row) and ``data``, mirrored so both (i, j) and (j, i)
are stored, and an ``active`` flag per DOF. ``DenseSymMatrix`` holds the
tail of the factorization, once its fronts have merged: an m x m value
array and an m x m "stored" pattern over the m DOFs active when it was
built, in ascending order. Both answer the same reads, which are all the
level steps and the partition make: ``entries`` (a row's stored columns,
ascending, and their values), ``row_lengths`` and ``gather``; a slot that
is not stored reads +0.0, and a stored zero keeps its sign. Neighbor
queries see active DOFs only; the canonical row <= col view is used for
nonzero counts and Matrix Market export. A retired DOF keeps no stored
entry, so storage only ever couples active DOFs. The values are symmetric
bit for bit, the sign of a zero included, since the input is made so
(``from_scipy``) and every write sets (i, j) and (j, i) to one value.

The factorization reads a whole level's fronts from the matrix
(``entries``) and replaces its entries once, at the level's end: a step
lays out a new matrix from the level-start one, writes its Schur updates
there and the working matrix takes it over (``update``). On CSR,
``rebuilt`` lays out new arrays from a mask of the entries the step keeps
and places each front's pairs in them, sorting each block of rows once by
the packed keys (row << s) | col, s = (n - 1).bit_length(), which order as
(row, col) does. The step whose output is at least 1/8 stored, and every
step after it, lays out a dense matrix over the DOFs it leaves active
instead (``DenseSymMatrix.kept``) and writes its updates there
(``schur_write``). No method writes into arrays it did not make, so the
factorization starts from its input's arrays without a copy and leaves
the input unchanged.

The per-cell methods (``gather``, ``neighbors``, ``replace_rows``,
``drop_cols``, ``clear_rows``) are the storage of the per-cell elimination
and skeletonization of ``factor_ops`` (``eliminate_cell``,
``skeletonize_cell``), the reference that the factorization is tested
against. Like the level steps, it records a retired DOF in ``active``
alone. ``replace_rows`` builds its rows in one pass, ``drop_cols`` is it
with nothing inserted, and ``_set_rows`` splices the rows into new arrays.

Fill-in entries are stored even when exactly zero: dropping happens only
through the explicit truncation step of skeletonization, never by value.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["SparseSymMatrix", "DenseSymMatrix"]

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


def row_entries(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stored entries of ``rows`` in a CSR structure: for each entry, the
    index into ``rows`` of its row and its position in the CSR arrays."""
    rows = np.asarray(rows, dtype=np.int64)
    lo = indptr[rows]
    lens = indptr[rows + 1] - lo
    owner = np.repeat(np.arange(len(lens)), lens)
    return owner, np.arange(len(owner)) + np.repeat(lo - (np.cumsum(lens) - lens), lens)


class _SymMatrix:
    """The reads that both storages of the working matrix answer alike,
    from their ``entries`` and ``_dense``, and their takeover (``update``)."""

    n: int
    active: np.ndarray

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def nnz(self) -> int:
        """Number of stored entries in the canonical row <= col view."""
        return sp.triu(self.to_scipy()).nnz

    def _positions(self, idx: np.ndarray) -> np.ndarray:
        """Each DOF's position in ``idx`` (its last, if repeated), -1 for a
        DOF outside ``idx``."""
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[idx] = np.arange(len(idx))
        return pos

    def gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Dense copy of the (rows, cols) block."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if (len(rows) and (rows.min() < 0 or rows.max() >= self.n)) or \
           (len(cols) and (cols.min() < 0 or cols.max() >= self.n)):
            raise IndexError("gather index out of range")
        return self._dense(rows, cols)

    def neighbors(self, c: np.ndarray) -> np.ndarray:
        """Active DOFs outside c with a stored coupling to c, ascending."""
        c = np.asarray(c, dtype=np.int64)
        u = np.sort(self.entries(c)[1]).astype(np.int64)
        u = u[(self._positions(c)[u] < 0) & self.active[u]]
        return u[np.r_[True, u[1:] != u[:-1]]] if len(u) else u

    def update(self, other: "_SymMatrix") -> None:
        """Take over ``other``, its class and its arrays, not copies: the
        object stays the one its holders have."""
        self.__class__, self.__dict__ = type(other), vars(other)


class SparseSymMatrix(_SymMatrix):
    """Order-N symmetric sparse matrix over an active DOF set, held as CSR
    arrays (see the module docstring)."""

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 data: np.ndarray, active: np.ndarray):
        self.n, self.active = n, active
        self.indptr, self.indices, self.data = indptr, indices, data

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
        t = s.T.tocsr()
        if (s != t).nnz != 0:
            raise ValueError("matrix is not symmetric")
        if not (np.array_equal(s.indptr, t.indptr) and np.array_equal(s.indices, t.indices)
                and np.array_equal(np.signbit(s.data), np.signbit(t.data))):
            # a stored entry whose mirror is not stored is a zero, and so are
            # two mirrors of unlike sign: add to each entry its mirror's
            # signed zero, which leaves every other value as it is, gives a
            # lone zero's mirror its sign and makes an unlike pair +0.0
            c = s.tocoo()
            s = sp.csr_matrix((np.r_[c.data, np.copysign(0.0, c.data)],
                               (np.r_[c.row, c.col], np.r_[c.col, c.row])), shape=s.shape)
        n = s.shape[0]
        return cls(n, s.indptr.astype(np.int64), s.indices.astype(np.int32, copy=False),
                   s.data.astype(np.float64, copy=False), np.ones(n, dtype=bool))

    def to_scipy(self) -> sp.csr_matrix:
        """A CSR copy of the stored entries (active and inactive rows alike)."""
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(self.n, self.n),
                             copy=True)

    # -- queries -----------------------------------------------------------

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

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored entries of ``rows``: the index into ``rows`` of each
        entry's row, its column and its value."""
        owner, at = row_entries(self.indptr, rows)
        return owner, self.indices[at], self.data[at]

    def row_lengths(self, rows: np.ndarray) -> np.ndarray:
        """The number of stored entries of each of ``rows``."""
        rows = np.asarray(rows, dtype=np.int64)
        return self.indptr[rows + 1] - self.indptr[rows]

    def _dense(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        owner, c, vals = self.entries(rows)
        pos = self._positions(cols)
        at = pos[c]
        keep = at >= 0
        out = np.zeros((len(rows), len(cols)))
        out[owner[keep], at[keep]] = vals[keep]
        # a repeated column is read into its last copy; the others copy it
        dup = pos[cols] != np.arange(len(cols))
        out[:, dup] = out[:, pos[cols[dup]]]
        return out

    # -- the level steps' replacement ----------------------------------------

    def rebuilt(self, keep: np.ndarray, cliques: np.ndarray,
                sizes: np.ndarray) -> tuple["SparseSymMatrix", np.ndarray, np.ndarray]:
        """A new matrix, sharing ``active``: the stored entries of the mask
        ``keep`` over the CSR arrays, and every pair (i, j) of each clique
        (``cliques`` flat, ``sizes`` each), zero where nothing was stored;
        and per clique pair (i, j), clique-major and row-major, its offset
        in row i and its round, the number of earlier cliques holding it.
        Each block of rows is sorted once, stably, by the packed keys
        ((row - first row) << s) | col, s = (n - 1).bit_length(): kept
        entries first, then the pairs."""
        n, s = self.n, (self.n - 1).bit_length()
        by_row = np.argsort(cliques, kind="stable")
        inc_row, o = cliques[by_row], np.repeat(np.arange(len(sizes)), sizes)[by_row]
        start = np.cumsum(sizes) - sizes
        # each incidence's first pair in the clique-major, row-major order
        inc_pair = (np.cumsum(sizes * sizes) - sizes * sizes)[o] + (by_row - start[o]) * sizes[o]
        old_len = np.diff(self.indptr)
        cost = old_len + np.bincount(inc_row, weights=sizes[o], minlength=n)
        # a row has at most cost entries; a pair, as many rounds as its row has cliques
        offset = np.empty((sizes * sizes).sum(), np.min_scalar_type(int(cost.max(initial=0))))
        rnd = np.empty(len(offset), np.min_scalar_type(np.bincount(cliques).max(initial=0)))
        indices = np.empty(np.count_nonzero(keep) + len(offset), dtype=np.int32)
        data, indptr, at = np.empty(len(indices)), np.zeros(n + 1, dtype=np.int64), 0
        for r0, r1 in spans(cost):
            lo, hi = self.indptr[r0], self.indptr[r1]
            k = keep[lo:hi]
            kept = (np.repeat(np.arange(r1 - r0), old_len[r0:r1])[k] << s) | self.indices[lo:hi][k]
            a, b = np.searchsorted(inc_row, [r0, r1])
            c = sizes[o[a:b]]
            local = np.arange(c.sum()) - np.repeat(np.cumsum(c) - c, c)
            keys = np.concatenate([kept, (np.repeat(inc_row[a:b] - r0, c) << s)
                                   | cliques[np.repeat(start[o[a:b]], c) + local]])
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            head = np.ones(len(keys), dtype=bool)
            np.not_equal(keys[1:], keys[:-1], out=head[1:])
            entry = np.cumsum(head) - 1   # of each sorted key, among the block's entries
            keys = keys[head]
            rows = keys >> s
            indptr[r0 + 1:r1 + 1] = at + np.cumsum(np.bincount(rows, minlength=r1 - r0))
            indices[at:at + len(keys)] = keys & ((1 << s) - 1)
            is_kept = order < len(kept)
            data[at:at + len(keys)] = 0.0
            data[at + entry[is_kept]] = self.data[lo:hi][k]
            p = np.flatnonzero(~is_kept)
            e, first = entry[p], np.flatnonzero(head)[entry[p]]
            dest = (np.repeat(inc_pair[a:b], c) + local)[order[p] - len(kept)]
            offset[dest] = at + e - indptr[r0 + rows[e]]
            rnd[dest] = p - first - is_kept[first]
            at += len(keys)
        return SparseSymMatrix(n, indptr, indices[:at], data[:at], self.active), offset, rnd

    # -- the per-cell reference's mutations ----------------------------------

    def drop_cols(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Remove any stored (r, c) entries for r in rows, c in cols."""
        self.replace_rows(rows, cols, _EMPTY_I, np.empty((len(rows), 0)))

    def replace_rows(self, rows: np.ndarray, drop: np.ndarray,
                     cols: np.ndarray, block: np.ndarray) -> None:
        """For each row r: remove stored entries with column in ``drop`` or
        ``cols``, then insert the dense row (cols, block[i]), so an inserted
        column replaces a stored one. The rows, and the cols, are distinct."""
        order = np.argsort(cols)
        cols = np.asarray(cols, dtype=np.int64)[order]
        gone = self._positions(np.concatenate([np.asarray(drop, dtype=np.int64), cols])) >= 0
        owner, at = row_entries(self.indptr, rows)
        keep = ~gone[self.indices[at]]
        owner, at = owner[keep], at[keep]
        # a kept entry's place: the entries before it, kept and inserted
        place = np.arange(len(at)) + len(cols) * owner + np.searchsorted(cols, self.indices[at])
        lens = np.bincount(owner, minlength=len(rows)) + len(cols)
        new = np.ones(lens.sum(), dtype=bool)
        new[place] = False
        idx, val = np.empty(len(new), dtype=np.int32), np.empty(len(new))
        idx[place], val[place] = self.indices[at], self.data[at]
        idx[new], val[new] = np.tile(cols, len(rows)), np.asarray(block, float)[:, order].ravel()
        self._set_rows(rows, lens, idx, val)

    def clear_rows(self, rows: np.ndarray) -> None:
        self._set_rows(rows, np.zeros(len(rows), np.int64), _EMPTY_I, _EMPTY_F)

    def _set_rows(self, rows, lens: np.ndarray, idx: np.ndarray, val: np.ndarray) -> None:
        """Make the next lens[k] entries of (idx, val) the stored entries of
        row rows[k], the rows distinct: new arrays, the kept runs of the old
        ones and the new rows joined in one pass."""
        if not len(rows):
            return
        order = np.argsort(rows)
        rows = np.asarray(rows, dtype=np.int64)[order]
        lo, hi = self.indptr[rows], self.indptr[rows + 1]
        # each row after a touched one moves by the length changes before it
        shift = np.cumsum(lens[order] - (hi - lo))
        indptr = self.indptr + np.repeat(np.append(0, shift),
                                         np.diff(rows + 1, prepend=0, append=self.n + 1))
        start = (np.cumsum(lens) - lens)[order]
        parts_i, parts_v, at = [], [], 0
        for s, k, a, b in zip(start.tolist(), lens[order].tolist(), lo.tolist(), hi.tolist()):
            parts_i += [self.indices[at:a], idx[s:s + k]]
            parts_v += [self.data[at:a], val[s:s + k]]
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


class DenseSymMatrix(_SymMatrix):
    """The working matrix in its dense storage, the tail of the
    factorization: the values ``values`` (m x m) and the pattern ``stored``
    (m x m, bool) over the DOFs ``dofs``, ascending, those active when it
    was built, and an ``active`` flag per DOF of the order-n matrix. DOF
    ``dofs[k]`` has slot k (``slot``, -1 outside ``dofs``), so a row's
    stored columns come in ascending order as on CSR. A slot that is not
    stored holds +0.0."""

    def __init__(self, n: int, dofs: np.ndarray, values: np.ndarray, stored: np.ndarray,
                 active: np.ndarray):
        self.n, self.active, self.dofs = n, active, dofs
        self.values, self.stored = values, stored
        self.slot = self._positions(dofs)

    @classmethod
    def kept(cls, w: SparseSymMatrix | DenseSymMatrix, retired: np.ndarray) -> DenseSymMatrix:
        """The stored entries of ``w`` that couple no DOF of the boolean mask
        ``retired``, over the active DOFs outside it, sharing ``active``;
        ``w`` is not changed. A dense ``w`` holds the active DOFs alone, so
        its slots that stay are copied by one np.ix_ gather."""
        if isinstance(w, DenseSymMatrix):
            k = np.flatnonzero(~retired[w.dofs])
            ix = np.ix_(k, k)
            return cls(w.n, w.dofs[k], w.values[ix], w.stored[ix], w.active)
        dofs = np.flatnonzero(w.active & ~retired)
        m = len(dofs)
        new = cls(w.n, dofs, np.zeros((m, m)), np.zeros((m, m), dtype=bool), w.active)
        # in blocks of rows, so the entries read at once stay small
        for a, b in spans(w.row_lengths(dofs)):
            owner, cols, vals = w.entries(dofs[a:b])
            at = new.slot[cols]
            keep = at >= 0
            new.values[a + owner[keep], at[keep]] = vals[keep]
            new.stored[a + owner[keep], at[keep]] = True
        return new

    def entries(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored entries of ``rows``, as ``SparseSymMatrix.entries``."""
        p = self.slot[np.asarray(rows, dtype=np.int64)]
        inside = np.flatnonzero(p >= 0)
        owner, j = np.nonzero(self.stored[p[inside]])
        return inside[owner], self.dofs[j], self.values[p[inside][owner], j]

    def row_lengths(self, rows: np.ndarray) -> np.ndarray:
        """The number of stored entries of each of ``rows``."""
        p = self.slot[np.asarray(rows, dtype=np.int64)]
        out = np.zeros(len(p), dtype=np.int64)
        out[p >= 0] = np.count_nonzero(self.stored[p[p >= 0]], axis=1)
        return out

    def _dense(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        p, q = self.slot[rows], self.slot[cols]
        out = self.values[np.ix_(p, q)]
        out[p < 0] = 0.0
        out[:, q < 0] = 0.0
        return out

    def to_scipy(self) -> sp.csr_matrix:
        """A CSR copy of the stored entries."""
        rows = np.arange(self.n)
        _, cols, vals = self.entries(rows)
        indptr = np.append(0, np.cumsum(self.row_lengths(rows)))
        return sp.csr_matrix((vals, cols, indptr), shape=(self.n, self.n))

    # -- the level steps' writes -------------------------------------------

    def schur_write(self, dofs: np.ndarray, u: np.ndarray) -> None:
        """A[dofs, dofs] <- 0.5 ((v - u) + (v - u^T)), v its values, and the
        block stored: the arithmetic of a CSR step's write of one round,
        which gives (i, j) and (j, i) one value, v being symmetric."""
        ix = np.ix_(self.slot[dofs], self.slot[dofs])
        v = self.values[ix]
        t = v - u
        v -= u.T
        t += v
        t *= 0.5
        self.values[ix] = t
        self.stored[ix] = True
