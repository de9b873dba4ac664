"""Elimination and skeletonization of the working matrix.

The factorization runs one level-synchronous step per level on a CSR
snapshot of the working matrix (``sparse.CsrMatrix``):

* eliminate_level eliminates a level's mutually non-interacting cells:
  factors each cell's pivot block, adds its Schur complement onto its
  neighbor block and retires the cell.
* skeletonize_level skeletonizes a level's interface groups: compresses
  each group's external interactions with an ID, applies the congruence
  locally, truncates the residual coupling of the redundant DOFs and
  eliminates them against the skeletons.

Each step gathers the fronts of a whole level in vectorized passes,
factors the dense blocks of one shape as a stack (``dense.ldl_stack``,
``dense.schur_stack``) and rebuilds the snapshot once, and returns the
level's records as flat arrays in the layout of ``driver._level``.

eliminate_cell and skeletonize_cell do the same for one group at a time
on the row-list ``SparseSymMatrix``, mutating it in place and returning a
``Record``. They are the reference: the steps reproduce their arithmetic
and their order of operations, so the factor is the same bit for bit.
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

from .dense import (EMPTY_FACTOR, LdlFactor, interpolative_decomposition, ldl, ldl_stack,
                    schur_complement, schur_stack)
from .sparse import CsrMatrix, DofState, SparseSymMatrix, sorted_unique, spans

__all__ = ["Record", "eliminate_cell", "skeletonize_cell", "eliminate_level",
           "skeletonize_level"]


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


# -- level-synchronous steps -------------------------------------------------
# The factorization proper: a whole level at once on one CSR snapshot of the
# working matrix, with the arithmetic of the per-cell operations above and
# so the same factor, bit for bit. A level's groups are taken in chunks, in
# group order, of about sparse.CHUNK entries (row entries and dense blocks),
# and the blocks of one shape within a chunk are factored as one stack.

def _expand(w: CsrMatrix, cells: list, mark: np.ndarray):
    """The stored entries of the rows of groups ``cells``: the members, and
    per entry the index of its row in the members, its group, column and
    value, and whether the column is in the same group (``inside``) or an
    active neighbor (``nb``). ``mark`` is an n-array of -1, used as scratch
    and left so."""
    members = np.concatenate(cells)
    owner = np.repeat(np.arange(len(cells)), [len(c) for c in cells])
    row, cols, vals = w.entries(members)
    g = owner[row]
    mark[members] = owner
    inside = mark[cols] == g
    mark[members] = -1
    return members, row, g, cols, vals, inside, ~inside & w.active[cols]


def _neighbors(w: CsrMatrix, cells: list, mark: np.ndarray):
    """Each group's active neighbors, flat and ascending per group, and
    their counts."""
    _, _, g, cols, _, _, nb = _expand(w, cells, mark)
    keys = sorted_unique(g[nb] * w.n + cols[nb])
    return keys % w.n, np.bincount(keys // w.n, minlength=len(cells))


class _Fronts:
    """The fronts of consecutive groups ``cells`` of a level, read from the
    snapshot ``w`` in vectorized passes: each group's active neighbors
    (``q``, flat, ascending per group, ``qlen`` each) and the entries of
    its rows, split into those of A[c, c] and of A[q, c] (the mirror of
    A[c, q]); ``mark`` as in _expand.
    """

    def __init__(self, w: CsrMatrix, cells: list, mark: np.ndarray):
        n = w.n
        self.members, row, g, cols, vals, inside, nb = _expand(w, cells, mark)
        self.clen = np.fromiter(map(len, cells), np.int64, len(cells))
        self.cstart = np.cumsum(self.clen) - self.clen
        pos = np.arange(len(self.members)) - np.repeat(self.cstart, self.clen)
        mark[self.members] = pos
        col_pos = mark[cols[inside]]
        mark[self.members] = -1
        keys, inv = np.unique(g[nb] * n + cols[nb], return_inverse=True)
        self.qlen = np.bincount(keys // n, minlength=len(cells))
        self.qstart = np.cumsum(self.qlen) - self.qlen
        self.q = keys % n
        self._pp = (g[inside], pos[row[inside]], col_pos, vals[inside])
        self._qp = (g[nb], inv - self.qstart[g[nb]], pos[row[nb]], vals[nb])

    def cells(self, idx: np.ndarray) -> np.ndarray:
        """The members of the groups ``idx``, all of one size, stacked."""
        return self.members[self.cstart[idx][:, None] + np.arange(self.clen[idx[0]])]

    def neighbors(self, idx: np.ndarray) -> np.ndarray:
        """The neighbors of the groups ``idx``, all as many, stacked."""
        return self.q[self.qstart[idx][:, None] + np.arange(self.qlen[idx[0]])]

    def gather(self, order: np.ndarray):
        """Dense A[c, c] and A[q, c] of the groups, laid out back to back in
        ``order``: two flat arrays and each group's offsets into them."""
        cl, ql = self.clen[order], self.qlen[order]
        opp, oqp = np.empty_like(self.clen), np.empty_like(self.clen)
        opp[order] = np.cumsum(cl * cl) - cl * cl
        oqp[order] = np.cumsum(ql * cl) - ql * cl
        pp, qp = np.zeros(int((cl * cl).sum())), np.zeros(int((ql * cl).sum()))
        g, r, c, v = self._pp
        pp[opp[g] + r * self.clen[g] + c] = v
        g, r, c, v = self._qp
        qp[oqp[g] + r * self.clen[g] + c] = v
        return pp, opp, qp, oqp


def _raise_first(failures: list, level: float, cells: list) -> None:
    """Raise the failure of the lowest group index, located as the per-cell
    loop locates it (``FactorizationError.locate``)."""
    if failures:
        i, exc = min(failures, key=lambda f: f[0])
        exc.locate(level, i, len(cells[i]))
        raise exc


class _Flats:
    """The flat arrays of ``driver._level`` for a level whose record shapes
    are known before its first chunk: |rd| and |sk| per group, in group
    order. The records are in a stable sort by (|rd|, |sk|), so the groups
    of one shape within a chunk fill one contiguous run, written in place
    by ``put``."""

    def __init__(self, rd_len: np.ndarray, sk_len: np.ndarray):
        order = np.argsort(rd_len * (sk_len.max() + 1) + sk_len, kind="stable")
        self.slot = np.empty_like(order)
        self.slot[order] = np.arange(len(order))
        r, s = rd_len[order], sk_len[order]
        sizes = dict(rd=r, sk=s, coupling=r * s, lower=r * r, perm=r, diag=r, sub=r)
        self.start = {key: np.cumsum(size) - size for key, size in sizes.items()}
        self.out = {key: np.empty(int(sizes[key].sum()), dtype)
                    for key, dtype in _LevelStacks.FIELDS if key in sizes}
        self.out.update(interp=np.zeros(0), rd_len=r.astype("<i8"), sk_len=s.astype("<i8"),
                        has_interp=np.zeros(len(r), "?"))

    def put(self, idx: np.ndarray, **stacks) -> None:
        first = self.slot[idx[0]]
        for key, x in stacks.items():
            at = int(self.start[key][first])
            self.out[key][at:at + x.size].reshape(x.shape)[...] = x


def _shape_runs(keys: np.ndarray):
    """Indices ordered by key (stable) and the runs of one key in that
    order, as (start, end) pairs."""
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    edges = [0, *cuts.tolist(), len(order)]
    return order, list(zip(edges, edges[1:]))


class _LevelStacks:
    """A level's records as stacks per key (|rd|, |sk|, has interp),
    appended chunk by chunk in group order and flattened at the end into
    the record order (a stable sort by key) and layout of ``driver._level``.
    """

    FIELDS = (("rd", "<i8"), ("sk", "<i8"), ("coupling", "<f8"), ("interp", "<f8"),
              ("lower", "<f8"), ("perm", "<i8"), ("diag", "<f8"), ("sub", "<f8"))

    def __init__(self):
        self.parts: dict = {}

    def add(self, rd, sk, coupling, lower, perm, diag, sub, interp) -> None:
        self.parts.setdefault((rd.shape[1], sk.shape[1], interp is not None), []).append(
            dict(rd=rd, sk=sk, coupling=coupling, interp=interp, lower=lower,
                 perm=perm, diag=diag, sub=sub))

    def flat(self) -> dict:
        parts = [p for key in sorted(self.parts) for p in self.parts[key]]
        out = {name: np.concatenate([p[name] for p in parts if p[name] is not None]
                                    + [np.zeros(0, dtype)], axis=None, dtype=dtype)
               for name, dtype in self.FIELDS}
        count = [len(p["rd"]) for p in parts]
        for name, value, dtype in (("rd_len", lambda p: p["rd"].shape[1], "<i8"),
                                   ("sk_len", lambda p: p["sk"].shape[1], "<i8"),
                                   ("has_interp", lambda p: p["interp"] is not None, "?")):
            out[name] = np.repeat(np.array([value(p) for p in parts], dtype), count)
        return out


def eliminate_level(w: CsrMatrix, cells: list, level: float, spd: bool) -> dict:
    """Eliminate the mutually non-interacting cells ``cells`` as
    eliminate_cell would one by one, in order. Returns the level's records
    as the flat arrays of ``driver._level`` and retires the cells in ``w``.

    No cell reads another's update: a cell's rows, its neighbors q and
    A[q, c] stay those of the level's start, so they are read from ``w``.
    The Schur updates meet only on separator entries shared by several
    cells; each such entry gets v <- 0.5 ((v - u_ij) + (v - u_ji)) once per
    cell, in cell order, which a chunk applies as one vectorized round per
    sharing depth. The new pattern (the kept entries and every q x q pair)
    is laid out before the first chunk.
    """
    n = w.n
    if not cells:
        return _LevelStacks().flat()
    mark = np.full(n, -1, dtype=np.int64)
    members = np.concatenate(cells)
    clen = np.fromiter(map(len, cells), np.int64, len(cells))
    row_nnz = np.add.reduceat(np.diff(w.indptr)[members], np.cumsum(clen) - clen)
    q, qlen = (np.concatenate(x) for x in zip(*[
        _neighbors(w, cells[a:b], mark) for a, b in spans(row_nnz)]))
    retired = np.zeros(n, dtype=bool)
    retired[members] = True
    new = w.rebuilt(retired, q, qlen)
    del q
    flats = _Flats(clen, qlen)
    for a, b in spans(row_nnz + (clen + qlen) ** 2):
        _eliminate_chunk(_Fronts(w, cells[a:b], mark), a, cells, new, level, spd, flats)
    w.active[members] = False
    w.update(new)
    return flats.out


def _eliminate_chunk(f: _Fronts, start: int, cells: list, new: CsrMatrix,
                     level: float, spd: bool, flats: _Flats) -> None:
    order, runs = _shape_runs(f.clen * (f.qlen.max() + 1) + f.qlen)
    pp, opp, qp, oqp = f.gather(order)
    blocks, failures = [], []
    for a, b in runs:
        idx = order[a:b]
        k, p, q = b - a, int(f.clen[idx[0]]), int(f.qlen[idx[0]])
        fac = ldl_stack(pp[opp[idx[0]]:][:k * p * p].reshape(k, p, p), spd)
        failures += [(start + int(idx[j]), exc) for j, exc in fac[4]]
        blocks.append((idx, qp[oqp[idx[0]]:][:k * q * p].reshape(k, q, p), fac[:4]))
    _raise_first(failures, level, cells)

    updates = []
    for idx, m_qp, (lower, perm, diag, sub) in blocks:
        x, u = schur_stack(m_qp, lower, perm, diag, sub)
        sk = f.neighbors(idx)
        flats.put(start + idx, rd=f.cells(idx), sk=sk, coupling=x,
                  lower=lower, perm=perm, diag=diag, sub=sub)
        r, c = np.triu_indices(m_qp.shape[1])
        updates.append((np.repeat(idx, len(r)), sk[:, r], sk[:, c], u[:, r, c], u[:, c, r]))
        del x, u
    g, qi, qj, uij, uji = (np.concatenate([x.ravel() for x in xs]) for xs in zip(*updates))
    del updates
    pij, pji = new.find(qi, qj), new.find(qj, qi)
    del qi, qj
    data = new.data
    if len(f.clen) == 1:
        # one cell updates each entry once
        v = data[pij]
        data[pij] = data[pji] = 0.5 * ((v - uij) + (v - uji))
        return
    # each update's rank among the updates of its entry, in cell order
    srt = np.argsort(pij * len(f.clen) + g)
    ps = pij[srt]
    first = np.flatnonzero(np.r_[True, ps[1:] != ps[:-1]])
    rank = np.empty_like(srt)
    rank[srt] = np.arange(len(srt)) - np.repeat(first, np.diff(np.r_[first, len(srt)]))
    del srt, ps, first
    for depth in range(int(rank.max(initial=-1)) + 1):
        sel = rank == depth
        i, j = pij[sel], pji[sel]
        v = data[i]
        data[i] = data[j] = 0.5 * ((v - uij[sel]) + (v - uji[sel]))


def skeletonize_level(w: CsrMatrix, cells: list, eps: float, level: float,
                      spd: bool) -> dict:
    """Skeletonize the groups ``cells`` as skeletonize_cell would one by
    one, in order. Returns the level's records as the flat arrays of
    ``driver._level`` and retires the redundant DOFs in ``w``.

    A group changes only its own A[sk, sk] and deletes the couplings of its
    rd, so a later group's ID block is the level-start A[q, c] without the
    rows of earlier groups' rd: the IDs run in group order on the snapshot
    with a mask of the retired DOFs. Nothing else depends on group order.
    """
    n = w.n
    stacks = _LevelStacks()
    if not cells:
        return stacks.flat()
    mark = np.full(n, -1, dtype=np.int64)
    retired = np.zeros(n, dtype=bool)
    clen = np.fromiter(map(len, cells), np.int64, len(cells))
    row_nnz = np.add.reduceat(np.diff(w.indptr)[np.concatenate(cells)], np.cumsum(clen) - clen)
    updates = []
    # a group has at most as many neighbors as its rows have entries
    for a, b in spans(row_nnz + (clen + row_nnz) * clen):
        _skeletonize_chunk(_Fronts(w, cells[a:b], mark), a, cells, retired, eps,
                           level, spd, stacks, updates)
    if retired.any():
        # each compressed group's A[sk, sk] := its Schur complement b
        new = w.rebuilt(retired, np.concatenate([sk.ravel() for sk, _ in updates]),
                        np.concatenate([np.full(len(sk), sk.shape[1]) for sk, _ in updates]))
        for sk, b in updates:
            full = np.broadcast_to(sk[:, :, None], b.shape)
            new.data[new.find(full.ravel(), full.transpose(0, 2, 1).ravel())] = b.ravel()
        w.active[retired] = False
        w.update(new)
    return stacks.flat()


def _skeletonize_chunk(f: _Fronts, start: int, cells: list, retired: np.ndarray,
                       eps: float, level: float, spd: bool, stacks: _LevelStacks,
                       updates: list) -> None:
    k = len(f.clen)
    pp, opp, qp, oqp = f.gather(np.arange(k))
    ids = []
    for i in range(k):
        nc, nq = int(f.clen[i]), int(f.qlen[i])
        m_qp = qp[oqp[i]:oqp[i] + nq * nc].reshape(nq, nc)
        live = ~retired[f.q[f.qstart[i]:f.qstart[i] + nq]]
        idr = interpolative_decomposition(m_qp if live.all() else m_qp[live], eps)
        if idr.k == nc:
            # not compressed: the skeletons in ascending order are all of c
            ids.append((np.arange(nc), idr.rd, idr.t.reshape(nc, 0)))
            continue
        sk_ord = np.argsort(idr.sk, kind="stable")
        rd_ord = np.argsort(idr.rd, kind="stable")
        lrd = idr.rd[rd_ord]
        retired[f.members[f.cstart[i] + lrd]] = True
        ids.append((idr.sk[sk_ord], lrd, idr.t[np.ix_(sk_ord, rd_ord)]))

    nrd = np.array([len(x[1]) for x in ids])
    order, runs = _shape_runs(nrd * (f.clen.max() + 1) + f.clen)
    blocks, failures = [], []
    for a, b in runs:
        idx = order[a:b]
        m, nc = int(nrd[idx[0]]), int(f.clen[idx[0]])
        c = f.cells(idx)
        lsk = np.stack([ids[i][0] for i in idx.tolist()]).reshape(b - a, nc - m)
        lrd = np.stack([ids[i][1] for i in idx.tolist()]).reshape(b - a, m)
        t = np.stack([ids[i][2] for i in idx.tolist()]).reshape(b - a, nc - m, m)
        rd, sk = np.take_along_axis(c, lrd, 1), np.take_along_axis(c, lsk, 1)
        if not m:
            stacks.add(rd, sk, np.zeros((b - a, 0, nc - m)), np.zeros((b - a, 0, 0)),
                       np.zeros((b - a, 0), np.int64), np.zeros((b - a, 0)),
                       np.zeros((b - a, 0)), t)
            continue
        app = pp[opp[idx][:, None] + np.arange(nc * nc)].reshape(b - a, nc, nc)
        g = np.arange(b - a)[:, None, None]
        a_rr = app[g, lrd[:, :, None], lrd[:, None, :]]
        a_sr = app[g, lsk[:, :, None], lrd[:, None, :]]
        a_ss = app[g, lsk[:, :, None], lsk[:, None, :]]
        tt, a_rs = t.transpose(0, 2, 1), a_sr.transpose(0, 2, 1)
        b_rr = a_rr - tt @ a_sr - a_rs @ t + tt @ (a_ss @ t)
        b_rr = 0.5 * (b_rr + b_rr.transpose(0, 2, 1))
        fac = ldl_stack(b_rr, spd)
        failures += [(start + int(idx[j]), exc) for j, exc in fac[4]]
        blocks.append((rd, sk, t, a_ss, a_sr - a_ss @ t, fac[:4]))
    _raise_first(failures, level, cells)

    for rd, sk, t, a_ss, b_sr, fac in blocks:
        x, u = schur_stack(b_sr, *fac)
        b = a_ss - u
        stacks.add(rd, sk, x, *fac, t)
        updates.append((sk, 0.5 * (b + b.transpose(0, 2, 1))))
