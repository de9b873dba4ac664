"""Elimination and skeletonization of the working matrix.

The factorization runs one level-synchronous step per level on the
working matrix, in either of its storages (``sparse``):

* eliminate_level eliminates a level's mutually non-interacting cells
  against their neighbors; cells that interact raise ValueError naming two.
* skeletonize_level skeletonizes a level's interface groups: the IDs
  first, in group order, then each compressed group's congruence, which
  truncates the coupling of its redundant DOFs rd to the outside. A group
  whose ID block an exact screen proves full rank skips its ID, so levels
  whose fronts are too small to compress run none.

Both check their groups (``_groups``), then retire DOFs by one
elimination step (``_retire``), as the per-cell operations below end in
``_eliminate``: the pivot blocks of one shape factored as a stack
(``dense.ldl_stack``), each front's Schur update (``dense.schur_stack``)
written into a new matrix laid out from the level-start one, and the
records into their level's flat arrays (FLAT_DTYPES). On CSR that is new
arrays (``SparseSymMatrix.rebuilt``), which place each update. The first
step whose output is at least DENSE_SHARE stored, and each step after it,
lays out a dense matrix over the DOFs it leaves active instead
(``sparse.DenseSymMatrix.kept``) and reads its fronts from the level-start
one by np.ix_ gathers: the dense tail, which the merged fronts of the last
levels fill, shrinking with each step.

eliminate_cell and skeletonize_cell do the same for one group at a time
through the matrix's per-cell methods, changing it in place and returning
a ``Record``; a group that holds a retired DOF raises ValueError naming it
before the matrix changes. They are the reference: the steps reproduce
their arithmetic and their order of operations, so the factor is the same
bit for bit. Both end in the same elimination step (``_eliminate``):
factor the pivot block, replace the neighbor block by its Schur
complement, retire the pivot DOFs, with the steps' stacked kernels on
stacks of one block (``dense.ldl``, ``dense.schur_stack``). A record is
therefore one elimination S of ``rd`` against ``sk``, preceded on a
skeletonized group by the interpolation Q. Records take the kernels'
results in the form they come: the ID's ``sk`` and ``rd`` ascending, D's
``sub`` zero-padded. A record holds data only: the driver applies a
level's records together, stacked by shape (``driver.Group``).

Each step makes one neighbor pass over its level (``_neighbors``) and
sizes its chunks by the real fronts it finds. On CSR the pass reads the
groups' row patterns in row blocks, each once and with one sort (``_scan``),
and keeps each entry's place for the chunks, which read the rows again for
their values; on the dense storage it reads the stored pattern.

Interactions outside the touched cell and its neighbor set are never read
or written.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import (EMPTY_FACTOR, SCREEN_MAX_COLS, LdlFactor, interpolative_decomposition,
                    keeps_every_column, ldl, ldl_stack, schur_stack)
from .partition import CellSet
from .sparse import DenseSymMatrix, SparseSymMatrix, row_entries, spans

__all__ = ["Record", "eliminate_cell", "skeletonize_cell", "eliminate_level",
           "skeletonize_level"]

# The flat arrays of a level's records (``driver.LevelFactor``) and their
# dtypes, in file order: per record |rd|, |sk| and whether it has an
# interpolation, then each record's arrays raveled, back to back, of the
# lengths record_sizes gives.
FLAT_DTYPES = dict(rd_len="<i8", sk_len="<i8", has_interp="?", rd="<i8", sk="<i8",
                   coupling="<f8", interp="<f8", lower="<f8", perm="<i8", diag="<f8",
                   sub="<f8")


def record_sizes(r: np.ndarray, s: np.ndarray, hi: np.ndarray) -> dict:
    """Each record's length in the raveled flat arrays of a level, from its
    |rd| ``r``, |sk| ``s`` and whether it has an interpolation ``hi``."""
    return dict(rd=r, sk=s, coupling=r * s, interp=r * s * hi, lower=r * r,
                perm=r, diag=r, sub=r)


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

    A finished factor keeps no Record: ``driver.LevelFactor.records``
    builds them on demand as views of the level's flat arrays.
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


def _eliminate(a: SparseSymMatrix, p: np.ndarray, q: np.ndarray, m_pp: np.ndarray,
               m_qp: np.ndarray, m_qq: np.ndarray, spd: bool,
               interp: np.ndarray | None = None) -> Record:
    """Eliminate the DOFs p against their neighbors q, given the blocks of
    the working matrix over (p, q): factor A_pp, replace A_qq by its Schur
    complement, and retire p."""
    fac = ldl(m_pp, spd)
    x, u = schur_stack(m_qp[None], fac.lower[None], fac.perm[None], fac.d.diag[None],
                       fac.d.sub[None])
    b = m_qq - u[0]
    b = 0.5 * (b + b.T)
    if len(q):
        # replacement is the same arithmetic as adding the Schur update
        # onto the stored neighbor block, entry by entry
        a.replace_rows(q, np.concatenate([p, q]), q, b)
    a.clear_rows(p)
    a.active[p] = False
    return Record(p, q, fac, x[0], interp)


def _active(a: SparseSymMatrix, c) -> np.ndarray:
    """The group c as int64; ValueError names a DOF of it that is not active."""
    c = np.asarray(c, dtype=np.int64)
    gone = ~a.active[c]
    if gone.any():
        raise ValueError(f"DOF {c[np.argmax(gone)]} is not active")
    return c


def eliminate_cell(a: SparseSymMatrix, c: np.ndarray, spd: bool) -> Record:
    """Eliminate the buffered cell c: Schur-update its neighbors, retire c."""
    c = _active(a, c)
    q = a.neighbors(c)
    nc = len(c)
    pq = np.concatenate([c, q])
    m = a.gather(pq, pq)
    return _eliminate(a, c, q, m[:nc, :nc], m[nc:, :nc], m[nc:, nc:], spd)


def skeletonize_cell(a: SparseSymMatrix, c: np.ndarray, eps: float, spd: bool) -> Record:
    """Skeletonize the group c at ID tolerance eps and eliminate the
    redundant DOFs. The coupling of rd to anything outside c is deleted
    (truncated), so afterwards rd interacts with nothing outside c."""
    c = _active(a, c)
    q = a.neighbors(c)
    nc = len(c)
    m = a.gather(np.concatenate([c, q]), c)
    idr = interpolative_decomposition(m[nc:], eps)
    lsk, lrd, t = idr.sk, idr.rd, idr.t
    skl, rdl = c[lsk], c[lrd]

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
    return _eliminate(a, rdl, skl, b_rr, b_sr, a_ss, spd, t)


# -- level-synchronous steps -------------------------------------------------
# The factorization proper: a whole level at once on the working matrix,
# CSR or dense, with the arithmetic of the per-cell operations above and
# so the same factor, bit for bit. A level's groups are taken in chunks, in
# group order, of about sparse.CHUNK entries (row entries and dense blocks),
# and the blocks of one shape within a chunk are factored as one stack.

def _groups(w: SparseSymMatrix, cs: CellSet, level: float):
    """``mark``, each group's size and its rows' stored entries, for the
    groups ``cs`` of a level. ``mark`` is an n-array holding (i << s) | j at
    the j-th member of group i, s = (n - 1).bit_length(), -2 at every other
    active DOF and -1 elsewhere. ValueError names a group that is empty or
    holds a DOF out of range, inactive or held twice."""
    members, clen = cs.members, np.diff(cs.offsets)
    group = lambda i: np.searchsorted(cs.offsets[1:], i, side="right")  # noqa: E731
    at = f"of level {level:.4g}"
    if not clen.all():
        raise ValueError(f"group {np.argmin(clen)} {at} is empty")
    ok = (members >= 0) & (members < w.n)
    ok[ok] = w.active[members[ok]]
    if not ok.all():
        i = np.argmin(ok)
        raise ValueError(f"group {group(i)} {at} holds DOF {members[i]}, " + (
            "which is not active" if 0 <= members[i] < w.n else f"out of range for order {w.n}"))
    mark = np.where(w.active, -2, -1)
    index = np.arange(len(members))
    mark[members] = index
    seen = mark[members]
    i = np.argmax(seen != index)
    if seen[i] != i:
        g, h = group([i, seen[i]])
        raise ValueError(f"group {g} {at} holds DOF {members[i]} twice" if g == h else
                         f"group {g} {at} shares DOF {members[i]} with group {h}")
    owner = np.repeat(np.arange(len(clen)), clen)
    mark[members] = (owner << (w.n - 1).bit_length()) | (index - cs.offsets[owner])
    return mark, clen, np.add.reduceat(w.row_lengths(members), cs.offsets[:-1])


def _scan(w: SparseSymMatrix, cs: CellSet, mark: np.ndarray, start: int):
    """One read and one sort of the pattern, not the values, of the CSR rows
    of the groups ``cs``, numbered from ``start`` (``mark`` as _groups gives
    it): each stored entry's place ``at``, and each group's active neighbors
    q, flat, ascending per group, and counts. ``at`` is -2 - (i |c| + j) for
    an entry inside its group (A[c, c]), k |c| + i for one in its group's
    k-th neighbor's column (A[q, c]), and -1 for any other. One stable argsort of the
    packed keys (group << s) | column orders the neighbors; its inverse
    numbers them per entry."""
    s = (w.n - 1).bit_length()
    lo = (1 << s) - 1
    clen = np.diff(cs.offsets)
    row, e = row_entries(w.indptr, cs.members)
    cols = w.indices[e]
    tag = mark[cs.members]
    own, m = tag[row], mark[cols]
    # inside: the column's mark holds the row's group in its high bits
    inside = (m ^ own).view(np.uint64) <= lo
    nb = (m != -1) ^ inside
    keys = (own[nb] & ~lo) | cols[nb]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    rank = np.empty(len(keys), np.int64)
    rank[order] = np.cumsum(head) - 1
    keys = keys[head]
    qlen = np.bincount((keys >> s) - start, minlength=len(clen))
    at = np.full(len(row), -1, np.min_scalar_type(-2 - int((clen * np.maximum(clen, qlen)).max())))
    size, pos = np.repeat(clen, clen), tag & lo
    at[inside] = -2 - (pos * size)[row[inside]] - (m[inside] & lo)
    first, rn = np.repeat(np.cumsum(qlen) - qlen, clen), row[nb]
    at[nb] = rank * size[rn] + (pos - first * size)[rn]
    return at, keys & lo, qlen


def _neighbors(w: SparseSymMatrix | DenseSymMatrix, cs: CellSet, mark: np.ndarray,
               row_nnz: np.ndarray):
    """The neighbor pass of a level's groups ``cs`` (``mark`` and
    ``row_nnz`` as _groups gives them): each group's active neighbors q,
    flat, ascending per group, ``qlen`` each, and ``fronts(costs, stacks)``,
    which yields stacks(f, a) per chunk of spans(costs), f its _Fronts and a
    its first group; no f outlives its call, so a chunk's reads go before
    the next chunk's. On CSR the pass reads the rows' pattern in row blocks
    (_scan), which also places each entry; on the dense storage a group's
    neighbors are the stored columns of its rows outside it."""
    if isinstance(w, DenseSymMatrix):
        at, slots = None, []
        for c in cs.cells:
            p = w.slot[c]
            nb = w.stored[p].any(axis=0)
            nb[p] = False
            slots.append(np.flatnonzero(nb))
        qlen = np.array([len(x) for x in slots], dtype=np.int64)
        q = w.dofs[np.concatenate(slots)]
    else:
        at, q, qlen = (np.concatenate(x) for x in zip(*[
            _scan(w, cs[a:b], mark, a) for a, b in spans(row_nnz)]))
    qend, rend = np.cumsum(qlen), np.cumsum(row_nnz)

    def fronts(costs: np.ndarray, stacks):
        for a, b in spans(costs):
            yield stacks(_Fronts(w, cs[a:b], q[qend[a] - qlen[a]:qend[b - 1]], qlen[a:b],
                                 None if at is None else at[rend[a] - row_nnz[a]:rend[b - 1]]), a)
    return q, qlen, fronts


class _Fronts:
    """The fronts of consecutive groups ``cs`` of a level, as the neighbor
    pass (_neighbors) found them in the working matrix ``w``: each group's
    active neighbors (``q``, flat, ascending per group, ``qlen`` each) and
    its blocks A[c, c] and A[q, c] (the mirror of A[c, q]).

    On CSR the groups' rows are read once (``entries``) and each entry goes
    to its place ``at`` (_scan). On the dense storage ``gather`` reads each
    group's blocks by np.ix_ gathers from the slots of c and of its q: the
    same values, as a slot that is not stored holds +0.0."""

    def __init__(self, w: SparseSymMatrix | DenseSymMatrix, cs: CellSet, q: np.ndarray,
                 qlen: np.ndarray, at: np.ndarray | None):
        self.members, self.cstart, self.clen = cs.members, cs.offsets[:-1], np.diff(cs.offsets)
        self.q, self.qlen, self.qstart = q, qlen, np.cumsum(qlen) - qlen
        self._dense = w if at is None else None
        if at is not None:
            row, _, vals = w.entries(cs.members)
            g = np.repeat(np.arange(len(self.clen)), self.clen)[row]
            inside, nb = at < -1, at >= 0
            self._pp = (g[inside], -2 - at[inside], vals[inside])
            self._qp = (g[nb], at[nb], vals[nb])

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
        if self._dense is not None:
            a, slot = self._dense.values, self._dense.slot
            for i in order.tolist():
                p, s = slot[self.cells([i])[0]], slot[self.neighbors([i])[0]]
                pp[opp[i]:opp[i] + p.size * p.size] = a[np.ix_(p, p)].ravel()
                qp[oqp[i]:oqp[i] + s.size * p.size].reshape(s.size, p.size)[...] = \
                    a[np.ix_(p, s)].T
            return pp, opp, qp, oqp
        g, i, v = self._pp
        pp[opp[g] + i] = v
        g, i, v = self._qp
        qp[oqp[g] + i] = v
        return pp, opp, qp, oqp


class _Flats:
    """The flat arrays (FLAT_DTYPES) of a level, laid out before its first
    chunk from |rd| and |sk| per group, in group order, and whether its
    records have an interpolation. The records are in a stable sort by
    (|rd|, |sk|), so the groups of one shape within a chunk fill one
    contiguous run, written in place by ``put``."""

    def __init__(self, rd_len: np.ndarray, sk_len: np.ndarray, has_interp: bool):
        order = np.argsort(rd_len * (sk_len.max(initial=0) + 1) + sk_len, kind="stable")
        self.slot = np.empty_like(order)
        self.slot[order] = np.arange(len(order))
        r, s = rd_len[order].astype("<i8"), sk_len[order].astype("<i8")
        hi = np.full(len(r), has_interp)
        sizes = record_sizes(r, s, hi)
        self.start = {key: np.cumsum(size) - size for key, size in sizes.items()}
        self.out = {key: np.empty(int(size.sum()), FLAT_DTYPES[key])
                    for key, size in sizes.items()}
        self.out.update(rd_len=r, sk_len=s, has_interp=hi)

    def put(self, idx: np.ndarray, **stacks) -> None:
        first = self.slot[idx[0]]
        for key, x in stacks.items():
            if x is not None:
                at = int(self.start[key][first])
                self.out[key][at:at + x.size].reshape(x.shape)[...] = x


def _shape_runs(keys: np.ndarray):
    """Indices ordered by key (stable) and the runs of one key in that
    order, as (start, end) pairs."""
    order = np.argsort(keys, kind="stable")
    cuts = np.flatnonzero(np.diff(keys[order])) + 1
    edges = [0, *cuts.tolist(), len(order)]
    return order, list(zip(edges, edges[1:]))


# A level step's output goes dense, and stays so up to the top block, once
# its bound (the kept entries and every clique's |clique|^2 pairs) is at
# least DENSE_SHARE of m^2, m the DOFs active after it. The bounds fall far
# on either side: over Ex. 1-3 2D n=128-512 (hifde, mf) and Ex. 4 and 6 3D
# n=16-32 (hifde, hifde3x, mf) at eps 1e-6, the CSR levels read at most
# 0.076 (an exact share stored of at most 0.057) and the tail levels at
# least 0.280 (0.220). The level that switches, as bound (share), and m:
#
#   problem, algo                last CSR level        switch
#   Ex. 1 2D n=256 hifde         3.5: 0.065 (0.056)    4.0: 0.321 (0.226), 777
#   Ex. 1 2D n=512 hifde         4.5: 0.066 (0.057)    5.0: 0.326 (0.229), 915
#   Ex. 6 3D n=16 hifde3x, mf    0.0: 0.043 (0.037)    1.0: 0.467 (0.363), 631
#   Ex. 6 3D n=32 hifde3x        1.67: 0.064 (0.057)   2.0: 0.553 (0.406), 2,780
DENSE_SHARE = 1 / 8


def _goes_dense(w: SparseSymMatrix, retired: np.ndarray, sizes: np.ndarray):
    """The mask of the stored entries of ``w`` that couple no DOF of the
    boolean mask ``retired``, and whether the output of the step that
    retires them and writes cliques of ``sizes`` goes dense (DENSE_SHARE):
    the mask's entries and the cliques' pairs against m^2."""
    keep = np.repeat(~retired, np.diff(w.indptr))
    keep &= ~retired[w.indices]
    m = np.count_nonzero(w.active) - np.count_nonzero(retired)
    return keep, np.count_nonzero(keep) + int((sizes * sizes).sum()) >= DENSE_SHARE * m * m


def _retire(w: SparseSymMatrix | DenseSymMatrix, retired: np.ndarray, cliques: np.ndarray,
            sizes: np.ndarray, chunks, flats: _Flats, cells: CellSet, level: float,
            spd: bool) -> None:
    """The elimination step of both level steps: eliminate the DOFs
    ``retired`` against their fronts, chunk by chunk, and drop every entry
    that couples them from ``w``, whose other entries and each group's
    sk x sk pairs (``cliques`` flat, one per group in group order,
    ``sizes`` each, empty if it retires nothing) are stored after it.

    ``chunks`` yields, in group order, a chunk's groups as stacks of one
    shape (idx, rd, sk, A_pp, A_qp, interp): the groups' indices in the
    level, the DOFs eliminated, their front, the blocks over them and the
    interpolation T (None on a cell elimination). Each entry of a front
    gets v <- 0.5 ((v - u_ij) + (v - u_ji)) once per group, in group order.

    The output is laid out first, as new CSR arrays (``rebuilt``) or, on
    the dense storage and at the switch to it (_goes_dense), a new dense
    matrix over the DOFs left active (``DenseSymMatrix.kept``); the chunks
    read ``w`` and write the output, and ``w`` takes it over at the end.
    So a failed pivot block, which raises located at the chunk's lowest
    failing group, leaves ``w`` as it was. A CSR chunk writes one round at
    a time, by the positions and rounds ``rebuilt`` gives; a dense one
    writes its groups one by one (``schur_write``).
    """
    keep, dense = (None, True) if isinstance(w, DenseSymMatrix) else \
        _goes_dense(w, retired, sizes)
    if dense:
        new = DenseSymMatrix.kept(w, retired)
    else:
        new, offset, rnd = w.rebuilt(keep, cliques, sizes)
        first = np.cumsum(sizes * sizes) - sizes * sizes
    del keep
    pairs = {}   # per front width: the pairs r <= c and their offsets r nq + c, c nq + r
    for chunk in chunks:
        blocks, failures = [], []
        for idx, rd, sk, m_pp, m_qp, interp in chunk:
            fac = ldl_stack(m_pp, spd)
            failures += [(int(idx[j]), exc) for j, exc in fac[4]]
            blocks.append((idx, rd, sk, m_qp, interp, fac[:4]))
        if failures:
            i, exc = min(failures, key=lambda f: f[0])
            exc.locate(level, i, len(cells[i]))
            raise exc
        # what a chunk no longer needs goes before the next one is read
        del chunk, m_pp, m_qp
        updates = []
        for idx, rd, sk, m_qp, interp, (lower, perm, diag, sub) in blocks:
            x, u = schur_stack(m_qp, lower, perm, diag, sub)
            flats.put(idx, rd=rd, sk=sk, coupling=x, interp=interp, lower=lower,
                      perm=perm, diag=diag, sub=sub)
            if dense:
                updates += zip(idx.tolist(), sk, u)
                continue
            # the pairs (sk_r, sk_c), r <= c, of each group, row-major
            nq = sk.shape[1]
            if nq not in pairs:
                r, c = np.triu_indices(nq)
                pairs[nq] = r, c, r * nq + c, c * nq + r
            r, c, rc, cr = pairs[nq]
            ij, ji = first[idx][:, None] + rc, first[idx][:, None] + cr
            updates.append((new.indptr[sk[:, r]] + offset[ij], new.indptr[sk[:, c]] + offset[ji],
                            rnd[ij], u[:, r, c], u[:, c, r]))
            del x, u, ij, ji
        if dense:
            for _, dofs, u in sorted(updates, key=lambda g: g[0]):
                new.schur_write(dofs, u)
            del updates, u, blocks
            continue
        pij, pji, depth, uij, uji = (np.concatenate([x.ravel() for x in xs])
                                     for xs in zip(*updates))
        del updates
        lo, hi = (int(depth.min()), int(depth.max())) if len(depth) else (0, -1)
        for d in range(lo, hi + 1):
            sel = depth == d if hi > lo else slice(None)
            i, j = pij[sel], pji[sel]
            v = new.data[i]
            new.data[i] = new.data[j] = 0.5 * ((v - uij[sel]) + (v - uji[sel]))
    w.update(new)
    w.active[retired] = False


def eliminate_level(w: SparseSymMatrix, cells: CellSet, level: float, spd: bool) -> dict:
    """Eliminate the mutually non-interacting cells ``cells`` as
    eliminate_cell would one by one, in order. Returns the level's records
    as flat arrays (FLAT_DTYPES) and retires the cells in ``w``. Cells that
    interact raise ValueError before ``w`` is changed.

    No cell reads another's update: a cell's rows, its neighbors q and
    A[q, c] stay those of the level's start. The neighbor pass
    (_neighbors) finds every cell's q, which the step needs before its
    first chunk; the chunks read the cells' blocks as the elimination step
    (_retire) reaches them.
    """
    if not len(cells):
        return _Flats(np.zeros(0, np.int64), np.zeros(0, np.int64), False).out
    mark, clen, row_nnz = _groups(w, cells, level)
    q, qlen, fronts = _neighbors(w, cells, mark, row_nnz)
    hit = np.flatnonzero(mark[q] >= 0)
    if len(hit):
        i = hit[0]
        raise ValueError(f"cells {np.searchsorted(np.cumsum(qlen), i, side='right')} and "
                         f"{mark[q[i]] >> (w.n - 1).bit_length()} of level {level:.4g} interact")
    flats = _Flats(clen, qlen, False)
    chunks = fronts(row_nnz + (clen + qlen) ** 2, _cell_stacks)
    _retire(w, mark >= 0, q, qlen, chunks, flats, cells, level, spd)
    return flats.out


def _cell_stacks(f: _Fronts, start: int) -> list:
    """The cells of a chunk starting at group ``start`` as stacks of one
    shape, for _retire: their rows are eliminated against their neighbors."""
    order, runs = _shape_runs(f.clen * (f.qlen.max() + 1) + f.qlen)
    pp, opp, qp, oqp = f.gather(order)
    stacks = []
    for a, b in runs:
        idx = order[a:b]
        k, p, q = b - a, int(f.clen[idx[0]]), int(f.qlen[idx[0]])
        stacks.append((start + idx, f.cells(idx), f.neighbors(idx),
                       pp[opp[idx[0]]:][:k * p * p].reshape(k, p, p),
                       qp[oqp[idx[0]]:][:k * q * p].reshape(k, q, p), None))
    return stacks


def skeletonize_level(w: SparseSymMatrix, cells: CellSet, eps: float, level: float,
                      spd: bool) -> dict:
    """Skeletonize the groups ``cells`` as skeletonize_cell would one by
    one, in order. Returns the level's records as flat arrays
    (FLAT_DTYPES) and retires the redundant DOFs in ``w``.

    A group changes only its own A[sk, sk] and deletes the couplings of its
    rd, so a later group's ID block is the level-start A[q, c] without the
    rows of earlier groups' rd: the IDs run first, in group order, on the
    level-start matrix with a mask of the retired DOFs. Then the compressed
    groups' rd are eliminated against their sk by the elimination step
    (_retire); their sk are disjoint, so no two updates meet.

    A group's ID is skipped where its result is known. If the level-start
    block of a group of at most SCREEN_MAX_COLS columns passes the screen
    (``dense.keeps_every_column``), its ID keeps every column; so does the
    block at the group's turn if none of its rows is retired by then, since
    a retired row leaves the block and can lower its rank. Such a group
    keeps its cell as its sk and runs no geqp3. Every other group runs its
    ID in one pass in group order, and the factor is the same bit for bit.
    """
    if not len(cells):
        return _Flats(np.zeros(0, np.int64), np.zeros(0, np.int64), True).out
    retired = np.zeros(w.n, dtype=bool)
    mark, clen, row_nnz = _groups(w, cells, level)
    _, qlen, fronts = _neighbors(w, cells, mark, row_nnz)
    rd_len = np.zeros(len(cells), np.int64)
    kept = []
    ids = lambda f, a: _skeleton_stacks(f, a, retired, eps, rd_len, kept)  # noqa: E731
    chunks = [x for x in fronts(row_nnz + (clen + qlen) * clen, ids) if x]
    flats = _Flats(rd_len, clen - rd_len, True)
    for idx, sk in kept:
        flats.put(idx, sk=sk)
    if chunks:
        # one clique per group: a compressed group's sk, else empty
        sizes = np.where(rd_len > 0, clen - rd_len, 0)
        start, cliques = np.cumsum(sizes) - sizes, np.empty(sizes.sum(), np.int64)
        for idx, _, sk, *_ in (s for stacks in chunks for s in stacks):
            cliques[start[idx][:, None] + np.arange(sk.shape[1])] = sk
        # each chunk's stacks are dropped once it is eliminated
        _retire(w, retired, cliques, sizes, (chunks.pop(0) for _ in range(len(chunks))),
                flats, cells, level, spd)
    return flats.out


def _skeleton_stacks(f: _Fronts, start: int, retired: np.ndarray, eps: float,
                     rd_len: np.ndarray, kept: list) -> list:
    """The IDs of the groups of a chunk starting at group ``start``, in
    group order: marks each group's rd in ``retired`` and its |rd| in
    ``rd_len``. Returns the compressed groups as stacks of one shape for
    _retire, with the blocks of the congruence (B_rr, B_sr) over their rd
    and sk, and appends each uncompressed shape's (idx, sk) to ``kept``.

    The groups that pass the screen (one call per width) are proven at
    the level's start. One pass in group order runs the ID of every other
    group, and of a screened group one of whose rows is retired at its
    turn; before a group of the chunk compresses, none is, as the screen
    takes no group with a row retired by an earlier chunk."""
    k = len(f.clen)
    group = np.repeat(np.arange(k), f.qlen)
    # screened: at most SCREEN_MAX_COLS columns, at least as many rows, and
    # none of them retired by an earlier chunk
    screened = ((f.clen <= SCREEN_MAX_COLS) & (f.qlen >= f.clen)
                & (np.bincount(group, retired[f.q], k) == 0))
    order, runs = _shape_runs(np.where(screened, f.clen, 0))
    pp, opp, qp, oqp = f.gather(order)
    run = np.ones(k, dtype=bool)
    for a, b in runs:
        idx = order[a:b]
        if screened[idx[0]]:
            # the blocks of one width, laid out back to back, zero-padded to
            # the most rows
            c, q = int(f.clen[idx[0]]), f.qlen[idx]
            blocks = np.zeros((b - a, q.max(), c))
            blocks[np.arange(q.max()) < q[:, None]] = qp[oqp[idx[0]]:][:q.sum() * c].reshape(-1, c)
            run[idx] = ~keeps_every_column(blocks, eps)
    ids, nrd = {}, np.zeros(k, np.int64)
    for i, unproven in enumerate(run.tolist()):
        if not (unproven or ids):
            continue
        nc, nq = int(f.clen[i]), int(f.qlen[i])
        live = ~retired[f.q[f.qstart[i]:f.qstart[i] + nq]]
        if not unproven and live.all():
            continue
        m_qp = qp[oqp[i]:oqp[i] + nq * nc].reshape(nq, nc)
        idr = interpolative_decomposition(m_qp if live.all() else m_qp[live], eps)
        if len(idr.rd):
            ids[i], nrd[i] = (idr.sk, idr.rd, idr.t), len(idr.rd)
            retired[f.members[f.cstart[i] + idr.rd]] = True

    rd_len[start:start + k] = nrd
    order, runs = _shape_runs(nrd * (f.clen.max() + 1) + f.clen)
    stacks = []
    for a, b in runs:
        idx = order[a:b]
        m, nc = int(nrd[idx[0]]), int(f.clen[idx[0]])
        c = f.cells(idx)
        if not m:
            # an uncompressed group keeps its cell as it is
            kept.append((start + idx, c))
            continue
        lsk = np.stack([ids[i][0] for i in idx.tolist()]).reshape(b - a, nc - m)
        lrd = np.stack([ids[i][1] for i in idx.tolist()]).reshape(b - a, m)
        t = np.stack([ids[i][2] for i in idx.tolist()]).reshape(b - a, nc - m, m)
        sk = np.take_along_axis(c, lsk, 1)
        app = pp[opp[idx][:, None] + np.arange(nc * nc)].reshape(b - a, nc, nc)
        g = np.arange(b - a)[:, None, None]
        a_rr = app[g, lrd[:, :, None], lrd[:, None, :]]
        a_sr = app[g, lsk[:, :, None], lrd[:, None, :]]
        a_ss = app[g, lsk[:, :, None], lsk[:, None, :]]
        tt, a_rs = t.transpose(0, 2, 1), a_sr.transpose(0, 2, 1)
        b_rr = a_rr - tt @ a_sr - a_rs @ t + tt @ (a_ss @ t)
        b_rr = 0.5 * (b_rr + b_rr.transpose(0, 2, 1))
        stacks.append((start + idx, np.take_along_axis(c, lrd, 1), sk, b_rr,
                       a_sr - a_ss @ t, t))
    return stacks
