"""End-to-end factorization drivers and the factored operator.

Three constructions over a uniform grid hierarchy:

* factor_mf       -- interior cell elimination only (numerically exact).
* factor_hifde    -- adds edge (2D) or face (3D) skeletonization at each
                     half level, at ID tolerance eps.
* factor_hifde3x  -- 3D only; adds edge skeletonization at a second
                     fractional level and switches to adaptively built
                     minimal separators once edge compression has created
                     cross-cell fill-in.

The result is a GeneralizedLDL: an ordered chain of per-level operators
plus a terminal block-diagonal middle factor, applied as a product of
easily invertible triangular/interpolation maps. A level is made of one
record per group (an elimination, after an interpolation on a skeletonized
group), but holds no record objects: it keeps its records' arrays back to
back in a few flat arrays (``LevelFactor.flats``), and ``records`` builds
``Record`` views of them on demand.

Each level is one level-synchronous step on the working matrix
(``factor_ops.eliminate_level``, ``factor_ops.skeletonize_level``): the
fronts of all its groups are gathered in vectorized passes, the dense
blocks are factored as stacks, and the matrix's entries are replaced once.
The working matrix is one object across the levels, in one of two
storages (``sparse``): it starts from the input's CSR arrays without a
copy and takes over each step's new matrix, dense over the DOFs still
active from the first step whose output is at least 1/8 stored
(``factor_ops.DENSE_SHARE``) on, and smaller at each step up to the top
block. No step writes into the matrix it reads, so the input is left
unchanged. The result is bit-identical to eliminating or skeletonizing
the groups one by one (``eliminate_cell``, ``skeletonize_cell``), the
reference the tests compare against; the steps write each level's
records straight into its flat arrays.

The records of one level commute, so apply/apply_inverse do not visit them
one by one: each level is compiled into a solve plan of ``Group``s, runs of
records with the same shape whose arrays are stacked, and a sweep step
applies a whole group with stacked matmuls and triangular solves; the top
block is the last group, an elimination with no neighbors. A level's
arrays are held once: its groups' stacks are views of its flat arrays.
The plan adds one cache: a group of many small blocks keeps the inverses
of its L factors (``Group.lower_inv``), built on its first solve, and
apply_inverse sweeps them as stacked matmuls (selective inversion). The
cache is not part of the factor: save_factor and storage_bytes leave it
out, and neither the factorization nor load_factor builds it.

save_factor/load_factor persist a factor as an ``.npz`` archive of the
levels' flat arrays, joined, so each group is a contiguous run that
load_factor reshapes into its stacks without copying; load_factor checks
the archive and refuses a corrupted one.
"""

from __future__ import annotations

import math
import numbers
import time
import zipfile
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .dense import (EMPTY_FACTOR, BlockDiag, FactorizationError, LdlFactor, blas_threads,
                    d_stack, invert_unit_lower_stack, ldl, one_blas_thread,
                    solve_unit_lower)
from .discretize import GridConfig
# eliminate_cell and skeletonize_cell, the per-cell reference of the level
# steps, are not called here; perfbench/tracing.py patches these names
from .factor_ops import (FLAT_DTYPES, Record, eliminate_cell,  # noqa: F401
                         eliminate_level, record_sizes, skeletonize_cell, skeletonize_level)
from .partition import adaptive_interior_cells, interface_cells, interior_cells
from .sparse import DenseSymMatrix, SparseSymMatrix

__all__ = [
    "Group",
    "LevelFactor",
    "GeneralizedLDL",
    "factor_mf",
    "factor_hifde",
    "factor_hifde3x",
    "save_factor",
    "load_factor",
]


class Group:
    """The k records of one level that share |rd| = r, |sk| = s and their
    kind, with their arrays stacked: ``rd`` (k, r), ``sk`` (k, s),
    ``coupling`` X (k, r, s), ``lower`` L (k, r, r), ``diag`` and ``sub``
    of D (k, r), and on a skeletonized group ``interp`` T (k, s, r) (None
    on a cell elimination). The pivot orders ``perm`` (k, r) are kept
    composed with ``rd`` as ``prd``.

    The records of a level commute, so each sweep step applies a whole
    group at once. A skeletonized group's records touch only their own
    DOFs; cell eliminations share their neighbor DOFs ``sk``, so their
    updates to ``sk`` are accumulated with ufunc.at, in record order.
    Each step acts in place on v, an (N, m) array of columns.

    A stack of many small blocks (r <= k) is solved with its inverses
    ``lower_inv`` W = L^{-1} (k, r, r), one stacked matmul per sweep step
    where substitution takes r - 1 steps; W is None until the group's first
    solve builds it (``invert_unit_lower_stack``), and apply does not use
    it. A stack of a few large blocks (r > k: the top block, the large 3D
    fronts) is solved by one trsm per block and keeps no inverse. W is a
    function of L alone, so two threads that make a group's first solve at
    once build the same bits, and each sweeps with its own.
    """

    def __init__(self, rd, sk, coupling, lower, perm, diag, sub, interp):
        self.rd, self.sk, self.coupling, self.lower = rd, sk, coupling, lower
        self.diag, self.sub, self.interp = diag, sub, interp
        # rd in pivot order: P applied to v[rd] is v[prd]
        self.prd = np.take_along_axis(rd, perm, axis=1)
        self.pairs = np.nonzero(sub)   # the 2x2 pivots of D
        self.lower_inv = None

    def _add_to_sk(self, v: np.ndarray, vals: np.ndarray, ufunc) -> None:
        """v[sk] = ufunc(v[sk], vals), summing in record order where the
        records share DOFs."""
        if self.interp is not None:
            v[self.sk] = ufunc(v[self.sk], vals)
            return
        m = v.shape[1]
        # one flat 1-D index, the fast path of ufunc.at (empty for m = 0)
        idx = (self.sk[:, :, None] * m + np.arange(m)).ravel() if m != 1 else self.sk.ravel()
        ufunc.at(v.reshape(-1), idx, vals.ravel())

    def _solve_lower(self, b: np.ndarray, trans: bool) -> np.ndarray:
        """L^{-1} b, or L^{-T} b when ``trans``, for each block of the stack:
        one trsm per block when the blocks are few and large (r > k), else
        one stacked matmul with the cached inverses."""
        k, r = self.lower.shape[:2]
        if r > k:
            return np.stack([solve_unit_lower(tri, y, trans) for tri, y in zip(self.lower, b)])
        w = self.lower_inv
        if w is None:
            w = self.lower_inv = invert_unit_lower_stack(self.lower)
        return (_mT(w) if trans else w) @ b

    def solve_forward(self, v: np.ndarray) -> None:
        """v <- D^{-1} U^T v: the first sweep of apply_inverse."""
        if self.interp is not None:
            v[self.rd] -= _mT(self.interp) @ v[self.sk]
        t = self._solve_lower(v[self.prd], trans=False)
        self._add_to_sk(v, _mT(self.coupling) @ t, np.subtract)
        v[self.rd] = d_stack(self.diag, self.sub, self.pairs, t, inverse=True)

    def solve_backward(self, v: np.ndarray) -> None:
        """v <- U v: the second sweep of apply_inverse."""
        t = v[self.rd] - self.coupling @ v[self.sk]
        v[self.prd] = self._solve_lower(t, trans=True)
        if self.interp is not None:
            v[self.sk] -= self.interp @ v[self.rd]

    def apply_forward(self, v: np.ndarray) -> None:
        """v <- D U^{-1} v: the first sweep of apply."""
        if self.interp is not None:
            v[self.sk] += self.interp @ v[self.rd]
        t = _mT(self.lower) @ v[self.prd] + self.coupling @ v[self.sk]
        v[self.rd] = d_stack(self.diag, self.sub, self.pairs, t, inverse=False)

    def apply_backward(self, v: np.ndarray) -> None:
        """v <- U^{-T} v: the second sweep of apply."""
        t = v[self.rd]
        self._add_to_sk(v, _mT(self.coupling) @ t, np.add)
        v[self.prd] = self.lower @ t
        if self.interp is not None:
            v[self.rd] += _mT(self.interp) @ v[self.sk]


def _mT(a: np.ndarray) -> np.ndarray:
    """The transpose of each matrix of a stack."""
    return a.transpose(0, 2, 1)


@dataclass
class LevelFactor:
    """One (possibly fractional) level of the factor: its records as the
    flat arrays ``flats`` and its solve plan, the ``groups`` of the records
    that eliminate something, whose stacks are views of ``flats``.

    ``flats`` holds per record its |rd| (``rd_len``), |sk| (``sk_len``) and
    whether it has an interpolation (``has_interp``), and each record's
    ``rd``, ``sk``, ``coupling``, ``interp``, ``lower``, ``perm``, ``diag``
    and ``sub`` (D's subdiagonal, zero-padded) raveled back to back, in the
    dtypes of ``factor_ops.FLAT_DTYPES``. No per-record object is kept:
    ``records`` builds them on demand.
    """

    level: float
    spd: bool
    flats: dict
    groups: list

    @property
    def records(self) -> list[Record]:
        """The level's records in order, as views of ``flats``; built anew
        on each access."""
        p = self.flats
        r, s, hi = p["rd_len"], p["sk_len"], p["has_interp"]
        # each record's part of each flat array, by slicing (np.split costs
        # ~4 us a piece), in the order of the zip below
        parts = [[p[key][e - k:e] for k, e in zip(size.tolist(), np.cumsum(size).tolist())]
                 for key, size in record_sizes(r, s, hi).items()]
        mode = "cholesky" if self.spd else "ldl"
        empty = EMPTY_FACTOR[self.spd]
        return [
            Record(rd, sk, LdlFactor(mode, lower.reshape(m, m), BlockDiag(diag, sub), perm)
                   if m else empty, x.reshape(m, n), t.reshape(n, m) if h else None)
            for m, n, h, rd, sk, x, t, lower, perm, diag, sub in zip(
                r.tolist(), s.tolist(), hi.tolist(), *parts)]

    def eliminated_count(self) -> int:
        return len(self.flats["rd"])

    def nfloats(self) -> int:
        """The floats of the level's records, as ``Record.nfloats`` counts
        them: L, X, T and D, whose 2x2 pivots count 3 each."""
        p = self.flats
        return int(p["lower"].size + p["coupling"].size + p["interp"].size
                   + p["diag"].size + 3 * np.count_nonzero(p["sub"]))


@dataclass
class GeneralizedLDL:
    """Approximate generalized LDL factorization of a sparse symmetric matrix.

    apply() multiplies by the factored operator, apply_inverse() by its
    inverse; both sweep the levels' groups forward and back. Either takes
    a vector or an (N, m) block of columns and returns the same shape; a
    block is swept on one BLAS thread (``dense.one_blas_thread``).
    ``top`` is the factored dense block over the DOFs still active at the
    end (``top_idx``), swept as the plan's last group.
    """

    n: int
    dim: int
    spd: bool
    eps: float
    levels: list[LevelFactor]
    top_idx: np.ndarray
    top: LdlFactor
    metrics: dict = field(default_factory=dict)

    # -- operator actions --------------------------------------------------

    def _groups(self) -> list[Group]:
        """The solve plan: the levels' groups, then the top block's, built
        on each call from views of ``top``'s arrays (an in-place edit of
        them changes the operator)."""
        groups = [g for lf in self.levels for g in lf.groups]
        t, m = self.top, len(self.top_idx)
        if m:
            groups.append(Group(self.top_idx[None], np.zeros((1, 0), np.int64),
                                np.zeros((1, m, 0)), t.lower[None], t.perm[None],
                                t.d.diag[None], t.d.sub[None], None))
        return groups

    # A group's D block acts on its eliminated DOFs, which no later group
    # reads or writes, so it is applied right after the group's U action.
    def apply(self, x: np.ndarray) -> np.ndarray:
        """y ~= A x through the factored chain."""
        v = _columns(x, self.n)
        groups = self._groups()
        with _sweep_threads(v):
            for g in groups:
                g.apply_forward(v)
            for g in reversed(groups):
                g.apply_backward(v)
        return v.reshape(np.shape(x))

    def apply_inverse(self, b: np.ndarray) -> np.ndarray:
        """x ~= A^{-1} b through the factored chain."""
        v = _columns(b, self.n)
        groups = self._groups()
        with _sweep_threads(v):
            for g in groups:
                g.solve_forward(v)
            for g in reversed(groups):
                g.solve_backward(v)
        return v.reshape(np.shape(b))

    # -- accounting ---------------------------------------------------------

    def storage_bytes(self) -> int:
        """8 bytes per float of the levels' records and the top block."""
        return 8 * (self.top.nfloats() + sum(lf.nfloats() for lf in self.levels))

    def check(self) -> None:
        """Raise ValueError unless the level tags are finite and increase
        strictly, and the eliminated DOFs and ``top_idx`` cover 0..n-1 exactly once."""
        tags = [lf.level for lf in self.levels]
        if not all(math.isfinite(t) for t in tags):
            raise ValueError("level tags not finite")
        if any(b <= a for a, b in zip(tags, tags[1:])):
            raise ValueError("level tags not strictly increasing")
        idx = np.concatenate([lf.flats["rd"] for lf in self.levels] + [self.top_idx])
        if len(idx) != self.n or np.any(np.bincount(idx, minlength=self.n) != 1):
            raise ValueError("eliminated DOFs and top block do not cover "
                             f"0..{self.n - 1} exactly once")


def _run_levels(a: SparseSymMatrix, grid: GridConfig, spd: bool, eps: float,
                schedule) -> GeneralizedLDL:
    """Common driver loop: ``schedule`` yields (level_tag, cellset,
    is_skeleton) from the working matrix, which starts as ``a``'s entries
    with a copy of its active flags and is replaced by each level's step;
    ``a`` is not changed. It all runs under ``_factor_threads``, whose
    counts ``metrics["blas_threads"]`` records. ``metrics["dense_from"]``
    is the tag of the level whose output made the working matrix dense
    (None if none did) and ``metrics["dense_order"]`` its order then.

    A FactorizationError is given the level tag, the group's index and its
    size (``FactorizationError.locate``). A matrix of another size than
    the grid, or an eps that is not finite and >= 0, raises ValueError."""
    if a.n != grid.ndof:
        raise ValueError(f"matrix of {a.n} DOFs on a grid of {grid.ndof} DOFs")
    if not (math.isfinite(eps) and eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    t0 = time.perf_counter()
    with _factor_threads():
        threads = blas_threads()
        w = SparseSymMatrix(a.n, a.indptr, a.indices, a.data, a.active.copy())
        levels: list[LevelFactor] = []
        trace: list[tuple[float, int]] = [(-1.0, int(w.active.sum()))]
        level_times: list[tuple[float, float]] = []
        dense_from = dense_order = None
        for tag, cs, is_skel in schedule(w):
            t_level = time.perf_counter()
            if is_skel:
                flats = skeletonize_level(w, cs, eps, tag, spd)
            else:
                flats = eliminate_level(w, cs, tag, spd)
            levels.append(_level(tag, spd, flats))
            trace.append((tag, int(w.active.sum())))
            if dense_from is None and isinstance(w, DenseSymMatrix):
                dense_from, dense_order = tag, len(w.dofs)
            level_times.append((tag, time.perf_counter() - t_level))
        s_top = np.flatnonzero(w.active)
        block = w.gather(s_top, s_top)
        # the working matrix, dense by now on most grids, is not needed again
        del w
        try:
            top = ldl(block, spd)
        except FactorizationError as exc:
            exc.locate(None, None, len(s_top))
            raise
    f = GeneralizedLDL(
        n=a.n, dim=grid.dim, spd=spd, eps=eps, levels=levels,
        top_idx=s_top, top=top,
    )
    f.check()
    f.metrics = {
        "s_top": len(s_top),
        "active_trace": trace,
        "level_seconds": level_times,
        "blas_threads": threads,
        "dense_from": dense_from,
        "dense_order": dense_order,
        "m_f_bytes": f.storage_bytes(),
        "t_f_seconds": time.perf_counter() - t0,
    }
    return f


def _factor_threads():
    """The BLAS threads of a factorization (its schedule, level steps and
    top block): SciPy's copy on one thread, NumPy's on the process's count.
    The level steps make thousands of small per-block LAPACK and trsm
    calls, and a second SciPy thread only contends with NumPy's pool for
    the cores (on 2 cores, Ex. 6 3D n=32 hifde3x took 6.0-6.9 s unpinned
    against 3.6-5.1 s pinned). The pin is set once per factor: setting a
    count costs more than one small call gains. NumPy's stacked matmuls
    keep the process's count, as pinning them too changes the 3D factors'
    ranks."""
    return one_blas_thread("scipy")


def _sweep_threads(v: np.ndarray):
    """The BLAS threads of a sweep over the columns v: one for a block,
    whose stacked matmuls and trsms ran ~2.5x faster so on a 2-core host;
    the process's count for a single column, whose gemv-sized calls gain
    nothing and pay the switch."""
    return one_blas_thread("numpy", "scipy") if v.shape[1] > 1 else nullcontext()


def _columns(x, n: int) -> np.ndarray:
    """A C-ordered float copy of x as an (n, m) array of columns; x must be
    a real vector of length n or a real (n, m) array."""
    if np.iscomplexobj(x):
        raise ValueError(f"input is complex ({np.asarray(x).dtype}); a real one is needed")
    v = np.array(x, dtype=float, order="C")
    if v.ndim not in (1, 2) or len(v) != n:
        raise ValueError(f"expected a vector of length {n} or a ({n}, m) array, "
                         f"got shape {v.shape}")
    return v.reshape(n, -1)


# The schedules: each yields (level_tag, cellset, is_skeleton) per level
# from the working matrix ``mat`` as the factorization reaches that level.

def _hifde_schedule(grid: GridConfig, skip_levels: int):
    kind = "edge" if grid.dim == 2 else "face"

    def schedule(mat):
        for ell in range(grid.nlevels):
            yield float(ell), interior_cells(grid, ell, mat.active), False
            if ell >= skip_levels:
                cs = interface_cells(grid, ell, mat.active, kind)
                yield ell + 0.5, cs, True
    return schedule


def _hifde3x_schedule(grid: GridConfig, skip_levels: int):
    def schedule(mat):
        for ell in range(grid.nlevels):
            if ell == 0:
                cells = interior_cells(grid, ell, mat.active)
            else:
                cells = adaptive_interior_cells(mat, grid, ell)
            yield float(ell), cells, False
            yield ell + 1.0 / 3.0, interface_cells(grid, ell, mat.active, "face"), True
            if ell >= skip_levels:
                yield ell + 2.0 / 3.0, interface_cells(grid, ell, mat.active, "edge"), True
    return schedule


def factor_mf(a: SparseSymMatrix, grid: GridConfig, spd: bool = True) -> GeneralizedLDL:
    """Multifrontal factorization: exact to rounding."""
    # no level reaches skip_levels, so no level skeletonizes
    return _run_levels(a, grid, spd, 0.0, _hifde_schedule(grid, grid.nlevels))


def _check_skip_levels(skip_levels) -> None:
    if isinstance(skip_levels, bool) or not isinstance(skip_levels, numbers.Integral) \
            or skip_levels < 0:
        raise ValueError(f"skip_levels must be an integer >= 0, got {skip_levels!r}")


def factor_hifde(a: SparseSymMatrix, grid: GridConfig, eps: float,
                 spd: bool = True, skip_levels: int = 0) -> GeneralizedLDL:
    """Interior elimination plus edge (2D) / face (3D) skeletonization,
    from level ``skip_levels`` on (an integer >= 0, else ValueError)."""
    _check_skip_levels(skip_levels)
    return _run_levels(a, grid, spd, eps, _hifde_schedule(grid, skip_levels))


def factor_hifde3x(a: SparseSymMatrix, grid: GridConfig, eps: float,
                   spd: bool = True, skip_levels: int = 1) -> GeneralizedLDL:
    """3D with face and edge skeletonization (full reduction to points).

    Edge compression couples DOFs across cell boundaries, so interior
    cells at levels >= 1 are rebuilt adaptively from the sparsity pattern.
    Edge skeletonization is skipped for the first ``skip_levels`` levels
    (an integer >= 0, else ValueError).
    """
    if grid.dim != 3:
        raise ValueError("factor_hifde3x requires a 3D grid")
    _check_skip_levels(skip_levels)
    return _run_levels(a, grid, spd, eps, _hifde3x_schedule(grid, skip_levels))


# -- serialization -----------------------------------------------------------

_VERSION = 2
# the scalar members of the archive; every other member is a 1-D array
_SCALARS = {"version", "n", "dim", "spd", "eps"}
_FIELDS = {*_SCALARS, "level_tags", "level_sizes", "top_idx", *FLAT_DTYPES}


def _level(tag: float, spd: bool, p: dict) -> LevelFactor:
    """The level of the flat arrays ``p`` (see LevelFactor), with its groups
    as views of them. A group is a run of adjacent records with equal
    (|rd|, |sk|, has interp) and a nonempty rd."""
    r, s, hi = p["rd_len"], p["sk_len"], p["has_interp"]
    starts = {key: np.cumsum(size) - size for key, size in record_sizes(r, s, hi).items()}
    keys = np.stack([r, s, hi])
    cuts = np.flatnonzero(np.any(keys[:, 1:] != keys[:, :-1], axis=0)) + 1
    edges = [0, *cuts.tolist(), len(r)] if len(r) else []
    groups = []
    for a, b in zip(edges, edges[1:]):
        m, n, k = int(r[a]), int(s[a]), b - a
        if not m:
            continue
        shapes = dict(rd=(m,), sk=(n,), coupling=(m, n), lower=(m, m), perm=(m,),
                      diag=(m,), sub=(m,), interp=(n, m) if hi[a] else None)
        groups.append(Group(**{
            key: p[key][starts[key][a]:][:k * math.prod(shape)].reshape(k, *shape)
            if shape else None for key, shape in shapes.items()}))
    return LevelFactor(tag, spd, p, groups)


def save_factor(f: GeneralizedLDL, path) -> None:
    """Write the factor to ``path`` as an uncompressed ``.npz`` archive.

    Each flat array of the levels (see LevelFactor) is stored as one array,
    the levels' parts back to back, so each group is a contiguous run; the
    top block's factor follows the records' in ``lower``, ``perm``,
    ``diag`` and ``sub``. The block mode is not stored: it is Cholesky
    exactly when ``f.spd``.
    """
    top = dict(lower=f.top.lower, perm=f.top.perm, diag=f.top.d.diag, sub=f.top.d.sub)
    members = dict(
        version=_VERSION, n=f.n, dim=f.dim, spd=f.spd, eps=f.eps,
        level_tags=np.array([lf.level for lf in f.levels], "<f8"),
        level_sizes=np.array([len(lf.flats["rd_len"]) for lf in f.levels], "<i8"),
        top_idx=f.top_idx.astype("<i8"))
    # what np.savez writes
    with open(path, "wb") as fh, zipfile.ZipFile(fh, "w", allowZip64=True) as zf:
        def write(key, value):
            with zf.open(f"{key}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(value), allow_pickle=False)

        for key, value in members.items():
            write(key, value)
        # each flat array is joined only when it is written, so at most one
        # is held beside the factor
        for key, dtype in FLAT_DTYPES.items():
            parts = [lf.flats[key] for lf in f.levels] + [top.get(key, np.zeros(0, dtype))]
            write(key, np.concatenate(parts, axis=None, dtype=dtype))


def load_factor(path) -> GeneralizedLDL:
    """Read a factor written by save_factor. A file that is not one (a
    truncated or corrupted archive, a version-1 file, a member of another
    shape or dtype, an eps not finite and >= 0, inconsistent lengths, an
    index outside [0, n), a pivot order that is not a permutation, 2x2
    pivots that overlap or run past their block, a level tag not finite, a
    broken DOF partition) raises ValueError naming the problem.

    Each level's flat arrays are views of the archive's, and so are its
    groups; no record is built. A file whose records are not in group order
    loads too, into more, shorter groups."""
    with open(path, "rb") as fh:
        if fh.read(4) == b"GLDL":
            raise ValueError(f"{path}: version-1 factor files are no longer "
                             "read; factor the matrix again")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as z:
                a = {k: z[k] for k in z.files}
        except Exception as exc:
            # zip CRC-32 mismatches, truncation and non-archives all land here
            raise ValueError(f"{path}: not a readable factor archive ({exc})") from exc

    def need(ok, what):
        if not ok:
            raise ValueError(f"{path}: {what}")

    need(a.keys() == _FIELDS, f"not a version-{_VERSION} factor archive")
    for key in sorted(_FIELDS):
        scalar = key in _SCALARS
        need(a[key].ndim == (0 if scalar else 1),
             f"member {key} is not " + ("a scalar" if scalar else "a 1-D array"))
    need(a["version"] == _VERSION, f"not a version-{_VERSION} factor archive")
    dtypes = dict(FLAT_DTYPES, top_idx="<i8", level_sizes="<i8")
    need(all(a[k].dtype == d for k, d in dtypes.items()),
         "array dtypes are not those save_factor writes")
    n, spd, top_idx, eps = int(a["n"]), bool(a["spd"]), a["top_idx"], float(a["eps"])
    need(math.isfinite(eps) and eps >= 0.0, f"eps {eps} is not finite and >= 0")
    rd_len, sk_len, has_interp = a["rd_len"], a["sk_len"], a["has_interp"]
    need(len(sk_len) == len(has_interp) == len(rd_len) == a["level_sizes"].sum()
         and len(a["level_tags"]) == len(a["level_sizes"])
         and np.concatenate([rd_len, sk_len, a["level_sizes"]]).min(initial=0) >= 0,
         "record counts disagree")
    # the top block's factor follows the records' in lower/perm/diag/sub
    mt = len(top_idx)
    one = np.ones_like(rd_len)
    per_record = dict(rd_len=one, sk_len=one, has_interp=one,
                      **record_sizes(rd_len, sk_len, has_interp))
    top_len = dict(lower=mt * mt, perm=mt, diag=mt, sub=mt)
    need(all(a[k].size == size.sum() + top_len.get(k, 0) for k, size in per_record.items()),
         "array lengths disagree with the record lengths")
    for key in ("rd", "sk", "top_idx"):
        need(np.all((a[key] >= 0) & (a[key] < n)), f"{key} index outside [0, {n})")
    m = np.append(rd_len, mt)
    start, size = np.repeat(np.cumsum(m) - m, m), np.repeat(m, m)
    need(np.all((a["perm"] >= 0) & (a["perm"] < size))
         and np.all(np.bincount(a["perm"] + start, minlength=len(start)) == 1),
         "pivot order is not a permutation")
    need(not a["sub"][(np.cumsum(m) - 1)[m > 0]].any(), "a 2x2 pivot runs past its block")
    pivot = a["sub"] != 0
    need(not (pivot[1:] & pivot[:-1]).any(), "two 2x2 pivots overlap")

    # each flat array cut at the level boundaries
    level_ends = np.append(0, np.cumsum(a["level_sizes"]))
    cut = {key: np.append(0, np.cumsum(size))[level_ends].tolist()
           for key, size in per_record.items()}
    levels = [_level(float(tag), spd, {key: a[key][c[i]:c[i + 1]] for key, c in cut.items()})
              for i, tag in enumerate(a["level_tags"])]
    lo, pd = cut["lower"][-1], cut["perm"][-1]
    top = (LdlFactor("cholesky" if spd else "ldl", a["lower"][lo:].reshape(mt, mt),
                     BlockDiag(a["diag"][pd:], a["sub"][pd:]), a["perm"][pd:])
           if mt else EMPTY_FACTOR[spd])
    f = GeneralizedLDL(n=n, dim=int(a["dim"]), spd=spd, eps=eps,
                       levels=levels, top_idx=top_idx, top=top)
    f.check()
    return f
