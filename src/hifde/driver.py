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
easily invertible triangular/interpolation maps. Each level holds one
``Record`` per group (an elimination, after an interpolation on a
skeletonized group). The input matrix is consumed (mutated) during
construction.

save_factor/load_factor persist a factor as an ``.npz`` archive of flat
arrays; load_factor checks the archive and refuses a corrupted one.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

try:
    from threadpoolctl import threadpool_limits as _threadpool_limits
except ImportError:  # pragma: no cover
    _threadpool_limits = None


def _cell_loop_threads():
    """BLAS context for the per-cell sweep: the blocks are small, so one
    thread is fastest unless HIFDE_NUM_THREADS overrides."""
    if _threadpool_limits is None:
        return nullcontext()
    cap = os.environ.get("HIFDE_NUM_THREADS")
    return _threadpool_limits(limits=int(cap) if cap else 1)

from .dense import EMPTY_FACTOR, BlockDiag, LdlFactor, ldl
from .discretize import GridConfig
from .factor_ops import Record, eliminate_cell, skeletonize_cell
from .partition import (adaptive_interior_cells, assert_noninteracting,
                        interface_cells, interior_cells)
from .sparse import DofState, SparseSymMatrix

__all__ = [
    "LevelFactor",
    "GeneralizedLDL",
    "factor_mf",
    "factor_hifde",
    "factor_hifde3x",
    "densify",
    "save_factor",
    "load_factor",
]


@dataclass
class LevelFactor:
    """All records produced at one (possibly fractional) level."""

    level: float
    records: list

    def eliminated_count(self) -> int:
        return sum(len(r.eliminated()) for r in self.records)


@dataclass
class GeneralizedLDL:
    """Approximate generalized LDL factorization of a sparse symmetric matrix.

    apply() multiplies by the factored operator, apply_inverse() by its
    inverse; both cost one sweep through the stored records. ``top`` is the
    factored dense block over the DOFs still active at the end (``top_idx``).
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

    def records(self) -> list[Record]:
        """Every record, in the order the levels made them."""
        return [rec for lf in self.levels for rec in lf.records]

    # A record's D block acts on its eliminated DOFs, which no later record
    # reads or writes, so it is applied right after the record's U action.
    def apply(self, x: np.ndarray) -> np.ndarray:
        """y ~= A x through the factored chain."""
        v = np.array(x, dtype=float, copy=True)
        recs = self.records()
        for rec in recs:
            rec.apply_u_inv(v)
            rec.apply_d(v)
        v[self.top_idx] = self.top.apply(v[self.top_idx])
        for rec in reversed(recs):
            rec.apply_u_inv_t(v)
        return v

    def apply_inverse(self, b: np.ndarray) -> np.ndarray:
        """x ~= A^{-1} b through the factored chain."""
        v = np.array(b, dtype=float, copy=True)
        recs = self.records()
        for rec in recs:
            rec.apply_ut(v)
            rec.solve_d(v)
        v[self.top_idx] = self.top.solve(v[self.top_idx])
        for rec in reversed(recs):
            rec.apply_u(v)
        return v

    # -- accounting ---------------------------------------------------------

    def nfloats(self) -> int:
        return self.top.nfloats() + sum(rec.nfloats() for rec in self.records())

    def storage_bytes(self) -> int:
        return 8 * self.nfloats()

    def check(self) -> None:
        """Raise ValueError unless the level tags strictly increase and the
        eliminated DOFs and ``top_idx`` cover 0..n-1 exactly once."""
        tags = [lf.level for lf in self.levels]
        if any(b <= a for a, b in zip(tags, tags[1:])):
            raise ValueError("level tags not strictly increasing")
        idx = np.concatenate([rec.rd for rec in self.records()] + [self.top_idx])
        if len(idx) != self.n or np.any(np.bincount(idx, minlength=self.n) != 1):
            raise ValueError("eliminated DOFs and top block do not cover "
                             f"0..{self.n - 1} exactly once")


def _run_levels(a: SparseSymMatrix, grid: GridConfig, spd: bool, eps: float,
                schedule, verify: bool) -> GeneralizedLDL:
    """Common driver loop: ``schedule`` yields (level_tag, cellset, kind)."""
    t0 = time.perf_counter()
    state = DofState(a.n)
    levels: list[LevelFactor] = []
    trace: list[tuple[float, int]] = [(-1.0, int(a.active.sum()))]
    level_times: list[tuple[float, float]] = []
    with _cell_loop_threads():
        for tag, cs, is_skel in schedule(a):
            t_level = time.perf_counter()
            records = []
            if not is_skel:
                if verify:
                    assert_noninteracting(a, cs)
                for members in cs.cells:
                    records.append(eliminate_cell(a, state, members, tag, spd))
            else:
                for members in cs.cells:
                    records.append(skeletonize_cell(a, state, members, eps, tag, spd))
            levels.append(LevelFactor(tag, records))
            trace.append((tag, int(a.active.sum())))
            level_times.append((tag, time.perf_counter() - t_level))
    s_top = np.flatnonzero(a.active)
    top = ldl(a.gather(s_top, s_top), spd)
    f = GeneralizedLDL(
        n=a.n, dim=grid.dim, spd=spd, eps=eps, levels=levels,
        top_idx=s_top, top=top,
    )
    f.check()
    f.metrics = {
        "s_top": len(s_top),
        "active_trace": trace,
        "level_seconds": level_times,
        "m_f_bytes": f.storage_bytes(),
        "t_f_seconds": time.perf_counter() - t0,
    }
    return f


def factor_mf(a: SparseSymMatrix, grid: GridConfig, spd: bool = True,
              verify: bool = False) -> GeneralizedLDL:
    """Multifrontal factorization: exact to rounding."""

    def schedule(mat):
        for ell in range(grid.nlevels):
            yield float(ell), interior_cells(grid, ell, mat.active), False

    return _run_levels(a, grid, spd, 0.0, schedule, verify)


def factor_hifde(a: SparseSymMatrix, grid: GridConfig, eps: float,
                 spd: bool = True, skip_levels: int = 0,
                 verify: bool = False) -> GeneralizedLDL:
    """Interior elimination plus edge (2D) / face (3D) skeletonization."""
    kind = "edge" if grid.dim == 2 else "face"

    def schedule(mat):
        for ell in range(grid.nlevels):
            yield float(ell), interior_cells(grid, ell, mat.active), False
            if ell >= skip_levels:
                cs = interface_cells(grid, ell, mat.active, kind)
                yield ell + 0.5, cs, True

    return _run_levels(a, grid, spd, eps, schedule, verify)


def factor_hifde3x(a: SparseSymMatrix, grid: GridConfig, eps: float,
                   spd: bool = True, skip_levels: int = 1,
                   verify: bool = False) -> GeneralizedLDL:
    """3D with face and edge skeletonization (full reduction to points).

    Edge compression couples DOFs across cell boundaries, so interior
    cells at levels >= 1 are rebuilt adaptively from the sparsity pattern.
    Edge skeletonization is skipped for the first ``skip_levels`` levels.
    """
    if grid.dim != 3:
        raise ValueError("factor_hifde3x requires a 3D grid")

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

    return _run_levels(a, grid, spd, eps, schedule, verify)


def densify(f: GeneralizedLDL) -> np.ndarray:
    """Dense N x N matrix of the factored operator (testing oracle)."""
    return f.apply(np.eye(f.n))


# -- serialization -----------------------------------------------------------

_VERSION = 2
_FIELDS = frozenset("""version n dim spd eps level_tags level_sizes rd_len sk_len
    has_interp rd sk coupling interp top_idx lower perm diag sub""".split())


def _flat(parts, dtype) -> np.ndarray:
    flat = np.concatenate([np.ravel(p) for p in parts] + [np.zeros(0, dtype)])
    return flat.astype(dtype, copy=False)


def _split(flat: np.ndarray, sizes: np.ndarray) -> list:
    # slicing, not np.split, which costs ~4 us a piece
    ends = np.cumsum(sizes).tolist()
    return [flat[e - k:e] for k, e in zip(sizes.tolist(), ends)]


def save_factor(f: GeneralizedLDL, path) -> None:
    """Write the factor to ``path`` as an uncompressed ``.npz`` archive.

    The records of all levels are stored back to back as flat arrays plus
    per-record lengths; the top block's factor follows the records'. The
    block mode is not stored: it is Cholesky exactly when ``f.spd``.
    """
    recs = f.records()
    facs = [r.factor for r in recs] + [f.top]
    arrays = dict(
        version=_VERSION, n=f.n, dim=f.dim, spd=f.spd, eps=f.eps,
        level_tags=_flat([lf.level for lf in f.levels], "<f8"),
        level_sizes=_flat([len(lf.records) for lf in f.levels], "<i8"),
        rd_len=_flat([len(r.rd) for r in recs], "<i8"),
        sk_len=_flat([len(r.sk) for r in recs], "<i8"),
        has_interp=_flat([r.interp is not None for r in recs], "?"),
        rd=_flat([r.rd for r in recs], "<i8"), sk=_flat([r.sk for r in recs], "<i8"),
        coupling=_flat([r.coupling for r in recs], "<f8"),
        interp=_flat([r.interp for r in recs if r.interp is not None], "<f8"),
        top_idx=_flat([f.top_idx], "<i8"),
        lower=_flat([fac.lower for fac in facs], "<f8"),
        perm=_flat([fac.perm for fac in facs], "<i8"),
        diag=_flat([fac.d.diag for fac in facs], "<f8"),
        sub=_flat([fac.d.subdiag() for fac in facs], "<f8"),
    )
    # a file handle, because np.savez appends ".npz" to a path without it
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_factor(path) -> GeneralizedLDL:
    """Read a factor written by save_factor. A file that is not one (a
    truncated or corrupted archive, a version-1 file, inconsistent lengths,
    an index outside [0, n), a broken DOF partition) raises ValueError."""
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

    need(a.get("version") == _VERSION and a.keys() == _FIELDS,
         f"not a version-{_VERSION} factor archive")
    n, spd, top_idx = int(a["n"]), bool(a["spd"]), a["top_idx"]
    rd_len, sk_len, has_interp = a["rd_len"], a["sk_len"], a["has_interp"]
    need(len(sk_len) == len(has_interp) == len(rd_len) == a["level_sizes"].sum()
         and len(a["level_tags"]) == len(a["level_sizes"])
         and np.concatenate([rd_len, sk_len, a["level_sizes"]]).min(initial=0) >= 0,
         "record counts disagree")
    m, k_rd = np.append(rd_len, len(top_idx)), rd_len * sk_len
    sizes = dict(rd=rd_len.sum(), sk=sk_len.sum(), coupling=k_rd.sum(),
                 interp=k_rd[has_interp].sum(), lower=(m * m).sum(), perm=m.sum(),
                 diag=m.sum(), sub=m.sum())
    need(all(a[k].size == v for k, v in sizes.items()),
         "array lengths disagree with the record lengths")
    for key in ("rd", "sk", "top_idx"):
        need(np.all((a[key] >= 0) & (a[key] < n)), f"{key} index outside [0, {n})")
    start, size = np.repeat(np.cumsum(m) - m, m), np.repeat(m, m)
    need(np.all((a["perm"] >= 0) & (a["perm"] < size))
         and np.all(np.bincount(a["perm"] + start, minlength=len(start)) == 1),
         "pivot order is not a permutation")

    mode = "cholesky" if spd else "ldl"
    facs = [LdlFactor(mode, lower.reshape(mi, mi), BlockDiag(diag, sub[:-1]), perm)
            if mi else EMPTY_FACTOR[spd]
            for mi, lower, perm, diag, sub in zip(
                m, _split(a["lower"], m * m), _split(a["perm"], m), _split(a["diag"], m),
                _split(a["sub"], m))]
    interps = iter(_split(a["interp"], k_rd[has_interp]))
    records = [Record(rd, sk, fac, x.reshape(len(rd), len(sk)),
                      next(interps).reshape(len(sk), len(rd)) if hi else None)
               for rd, sk, fac, x, hi in zip(_split(a["rd"], rd_len), _split(a["sk"], sk_len),
                                             facs, _split(a["coupling"], k_rd), has_interp)]
    ends = np.cumsum(a["level_sizes"])
    levels = [LevelFactor(float(tag), records[e - c:e])
              for tag, c, e in zip(a["level_tags"], a["level_sizes"], ends)]
    f = GeneralizedLDL(n=n, dim=int(a["dim"]), spd=spd, eps=float(a["eps"]),
                       levels=levels, top_idx=top_idx, top=facs[-1])
    f.check()
    return f
