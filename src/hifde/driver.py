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
easily invertible triangular/interpolation maps. The input matrix is
consumed (mutated) during construction.
"""

from __future__ import annotations

import os
import struct
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

from .dense import BlockDiag, LdlFactor, ldl
from .discretize import GridConfig
from .factor_ops import EliminationRecord, SkeletonRecord, eliminate_cell, skeletonize_cell
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

    def apply(self, x: np.ndarray) -> np.ndarray:
        """y ~= A x through the factored chain."""
        v = np.array(x, dtype=float, copy=True)
        for lf in self.levels:
            for rec in lf.records:
                rec.apply_u_inv(v)
        for lf in self.levels:
            for rec in lf.records:
                rec.apply_d(v)
        if len(self.top_idx):
            v[self.top_idx] = self.top.apply(v[self.top_idx])
        for lf in reversed(self.levels):
            for rec in reversed(lf.records):
                rec.apply_u_inv_t(v)
        return v

    def apply_inverse(self, b: np.ndarray) -> np.ndarray:
        """x ~= A^{-1} b through the factored chain."""
        v = np.array(b, dtype=float, copy=True)
        for lf in self.levels:
            for rec in lf.records:
                rec.apply_ut(v)
        for lf in self.levels:
            for rec in lf.records:
                rec.solve_d(v)
        if len(self.top_idx):
            v[self.top_idx] = self.top.solve(v[self.top_idx])
        for lf in reversed(self.levels):
            for rec in reversed(lf.records):
                rec.apply_u(v)
        return v

    # -- accounting ---------------------------------------------------------

    def nfloats(self) -> int:
        total = self.top.nfloats()
        for lf in self.levels:
            total += sum(r.nfloats() for r in lf.records)
        return total

    def storage_bytes(self) -> int:
        return 8 * self.nfloats()

    def eliminated_accounting(self) -> int:
        """Eliminated DOFs across all records plus the terminal block."""
        return sum(lf.eliminated_count() for lf in self.levels) + len(self.top_idx)

    def check_level_tags(self) -> None:
        tags = [lf.level for lf in self.levels]
        if any(b <= a for a, b in zip(tags, tags[1:])):
            raise AssertionError("level tags not strictly increasing")


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
    f.check_level_tags()
    if state.eliminated_count() + len(s_top) != a.n:
        raise AssertionError("eliminated-DOF accounting mismatch")
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

_MAGIC = b"GLDL"
_VERSION = 1


def _write_arr(fh, arr: np.ndarray, dtype: str) -> None:
    a = np.ascontiguousarray(arr, dtype=dtype)
    fh.write(struct.pack("<q", a.size))
    fh.write(a.tobytes())


def _read_arr(fh, dtype: str, shape=None) -> np.ndarray:
    (size,) = struct.unpack("<q", fh.read(8))
    a = np.frombuffer(fh.read(size * np.dtype(dtype).itemsize), dtype=dtype).copy()
    return a.reshape(shape) if shape is not None else a


def _write_ldl(fh, fac: LdlFactor) -> None:
    fh.write(struct.pack("<Bq", 0 if fac.mode == "cholesky" else 1, fac.n))
    _write_arr(fh, fac.lower, "<f8")
    _write_arr(fh, fac.perm, "<i8")
    _write_arr(fh, fac.d.diag, "<f8")
    fh.write(struct.pack("<q", len(fac.d.pairs)))
    for i, p, c, d in fac.d.pairs:
        fh.write(struct.pack("<q3d", i, p, c, d))


def _read_ldl(fh) -> LdlFactor:
    mode_b, n = struct.unpack("<Bq", fh.read(9))
    lower = _read_arr(fh, "<f8", (n, n))
    perm = _read_arr(fh, "<i8")
    diag = _read_arr(fh, "<f8")
    (npairs,) = struct.unpack("<q", fh.read(8))
    pairs = [struct.unpack("<q3d", fh.read(32)) for _ in range(npairs)]
    return LdlFactor("cholesky" if mode_b == 0 else "ldl", lower,
                     BlockDiag.from_parts(diag, pairs), perm)


def _write_elim(fh, rec: EliminationRecord) -> None:
    _write_arr(fh, rec.cell, "<i8")
    _write_arr(fh, rec.nbrs, "<i8")
    _write_ldl(fh, rec.factor)
    _write_arr(fh, rec.coupling, "<f8")


def _read_elim(fh) -> EliminationRecord:
    cell = _read_arr(fh, "<i8")
    nbrs = _read_arr(fh, "<i8")
    fac = _read_ldl(fh)
    coupling = _read_arr(fh, "<f8", (len(cell), len(nbrs)))
    return EliminationRecord(cell, nbrs, fac, coupling)


def save_factor(f: GeneralizedLDL, path) -> None:
    """Versioned little-endian binary dump of the factor."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IiqdBq", _VERSION, f.dim, f.n, f.eps,
                             int(f.spd), len(f.levels)))
        for lf in f.levels:
            fh.write(struct.pack("<dq", lf.level, len(lf.records)))
            for rec in lf.records:
                if isinstance(rec, EliminationRecord):
                    fh.write(b"E")
                    _write_elim(fh, rec)
                else:
                    fh.write(b"S")
                    _write_arr(fh, rec.cell, "<i8")
                    _write_arr(fh, rec.sk, "<i8")
                    _write_arr(fh, rec.rd, "<i8")
                    _write_arr(fh, rec.interp, "<f8")
                    fh.write(struct.pack("<B", rec.elim is not None))
                    if rec.elim is not None:
                        _write_elim(fh, rec.elim)
        _write_arr(fh, f.top_idx, "<i8")
        _write_ldl(fh, f.top)


def load_factor(path) -> GeneralizedLDL:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ValueError("not a factor file")
        version, dim, n, eps, spd, nlevels = struct.unpack("<IiqdBq", fh.read(33))
        if version != _VERSION:
            raise ValueError(f"unsupported factor version {version}")
        levels = []
        for _ in range(nlevels):
            tag, nrec = struct.unpack("<dq", fh.read(16))
            records = []
            for _ in range(nrec):
                kind = fh.read(1)
                if kind == b"E":
                    records.append(_read_elim(fh))
                else:
                    cell = _read_arr(fh, "<i8")
                    sk = _read_arr(fh, "<i8")
                    rd = _read_arr(fh, "<i8")
                    interp = _read_arr(fh, "<f8", (len(sk), len(rd)))
                    (has_elim,) = struct.unpack("<B", fh.read(1))
                    elim = _read_elim(fh) if has_elim else None
                    records.append(SkeletonRecord(cell, sk, rd, interp, elim))
            levels.append(LevelFactor(tag, records))
        top_idx = _read_arr(fh, "<i8")
        top = _read_ldl(fh)
    f = GeneralizedLDL(n=n, dim=dim, spd=bool(spd), eps=eps, levels=levels,
                       top_idx=top_idx, top=top)
    return f
