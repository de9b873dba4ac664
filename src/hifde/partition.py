"""Level-by-level grouping of active DOFs into cells, edges, and faces.

Integer levels partition the grid into non-interacting interior cells
buffered by separator hyperplanes. Fractional levels group the remaining
active DOFs into Voronoi cells about edge centers (2D), face centers (3D),
or edge centers (3D with edge compression). Points equidistant to several
interface centers by symmetry (cell corners in 2D, corner edges of faces
in 3D) are assigned to no group, which keeps every group's neighbor set
local to the adjoining cells; any other distance tie goes to the center
with the lowest linear index. All coordinate arithmetic is exact (integer,
in doubled grid units) so tie detection is deterministic.

Each grouping keys every DOF to its center once, in vectorized integer
arithmetic, and one sort (``_cellset``) turns the keys into groups, held
flat: the members back to back and each group's offset, which the level
steps slice; ``cells`` gives the groups as views, for the per-cell loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discretize import GridConfig
from .sparse import spans

__all__ = [
    "CellSet",
    "interior_cells",
    "interface_cells",
    "adaptive_interior_cells",
    "cells_to_csv",
]


@dataclass
class CellSet:
    """Disjoint index groups at one (possibly fractional) level, held flat:
    group i is ``members[offsets[i]:offsets[i + 1]]``. ``cs[i]`` is group i
    and ``cs[a:b]`` the CellSet of groups a to b - 1, both views."""

    level: float
    kind: str                      # "interior" | "edge" | "face"
    members: np.ndarray            # ascending DOF indices per group, back to back
    offsets: np.ndarray            # (len + 1,): each group's start, then the end
    centers: np.ndarray            # (len, dim), grid units

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, i):
        r, o = range(len(self))[i], self.offsets
        if isinstance(r, int):
            return self.members[o[r]:o[r + 1]]
        if r.step != 1:
            raise ValueError("a CellSet is sliced in steps of 1")
        a, b = r.start, max(r.start, r.stop)
        return CellSet(self.level, self.kind, self.members[o[a]:o[b]], o[a:b + 1] - o[a],
                       self.centers[a:b])

    @property
    def cells(self) -> list[np.ndarray]:
        """Each group's members, as views of ``members``."""
        return [self[i] for i in range(len(self))]


@lru_cache(maxsize=8)
def _coords_cached(dim: int, n: int) -> np.ndarray:
    return GridConfig(dim, n, 2, 1, 1.0 / n).dof_coords()


def _width(grid: GridConfig, ell: int) -> tuple[int, int]:
    """Cell width w and cells per side k of level ``ell``."""
    if not (0 <= ell < max(grid.nlevels, 1)):
        raise ValueError(f"level {ell} out of range")
    w = (1 << ell) * grid.m
    return w, grid.n // w


def _nearest(x2: np.ndarray, w: int, k: int, half) -> tuple[np.ndarray, np.ndarray]:
    """Index i of the lattice center nearest each coordinate x2, and that
    center (x2 and the center in doubled grid units). The centers lie at
    w*(i+1), i in [0, k-1), or, where ``half``, at w*(i+1/2), i in [0, k).
    Ties round down; ``half`` broadcasts against x2."""
    i = np.clip((x2 + w - 1 + half * w) // (2 * w), 1, k - 1 + half) - 1
    return i, w * (2 * i + 2 - half)


def _cellset(level, kind: str, sel: np.ndarray, keys: np.ndarray, cen2: np.ndarray) -> CellSet:
    """The DOFs ``sel`` grouped by ascending key (keys >= 0); a group's center
    is its first member's center ``cen2`` (doubled grid units)."""
    order = np.argsort(keys, kind="stable")
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1))
    return CellSet(float(level), kind, sel[order], np.append(starts, len(sel)),
                   cen2[order[starts]] / 2.0)


def _voronoi_cells(grid: GridConfig, w: int, k: int, sel: np.ndarray):
    """Key (linear index) and center (doubled units) of each DOF's cell."""
    i, cen2 = _nearest(2 * _coords_cached(grid.dim, grid.n)[sel], w, k, True)
    return i @ k ** np.arange(grid.dim), cen2


def interior_cells(grid: GridConfig, ell: int, active: np.ndarray) -> CellSet:
    """Active DOFs strictly inside each level-ell cell, grouped per cell.

    DOFs on the separator hyperplanes (any coordinate a multiple of the
    cell width) are excluded; empty cells are dropped.
    """
    w, k = _width(grid, ell)
    act = np.flatnonzero(active)
    sel = act[(_coords_cached(grid.dim, grid.n)[act] % w != 0).all(axis=1)]
    return _cellset(ell, "interior", sel, *_voronoi_cells(grid, w, k, sel))


def interface_cells(grid: GridConfig, ell: int, active: np.ndarray,
                    kind: str) -> CellSet:
    """Voronoi groups of active DOFs about interface centers.

    kind: "edge" in 2D, "face" or "edge" in 3D. Corner points (2D) and
    corner edges (3D faces) and triple corners (3D edges) are excluded.
    """
    dim = grid.dim
    if (dim, kind) not in {(2, "edge"), (3, "face"), (3, "edge")}:
        raise ValueError(f"unsupported interface kind {kind!r} in {dim}D")
    w, k = _width(grid, ell)
    if k < 2:
        raise ValueError(f"level {ell} has no interfaces: one cell spans the grid")
    act = np.flatnonzero(active)
    coords = _coords_cached(dim, grid.n)[act]
    kept = (coords % w == 0).sum(axis=1) < (dim if kind == "edge" else 2)
    sel, x2 = act[kept], 2 * coords[kept]

    # Families: one per axis. For faces the family axis is the face
    # normal (centers at multiples along it, half-offsets along the rest);
    # for edges it is the direction the edge runs (half-offset along it,
    # multiples along the rest). idx and cen are (N, family, axis).
    half = (np.arange(dim)[:, None] == np.arange(dim)) != (kind == "face")
    idx, cen = _nearest(x2[:, None, :], w, k, half)
    mul = np.cumprod(np.c_[np.ones(dim, dtype=np.int64), k - 1 + half[:, :-1]], axis=1)
    best = np.argmin(((x2[:, None, :] - cen) ** 2).sum(axis=2), axis=1)
    rows = np.arange(len(sel))
    keys = best * k ** dim + (idx[rows, best] * mul[best]).sum(axis=1)
    return _cellset(ell, kind, sel, keys, cen[rows, best])


def adaptive_interior_cells(a, grid: GridConfig, ell: int) -> CellSet:
    """Interior cells with minimal separators built from the sparsity.

    Active DOFs are Voronoi-assigned to the level-ell cell centers, and a
    cell keeps exactly its members that couple to no member of a later
    cell (ascending center order); empty cells are dropped. ``a`` is the
    working matrix, in either storage, read in row blocks (``spans``).

    Taken in order, each cell sheds the members that still couple to any
    other current cell: a kept member of an earlier one couples to no
    member of a later one, the pattern being symmetric. The cells do not
    interact; of two adjacent ones, the earlier gives its boundary layer to
    the separator and the later keeps all of its DOFs that face it.
    """
    w, k = _width(grid, ell)
    act = np.flatnonzero(a.active)
    keys, cen2 = _voronoi_cells(grid, w, k, act)
    cell_of = np.full(a.n, -1, dtype=np.int64)
    cell_of[act] = keys
    shed = np.zeros(len(act), dtype=bool)
    for r0, r1 in spans(a.row_lengths(act)):
        owner, cols, _ = a.entries(act[r0:r1])
        shed[r0 + owner[cell_of[cols] > keys[r0 + owner]]] = True
    return _cellset(ell, "interior", act[~shed], keys[~shed], cen2[~shed])


def cells_to_csv(cs: CellSet, path) -> None:
    """Debug dump: one row per DOF, (dof, level, cell_id, kind)."""
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dof", "level", "cell", "kind"])
        for cid, members in enumerate(cs.cells):
            for dof in members:
                w.writerow([int(dof), cs.level, cid, cs.kind])
