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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discretize import GridConfig
from .sparse import row_entries

__all__ = [
    "CellSet",
    "interior_cells",
    "interface_cells",
    "adaptive_interior_cells",
    "cells_to_csv",
]


@dataclass
class CellSet:
    """Disjoint index groups at one (possibly fractional) level."""

    level: float
    kind: str                      # "interior" | "edge" | "face"
    cells: list[np.ndarray]        # ascending DOF indices per group
    centers: np.ndarray            # (len(cells), dim), grid units


@lru_cache(maxsize=8)
def _coords_cached(dim: int, n: int) -> np.ndarray:
    return GridConfig(dim, n, 2, 1, 1.0 / n).dof_coords()


def _group_by_key(sel: np.ndarray, keys: np.ndarray):
    """Split DOF indices by group key; yields (key, ascending members)."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    starts = np.flatnonzero(np.r_[True, sk[1:] != sk[:-1]])
    bounds = np.r_[starts, len(sk)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        yield sk[a], sel[order[a:b]]


def interior_cells(grid: GridConfig, ell: int, active: np.ndarray) -> CellSet:
    """Active DOFs strictly inside each level-ell cell, grouped per cell.

    DOFs on the separator hyperplanes (any coordinate a multiple of the
    cell width) are excluded; empty cells are dropped.
    """
    if not (0 <= ell < max(grid.nlevels, 1)):
        raise ValueError(f"level {ell} out of range")
    w = (1 << ell) * grid.m
    k = grid.n // w
    act = np.flatnonzero(active)
    coords = _coords_cached(grid.dim, grid.n)[act]
    inside = (coords % w != 0).all(axis=1)
    sel = act[inside]
    cidx = coords[inside] // w
    keys = cidx[:, 0].astype(np.int64)
    for i in range(1, grid.dim):
        keys = keys + cidx[:, i].astype(np.int64) * (k ** i)
    cells, centers = [], []
    for key, members in _group_by_key(sel, keys):
        cells.append(members)
        jj = [(key // k ** i) % k for i in range(grid.dim)]
        centers.append([w * (j + 0.5) for j in jj])
    return CellSet(float(ell), "interior", cells,
                   np.array(centers, dtype=float).reshape(len(cells), grid.dim))


def _nearest_multiple(x2: np.ndarray, w: int, kmax: int) -> np.ndarray:
    """Nearest j in [1, kmax] with center at w*j; ties round down.
    x2 is in doubled grid units."""
    j = (x2 + w - 1) // (2 * w)
    return np.clip(j, 1, kmax)


def _nearest_half(x2: np.ndarray, w: int, kmax: int) -> np.ndarray:
    """Nearest j in [1, kmax] with center at w*(j - 1/2); ties round down."""
    j = (x2 + 2 * w - 1) // (2 * w)
    return np.clip(j, 1, kmax)


def interface_cells(grid: GridConfig, ell: int, active: np.ndarray,
                    kind: str) -> CellSet:
    """Voronoi groups of active DOFs about interface centers.

    kind: "edge" in 2D, "face" or "edge" in 3D. Corner points (2D) and
    corner edges (3D faces) and triple corners (3D edges) are excluded.
    """
    dim = grid.dim
    if (dim, kind) not in {(2, "edge"), (3, "face"), (3, "edge")}:
        raise ValueError(f"unsupported interface kind {kind!r} in {dim}D")
    w = (1 << ell) * grid.m
    k = grid.n // w
    act = np.flatnonzero(active)
    coords = _coords_cached(dim, grid.n)[act]
    on_plane = coords % w == 0
    nplanes = on_plane.sum(axis=1)
    if dim == 2:
        excluded = nplanes == 2
    elif kind == "face":
        excluded = nplanes >= 2
    else:
        excluded = nplanes == 3
    sel = act[~excluded]
    c2 = 2 * coords[~excluded].astype(np.int64)

    # Families: one per axis. For faces the family axis is the face
    # normal (centers at multiples along it, half-offsets along the rest);
    # for edges it is the direction the edge runs (half-offset along it,
    # multiples along the rest).
    fam_dist = np.empty((len(sel), dim), dtype=np.int64)
    fam_key = np.empty((len(sel), dim), dtype=np.int64)
    for f in range(dim):
        dist = np.zeros(len(sel), dtype=np.int64)
        key = np.zeros(len(sel), dtype=np.int64)
        mul = 1
        for ax in range(dim):
            x2 = c2[:, ax]
            if kind == "face":
                normal_like = ax == f
            else:
                normal_like = ax != f
            if normal_like:
                j = _nearest_multiple(x2, w, k - 1)
                cen2 = 2 * w * j
                nj = k - 1
            else:
                j = _nearest_half(x2, w, k)
                cen2 = w * (2 * j - 1)
                nj = k
            dist += (x2 - cen2) ** 2
            key += (j - 1) * mul
            mul *= nj
        fam_dist[:, f] = dist
        fam_key[:, f] = key
    best = np.argmin(fam_dist, axis=1)
    rows = np.arange(len(sel))
    keys = best.astype(np.int64) * (k ** dim * 2 * dim) + fam_key[rows, best]

    cells, centers = [], []
    kind_out = kind if dim == 3 else "edge"
    for key, members in _group_by_key(sel, keys):
        cells.append(members)
        fam = int(key // (k ** dim * 2 * dim))
        rem = int(key % (k ** dim * 2 * dim))
        cen = []
        for ax in range(dim):
            normal_like = (ax == fam) if kind == "face" else (ax != fam)
            nj = (k - 1) if normal_like else k
            j = rem % nj + 1
            rem //= nj
            cen.append(w * j if normal_like else w * (j - 0.5))
        centers.append(cen)
    return CellSet(float(ell), kind_out, cells,
                   np.array(centers, dtype=float).reshape(len(cells), dim))


def adaptive_interior_cells(a, grid: GridConfig, ell: int) -> CellSet:
    """Interior cells with minimal separators built from the sparsity.

    Active DOFs are Voronoi-assigned to the level-ell cell centers; each
    cell, taken in ascending center order, then sheds the members that
    still couple to any other current cell. The resulting cells are
    mutually non-interacting. ``a`` is the working matrix, a
    SparseSymMatrix, whose CSR arrays are read without a copy.
    """
    w = (1 << ell) * grid.m
    k = grid.n // w
    act = np.flatnonzero(a.active)
    coords = _coords_cached(grid.dim, grid.n)[act]
    c2 = 2 * coords.astype(np.int64)
    keys = np.zeros(len(act), dtype=np.int64)
    mul = 1
    for ax in range(grid.dim):
        j = _nearest_half(c2[:, ax], w, k)
        keys += (j - 1) * mul
        mul *= k
    cell_of = np.full(a.n, -1, dtype=np.int64)
    cell_of[act] = keys

    groups = list(_group_by_key(act, keys))
    cells, centers = [], []
    for key, members in groups:
        owner, at = row_entries(a.indptr, members)
        cnb = cell_of[a.indices[at]]
        shed = members[np.unique(owner[(cnb != -1) & (cnb != key)])]
        if len(shed):
            cell_of[shed] = -1
            keep = members[cell_of[members] == key]
        else:
            keep = members
        if len(keep):
            cells.append(keep)
            jj = [int(key // k ** i) % k for i in range(grid.dim)]
            centers.append([w * (j + 0.5) for j in jj])
    return CellSet(float(ell), "interior", cells,
                   np.array(centers, dtype=float).reshape(len(cells), grid.dim))


def cells_to_csv(cs: CellSet, path) -> None:
    """Debug dump: one row per DOF, (dof, level, cell_id, kind)."""
    import csv
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dof", "level", "cell", "kind"])
        for cid, members in enumerate(cs.cells):
            for dof in members:
                w.writerow([int(dof), cs.level, cid, cs.kind])
