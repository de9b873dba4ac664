"""Uniform-grid finite-difference problems on the unit square/cube.

Builds the five-point (2D) and seven-point (3D) stencil matrices for
  -div(a grad u) + b u = f
with zero Dirichlet boundary conditions. Diffusion coefficients a are
sampled on the staggered dual grid (edge midpoints), b on the primal grid.

DOF layout: interior grid points j in {1, ..., n-1}^dim, linearized with
the first coordinate fastest, i.e. index = (j1-1) + (j2-1)(n-1) + ...
Field arrays use axis order (x, y[, z]) and Fortran-order raveling so that
array layout and DOF numbering agree.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.ndimage import gaussian_filter

from .sparse import SparseSymMatrix

__all__ = [
    "GridConfig",
    "CoeffField",
    "ProblemSpec",
    "build_grid",
    "constant_field",
    "high_contrast_field",
    "smoothed_staggered_noise",
    "assemble",
    "field_to_csv",
]

HIGH_CONTRAST_VALUES = (1e-2, 1e2)
SMOOTHING_WIDTH_CELLS = 4.0   # Gaussian std deviation, in grid spacings
SMOOTHING_TRUNCATE = 4.0      # kernel truncated at this many std deviations


@dataclass(frozen=True)
class GridConfig:
    """Uniform n^dim grid with leaf cell width m and n = 2^nlevels * m.

    Validation of the n = 2^L m decomposition lives in build_grid;
    degenerate configurations (nlevels = 0) can be constructed directly
    for single-block edge cases.
    """

    dim: int
    n: int
    m: int
    nlevels: int
    h: float

    @property
    def ndof(self) -> int:
        return (self.n - 1) ** self.dim

    def dof_coords(self) -> np.ndarray:
        """Grid coordinates (1-based, in grid units) of every DOF, (N, dim)."""
        side = self.n - 1
        idx = np.arange(self.ndof, dtype=np.int64)
        cols = []
        for _ in range(self.dim):
            cols.append(idx % side + 1)
            idx = idx // side
        return np.stack(cols, axis=1)


def build_grid(dim: int, n: int, m: int) -> GridConfig:
    """Validated grid: requires n = 2^L * m with m >= 2 and L >= 1."""
    if dim not in (2, 3):
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    if m < 2:
        raise ValueError(f"leaf width m must be >= 2, got {m}")
    if n % m:
        raise ValueError(f"n={n} is not a multiple of m={m}")
    ratio = n // m
    nlevels = int(ratio).bit_length() - 1
    if 2 ** nlevels != ratio or nlevels < 1:
        raise ValueError(f"n={n} is not m={m} times a power of two (>= 2)")
    return GridConfig(dim=dim, n=n, m=m, nlevels=nlevels, h=1.0 / n)


@dataclass
class CoeffField:
    """Coefficient samples: a on the staggered dual grid, b on the primal.

    ``a`` holds one array per axis; the axis-i array has size n along axis
    i (edge midpoints) and n-1 along the others. ``b`` has shape
    (n-1,)^dim.
    """

    a: tuple[np.ndarray, ...]
    b: np.ndarray
    contrast_ratio: Optional[float] = None
    wave_number: Optional[float] = None


def _staggered_shape(grid: GridConfig, axis: int) -> tuple[int, ...]:
    return tuple(grid.n if i == axis else grid.n - 1 for i in range(grid.dim))


def constant_field(grid: GridConfig, a0: float, b0: float) -> CoeffField:
    a = tuple(np.full(_staggered_shape(grid, i), float(a0)) for i in range(grid.dim))
    b = np.full((grid.n - 1,) * grid.dim, float(b0))
    return CoeffField(a, b)


def smoothed_staggered_noise(grid: GridConfig, seed: int) -> list[np.ndarray]:
    """Standard-uniform staggered samples convolved with an isotropic
    Gaussian of std 4h (truncated at 4 sigma, renormalized, reflected at
    the boundary)."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(grid.dim):
        raw = rng.random(_staggered_shape(grid, i))
        out.append(gaussian_filter(raw, sigma=SMOOTHING_WIDTH_CELLS,
                                   mode="reflect", truncate=SMOOTHING_TRUNCATE))
    return out

def high_contrast_field(grid: GridConfig, seed: int) -> CoeffField:
    """Quantized two-valued random diffusion field, split at the median.

    Smoothed uniform noise is thresholded at the median mu of all staggered
    samples: values <= mu map to 1e-2 and the rest to 1e+2.
    """
    smooth = smoothed_staggered_noise(grid, seed)
    mu = np.median(np.concatenate([s.ravel() for s in smooth]))
    lo, hi = HIGH_CONTRAST_VALUES
    a = tuple(np.where(s <= mu, lo, hi) for s in smooth)
    b = np.zeros((grid.n - 1,) * grid.dim)
    return CoeffField(a, b, contrast_ratio=hi / lo)


@dataclass
class ProblemSpec:
    """A fully specified benchmark instance."""

    grid: GridConfig
    field: CoeffField
    example_id: int
    seed: int


def assemble(grid: GridConfig, field: CoeffField) -> SparseSymMatrix:
    """Stencil matrix of order (n-1)^dim.

    Row j: diagonal (sum of the 2*dim adjacent a-samples)/h^2 + b_j,
    off-diagonal -a_{j +- e_i/2}/h^2 for interior neighbors. Couplings to
    Dirichlet boundary points are dropped but their a-samples stay in the
    diagonal sum.
    """
    dim, n = grid.dim, grid.n
    side = n - 1
    inv_h2 = float(n) * float(n)
    if field.b.shape != (side,) * dim:
        raise ValueError("b samples do not match the grid")

    diag = field.b.astype(float).copy()
    for i in range(dim):
        a_i = field.a[i]
        if a_i.shape != _staggered_shape(grid, i):
            raise ValueError(f"a samples along axis {i} do not match the grid")
        lo = tuple(slice(0, side) if j == i else slice(None) for j in range(dim))
        hi = tuple(slice(1, n) if j == i else slice(None) for j in range(dim))
        diag += (a_i[lo] + a_i[hi]) * inv_h2

    strides = [side ** i for i in range(dim)]
    rows = [np.arange(grid.ndof, dtype=np.int64)]
    cols = [np.arange(grid.ndof, dtype=np.int64)]
    vals = [diag.ravel(order="F")]
    full = np.arange(grid.ndof, dtype=np.int64).reshape((side,) * dim, order="F")
    for i in range(dim):
        inner = tuple(slice(0, side - 1) if j == i else slice(None) for j in range(dim))
        mid = tuple(slice(1, side) if j == i else slice(None) for j in range(dim))
        r = full[inner].ravel(order="F")
        v = -(field.a[i][mid] * inv_h2).ravel(order="F")
        rows += [r, r + strides[i]]
        cols += [r + strides[i], r]
        vals += [v, v]
    coo = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(grid.ndof, grid.ndof))
    return SparseSymMatrix.from_scipy(coo)


def field_to_csv(field: CoeffField, path) -> None:
    """Plain CSV dump: one row per sample, (array, i, j, k, value)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["array", "i", "j", "k", "value"])
        for name, arr in [(f"a{i}", a) for i, a in enumerate(field.a)] + [("b", field.b)]:
            it = np.ndindex(arr.shape)
            for ijk in it:
                trip = list(ijk) + [0] * (3 - len(ijk))
                w.writerow([name, *trip, repr(float(arr[ijk]))])
