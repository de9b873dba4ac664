"""Exact sparse direct solve of a variable-coefficient Poisson problem.

Builds the five-point stencil matrix on a 64 x 64 grid, factors it with
nested-dissection elimination (exact to rounding), and solves one right-hand
side. The factorization is reusable: additional solves cost one sweep each.
"""

import time

import numpy as np

from hifde import assemble, build_grid, constant_field, factor_mf

grid = build_grid(dim=2, n=64, m=4)
print(f"grid: {grid.n}x{grid.n}, {grid.ndof} unknowns, "
      f"{grid.nlevels} elimination levels")

field = constant_field(grid, a0=1.0, b0=0.0)
matrix = assemble(grid, field)
a_csr = matrix.to_scipy()          # keep a copy for residual checks

t0 = time.perf_counter()
factor = factor_mf(matrix, grid, spd=True)
print(f"factorization: {time.perf_counter() - t0:.3f} s, "
      f"{factor.metrics['m_f_bytes'] / 1e6:.1f} MB stored, "
      f"{factor.metrics['s_top']} DOFs in the top separator block")

rng = np.random.default_rng(0)
b = rng.random(grid.ndof)

t0 = time.perf_counter()
x = factor.apply_inverse(b)
print(f"solve: {time.perf_counter() - t0:.4f} s")

residual = np.linalg.norm(a_csr @ x - b) / np.linalg.norm(b)
print(f"relative residual: {residual:.3e}   (direct solver, exact to rounding)")

# the factored operator also applies A itself
y = factor.apply(x)
print(f"apply consistency |F x - A x| / |A x|: "
      f"{np.linalg.norm(y - a_csr @ x) / np.linalg.norm(a_csr @ x):.3e}")

# active DOFs shrink level by level as cells are eliminated
print("\nactive DOFs by level:")
for tag, count in factor.metrics["active_trace"]:
    label = "initial" if tag < 0 else f"after level {tag:g}"
    print(f"  {label:>16}: {count}")
