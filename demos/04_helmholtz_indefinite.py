"""Helmholtz at moderate frequency: indefinite matrices and GMRES.

With b = -k^2 the operator is symmetric indefinite, so pivot blocks are
factored with Bunch-Kaufman LDL instead of Cholesky and the factorization
preconditions GMRES. Resolution is held at 32 grid points per wavelength.
"""

import math

import numpy as np

from hifde import assemble, build_grid, constant_field, factor_hifde, gmres

n = 128
kappa = n / 32                    # wavelengths across the unit square
k = 2 * math.pi * kappa
grid = build_grid(dim=2, n=n, m=4)
field = constant_field(grid, 1.0, -k * k)
field.wave_number = k
print(f"kappa = {kappa:g} wavelengths, k = {k:.2f}, {grid.ndof} unknowns")

a_csr = assemble(grid, field).to_scipy()
b = np.random.default_rng(3).random(grid.ndof)

for eps in (1e-6, 1e-9):
    factor = factor_hifde(assemble(grid, field), grid, eps, spd=False)
    rep = gmres(a_csr, b, factor.apply_inverse, tol=1e-12)
    # count the 2x2 pivot blocks Bunch-Kaufman produced
    n2x2 = sum(np.count_nonzero(rec.factor.d.sub) for lf in factor.levels for rec in lf.records)
    print(f"eps={eps:.0e}: gmres iterations={rep.n_i}, "
          f"residual={rep.residual:.1e}, 2x2 pivot blocks={n2x2}")
