"""Error estimators, Matrix Market export, and factor serialization.

e_a estimates the forward operator error ||A - F|| / ||A|| and e_s the
solve error ||I - A F^{-1}||, both by power iteration. Factors persist to
a versioned .npz archive, checked on load, and reload bit-exactly;
matrices and coefficient fields export to standard text formats.
"""

import os
import tempfile

import numpy as np

from hifde import (SparseSymMatrix, assemble, build_grid, estimate_apply_error,
                   estimate_solve_error, factor_hifde, field_to_csv,
                   high_contrast_field, load_factor, save_factor)

grid = build_grid(dim=2, n=64, m=4)
field = high_contrast_field(grid, seed=5)
matrix = assemble(grid, field)
a_csr = matrix.to_scipy()

factor = factor_hifde(matrix, grid, eps=1e-6)
e_a = estimate_apply_error(a_csr, factor)
e_s = estimate_solve_error(a_csr, factor)
print(f"e_a = {e_a.value:.2e} (converged={e_a.converged} "
      f"in {e_a.iterations} power iterations)")
print(f"e_s = {e_s.value:.2e}  -- amplified over e_a by conditioning")

with tempfile.TemporaryDirectory() as tmp:
    fpath = os.path.join(tmp, "factor.bin")
    save_factor(factor, fpath)
    reloaded = load_factor(fpath)
    x = np.random.default_rng(6).random(grid.ndof)
    same = np.array_equal(factor.apply_inverse(x), reloaded.apply_inverse(x))
    print(f"\nfactor file: {os.path.getsize(fpath) / 1e6:.1f} MB, "
          f"reloaded apply bit-identical: {same}")

    mpath = os.path.join(tmp, "matrix.mtx")
    assemble(grid, field).save_matrix_market(mpath)
    back = SparseSymMatrix.load_matrix_market(mpath)
    print(f"matrix market round trip, nnz {back.nnz()}: "
          f"max deviation {abs(back.to_dense() - a_csr.toarray()).max():.1e}")

    cpath = os.path.join(tmp, "field.csv")
    field_to_csv(field, cpath)
    print(f"field csv: {sum(1 for _ in open(cpath)) - 1} samples")
