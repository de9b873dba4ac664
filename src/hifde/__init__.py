"""Sparse direct solvers built on nested-dissection elimination with
optional skeletonization of the separator fronts.

The package factors finite-difference discretizations of second-order
elliptic operators into a product of easily invertible per-level operators
(a generalized LDL/Cholesky decomposition). Exact multifrontal elimination
and tolerance-controlled compressed variants share the same machinery; the
result acts as a direct solver at high accuracy or as a preconditioner for
CG/GMRES otherwise.
"""

from .dense import (BlockDiag, FactorizationError, IdResult, IndefiniteBlockError,
                    LdlFactor, SingularBlockError, interpolative_decomposition, ldl)
from .discretize import (CoeffField, GridConfig, ProblemSpec, assemble, build_grid,
                         constant_field, field_to_csv, high_contrast_field,
                         smoothed_staggered_noise)
from .driver import (GeneralizedLDL, LevelFactor, factor_hifde, factor_hifde3x, factor_mf,
                     load_factor, save_factor)
from .factor_ops import Record, eliminate_cell, skeletonize_cell
from .krylov import (EstimateResult, SolveReport, estimate_apply_error,
                     estimate_solve_error, gmres, pcg)
from .partition import (CellSet, adaptive_interior_cells, cells_to_csv, interface_cells,
                        interior_cells)
from .sparse import SparseSymMatrix
from .bench import BenchRow, make_problem, rows_to_csv, run_example, run_sweep

__version__ = "0.1.0"
