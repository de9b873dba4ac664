"""The level-synchronous factorization against the per-cell loop: the same
factor bit for bit (``factor_digest``), and the same failure, named by the
same level, group and size."""

import numpy as np
import pytest
import scipy.sparse as sp

from hifde import (IndefiniteBlockError, SingularBlockError, SparseSymMatrix, assemble,
                   build_grid, constant_field, factor_hifde, factor_hifde3x, factor_mf,
                   make_problem)
from hifde.bench import EXAMPLE_SPD

from oracles import factor_digest, reference_factor
from test_plan import CASES

FACTORS = {"mf": factor_mf, "hifde": factor_hifde, "hifde3x": factor_hifde3x}


def both(make, grid, algo, eps=None, **kw):
    """The factor and the per-cell reference on two copies of one matrix."""
    args = () if algo == "mf" else (eps,)
    f = FACTORS[algo](make(), grid, *args, **kw)
    g = reference_factor(make(), grid, algo, 0.0 if algo == "mf" else eps, **kw)
    return f, g


def problem(example, n, **kw):
    p = make_problem(example, n, **kw)
    return (lambda: assemble(p.grid, p.field)), p.grid


@pytest.mark.parametrize("case", list(CASES))
def test_factor_is_the_per_cell_factor(case):
    example, algo, n = CASES[case]
    make, grid = problem(example, n)
    f, g = both(make, grid, algo, 1e-6, spd=EXAMPLE_SPD[example])
    assert factor_digest(f) == factor_digest(g)
    assert f.metrics["active_trace"][-1][1] == len(g.top_idx)


def test_skeleton_levels_with_compression_and_bunch_kaufman():
    # Helmholtz at a loose tolerance: 2x2 pivots and rd at every skeleton level
    make, grid = problem(3, 64)
    f, g = both(make, grid, "hifde", 1e-3, spd=False)
    assert any(len(r.rd) for lf in f.levels if lf.level % 1 for r in lf.records)
    assert factor_digest(f) == factor_digest(g)


def test_verify_and_skip_levels():
    # the reference checks that each elimination level's cells do not
    # interact (assert_noninteracting); the factor checks it always
    for example, n, algo, skip in ((1, 64, "hifde", 2), (4, 16, "hifde3x", 0)):
        make, grid = problem(example, n)
        f = FACTORS[algo](make(), grid, 1e-6, skip_levels=skip)
        g = reference_factor(make(), grid, algo, 1e-6, skip_levels=skip, verify=True)
        assert factor_digest(f) == factor_digest(g)


@pytest.mark.parametrize("dim, n, m, depth", [(2, 16, 4, 4), (3, 8, 2, 8)])
@pytest.mark.parametrize("spd", [True, False])
def test_entries_updated_by_many_cells(dim, n, m, depth, spd):
    # a 9-point (27-point) stencil couples a separator crossing to the
    # 4 (8) cells around it, so its Schur updates meet 4 (8) deep
    t = sp.diags([-np.ones(n - 2), 2.5 * np.ones(n - 1), -np.ones(n - 2)], [-1, 0, 1])
    k = t
    for _ in range(dim - 1):
        k = sp.kron(k, t)
    f, g = both(lambda: SparseSymMatrix.from_scipy(k), build_grid(dim, n, m), "mf", spd=spd)
    lf = g.levels[0]
    pairs = np.concatenate([(r.sk[:, None] * g.n + r.sk).ravel() for r in lf.records])
    assert np.unique(pairs, return_counts=True)[1].max() == depth
    assert factor_digest(f) == factor_digest(g)


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    exc = info.value
    return type(exc), str(exc), (exc.level, exc.group, exc.block_size)


def test_skeleton_level_failure_matches_the_per_cell_loop():
    # SPD mode loses positive definiteness under truncation at eps=1e-1
    make, grid = problem(2, 128)
    new = raised(lambda: factor_hifde(make(), grid, 1e-1))
    ref = raised(lambda: reference_factor(make(), grid, "hifde", 1e-1))
    assert new == ref
    assert new[0] is IndefiniteBlockError
    assert new[1].endswith("(level 3.5, group 16, 8 DOFs)")


@pytest.mark.parametrize("spd, error", [(True, IndefiniteBlockError),
                                        (False, SingularBlockError)])
def test_first_failing_group_is_named(spd, error):
    # 1-DOF cells at level 0; cells 9 (interior, 4 neighbors) and 63 (corner,
    # 2 neighbors) are bad. The stack of cell 63's shape is factored first,
    # yet cell 9, the first in group order, is reported.
    g = build_grid(2, 16, 2)
    field = constant_field(g, 1.0, 0.0)
    for i in (1, 7):
        # cell i + 8 i holds DOF (2i + 1, 2i + 1); b = -(sum of a) / h^2
        # zeroes its diagonal, -1e5 makes it negative
        field.b[2 * i, 2 * i] = -1e5 if spd else -4.0 * 256.0
    make = lambda: assemble(g, field)  # noqa: E731
    new = raised(lambda: factor_mf(make(), g, spd=spd))
    ref = raised(lambda: reference_factor(make(), g, "mf", spd=spd))
    assert new == ref
    assert new[0] is error and new[2] == (0.0, 9, 1)
