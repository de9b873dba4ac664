"""The level-synchronous factorization against the per-cell loop: the same
factor bit for bit (``factor_digest``), and the same failure, named by the
same level, group and size."""

import numpy as np
import pytest
import scipy.sparse as sp

from hifde import (IndefiniteBlockError, SingularBlockError, SparseSymMatrix, assemble,
                   build_grid, constant_field, factor_hifde, factor_hifde3x, factor_mf,
                   make_problem)
from hifde import factor_ops
from hifde.bench import EXAMPLE_SPD
from hifde.sparse import spans

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


def arrays(a):
    """Copies of the CSR arrays and active flags of the matrix ``a``."""
    return [x.copy() for x in (a.indptr, a.indices, a.data, a.active)]


def assert_unchanged(a, before):
    for got, want in zip(arrays(a), before):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("algo, example, n", [("mf", 1, 32), ("hifde", 1, 32),
                                              ("hifde3x", 4, 8)])
def test_factor_leaves_its_input_unchanged(algo, example, n):
    make, grid = problem(example, n)
    a = make()
    before = arrays(a)
    args = () if algo == "mf" else (1e-6,)
    f = FACTORS[algo](a, grid, *args)
    assert_unchanged(a, before)
    # so the same matrix factors again, to the same factor
    assert factor_digest(FACTORS[algo](a, grid, *args)) == factor_digest(f)
    assert_unchanged(a, before)


@pytest.mark.parametrize("algo", ["mf", "hifde"])
def test_failed_factor_leaves_its_input_unchanged(algo):
    # Example 3 (Helmholtz) is indefinite; its Cholesky fails in the top block
    make, grid = problem(3, 32)
    a = make()
    before = arrays(a)
    with pytest.raises(IndefiniteBlockError, match="top block"):
        if algo == "mf":
            factor_mf(a, grid, spd=True)
        else:
            factor_hifde(a, grid, 1e-6, spd=True)
    assert_unchanged(a, before)


def spy(monkeypatch, name, log):
    """Wrap factor_ops.``name`` so that each call appends (args, result)
    to ``log``."""
    real = getattr(factor_ops, name)

    def wrapper(*args):
        out = real(*args)
        log.append((args, out))
        return out
    monkeypatch.setattr(factor_ops, name, wrapper)


def test_skeleton_level_in_chunks_of_mixed_groups(monkeypatch):
    # a budget of 40,000 entries splits level 1.5 of Ex. 3 n=64 at eps=1e-3
    # (112 groups, 28 of them compressed) into 8 chunks: 5 hold compressed
    # and uncompressed groups alike, 2 compress nothing
    budget = 40000
    monkeypatch.setattr(factor_ops, "spans", lambda costs: spans(costs, budget))
    levels, chunks = [], []
    spy(monkeypatch, "_skeleton_stacks", chunks)
    real = factor_ops.skeletonize_level

    def level(w, cells, eps, tag, spd):
        # the step's chunk costs, as it computes them
        clen = np.array([len(c) for c in cells])
        row_nnz = np.add.reduceat(np.diff(w.indptr)[np.concatenate(cells)],
                                  np.cumsum(clen) - clen)
        start = len(chunks)
        out = real(w, cells, eps, tag, spd)
        levels.append((tag, len(spans(row_nnz + (clen + row_nnz) * clen, budget)),
                       chunks[start:]))
        return out
    monkeypatch.setattr("hifde.driver.skeletonize_level", level)
    make, grid = problem(3, 64)
    f, g = both(make, grid, "hifde", 1e-3, spd=False)
    assert factor_digest(f) == factor_digest(g)
    tag, count, calls = levels[1]
    assert tag == 1.5 and count == len(calls) > 1
    compressed = [np.count_nonzero(rd_len[start:start + len(front.clen)])
                  for (front, start, _, _, rd_len, _), _ in calls]
    mixed = [0 < c < len(front.clen) for c, ((front, *_), _) in zip(compressed, calls)]
    assert count == 8 and sum(mixed) == 5 and compressed.count(0) == 2


def test_skeleton_level_that_compresses_nothing(monkeypatch):
    # level 0.5 of Ex. 1 n=64 at eps=1e-6 compresses none of its 480 groups:
    # the snapshot is not rebuilt
    seen = []
    real = factor_ops.skeletonize_level

    def level(w, cells, eps, tag, spd):
        before = w.indptr, w.data, w.data.copy()
        out = real(w, cells, eps, tag, spd)
        seen.append((tag, len(cells), len(out["rd"]), w.indptr is before[0]
                     and w.data is before[1] and np.array_equal(w.data, before[2])))
        return out
    monkeypatch.setattr("hifde.driver.skeletonize_level", level)
    make, grid = problem(1, 64)
    f, g = both(make, grid, "hifde", 1e-6)
    assert factor_digest(f) == factor_digest(g)
    assert seen[0] == (0.5, 480, 0, True)
    assert all(rd and not same for _, _, rd, same in seen[2:])


def test_3d_elimination_one_cell_per_chunk(monkeypatch):
    # level 1 of Ex. 6 n=16: each of the 8 cells fills a chunk of its own,
    # level 0 spans three chunks
    chunks = []
    spy(monkeypatch, "_cell_stacks", chunks)
    make, grid = problem(6, 16)
    f, g = both(make, grid, "hifde3x", 1e-6, spd=False)
    assert factor_digest(f) == factor_digest(g)
    sizes = [(start, len(front.clen)) for (front, start), _ in chunks]
    assert sizes == [(0, 27), (27, 26), (53, 11)] + [(i, 1) for i in range(8)]


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
