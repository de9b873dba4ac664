"""The level-batched solve plan: GeneralizedLDL.apply/apply_inverse against
the per-record reference sweep, reproducibility, one stored copy of each
array, the inverses a small-block group caches on its first solve, and
(N, m) blocks of right-hand sides."""

import sys
import threading

import numpy as np
import pytest

from hifde import (assemble, factor_hifde, factor_hifde3x, factor_mf, load_factor,
                   make_problem, save_factor)
from hifde.bench import EXAMPLE_SPD

from oracles import (block_apply, block_solve, reference_apply, reference_apply_inverse,
                     reference_save)

# (example, algorithm, n): SPD and Bunch-Kaufman, 2D and 3D, hifde3x's 2x2
# pivots, and an exact factor
CASES = {
    "ex1-hifde-2d": (1, "hifde", 64),
    "ex3-hifde-2d": (3, "hifde", 64),
    "ex4-hifde-3d": (4, "hifde", 16),
    "ex6-hifde3x-3d": (6, "hifde3x", 16),
    "ex2-mf-2d": (2, "mf", 32),
}
FACTORS = {"mf": factor_mf, "hifde": factor_hifde, "hifde3x": factor_hifde3x}


def build(example, algo, n):
    problem = make_problem(example, n)
    a = assemble(problem.grid, problem.field)
    args = () if algo == "mf" else (1e-6,)
    return FACTORS[algo](a, problem.grid, *args, spd=EXAMPLE_SPD[example])


@pytest.fixture(scope="module", params=list(CASES))
def factor(request):
    return build(*CASES[request.param])


def columns(f, m, seed=0):
    return np.random.default_rng(seed).standard_normal((f.n, m))


def relative_gap(x, ref):
    return np.abs(x - ref).max() / np.abs(ref).max()


def test_matches_reference_sweep(factor):
    # the plan sums separator updates in another order than the record loop
    for b in columns(factor, 3).T:
        assert relative_gap(factor.apply_inverse(b), reference_apply_inverse(factor, b)) <= 1e-13
        assert relative_gap(factor.apply(b), reference_apply(factor, b)) <= 1e-13


def test_repeated_calls_bit_identical(factor):
    b = columns(factor, 1)[:, 0]
    assert np.array_equal(factor.apply_inverse(b), factor.apply_inverse(b))
    assert np.array_equal(factor.apply(b), factor.apply(b))


def test_reload_bit_identical(factor, tmp_path):
    path = tmp_path / "factor.gldl"
    save_factor(factor, path)
    g = load_factor(path)
    for b in (columns(factor, 1)[:, 0], columns(factor, 3)):
        assert np.array_equal(factor.apply_inverse(b), g.apply_inverse(b))
        assert np.array_equal(factor.apply(b), g.apply(b))


def test_records_are_views_of_group_stacks(factor, tmp_path):
    path = tmp_path / "factor.gldl"
    save_factor(factor, path)
    for f in (factor, load_factor(path)):
        for lf in f.levels:
            rows = [(g, j) for g in lf.groups for j in range(len(g.rd))]
            recs = [rec for rec in lf.records if len(rec.rd)]
            assert len(rows) == len(recs)
            for (g, j), rec in zip(rows, recs):
                assert np.shares_memory(rec.factor.lower, g.lower[j])
                assert np.shares_memory(rec.coupling, g.coupling[j])
                assert np.shares_memory(rec.factor.d.diag, g.diag[j])
                assert np.array_equal(rec.rd, g.rd[j])
                if rec.interp is not None:
                    assert np.shares_memory(rec.interp, g.interp[j])


def test_top_block_is_the_last_group(factor):
    # the sweep of the top block is the per-block reference's, bit for bit:
    # solve_forward then solve_backward is its A^{-1}, apply_forward then
    # apply_backward its A, and no other DOF changes
    top, idx = factor._groups()[-1], factor.top_idx
    assert np.array_equal(top.rd, idx[None]) and top.sk.shape == (1, 0)
    assert top.interp is None
    assert np.shares_memory(top.lower, factor.top.lower)
    assert np.shares_memory(top.diag, factor.top.d.diag)
    assert np.shares_memory(top.sub, factor.top.d.sub)
    assert top.pairs[0].size == np.count_nonzero(factor.top.d.sub)
    for m in (1, 5):
        b = columns(factor, m, seed=m)
        for steps, ref in (("solve", block_solve), ("apply", block_apply)):
            v = b.copy()
            getattr(top, f"{steps}_forward")(v)
            getattr(top, f"{steps}_backward")(v)
            assert np.array_equal(v[idx], ref(factor.top, b[idx]))
            rest = np.ones(factor.n, dtype=bool)
            rest[idx] = False
            assert np.array_equal(v[rest], b[rest])


def test_file_out_of_group_order_loads(factor, tmp_path):
    # a file whose records are not sorted by shape (as earlier versions
    # wrote them) loads into more, shorter groups with the same operator
    rng = np.random.default_rng(3)
    shuffled = [[records[i] for i in rng.permutation(len(records))]
                for records in (lf.records for lf in factor.levels)]
    path = tmp_path / "factor.gldl"
    reference_save(factor, path, shuffled)
    g = load_factor(path)
    assert (sum(len(lf.groups) for lf in g.levels)
            >= sum(len(lf.groups) for lf in factor.levels))
    b = columns(factor, 1)[:, 0]
    assert relative_gap(g.apply_inverse(b), factor.apply_inverse(b)) <= 1e-13
    assert relative_gap(g.apply(b), factor.apply(b)) <= 1e-13


@pytest.mark.parametrize("case", ["ex1-hifde-2d", "ex3-hifde-2d"])
def test_block_of_columns(case):
    # SPD (Cholesky) and indefinite (Bunch-Kaufman) factors
    f = build(*CASES[case])
    cols = columns(f, 5)
    for op in (f.apply_inverse, f.apply):
        block = op(cols)
        singles = np.column_stack([op(b) for b in cols.T])
        assert block.shape == cols.shape
        assert np.abs(block - singles).max() <= 1e-12 * np.abs(singles).max()
        assert np.array_equal(op(np.asfortranarray(cols)), block)
        assert op(cols[:, 0]).shape == (f.n,)
        one = op(cols[:, :1])
        assert one.shape == (f.n, 1)
        assert np.array_equal(one[:, 0], op(cols[:, 0]))


def level_groups(f):
    return [g for lf in f.levels for g in lf.groups]


def small(g):
    # a stack of many small blocks, solved with its cached inverses
    k, r = g.lower.shape[:2]
    return r <= k


def test_cached_inverses_are_unit_lower(factor):
    factor.apply_inverse(columns(factor, 1)[:, 0])
    groups = level_groups(factor)
    assert any(small(g) for g in groups)
    for g in groups:
        if not small(g):
            assert g.lower_inv is None
            continue
        w, r = g.lower_inv, g.lower.shape[1]
        assert w.shape == g.lower.shape
        assert np.all(np.triu(w, 1) == 0.0)
        assert np.all(np.diagonal(w, axis1=1, axis2=2) == 1.0)
        assert np.abs(w @ g.lower - np.eye(r)).max() <= 1e-13


@pytest.mark.parametrize("case", list(CASES))
def test_no_inverse_until_the_first_solve(case, tmp_path):
    # neither the factorization nor load_factor builds the cache, and apply
    # does not use it; it is not saved and not counted as storage
    f = build(*CASES[case])
    path, again = tmp_path / "factor.gldl", tmp_path / "again.gldl"
    save_factor(f, path)
    nbytes = f.storage_bytes()
    b = columns(f, 1)[:, 0]
    for g in (f, load_factor(path)):
        assert all(grp.lower_inv is None for grp in level_groups(g))
        g.apply(b)
        assert all(grp.lower_inv is None for grp in level_groups(g))
        g.apply_inverse(b)
        assert all((grp.lower_inv is not None) == small(grp) for grp in level_groups(g))
    save_factor(f, again)
    assert path.read_bytes() == again.read_bytes()
    assert f.storage_bytes() == nbytes


def test_first_solve_in_threads(factor, tmp_path):
    # threads (more than the host's cores, switching as often as the
    # interpreter allows) that build a loaded factor's inverses at once get
    # the result of one serial first solve, bit for bit
    path = tmp_path / "factor.gldl"
    save_factor(factor, path)
    b = columns(factor, 1)[:, 0]
    serial = load_factor(path).apply_inverse(b)
    g = load_factor(path)
    nthreads = 4
    start, out = threading.Barrier(nthreads, timeout=60), [None] * nthreads

    def solve(i):
        start.wait()
        out[i] = g.apply_inverse(b)

    threads = [threading.Thread(target=solve, args=(i,)) for i in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(x is not None and np.array_equal(x, serial) for x in out)
    assert np.array_equal(g.apply_inverse(b), serial)


@pytest.mark.parametrize("algo", ["mf", "hifde"])
def test_block_of_no_columns(algo):
    # an (N, 0) block gives an (N, 0) block, as a block of columns does
    f = build(1, algo, 16)
    for op in (f.apply, f.apply_inverse):
        out = op(np.zeros((f.n, 0)))
        assert out.shape == (f.n, 0)
