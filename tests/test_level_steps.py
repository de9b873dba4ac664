"""The level-synchronous factorization against the per-cell loop: the same
factor bit for bit (``factor_digest``), and the same failure, named by the
same level, group and size."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from hifde import (IndefiniteBlockError, SingularBlockError, SparseSymMatrix, assemble,
                   build_grid, constant_field, factor_hifde, factor_hifde3x, factor_mf,
                   make_problem)
from hifde import factor_ops
from hifde.bench import EXAMPLE_SPD
from hifde.dense import keeps_every_column
from hifde.sparse import DenseSymMatrix, spans

from oracles import cellset, factor_digest, reference_factor
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


@pytest.mark.parametrize("algo", ["mf", "hifde", "hifde3x"], ids=["mf", "hifde", "hifde3x-3d"])
def test_failed_factor_leaves_its_input_unchanged(algo, monkeypatch):
    # Examples 3 and 6 (Helmholtz) are indefinite. The 2D Cholesky fails in
    # the top block; the 3D one in the step of level 1, whose output goes
    # dense, after that dense output is built
    example, n, where = (6, 16, "level 1, group 0, 127 DOFs") if algo == "hifde3x" else \
        (3, 32, "top block")
    built, real = [], DenseSymMatrix.kept
    monkeypatch.setattr(DenseSymMatrix, "kept",
                        classmethod(lambda cls, *args: built.append(real(*args)) or built[-1]))
    make, grid = problem(example, n)
    a = make()
    before = arrays(a)
    args = () if algo == "mf" else (1e-6,)
    with pytest.raises(IndefiniteBlockError, match=re.escape(f"({where}")) as info:
        FACTORS[algo](a, grid, *args, spd=True)
    assert_unchanged(a, before)
    if algo == "hifde3x":
        assert (info.value.level, info.value.group, info.value.block_size) == (1.0, 0, 127)
        assert [len(d.dofs) for d in built] == [631]
        ref = raised(lambda: reference_factor(make(), grid, algo, 1e-6, spd=True))
        assert ref == (IndefiniteBlockError, str(info.value), (1.0, 0, 127))


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
    # a budget of 10,000 entries splits level 1.5 of Ex. 3 n=64 at eps=1e-3
    # (112 groups, 28 of them compressed) into 8 chunks: 5 hold compressed
    # and uncompressed groups alike, 2 compress nothing
    budget = 10000
    monkeypatch.setattr(factor_ops, "spans", lambda costs: spans(costs, budget))
    levels, chunks = [], []
    spy(monkeypatch, "_skeleton_stacks", chunks)
    real = factor_ops.skeletonize_level

    def level(w, cells, eps, tag, spd):
        # the step's chunk costs, as it computes them from each group's
        # level-start neighbors
        clen = np.diff(cells.offsets)
        row_nnz = np.add.reduceat(w.row_lengths(cells.members), cells.offsets[:-1])
        qlen = np.array([len(w.neighbors(c)) for c in cells.cells])
        start = len(chunks)
        out = real(w, cells, eps, tag, spd)
        levels.append((tag, len(spans(row_nnz + (clen + qlen) * clen, budget)),
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
    assert sum(compressed) == 28 and sum(len(front.clen) for (front, *_), _ in calls) == 112


def test_skeleton_chunks_are_sized_by_their_fronts(monkeypatch):
    # Ex. 1 n=256 at eps=1e-6: chunks sized by each group's row entries, as
    # a bound on its neighbors, ran 287 skeleton chunks over the levels
    # (106 for the 112 groups of level 3.5); sized by the real fronts,
    # at most 60
    chunks = []
    spy(monkeypatch, "_skeleton_stacks", chunks)
    make, grid = problem(1, 256)
    f, g = both(make, grid, "hifde", 1e-6)
    assert factor_digest(f) == factor_digest(g)
    assert 0 < len(chunks) <= 60


def test_skeleton_level_that_compresses_nothing(monkeypatch):
    # level 0.5 of Ex. 1 n=64 at eps=1e-6 compresses none of its 480 groups:
    # the snapshot is not rebuilt (on either storage, the matrix keeps its
    # arrays, its pattern and its values)
    seen = []
    real = factor_ops.skeletonize_level

    def level(w, cells, eps, tag, spd):
        rows = np.arange(w.n)
        arrays, before = dict(vars(w)), w.entries(rows)
        out = real(w, cells, eps, tag, spd)
        same = vars(w).keys() == arrays.keys() and all(
            vars(w)[key] is x for key, x in arrays.items())
        seen.append((tag, len(cells), len(out["rd"]), same and all(
            np.array_equal(x, y) for x, y in zip(w.entries(rows), before))))
        return out
    monkeypatch.setattr("hifde.driver.skeletonize_level", level)
    make, grid = problem(1, 64)
    f, g = both(make, grid, "hifde", 1e-6)
    assert factor_digest(f) == factor_digest(g)
    assert seen[0] == (0.5, 480, 0, True)
    assert all(rd and not same for _, _, rd, same in seen[2:])


def test_no_id_where_nothing_compresses(monkeypatch):
    # Ex. 1 n=64 at eps=1e-6: levels 0.5 and 1.5 (3- and 7-DOF edges) pass
    # the screen and run no ID; every group of a compressing level runs one
    ids, seen = [], []
    spy(monkeypatch, "interpolative_decomposition", ids)
    real = factor_ops.skeletonize_level

    def level(w, cells, eps, tag, spd):
        before = len(ids)
        out = real(w, cells, eps, tag, spd)
        seen.append((tag, len(cells), len(ids) - before, np.count_nonzero(out["rd_len"])))
        return out
    monkeypatch.setattr("hifde.driver.skeletonize_level", level)
    make, grid = problem(1, 64)
    f = factor_hifde(make(), grid, 1e-6)
    assert [(tag, calls, rd) for tag, _, calls, rd in seen[:2]] == [(0.5, 0, 0), (1.5, 0, 0)]
    assert all(calls == groups and rd for _, groups, calls, rd in seen[2:])
    assert len(seen) > 2
    assert factor_digest(f) == factor_digest(reference_factor(make(), grid, "hifde", 1e-6))


def screen_case(monkeypatch, budget, pairs: dict, watch: int):
    """Factor 1e9 I plus the symmetric couplings ``pairs`` on 2D n=16, m=4 at
    eps=1e-6, in chunks of ``budget`` entries (None: the default), and check
    the digest against the per-cell reference. Level 0.5 holds the edges
    A = [45, 46, 47] and then B = [49, 50, 51]; the level-0 cells couple to
    nothing, and 52, 108, 112 are vertices on the level-1 separator.
    Returns the factor, the level-start ID block of group ``watch`` (0 for A,
    1 for B), and each ID the factor ran as (block, rd)."""
    grid = build_grid(2, 16, 4)
    i, j = np.array(list(pairs)).T
    v = np.array(list(pairs.values()))
    k = sp.coo_matrix((np.r_[v, v], (np.r_[i, j], np.r_[j, i])), shape=(225, 225))
    k = k + 1e9 * sp.eye(225)
    if budget is not None:
        monkeypatch.setattr(factor_ops, "spans", lambda costs: spans(costs, budget))
    ids, starts = [], []
    spy(monkeypatch, "interpolative_decomposition", ids)
    real = factor_ops.skeletonize_level

    def level(w, cells, eps, tag, spd):
        if tag == 0.5:
            assert cells[0].tolist() == [45, 46, 47] and cells[1].tolist() == [49, 50, 51]
            starts.append(w.gather(w.neighbors(cells[watch]), cells[watch]))
        return real(w, cells, eps, tag, spd)
    monkeypatch.setattr("hifde.driver.skeletonize_level", level)
    f = factor_hifde(SparseSymMatrix.from_scipy(k), grid, 1e-6)
    runs = [(args[0].tolist(), out.rd.tolist()) for args, out in ids]
    g = reference_factor(SparseSymMatrix.from_scipy(k), grid, "hifde", 1e-6)
    assert factor_digest(f) == factor_digest(g)
    assert keeps_every_column(starts[0][None], 1e-6).tolist() == [True]
    return f, starts[0], runs


@pytest.mark.parametrize("budget", [None, 1], ids=["one_chunk", "chunk_per_group"])
def test_screen_sees_rows_retired_earlier_in_the_level(monkeypatch, budget):
    # A's block, rows 50 and 108, compresses and retires 46 and 47. B's
    # level-start block, rows 46, 52 and 112, is a permuted identity and
    # passes the screen; without row 46 its column 50 is zero, so B's ID
    # must run, on the rows left, and retire 50.
    pairs = {(108, 45): 1e8, (108, 46): 0.5e8, (108, 47): 0.25e8,
             (50, 46): 1.0, (52, 49): 1.0, (112, 51): 1.0}
    f, _, runs = screen_case(monkeypatch, budget, pairs, 1)
    assert ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [1]) in runs
    lf = f.levels[1]
    assert lf.level == 0.5 and [50] in [r.rd.tolist() for r in lf.records]


@pytest.mark.parametrize("budget", [None, 1], ids=["one_chunk", "chunk_per_group"])
def test_screen_skips_a_group_whose_row_a_later_group_retires(monkeypatch, budget):
    # the mirror: A's level-start block, rows 50, 108 and 112, is a permuted
    # identity that passes the screen. B, rows 46 and 52, compresses and
    # retires 50 and 51 after A's turn, so A's ID stays skipped, although
    # without row 50 its column 46 would be zero.
    pairs = {(50, 46): 1.0, (108, 45): 1.0, (112, 47): 1.0,
             (52, 49): 1e8, (52, 50): 0.5e8, (52, 51): 0.25e8}
    f, start, runs = screen_case(monkeypatch, budget, pairs, 0)
    assert start.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    assert ([[0.0, 1.0, 0.0], [1e8, 0.5e8, 0.25e8]], [1, 2]) in runs
    # A's block, whole or without row 50, goes to no ID
    assert not [m for m, _ in runs if m in (start.tolist(), start[1:].tolist())]
    lf = f.levels[1]
    rds = [r.rd.tolist() for r in lf.records]
    assert lf.level == 0.5 and [50, 51] in rds and not np.isin([45, 46, 47], sum(rds, [])).any()


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


@pytest.mark.parametrize("budget", [None, 3000], ids=["default_chunks", "small_chunks"])
def test_group_rows_are_read_once_per_pass(monkeypatch, budget):
    # Ex. 3 n=64 at eps=1e-3 runs elimination and skeleton steps on CSR
    # (level 1.5 compresses; level 2 switches to dense) and on the dense
    # tail. On CSR a step reads each of its groups' rows twice: the
    # neighbor pass reads the pattern alone (``row_entries``), then the
    # chunks read the entries (``entries``). A skeleton step that read
    # them once sized its chunks by a bound; the second read is what sizing
    # them by their real fronts costs. No step calls ``entries`` on the
    # dense storage: its pass reads the stored pattern and its chunks
    # gather. The switch (_goes_dense), which counts the kept entries of
    # the matrix's own arrays, reads none
    if budget is not None:
        monkeypatch.setattr(factor_ops, "spans", lambda costs: spans(costs, budget))
    reads, steps, decisions = [], [], []
    for cls in (SparseSymMatrix, DenseSymMatrix):
        def entries(self, rows, real=cls.entries):
            reads.append((type(self), np.array(rows, dtype=np.int64)))
            return real(self, rows)
        monkeypatch.setattr(cls, "entries", entries)

    def pattern(indptr, rows, real=factor_ops.row_entries):
        reads.append((None, np.array(rows, dtype=np.int64)))
        return real(indptr, rows)
    monkeypatch.setattr(factor_ops, "row_entries", pattern)

    def goes_dense(*args, real=factor_ops._goes_dense):
        before = len(reads)
        out = real(*args)
        decisions.append(len(reads) - before)
        return out
    monkeypatch.setattr(factor_ops, "_goes_dense", goes_dense)
    for name in ("eliminate_level", "skeletonize_level"):
        def step(w, cells, *args, real=getattr(factor_ops, name), name=name):
            storage = type(w)
            reads.clear()
            out = real(w, cells, *args)
            members = np.concatenate(list(cells))
            count, scans = (np.bincount(np.concatenate([members[:0], *rows]),
                                        minlength=w.n)[members]
                            for rows in ([r for _, r in reads],
                                         [r for cls, r in reads if cls is None]))
            dense_reads = sum(cls is DenseSymMatrix for cls, _ in reads)
            steps.append((name, storage, np.count_nonzero(out["rd_len"]), int(count.max()),
                          dense_reads, (int(count.min()), int(scans.min()), int(scans.max()))))
            return out
        monkeypatch.setattr(f"hifde.driver.{name}", step)
    make, grid = problem(3, 64)
    f, g = both(make, grid, "hifde", 1e-3, spd=False)
    assert factor_digest(f) == factor_digest(g) and f.metrics["dense_from"] == 2.0
    assert {(name, storage) for name, storage, *_ in steps} == {
        (name, storage) for name in ("eliminate_level", "skeletonize_level")
        for storage in (SparseSymMatrix, DenseSymMatrix)}
    assert any(rd and storage is SparseSymMatrix for name, storage, rd, *_ in steps
               if name == "skeletonize_level")
    for name, storage, _, most, dense_reads, (least, *scans) in steps:
        assert most <= 2 and dense_reads == 0, (name, storage)
        if storage is SparseSymMatrix:
            assert least == most == 2 and scans == [1, 1], (name, storage)
    assert len(decisions) == 4 and not any(decisions)


def test_failed_dense_step_leaves_the_matrix_unchanged(monkeypatch):
    # cells [1] and [6] of a chain, on the dense storage, one per chunk:
    # the first chunk's Schur update is computed and written, then the
    # second cell's pivot is negative in SPD mode. The step raises, and the
    # matrix is the level-start one, bit for bit
    monkeypatch.setattr(factor_ops, "spans", lambda costs: spans(costs, 1))
    chunks = []
    spy(monkeypatch, "_cell_stacks", chunks)
    d = np.full(10, 2.5)
    d[6] = -5.0
    k = sp.diags([-np.ones(9), d, -np.ones(9)], [-1, 0, 1])
    w = DenseSymMatrix.kept(SparseSymMatrix.from_scipy(k), np.zeros(10, dtype=bool))
    before = [(x.dtype, x.shape, x.tobytes()) for x in (w.values, w.stored, w.dofs, w.active)]
    with pytest.raises(IndefiniteBlockError) as info:
        factor_ops.eliminate_level(w, cellset([[1], [6]]), 0.0, True)
    assert (info.value.level, info.value.group, info.value.block_size) == (0.0, 1, 1)
    assert len(chunks) == 2 and type(w) is DenseSymMatrix
    assert [(x.dtype, x.shape, x.tobytes())
            for x in (w.values, w.stored, w.dofs, w.active)] == before


@pytest.mark.parametrize("example, n, algo, tail", [
    (1, 64, "hifde", [(2.0, 369), (2.5, 273), (3.0, 93), (3.5, 39)]),
    (6, 16, "hifde3x", [(1.0, 631), (1.33, 583), (1.67, 468)]),
], ids=["ex1-hifde-2d", "ex6-hifde3x-3d"])
def test_dense_tail_holds_the_active_dofs(monkeypatch, example, n, algo, tail):
    # each dense step lays out its output over the DOFs it leaves active,
    # so the tail shrinks step by step from the order it switched at
    # (dense_order) to the top block
    seen = []
    for name in ("eliminate_level", "skeletonize_level"):
        def step(w, cells, *args, real=getattr(factor_ops, name)):
            out = real(w, cells, *args)
            if isinstance(w, DenseSymMatrix):
                seen.append((round(args[-2], 2), len(w.dofs),
                             np.array_equal(w.dofs, np.flatnonzero(w.active))))
            return out
        monkeypatch.setattr(f"hifde.driver.{name}", step)
    make, grid = problem(example, n)
    f = FACTORS[algo](make(), grid, 1e-6, spd=EXAMPLE_SPD[example])
    assert [(tag, m) for tag, m, _ in seen] == tail and all(same for *_, same in seen)
    assert (f.metrics["dense_from"], f.metrics["dense_order"]) == tail[0]
    assert f.metrics["s_top"] == tail[-1][1]


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


@pytest.mark.parametrize("step", ["eliminate", "skeletonize"])
@pytest.mark.parametrize("groups, inactive, what", [
    ([[0, 1], []], None, "group 1 of level {} is empty"),
    ([[0], [2, 3, 2]], None, "group 1 of level {} holds DOF 2 twice"),
    ([[0, 4], [2, 4]], None, "group 0 of level {} shares DOF 4 with group 1"),
    ([[0], [3]], 3, "group 1 of level {} holds DOF 3, which is not active"),
    ([[0], [48, 49]], None, "group 1 of level {} holds DOF 49, out of range for order 49"),
    ([[-1]], None, "group 0 of level {} holds DOF -1, out of range for order 49"),
], ids=["empty", "repeated", "in_two_groups", "inactive", "past_the_end", "negative"])
def test_bad_groups_are_named(step, groups, inactive, what):
    # Ex. 1 n=8: 49 DOFs; the check runs before the matrix changes
    make, _ = problem(1, 8)
    w = make()
    if inactive is not None:
        w.active[inactive] = False
    before = arrays(w)
    level = 0.0 if step == "eliminate" else 0.5
    cells = cellset(groups, level)
    with pytest.raises(ValueError, match="^" + re.escape(what.format(f"{level:g}")) + "$"):
        if step == "eliminate":
            factor_ops.eliminate_level(w, cells, level, True)
        else:
            factor_ops.skeletonize_level(w, cells, 1e-6, level, True)
    assert_unchanged(w, before)
