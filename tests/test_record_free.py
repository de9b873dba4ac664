"""The record-free factor: a level keeps its flat arrays and its groups only.
Its accounting (storage_bytes, check, eliminated_count) read from
the flat arrays equals the record-based figures; save_factor writes the
archive the record-based packer writes, byte for byte, and a file from
that packer loads; records are views built on demand, and none is
reachable from a finished or reloaded factor."""

import zipfile

import numpy as np
import pytest

from hifde import (BlockDiag, LdlFactor, Record, assemble, factor_hifde, factor_hifde3x,
                   factor_mf, load_factor, make_problem, save_factor)

from oracles import all_records, reference_save

# (example, algorithm, n, spd): Cholesky and Bunch-Kaufman for each
# algorithm; Ex. 6 hifde3x has 2x2 pivots
CASES = {
    "mf-chol": (2, "mf", 32, True),
    "mf-bk": (3, "mf", 32, False),
    "hifde-chol": (1, "hifde", 64, True),
    "hifde-bk": (3, "hifde", 64, False),
    "hifde3x-chol": (4, "hifde3x", 16, True),
    "hifde3x-bk": (6, "hifde3x", 16, False),
}
FACTORS = {"mf": factor_mf, "hifde": factor_hifde, "hifde3x": factor_hifde3x}


@pytest.fixture(scope="module", params=list(CASES))
def fresh(request):
    example, algo, n, spd = CASES[request.param]
    problem = make_problem(example, n)
    a = assemble(problem.grid, problem.field)
    args = () if algo == "mf" else (1e-6,)
    return FACTORS[algo](a, problem.grid, *args, spd=spd)


@pytest.fixture(scope="module")
def reloaded(fresh, tmp_path_factory):
    path = tmp_path_factory.mktemp("reload") / "factor.gldl"
    save_factor(fresh, path)
    return load_factor(path)


@pytest.fixture(params=["fresh", "reloaded"])
def factor(request, fresh, reloaded):
    return fresh if request.param == "fresh" else reloaded


def covers_once(f, rd_parts) -> bool:
    idx = np.concatenate(rd_parts + [f.top_idx])
    return len(idx) == f.n and bool(np.all(np.bincount(idx, minlength=f.n) == 1))


def test_accounting_equals_record_based(factor):
    records = all_records(factor)
    nfloats = factor.top.nfloats() + sum(rec.nfloats() for rec in records)
    assert factor.storage_bytes() == 8 * nfloats
    for lf in factor.levels:
        assert lf.eliminated_count() == sum(len(rec.eliminated()) for rec in lf.records)
    assert np.array_equal(np.concatenate([lf.flats["rd"] for lf in factor.levels]),
                          np.concatenate([rec.rd for rec in records]))
    factor.check()
    assert covers_once(factor, [rec.rd for rec in records])


def test_two_by_two_pivots_are_counted():
    # a Bunch-Kaufman factor whose D has 2x2 pivots: each counts 3 floats
    problem = make_problem(6, 16)
    f = factor_hifde3x(assemble(problem.grid, problem.field), problem.grid, 1e-6, spd=False)
    records = all_records(f)
    pairs = sum(np.count_nonzero(rec.factor.d.sub) for rec in records)
    assert pairs > 0
    assert f.storage_bytes() == 8 * (f.top.nfloats() + sum(rec.nfloats() for rec in records))
    assert sum(lf.nfloats() for lf in f.levels) == sum(
        rec.factor.lower.size + rec.factor.d.n + rec.coupling.size
        + (rec.interp.size if rec.interp is not None else 0) for rec in records) + 3 * pairs


def test_check_refuses_a_broken_partition(fresh, tmp_path):
    path = tmp_path / "factor.gldl"
    save_factor(fresh, path)
    g = load_factor(path)
    lf = next(lf for lf in g.levels if len(lf.flats["rd"]) > 1)
    lf.flats["rd"][0] = lf.flats["rd"][1]
    assert not covers_once(g, [rec.rd for rec in all_records(g)])
    with pytest.raises(ValueError, match="exactly once"):
        g.check()


def test_archive_members_equal_the_record_packers(factor, tmp_path):
    save_factor(factor, tmp_path / "flat.gldl")
    reference_save(factor, tmp_path / "records.gldl")
    with zipfile.ZipFile(tmp_path / "flat.gldl") as flat, \
            zipfile.ZipFile(tmp_path / "records.gldl") as records:
        assert flat.namelist() == records.namelist()
        for name in flat.namelist():
            assert flat.read(name) == records.read(name), name


def test_record_packed_file_loads_bit_identical(fresh, tmp_path):
    path = tmp_path / "records.gldl"
    reference_save(fresh, path)
    g = load_factor(path)
    b = np.random.default_rng(0).standard_normal((fresh.n, 3))
    for x in (b[:, 0], b):
        assert np.array_equal(g.apply_inverse(x), fresh.apply_inverse(x))
        assert np.array_equal(g.apply(x), fresh.apply(x))


def test_records_are_views_of_the_flat_arrays(factor):
    for lf in factor.levels:
        p = lf.flats
        for rec in lf.records:
            assert np.shares_memory(rec.rd, p["rd"]) or not len(rec.rd)
            assert np.shares_memory(rec.sk, p["sk"]) or not len(rec.sk)
            if len(rec.rd):
                assert np.shares_memory(rec.coupling, p["coupling"]) or not rec.coupling.size
                assert np.shares_memory(rec.factor.lower, p["lower"])
                assert np.shares_memory(rec.factor.perm, p["perm"])
                assert np.shares_memory(rec.factor.d.diag, p["diag"])
                assert np.shares_memory(rec.factor.d.sub, p["sub"])
                assert len(rec.factor.d.sub) == len(rec.rd)
            if rec.interp is not None and rec.interp.size:
                assert np.shares_memory(rec.interp, p["interp"])
        if lf.records:
            assert lf.records[0] is not lf.records[0]


def test_reloaded_top_block_sub_is_a_view_of_the_archive(reloaded):
    # as the levels' flat arrays are; test_plan checks that the sweep reads
    # the top block's sub as it is
    assert len(reloaded.top.d.sub) == len(reloaded.top_idx)
    base = reloaded.top.d.sub.base
    assert base is not None and all(lf.flats["sub"].base is base for lf in reloaded.levels)


def reachable(root) -> list:
    """Every object reachable from ``root`` through containers and instance
    attributes (NumPy arrays hold no Python objects here)."""
    seen, stack, out = set(), [root], []
    while stack:
        x = stack.pop()
        if id(x) in seen or isinstance(x, (np.ndarray, str, bytes, int, float, type)):
            continue
        seen.add(id(x))
        out.append(x)
        if isinstance(x, dict):
            stack += [*x.keys(), *x.values()]
        elif isinstance(x, (list, tuple, set, frozenset)):
            stack += list(x)
        elif hasattr(x, "__dict__"):
            stack.append(vars(x))
    return out


def test_no_record_reachable(factor):
    objs = reachable(factor)
    assert not [x for x in objs if isinstance(x, Record)]
    # the top block is the one factored block kept as an object
    assert [x for x in objs if isinstance(x, LdlFactor)] == [factor.top]
    assert [x for x in objs if isinstance(x, BlockDiag)] == [factor.top.d]
    assert all(set(vars(lf)) == {"level", "spd", "flats", "groups"} for lf in factor.levels)
