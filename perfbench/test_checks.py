"""Tests of the benchmark's own checks, on the smoke-mode grids.

    PYTHONPATH=src python -m pytest -q perfbench

A broken program must show as failed operations: a wrong stencil entry, a
perturbed factor and an unconverged solve are each injected by patching the
name the runner calls, and one smoke round must then report a failure.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hifde  # noqa: E402
import checks  # noqa: E402
import pipeline  # noqa: E402
from hifde.sparse import SparseSymMatrix  # noqa: E402

POISSON = pipeline.WORKLOADS["poisson2d-direct"]


def smoke_round(wl=POISSON) -> pipeline.Run:
    run = pipeline.Run(wl, seed=0, smoke=True)
    run.round()
    return run


@pytest.mark.parametrize("name", sorted(pipeline.WORKLOADS))
def test_smoke_round_passes(name):
    run = smoke_round(pipeline.WORKLOADS[name])
    assert run.ops.errors == []
    assert run.ops.correct and run.ops.failed == 0
    assert run.last_factor is not None


@pytest.mark.parametrize("example, n", [(1, 16), (2, 16), (3, 16), (5, 8), (6, 8)])
def test_kron_sum_matrix_matches_assemble(example, n):
    problem = hifde.make_problem(example, n, seed=1, m=2 if example > 3 else None)
    a = hifde.assemble(problem.grid, problem.field).to_scipy()
    assert checks.stencil(a, checks.kron_sum_matrix(problem.grid, problem.field)) is None


def test_wrong_stencil_entry_is_a_failed_operation(monkeypatch):
    def assemble_wrong(grid, field):
        work = hifde.assemble(grid, field)
        row = grid.ndof // 2
        diag = np.searchsorted(work.row_idx[row], row)
        work.row_val[row][diag] *= 1.001
        return work
    monkeypatch.setattr(pipeline, "assemble", assemble_wrong)
    run = smoke_round()
    assert run.ops.failed >= 1 and not run.ops.correct
    assert any(e.startswith("setup:") and "Kronecker-sum" in e for e in run.ops.errors)


def test_perturbed_factor_is_a_failed_operation(monkeypatch):
    def factor_perturbed(*args, **kwargs):
        f = hifde.factor_hifde(*args, **kwargs)
        f.top.d.diag *= 1.5
        return f
    monkeypatch.setattr(pipeline, "factor_hifde", factor_perturbed)
    run = smoke_round()
    assert run.ops.failed >= 1 and not run.ops.correct
    assert any(e.startswith("estimate_apply_error:") for e in run.ops.errors)


def test_indefinite_factor_fails_the_spd_probe():
    probes = np.eye(3)
    assert checks.quadratic_forms(probes, np.diag([1.0, -1.0, 2.0])) is not None
    assert checks.quadratic_forms(probes, np.diag([1.0, 3.0, 2.0])) is None


def test_unconverged_solve_is_a_failed_operation(monkeypatch):
    def pcg_two_steps(a, b, precond, **kwargs):
        return hifde.pcg(a, b, None, max_iter=2, **kwargs)
    monkeypatch.setattr(pipeline, "pcg", pcg_two_steps)
    run = smoke_round()
    assert run.ops.failed >= 1
    assert any(e.startswith("krylov:") and "did not converge" in e for e in run.ops.errors)


def test_residual_above_tolerance_is_not_delivered():
    a = np.diag([1.0, 2.0])
    b = np.array([1.0, 1.0])
    rep = hifde.SolveReport(x=np.array([1.0, 0.5 + 1e-9]), n_i=1, residual=0.0, converged=True)
    assert "residual" in checks.converged(rep, a, b)


def test_isolated_returns_the_child_value_and_reports_its_failure():
    assert checks.isolated(lambda: (None, [1.5, 2.5])) == (None, [1.5, 2.5])
    with pytest.raises(RuntimeError):
        checks.isolated(lambda: 1 / 0)


def test_traced_run_restores_the_program():
    before = SparseSymMatrix.gather, hifde.driver.ldl, hifde.driver.GeneralizedLDL.apply_inverse
    run, metrics, table = pipeline.traced_run(POISSON, seed=0, smoke=True)
    after = SparseSymMatrix.gather, hifde.driver.ldl, hifde.driver.GeneralizedLDL.apply_inverse
    assert before == after
    assert run.ops.failed == 0
    assert table[-1]["active_after"] == len(run.last_factor.top_idx)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(metrics) == sorted(m["name"] for m in spec["per_layer"])


def test_untraced_run_reports_every_end_to_end_metric():
    run = pipeline.Run(POISSON, seed=0, smoke=True)
    run.timed(0.0)
    metrics = run.end_to_end()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in metrics.items()}
    assert all(v is not None and v > 0 for v, _ in metrics.values())
