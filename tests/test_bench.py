"""Benchmark harness and command line."""

import csv
import io
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hifde import (GeneralizedLDL, assemble, factor_hifde, load_factor, make_problem,
                   rows_to_csv, run_example, run_sweep)
from hifde import bench, cli
from hifde.bench import CSV_COLUMNS

TIMING_COLS = {"t_f", "t_a", "t_s", "t_s_first"}


class TestMakeProblem:
    def test_example_dims_and_fields(self):
        p1 = make_problem(1, 16)
        assert p1.grid.dim == 2 and np.all(p1.field.b == 0)
        p4 = make_problem(4, 8, m=2)
        assert p4.grid.dim == 3
        p2 = make_problem(2, 16, seed=3)
        assert p2.field.contrast_ratio == 1e4

    def test_helmholtz_wave_count_default(self):
        p3 = make_problem(3, 64)
        # 32 DOFs per wavelength in 2D: kappa = n / 32
        k = 2 * np.pi * (64 / 32)
        assert np.allclose(p3.field.b, -k * k)
        p6 = make_problem(6, 16, m=2)
        k6 = 2 * np.pi * (16 / 8)
        assert np.allclose(p6.field.b, -k6 * k6)

    def test_unknown_example(self):
        with pytest.raises(ValueError):
            make_problem(7, 16)


class TestRunExample:
    def test_mf_row_is_exact(self):
        row = run_example(1, "mf", 16)
        assert row.status == "ok"
        assert row.N == 225
        assert row.e_a <= 1e-12
        assert row.n_i == 1
        assert row.s_L == 2 * 15 - 1

    def test_unconverged_estimate_is_named_in_status(self, monkeypatch):
        def estimate(*args, real=bench.estimate_apply_error, **kwargs):
            return real(*args, **kwargs)._replace(converged=False, iterations=512)
        monkeypatch.setattr(bench, "estimate_apply_error", estimate)
        row = run_example(1, "hifde", 16, eps=1e-6)
        assert row.status == "estimate_apply_error did not converge in 512 iterations"
        head, fields = rows_to_csv([row]).splitlines()
        assert head.split(",") == CSV_COLUMNS and fields.endswith("," + row.status)

    def test_hifde_requires_eps(self):
        with pytest.raises(ValueError):
            run_example(1, "hifde", 16)

    def test_hifde3x_needs_3d(self):
        with pytest.raises(ValueError):
            run_example(1, "hifde3x", 16, eps=1e-6)

    def test_verify_flag_small_instance(self):
        row = run_example(1, "hifde", 16, eps=1e-6, verify=True)
        assert row.status == "ok"

    def test_verify_refuses_large_n(self):
        # the check densifies the factor, so a larger N is refused, before
        # assembly, instead of passing unchecked; a sweep reports it
        with pytest.raises(ValueError, match=r"verify needs N <= 400, got N = 3375"):
            run_example(4, "hifde", 16, eps=1e-6, verify=True)
        row, = run_sweep([dict(example_id=4, algorithm="hifde", n=16, eps=1e-6, verify=True)])
        assert row.status == "error: ValueError: verify needs N <= 400, got N = 3375"

    def test_export_factor(self, tmp_path):
        path = tmp_path / "f.bin"
        row = run_example(1, "hifde", 16, eps=1e-6, export_factor=path)
        assert row.status == "ok"
        problem = make_problem(1, 16)
        f = factor_hifde(assemble(problem.grid, problem.field), problem.grid, 1e-6)
        f2 = load_factor(path)
        x = np.random.default_rng(0).random(f.n)
        assert np.array_equal(f.apply(x), f2.apply(x))

    def test_first_and_warm_times(self, monkeypatch):
        # t_a and t_s each time a second call, and t_s_first the first
        # solve: a first call that is slow (apply_inverse's builds the plan's
        # inverses) is in t_s_first only
        original = {op: getattr(GeneralizedLDL, op) for op in ("apply", "apply_inverse")}
        first = set()

        def slow_first(op):
            def call(f, x):
                if (id(f), op) not in first:
                    first.add((id(f), op))
                    time.sleep(0.5)
                return original[op](f, x)
            return call

        for op in original:
            monkeypatch.setattr(GeneralizedLDL, op, slow_first(op))
        row = run_example(1, "hifde", 16, eps=1e-6)
        assert row.status == "ok"
        assert len(first) == 2
        assert row.t_a < 0.5 and row.t_s < 0.5 <= row.t_s_first

    def test_indefinite_example_uses_gmres(self):
        row = run_example(3, "hifde", 16, eps=1e-9)
        assert row.status == "ok"
        assert row.kappa == pytest.approx(0.5)
        assert row.n_i >= 1


class TestRunSweep:
    def test_empty_sweep_header_only(self):
        text = rows_to_csv(run_sweep([]))
        assert text.strip() == ",".join(CSV_COLUMNS)

    def test_determinism_excluding_timings(self):
        spec = dict(example_id=2, algorithm="hifde", n=16, eps=1e-6, seed=42)
        rows = list(run_sweep([spec, dict(spec)]))
        text = rows_to_csv(rows)
        r1, r2 = list(csv.DictReader(io.StringIO(text)))
        for col in CSV_COLUMNS:
            if col not in TIMING_COLS:
                assert r1[col] == r2[col], f"column {col} not deterministic"

    def test_failure_recorded_and_sweep_continues(self):
        rows = list(run_sweep([
            dict(example_id=1, algorithm="hifde3x", n=16, eps=1e-6),
            dict(example_id=1, algorithm="mf", n=16),
        ]))
        assert len(rows) == 2
        assert rows[0].status.startswith("error")
        assert rows[1].status == "ok"

    def test_csv_float_formatting(self):
        text = rows_to_csv(run_sweep([dict(example_id=1, algorithm="hifde",
                                           n=16, eps=1e-6)]))
        row = list(csv.DictReader(io.StringIO(text)))[0]
        assert row["eps"] == "1e-06"
        assert len(row["e_a"].replace(".", "").replace("e", "").lstrip("-+")) <= 10


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "hifde.cli", *args],
            capture_output=True, text=True, timeout=300)

    def test_basic_run_to_stdout(self):
        out = self.run_cli("--example", "1", "--algo", "mf", "--n", "16")
        assert out.returncode == 0, out.stderr
        lines = out.stdout.strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_multi_n_eps_sweep_to_file(self, tmp_path):
        path = tmp_path / "rows.csv"
        out = self.run_cli("--example", "1", "--algo", "hifde",
                           "--n", "8,16", "--eps", "1e-3,1e-6",
                           "--leaf-m", "2", "--out", str(path), "--verify")
        assert out.returncode == 0, out.stderr
        rows = list(csv.DictReader(path.open()))
        assert len(rows) == 4
        assert all(r["status"] == "ok" for r in rows)

    def test_eps_required_for_hifde(self):
        out = self.run_cli("--example", "1", "--algo", "hifde", "--n", "16")
        assert out.returncode == 2

    def test_failure_exit_code(self):
        # hifde3x on a 2D example fails per row and exits nonzero
        out = self.run_cli("--example", "1", "--algo", "hifde3x",
                           "--n", "16", "--eps", "1e-6")
        assert out.returncode == 1
        assert "error" in out.stdout

    @pytest.mark.parametrize("sizes", ["", ",", "0", "16,-16"],
                             ids=["empty", "comma", "zero", "negative"])
    def test_no_size_or_size_below_one_is_a_usage_error(self, sizes, capsys):
        # no row would run, or a row would fail: argparse's exit 2, naming --n
        with pytest.raises(SystemExit) as info:
            cli.main(["--example", "1", "--algo", "mf", "--n", sizes])
        assert info.value.code == 2
        assert "argument --n: expected sizes >= 1" in capsys.readouterr().err

    def test_verify_too_large_exit_code(self):
        out = self.run_cli("--example", "4", "--algo", "hifde", "--n", "16",
                           "--eps", "1e-6", "--verify")
        assert out.returncode == 1
        assert "verify needs N <= 400" in out.stdout


class TestPerfbenchSmoke:
    def test_smoke_run_correct(self):
        """The benchmark's tiny-grid run, traced rounds included, still
        finds every name it patches and every check passes."""
        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"), "--smoke"],
            capture_output=True, text=True, timeout=120, cwd=root)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] > 0
