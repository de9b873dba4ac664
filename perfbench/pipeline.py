"""One benchmark run of one workload, in a process of its own.

run.py starts this file as a child process with the BLAS thread count set in
its environment, so that the count is fixed before NumPy loads and the peak
resident set belongs to this run alone. The last line on standard output is
the JSON result.

A run repeats whole rounds while the next one, as long as the last, still
ends within --seconds (at least one round), and every round makes the same
operations: three set-ups (the last one's matrix is factored), the factor,
a warm-up solve, a save of the factor, four passes of [a Krylov solve of one
right-hand side to 1e-12 preconditioned by the factor, 4 single-RHS solves,
a 16-column block solve, a reload of the factor], an x^T F x probe on SPD
workloads, and both error estimators. Every call into the program is one
operation; it fails when it raises, when it does not deliver what was asked
(a Krylov residual above 1e-12), or when a check in checks.py finds its
output wrong. Metrics are medians over the run's samples (Krylov, solve,
block-solve and reload times give one sample per round, the mean of the
round's calls); the peak resident set is read when the last round ends, and
no reference computation of the checks runs in this process.

With --trace 1 the run instead times one plain set-up and factor, then one
round under the tracer (tracing.py), and reports the per-layer metrics,
the tracing overhead and the per-level table.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import hifde
from hifde import (assemble, estimate_apply_error, estimate_solve_error, factor_hifde,
                   factor_hifde3x, gmres, load_factor, make_problem, pcg, save_factor)

import checks
import tracing

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUPS_PER_ROUND = 3  # the last one's matrix is factored
PASSES = 4            # Krylov solves, block solves and reloads per round
SOLVES_PER_PASS = 4   # timed single-RHS solves per pass
SINGLE_SOLVES = PASSES * SOLVES_PER_PASS  # also the block width
SPD_PROBES = 2
SMOKE_N = 16          # grid size of the smoke mode
END_TO_END = (("setup_s", "s"), ("factor_s", "s"), ("solve_s", "s"),
              ("block_solve_s", "s"), ("krylov_s", "s"), ("time_to_solution_s", "s"),
              ("load_s", "s"), ("krylov_iters", "count"), ("factor_mb", "MB"),
              ("top_block", "DOFs"), ("peak_rss_mb", "MB"), ("apply_err", "ratio"),
              ("solve_err", "ratio"))


@dataclass(frozen=True)
class Workload:
    name: str
    example: int       # hifde.make_problem example id
    n: int
    algo: str
    eps: float
    spd: bool          # Cholesky pivots and PCG, else Bunch-Kaufman and GMRES


WORKLOADS = {w.name: w for w in (
    # Direct solver: 16k cells of small blocks, so the per-call cost of the
    # sparse bookkeeping sets factor_s.
    Workload("poisson2d-direct", 1, 256, "hifde", 1e-6, True),
    # 2.2k cells of large blocks, adaptive separators and Bunch-Kaufman
    # pivots, solved by GMRES; the sparse bookkeeping moves 4x the data.
    Workload("helmholtz3d-indef", 6, 32, "hifde3x", 1e-6, False),
)}


class Ops:
    """Counts operations. One fails when it raises, when its output is
    wrong (``check`` returns a message), or when it does not deliver what was
    asked of it (``verdict`` returns a (shortfall, wrong) pair of messages or
    Nones); only a wrong output makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: list[str] = []

    def run(self, name, fn, check=None, verdict=None):
        """Time fn(); return (output, seconds), output None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        shortfall, wrong = verdict(out) if verdict is not None else (None, None)
        wrong = wrong or (check(out) if check is not None else None)
        if shortfall or wrong:
            self.failed += 1
            self.errors += [f"{name}: {msg}" for msg in (shortfall, wrong) if msg]
            self.correct &= not wrong
        return out, dt


class NoTrace:
    def span(self, name):
        return nullcontext()

    def wrap(self, name, fn):
        return fn


def blas_threads() -> dict:
    """OpenBLAS thread counts in effect, read from the loaded libraries."""
    found = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            names = [f"{pre}openblas_get_num_threads{suf}"
                     for pre in ("scipy_", "") for suf in ("64_", "")]
            fn = next((getattr(handle, nm) for nm in names if hasattr(handle, nm)), None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[pkg.__name__] = int(fn())
    return found


class Run:
    def __init__(self, wl: Workload, seed: int, smoke: bool, tracer=None):
        self.wl = wl
        self.n = SMOKE_N if smoke else wl.n
        self.seed = seed
        self.tracer = tracer or NoTrace()
        self.ops = Ops()
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}
        self.x_direct = None
        self.last_factor = None
        self.factor_path = OUT_DIR / f"factor-{wl.name}-{os.getpid()}.gldl"

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    # -- program calls -------------------------------------------------------

    def setup(self):
        """Problem generation, assembly and the CSR copy kept for matvecs."""
        wl = self.wl

        def call():
            problem = make_problem(wl.example, self.n)
            with self.tracer.span("discretize.assemble"):
                work = assemble(problem.grid, problem.field)
            return problem, work, work.to_scipy()

        def check(out):
            problem, _, a = out
            return checks.isolated(lambda: checks.stencil(
                a, checks.kron_sum_matrix(problem.grid, problem.field)))
        out, dt = self.ops.run("setup", call, check)
        self.sample("setup_s", dt)
        return out

    def factor(self, problem, work):
        wl = self.wl
        fn = factor_hifde if wl.algo == "hifde" else factor_hifde3x

        def call():
            with self.tracer.span("driver.factor"):
                return fn(work, problem.grid, wl.eps, spd=wl.spd)
        return self.ops.run("factor", call, lambda f: checks.accounting(f, problem.grid.ndof))

    def krylov(self, a, f, rhs, problem):
        solver = pcg if self.wl.spd else gmres
        matvec = self.tracer.wrap("krylov.matvec", a.dot)
        precond = self.tracer.wrap("krylov.precond", f.apply_inverse)

        def call():
            with self.tracer.span("krylov.solve"):
                return solver(matvec, rhs, precond, tol=checks.KRYLOV_TOL)

        def verdict(rep):
            shortfall, wrong, self.x_direct = checks.isolated(lambda: checks.krylov_solution(
                rep, problem.grid, problem.field, rhs, self.x_direct))
            return shortfall, wrong
        return self.ops.run("krylov", call, verdict=verdict)

    # -- rounds --------------------------------------------------------------

    def round(self) -> bool:
        """One round; False when a call raised and the round could not go on."""
        wl = self.wl
        self.last_factor = None   # every round starts with no factor alive
        for _ in range(SETUPS_PER_ROUND):
            out = self.setup()
            if out is None:
                return False
        problem, work, a = out
        t_setup = self.samples["setup_s"][-1]
        n = problem.grid.ndof
        rhs = np.random.default_rng((self.seed, 1)).standard_normal(n)
        cols = np.random.default_rng((self.seed, 2)).standard_normal((n, SINGLE_SOLVES))

        f, t_factor = self.factor(problem, work)
        work = None               # the factorization has used it up
        if f is None:
            return False
        self.sample("factor_s", t_factor)
        self.values["factor_mb"] = f.storage_bytes() / 1e6
        self.values["top_block"] = len(f.top_idx)
        self.ops.run("solve_warmup", lambda: f.apply_inverse(cols[:, 0]))

        def save():
            with self.tracer.span("driver.save"):
                save_factor(f, self.factor_path)

        def load():
            with self.tracer.span("driver.load"):
                return load_factor(self.factor_path)
        self.ops.run("save", save)
        if not self.factor_path.exists():
            return False
        self.values["file_bytes"] = self.factor_path.stat().st_size

        # The Krylov, single, block and reload steps are spread over the round
        # in passes, and each is sampled once per round as the mean over its
        # calls. On a shared 2-vCPU host the speed was seen to switch between
        # two levels about 1.6x apart every few seconds; a mean over calls
        # spread in time follows the share of slow time smoothly, where a
        # median over adjacent calls jumps from one level to the other.
        singles = np.empty_like(cols)
        times: dict[str, list[float]] = {}
        try:
            for k in range(PASSES):
                rep, dt = self.krylov(a, f, rhs, problem)
                if rep is None:
                    return False
                times.setdefault("krylov_s", []).append(dt)
                if k == 0:
                    self.sample("time_to_solution_s", t_setup + t_factor + dt)
                done = (k + 1) * SOLVES_PER_PASS
                for j in range(done - SOLVES_PER_PASS, done):
                    x, dt = self.ops.run("solve", lambda: f.apply_inverse(cols[:, j]))
                    if x is None:
                        return False
                    singles[:, j] = x
                    times.setdefault("solve_s", []).append(dt)
                block, dt = self.ops.run("block_solve", lambda: f.apply_inverse(cols),
                                         lambda xb: checks.block_matches(xb[:, :done], singles[:, :done]))
                if block is None:
                    return False
                times.setdefault("block_solve_s", []).append(dt)
                g, dt = self.ops.run("load", load, lambda g: checks.bit_identical(
                    g.apply_inverse(cols[:, 0]), singles[:, 0]))
                if g is None:
                    return False
                g = None      # each load starts with no reloaded factor alive
                times.setdefault("load_s", []).append(dt)
        finally:
            self.factor_path.unlink(missing_ok=True)
        for name, values in times.items():
            self.sample(name, statistics.fmean(values))
        self.sample("krylov_iters", rep.n_i)

        if wl.spd:
            probes = np.random.default_rng((self.seed, 3)).standard_normal((n, SPD_PROBES))
            self.ops.run("spd_probe", lambda: np.column_stack([f.apply(p) for p in probes.T]),
                         lambda fx: checks.quadratic_forms(probes, fx))

        est, _ = self.ops.run("estimate_apply_error",
                              lambda: estimate_apply_error(a, f, seed=self.seed),
                              lambda e: checks.apply_error(e.value, wl.eps))
        if est is None:
            return False
        self.sample("apply_err", est.value)
        est, _ = self.ops.run("estimate_solve_error",
                              lambda: estimate_solve_error(a, f, seed=self.seed),
                              lambda e: checks.finite_positive(e.value, "solve error"))
        if est is None:
            return False
        self.sample("solve_err", est.value)
        self.last_factor = f
        return True

    def timed(self, seconds: float) -> None:
        """Whole rounds while the next one, as long as the last, still ends
        within ``seconds``; at least one."""
        warm_up(self.wl)
        start = last = time.perf_counter()
        rounds = 0
        while rounds == 0 or 2 * time.perf_counter() - last <= start + seconds:
            last = time.perf_counter()
            if not self.round():
                break
            rounds += 1
        self.values["rounds"] = rounds

    def end_to_end(self) -> dict:
        values = {k: statistics.median(v) for k, v in self.samples.items()}
        values["factor_mb"] = self.values.get("factor_mb")
        values["top_block"] = self.values.get("top_block")
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {name: (values.get(name), unit) for name, unit in END_TO_END}


def warm_up(wl: Workload) -> None:
    """Load lazily imported code paths with one small untimed, uncounted
    round, so that the first timed round does not pay for them."""
    Run(wl, seed=0, smoke=True).round()


def traced_run(wl: Workload, seed: int, smoke: bool) -> tuple[Run, dict, list]:
    """One plain set-up and factor, then one round under the tracer."""
    warm_up(wl)
    plain = Run(wl, seed, smoke)
    out = plain.setup()
    t_plain = plain.factor(*out[:2])[1] if out is not None else float("nan")
    tracer = tracing.Tracer()
    run = Run(wl, seed, smoke, tracer)
    run.ops = plain.ops
    tracer.install()
    try:
        ok = run.round()
    finally:
        tracer.restore()
    if not ok:
        return run, {}, []
    f = run.last_factor
    table, _ = run.ops.run("level_table", lambda: tracing.level_table(f, tracer, wl.algo),
                           lambda t: checks.level_table(t, len(f.top_idx)))
    metrics = tracing.layer_metrics(tracer, f, t_plain, run.values["file_bytes"])
    tracer.write_spans(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl.gz")
    return run, metrics, table or []


def environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "hifde": hifde.__version__,
            "blas_threads": blas_threads(),
            "blas_env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def result_line(ops: Ops, metrics: dict) -> dict:
    missing = [k for k, (v, _) in metrics.items() if v is None]
    correct = ops.correct and not missing
    return {"correct": bool(correct), "attempted": ops.attempted, "failed": ops.failed,
            "metrics": {k: {"value": float(v) if v is not None else None, "unit": u}
                        for k, (v, u) in metrics.items()}}


def smoke(seed: int) -> dict:
    """Every workload's round and checks on a tiny grid, traced and not;
    the operations of all of them."""
    total = Ops()
    for wl in WORKLOADS.values():
        run = Run(wl, seed, smoke=True)
        run.timed(0.0)
        traced, _, table = traced_run(wl, seed, smoke=True)
        for ops in (run.ops, traced.ops):
            total.attempted += ops.attempted
            total.failed += ops.failed
            total.correct &= ops.correct
            total.errors += ops.errors
        status = "ok" if not (run.ops.failed or traced.ops.failed) else "FAILED"
        print(f"smoke {wl.name} n={run.n}: {status}, "
              f"{run.ops.attempted + traced.ops.attempted} operations, "
              f"{len(table)} levels")
    for err in total.errors:
        print("  error:", err)
    return total


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="required unless --smoke")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.workload is None and not args.smoke:
        p.error("--workload is required")
    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    print("environment:", json.dumps(env))
    if args.smoke:
        ops = smoke(args.seed)
        print(json.dumps(result_line(ops, {})))
        return 1 if ops.failed else 0

    wl = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    if args.trace:
        run, metrics, table = traced_run(wl, args.seed, smoke=False)
        print(tracing.format_table(table))
    else:
        run = Run(wl, args.seed, smoke=False)
        run.timed(args.seconds)
        metrics, table = run.end_to_end(), []
    result = result_line(run.ops, metrics)
    for err in run.ops.errors:
        print("error:", err)
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "wall_s": time.perf_counter() - t0, "environment": env,
              "samples": run.samples, "values": run.values, "levels": table,
              "errors": run.ops.errors, "result": result}
    with open(OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1, default=float)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
