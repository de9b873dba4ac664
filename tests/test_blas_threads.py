"""The BLAS thread policy: a multi-column solve runs on one OpenBLAS thread
in both bundled libraries (NumPy's and SciPy's), a factorization runs
SciPy's copy on one thread and NumPy's on the process's count, and a
single column keeps the process's count. Each pin restores the previous
counts afterwards, also after an exception, and pins that overlap in two
threads restore each library once, when its last holder leaves. The pin
is process-wide, so the pinned cases run in a subprocess started with
OPENBLAS_NUM_THREADS=2.

The factor's bits depend on the thread count (Ex. 6 3D n=16 hifde3x
eps=1e-6 factors differently on 1 and 2 threads), so a pin that leaked
out of a solve or a factor would change the next factor: its digest must
not move."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hifde import assemble, dense, factor_hifde, make_problem

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import json
import sys
import threading
import numpy as np
from hifde import FactorizationError, assemble, dense, driver, factor_hifde3x, make_problem
from oracles import factor_digest


def factor(spd=False):
    problem = make_problem(6, 16)
    return factor_hifde3x(assemble(problem.grid, problem.field), problem.grid, 1e-6, spd=spd)


# every count set, in order, by library
puts = []


def logged(name, put):
    def call(k):
        puts.append([name, k])
        put(k)
    return call


libs = tuple((name, get, logged(name, put)) for name, get, put in dense._openblas())
dense._openblas = lambda: libs
solve_forward, eliminate_level = driver.Group.solve_forward, driver.eliminate_level

out = {"process": dense.blas_threads()}
f = factor()
out["metrics"] = f.metrics["blas_threads"]
out["after_factor"] = dense.blas_threads()
out["factor_puts"] = list(puts)
out["digest_before"] = factor_digest(f)
seen = []


def spy(orig):
    def step(*args):
        seen.append(dense.blas_threads())
        return orig(*args)
    return step


driver.Group.solve_forward = spy(driver.Group.solve_forward)
driver.Group.apply_forward = spy(driver.Group.apply_forward)
b = np.random.default_rng(0).standard_normal((f.n, 4))
for name, call in [("inverse_block", lambda: f.apply_inverse(b)),
                   ("apply_block", lambda: f.apply(b)),
                   ("inverse_column", lambda: f.apply_inverse(b[:, 0])),
                   ("apply_column", lambda: f.apply(b[:, :1]))]:
    seen.clear()
    call()
    out[name] = {"inside": [d for i, d in enumerate(seen) if d not in seen[:i]],
                 "after": dense.blas_threads()}


def fail(self, v):
    raise RuntimeError("inside the block")


driver.Group.solve_forward = fail
try:
    f.apply_inverse(b)
except RuntimeError as exc:
    out["raised"] = str(exc)
out["after_raise"] = dense.blas_threads()
driver.Group.solve_forward = solve_forward

# SPD mode on the indefinite Helmholtz matrix fails inside a level step
seen.clear()
driver.eliminate_level = spy(eliminate_level)
try:
    factor(spd=True)
except FactorizationError as exc:
    out["factor_raised"] = type(exc).__name__
    out["factor_raised_level"] = exc.level
out["factor_raise_inside"] = seen[-1:]
out["after_factor_raise"] = dense.blas_threads()
driver.eliminate_level = eliminate_level

# two pinned blocks that overlap in two threads: A enters, B enters, A
# leaves while B still runs, then B leaves
a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()


def first():
    with dense.one_blas_thread():
        a_in.set()
        b_in.wait(60)
    a_out.set()


def second():
    a_in.wait(60)
    with dense.one_blas_thread():
        b_in.set()
        a_out.wait(60)
        out["overlap_second_alone"] = dense.blas_threads()


def run_threads(threads):
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    return not any(t.is_alive() for t in threads)


out["overlap_joined"] = run_threads([threading.Thread(target=first),
                                     threading.Thread(target=second)])
out["overlap_after"] = dense.blas_threads()


# orig, with action run before its first call only
def once(action, orig):
    done = []

    def step(*args):
        if not done:
            done.append(1)
            action()
        return orig(*args)
    return step


# a factor and a block solve that overlap in two threads: the one that
# enters first waits inside its pin until the other is in, and the solve
# leaves while the factor still runs; returns the counts while the factor
# runs alone again, the counts set in between, and the counts after
def overlap(factor_first):
    f_in, s_in, s_out = threading.Event(), threading.Event(), threading.Event()
    mid = []

    def in_factor():
        f_in.set()
        if factor_first:
            s_in.wait(60)
        s_out.wait(60)
        mid.append(dense.blas_threads())

    def in_solve():
        s_in.set()
        f_in.wait(60)

    def run_factor():
        if not factor_first:
            s_in.wait(60)
        factor()

    def run_solve():
        if factor_first:
            f_in.wait(60)
        f.apply_inverse(b)
        s_out.set()

    driver.eliminate_level = once(in_factor, eliminate_level)
    driver.Group.solve_forward = once(in_solve, solve_forward)
    del puts[:]
    try:
        joined = run_threads([threading.Thread(target=run_factor),
                              threading.Thread(target=run_solve)])
    finally:
        driver.eliminate_level = eliminate_level
        driver.Group.solve_forward = solve_forward
    return {"joined": joined, "factor_alone": mid, "puts": list(puts),
            "after": dense.blas_threads()}


out["overlap_factor_first"] = overlap(True)
out["overlap_solve_first"] = overlap(False)


def churn(names):
    for _ in range(300):
        with dense.one_blas_thread(*names):
            pass


# more threads than cores, switching as often as the interpreter allows
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    out["churn_joined"] = run_threads([
        threading.Thread(target=churn, args=(names,))
        for names in [(), ("scipy",), ("numpy",), ("numpy", "scipy")]])
finally:
    sys.setswitchinterval(interval)
out["churn_after"] = dense.blas_threads()
out["digest_after"] = factor_digest(factor())
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def run():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          timeout=120, cwd=ROOT, env=env)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    if out["process"] is None or min(out["process"].values()) < 2:
        pytest.skip(f"fewer than 2 OpenBLAS threads in effect: {out['process']}")
    return out


TWO = {"numpy": 2, "scipy": 2}
ONE = {"numpy": 1, "scipy": 1}
FACTOR = {"numpy": 2, "scipy": 1}


def test_process_count_read_from_both_libraries(run):
    assert run["process"] == TWO


@pytest.mark.parametrize("name", ["inverse_block", "apply_block"])
def test_block_solve_runs_on_one_thread_then_restores(run, name):
    assert run[name] == {"inside": [ONE], "after": TWO}


@pytest.mark.parametrize("name", ["inverse_column", "apply_column"])
def test_single_column_leaves_counts_untouched(run, name):
    assert run[name] == {"inside": [TWO], "after": TWO}


def test_counts_restored_after_exception(run):
    assert run["raised"] == "inside the block"
    assert run["after_raise"] == TWO


def test_overlapping_pins_in_two_threads_restore_once(run):
    # the pin holds until the last block leaves, then the counts are restored
    assert run["overlap_joined"]
    assert run["overlap_second_alone"] == ONE
    assert run["overlap_after"] == TWO


def test_pins_churned_in_four_threads_restore(run):
    # each thread pins other libraries: none, SciPy's, NumPy's, both
    assert run["churn_joined"]
    assert run["churn_after"] == TWO


def test_factor_pins_scipy_only_then_restores(run):
    assert run["metrics"] == FACTOR
    assert run["after_factor"] == TWO
    assert run["factor_puts"] == [["scipy", 1], ["scipy", 2]]


def test_failed_factor_restores_scipy(run):
    # the failure is raised inside the level-1 step, after three levels
    # are done, under the pin
    assert run["factor_raised"] == "IndefiniteBlockError"
    assert run["factor_raised_level"] == 1.0
    assert run["factor_raise_inside"] == [FACTOR]
    assert run["after_factor_raise"] == TWO


@pytest.mark.parametrize("name, puts", [
    ("overlap_factor_first", [["scipy", 1], ["numpy", 1], ["numpy", 2], ["scipy", 2]]),
    ("overlap_solve_first", [["numpy", 1], ["scipy", 1], ["numpy", 2], ["scipy", 2]]),
])
def test_factor_and_block_solve_overlapping_restore_each_library_once(run, name, puts):
    # when the solve leaves, NumPy's count comes back and SciPy's stays
    # pinned by the factor; SciPy's comes back when the factor leaves
    got = run[name]
    assert got["joined"]
    assert got["factor_alone"] == [FACTOR]
    assert got["puts"] == puts
    assert got["after"] == TWO


def test_block_solve_leaves_next_factor_unchanged(run):
    assert run["digest_after"] == run["digest_before"]


def test_nothing_found_does_nothing(monkeypatch):
    monkeypatch.setattr(dense, "_openblas", lambda: ())
    assert dense.blas_threads() is None
    ran = []
    with dense.one_blas_thread():
        ran.append(1)
    with pytest.raises(RuntimeError, match="propagates"):
        with dense.one_blas_thread():
            raise RuntimeError("propagates")
    assert ran == [1]
    with pytest.raises(ValueError, match="unknown BLAS libraries"):
        with dense.one_blas_thread("scipy", "mkl"):
            pass
    problem = make_problem(1, 32)
    f = factor_hifde(assemble(problem.grid, problem.field), problem.grid, 1e-6)
    assert f.metrics["blas_threads"] is None
    b = np.random.default_rng(0).standard_normal((f.n, 3))
    x = f.apply_inverse(b)
    for j in range(3):
        np.testing.assert_allclose(x[:, j], f.apply_inverse(b[:, j]),
                                   rtol=0, atol=1e-12 * np.abs(x).max())


def test_factor_and_reference_share_the_pin(monkeypatch):
    # the per-cell reference must round as the factor does, so both run
    # under the one helper
    from hifde import driver
    from oracles import reference_factor

    calls = []

    def counted():
        calls.append(1)
        return pin()

    pin = driver._factor_threads
    monkeypatch.setattr(driver, "_factor_threads", counted)
    problem = make_problem(1, 16)
    factor_hifde(assemble(problem.grid, problem.field), problem.grid, 1e-6)
    reference_factor(assemble(problem.grid, problem.field), problem.grid, "hifde", 1e-6)
    assert calls == [1, 1]
