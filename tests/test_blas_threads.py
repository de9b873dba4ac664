"""The BLAS thread policy: a multi-column solve runs on one OpenBLAS thread
in both bundled libraries (NumPy's and SciPy's) and restores the previous
counts afterwards, also after an exception and when pinned blocks overlap
in two threads; a single column and the factorization keep the process's
count. The pin is process-wide, so the pinned cases run in a subprocess
started with OPENBLAS_NUM_THREADS=2.

The factor's bits depend on the thread count (Ex. 6 3D n=16 hifde3x
eps=1e-6 factors differently on 1 and 2 threads), so a pin that leaked
out of a solve would change the next factor: its digest must not move."""

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
from hifde import assemble, dense, driver, factor_hifde3x, make_problem
from oracles import factor_digest


def factor():
    problem = make_problem(6, 16)
    return factor_hifde3x(assemble(problem.grid, problem.field), problem.grid, 1e-6, spd=False)


out = {"process": dense.blas_threads()}
f = factor()
out["metrics"] = f.metrics["blas_threads"]
out["digest_before"] = factor_digest(f)
seen = []


def spy(orig):
    def step(self, v):
        seen.append(dense.blas_threads())
        return orig(self, v)
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


def churn():
    for _ in range(300):
        with dense.one_blas_thread():
            pass


# more threads than cores, switching as often as the interpreter allows
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    out["churn_joined"] = run_threads([threading.Thread(target=churn) for _ in range(4)])
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
    assert run["churn_joined"]
    assert run["churn_after"] == TWO


def test_factor_runs_on_process_count(run):
    assert run["metrics"] == TWO


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
    problem = make_problem(1, 32)
    f = factor_hifde(assemble(problem.grid, problem.field), problem.grid, 1e-6)
    assert f.metrics["blas_threads"] is None
    b = np.random.default_rng(0).standard_normal((f.n, 3))
    x = f.apply_inverse(b)
    for j in range(3):
        np.testing.assert_allclose(x[:, j], f.apply_inverse(b[:, j]),
                                   rtol=0, atol=1e-12 * np.abs(x).max())
