"""Benchmark of hifde: set-up, factor, solves, Krylov, save/load, accuracy.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # every workload's checks, tiny grids

Run from the root of a checkout. The work happens in a child process
(pipeline.py) whose environment fixes the BLAS thread count, by default the
number of CPUs this process may use; --blas-threads sets a smaller count for
a reference run. Every other argument goes to pipeline.py unchanged, which
checks it. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 170
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Every other argument goes to pipeline.py unchanged (see its --help).")
    p.add_argument("--blas-threads", type=int, default=None)
    args, rest = p.parse_known_args(argv)
    nproc = len(os.sched_getaffinity(0))
    threads = nproc if args.blas_threads is None else args.blas_threads
    if not 1 <= threads <= nproc:
        p.error(f"--blas-threads must be between 1 and {nproc}")
    if not (ROOT / "src" / "hifde" / "__init__.py").is_file():
        print(f"error: no hifde package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [sys.executable, str(HERE / "pipeline.py"), *rest]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env(threads), cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        print(f"error: benchmark process exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    print(f"blas threads requested: {threads}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("error: malformed result line", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
