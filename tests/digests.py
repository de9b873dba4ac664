"""Print the bits of a fixed set of factorizations, one line per case, to
check that a change leaves the factor bit-identical.

    PYTHONPATH=src python tests/digests.py [--reference] > digests.txt

Each line holds the case, ``factor_digest`` (every record's arrays and the
top block), the sha256 of the ``save_factor`` archive, the sha256 of
``apply`` and of ``apply_inverse`` on one and on three fixed columns, on
the fresh factor and on the factor loaded back from the archive, and the
metrics ``s_top``, ``dense_from`` and ``dense_order``. ``--reference``
also builds each factor by the per-cell loop (``oracles.reference_factor``)
and adds whether its digest equals the factor's; the exit code is 1 if
one does not.

To check a change, run the script on a copy of the parent and on the
change, at ``OPENBLAS_NUM_THREADS=1`` and at ``=2`` (the bits depend on
the BLAS thread count), and diff the outputs. ``--against DIR`` does so
in one command: it runs the script of the tree ``DIR`` (a ``git archive``
copy of the parent) on that tree's ``src`` and this one on its own, at
each thread count, one subprocess at a time, prints the lines that differ
and exits 1 if any does or a run fails. With ``--reference`` the cases
take about 45 s on one BLAS thread of a 2-core host.

    PYTHONPATH=src python tests/digests.py --reference --against ../parent
"""

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
import tempfile

import numpy as np

from hifde import (assemble, factor_hifde, factor_hifde3x, factor_mf, load_factor, make_problem,
                   save_factor)
from hifde.bench import EXAMPLE_SPD

from oracles import factor_digest, reference_factor

FACTORS = {"mf": factor_mf, "hifde": factor_hifde, "hifde3x": factor_hifde3x}

# (example, algorithm, n, eps): SPD and Bunch-Kaufman, 2D and 3D, the
# three algorithms, a tight tolerance and an exact factor
CASES = [
    (1, "hifde", 64, 1e-6), (2, "hifde", 64, 1e-6), (3, "hifde", 64, 1e-6),
    (1, "hifde", 256, 1e-6),
    (4, "hifde", 16, 1e-6), (4, "hifde3x", 16, 1e-6),
    (6, "hifde", 16, 1e-6), (6, "hifde3x", 16, 1e-6),
    (4, "hifde3x", 16, 1e-9), (6, "hifde3x", 32, 1e-6),
    (1, "mf", 64, None), (6, "mf", 16, None),
]


def sha(*arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.ascontiguousarray(x).tobytes())
    return h.hexdigest()[:16]


def line(example, algo, n, eps, reference: bool, tmp: str) -> tuple[str, bool]:
    problem = make_problem(example, n)
    spd = EXAMPLE_SPD[example]
    args = () if algo == "mf" else (eps,)
    f = FACTORS[algo](assemble(problem.grid, problem.field), problem.grid, *args, spd=spd)
    digest = factor_digest(f)
    path = os.path.join(tmp, "factor.npz")
    save_factor(f, path)
    with open(path, "rb") as fh:
        archive = hashlib.sha256(fh.read()).hexdigest()[:16]
    rng = np.random.default_rng(0)
    cols = rng.standard_normal(f.n), rng.standard_normal((f.n, 3))
    fields = [f"ex{example}-{algo}-{problem.grid.dim}d-n{n}-eps{eps}", digest,
              f"archive={archive}"]
    for tag, g in (("fresh", f), ("loaded", load_factor(path))):
        fields += [f"{tag}.apply={sha(*(g.apply(x) for x in cols))}",
                   f"{tag}.apply_inverse={sha(*(g.apply_inverse(x) for x in cols))}"]
    fields += [f"{key}={f.metrics[key]}" for key in ("s_top", "dense_from", "dense_order")]
    same = True
    if reference:
        g = reference_factor(assemble(problem.grid, problem.field), problem.grid, algo,
                             0.0 if eps is None else eps, spd=spd)
        same = factor_digest(g) == digest
        fields.append("reference=" + ("same" if same else "DIFFERS"))
    return " ".join(fields), same


def against(tree: str, reference: bool) -> int:
    """Run the script of ``tree`` and of this tree at 1 and at 2 BLAS
    threads, one at a time; print the lines that differ, and return 1 if
    any does or a run fails."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    failed = False
    for threads in ("1", "2"):
        outs = []
        for root in (os.path.abspath(tree), here):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.path.join(root, "src"))
            run = subprocess.run([sys.executable, os.path.join(root, "tests", "digests.py")]
                                 + ["--reference"] * reference, env=env,
                                 capture_output=True, text=True)
            if run.returncode:
                print(f"# {root} at {threads} thread(s) exited {run.returncode}\n{run.stderr}")
            failed |= bool(run.returncode)
            outs.append(run.stdout.splitlines())
        print(f"# OPENBLAS_NUM_THREADS={threads}: {len(outs[1])} lines")
        for old, new in itertools.zip_longest(*outs, fillvalue=""):
            if old != new:
                print(f"- {old}\n+ {new}")
        failed |= outs[0] != outs[1]
    return int(failed)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--reference", action="store_true",
                        help="also compare each digest with the per-cell reference's")
    parser.add_argument("--against", metavar="DIR",
                        help="diff this tree's output against that of the tree DIR, "
                             "at 1 and 2 BLAS threads")
    opts = parser.parse_args()
    if opts.against:
        return against(opts.against, opts.reference)
    print(f"# OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', '')}")
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            text, same = line(*case, opts.reference, tmp)
            print(text, flush=True)
            ok &= same
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
