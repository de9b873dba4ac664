"""Benchmark command line: reproduce the standard examples at any scale.

Emits one CSV row per (example, n, eps) combination. Exit code is 0 only
if every row succeeded.

BLAS threads: the factorization runs on the process's count,
OPENBLAS_NUM_THREADS / OMP_NUM_THREADS set before Python starts, and its
bits depend on that count. Solves of a block of columns run on one
OpenBLAS thread (process-wide while they run); single columns keep the
process's count.
"""

from __future__ import annotations

import argparse
import sys


def _positive_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hifde-bench",
        description="Factor and solve the benchmark PDE problems, emitting "
                    "one CSV row per run.")
    p.add_argument("--example", type=int, required=True, choices=range(1, 7),
                   help="problem family 1-6 (1-3 are 2D, 4-6 are 3D)")
    p.add_argument("--algo", required=True, choices=["mf", "hifde", "hifde3x"])
    p.add_argument("--dim", type=int, choices=[2, 3],
                   help="must match the example's dimension if given")
    p.add_argument("--n", type=_positive_int_list, required=True,
                   help="grid size(s), comma separated; each must be a "
                        "power of two times the leaf width")
    p.add_argument("--eps", type=_float_list, default=[],
                   help="compression tolerance(s), comma separated "
                        "(ignored for --algo mf)")
    p.add_argument("--kappa", type=float, default=None,
                   help="wave count override for the Helmholtz examples")
    p.add_argument("--seed", type=int, default=0)
    spd = p.add_mutually_exclusive_group()
    spd.add_argument("--spd", dest="spd", action="store_true", default=None,
                     help="force Cholesky pivots (default per example)")
    spd.add_argument("--indef", dest="spd", action="store_false",
                     help="force Bunch-Kaufman pivots")
    p.add_argument("--leaf-m", type=int, default=None,
                   help="leaf cell width in grid units (default 4)")
    p.add_argument("--skip-levels", type=int, default=None,
                   help="skip edge skeletonization for this many levels")
    p.add_argument("--out", type=str, default=None,
                   help="write CSV here instead of stdout")
    p.add_argument("--export-factor", type=str, default=None,
                   help="serialize the last factor to this path")
    p.add_argument("--verify", action="store_true",
                   help="densified-operator check; N > 400 is an error row")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    from .bench import EXAMPLE_DIMS, run_sweep, rows_to_csv

    if args.dim is not None and args.dim != EXAMPLE_DIMS[args.example]:
        print(f"error: example {args.example} is "
              f"{EXAMPLE_DIMS[args.example]}D, not {args.dim}D", file=sys.stderr)
        return 2
    if args.algo != "mf" and not args.eps:
        print("error: --eps is required for hifde/hifde3x", file=sys.stderr)
        return 2

    eps_list = args.eps if args.algo != "mf" else [None]
    specs = []
    for n in args.n:
        for eps in eps_list:
            specs.append(dict(
                example_id=args.example, algorithm=args.algo, n=n, eps=eps,
                seed=args.seed, spd=args.spd, m=args.leaf_m,
                skip_levels=args.skip_levels, kappa=args.kappa,
                verify=args.verify, export_factor=args.export_factor,
            ))

    rows = list(run_sweep(specs))
    text = rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if all(r.status == "ok" for r in rows) else 1


if __name__ == "__main__":
    raise SystemExit(main())
