"""Benchmark harness for the six standard problem families.

Examples 1-3 live on the unit square, 4-6 on the unit cube:

1/4  constant-coefficient Laplacian (SPD)
2/5  quantized high-contrast random diffusion field (SPD)
3/6  Helmholtz with wave count kappa tied to the resolution
     (32 DOFs per wavelength in 2D, 8 in 3D; indefinite)

run_example assembles, factors, times one warm apply (after an untimed
one), the first solve (which builds the solve plan's inverses) and a warm
solve after it, runs both error estimators, and solves one random
right-hand side with CG (SPD) or GMRES (indefinite) preconditioned by the
factorization, to 1e-12.
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, fields
from typing import Iterable, Optional

import numpy as np

from .discretize import ProblemSpec, assemble, build_grid, constant_field, high_contrast_field
from .driver import factor_hifde, factor_hifde3x, factor_mf, save_factor
from .krylov import estimate_apply_error, estimate_solve_error, gmres, pcg

__all__ = ["BenchRow", "make_problem", "run_example", "run_sweep", "rows_to_csv",
           "CSV_COLUMNS", "ALGORITHMS", "EXAMPLE_DIMS"]

ALGORITHMS = ("mf", "hifde", "hifde3x")
EXAMPLE_DIMS = {1: 2, 2: 2, 3: 2, 4: 3, 5: 3, 6: 3}
EXAMPLE_SPD = {1: True, 2: True, 3: False, 4: True, 5: True, 6: False}
DOFS_PER_WAVELENGTH = {2: 32.0, 3: 8.0}
DEFAULT_LEAF = 4
VERIFY_MAX_N = 400

CSV_COLUMNS = ["example", "algo", "dim", "n", "N", "eps", "kappa", "seed", "s_L", "t_f",
               "m_f", "t_a", "t_s", "t_s_first", "e_a", "e_s", "n_i", "status"]


@dataclass
class BenchRow:
    """One benchmark result; field order matches the CSV columns."""

    example: int
    algo: str
    dim: int
    n: int
    N: int
    eps: Optional[float]
    kappa: Optional[float]
    seed: int
    s_L: Optional[int] = None
    t_f: Optional[float] = None
    m_f: Optional[int] = None
    t_a: Optional[float] = None
    t_s: Optional[float] = None
    t_s_first: Optional[float] = None
    e_a: Optional[float] = None
    e_s: Optional[float] = None
    n_i: Optional[int] = None
    status: str = "ok"

    def as_csv_fields(self) -> list[str]:
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                out.append("")
            elif isinstance(v, float):
                out.append(f"{v:.6g}")
            else:
                out.append(str(v))
        return out


def make_problem(example_id: int, n: int, seed: int = 0, m: Optional[int] = None,
                 kappa: Optional[float] = None) -> ProblemSpec:
    if example_id not in EXAMPLE_DIMS:
        raise ValueError(f"unknown example {example_id}")
    dim = EXAMPLE_DIMS[example_id]
    grid = build_grid(dim, n, m if m is not None else DEFAULT_LEAF)
    if example_id in (1, 4):
        field = constant_field(grid, 1.0, 0.0)
    elif example_id in (2, 5):
        field = high_contrast_field(grid, seed)
    else:
        if kappa is None:
            kappa = n / DOFS_PER_WAVELENGTH[dim]
        k = 2.0 * math.pi * kappa
        field = constant_field(grid, 1.0, -k * k)
        field.wave_number = k
    return ProblemSpec(grid=grid, field=field, example_id=example_id, seed=seed)


def run_example(example_id: int, algorithm: str, n: int,
                eps: Optional[float] = None, seed: int = 0, *,
                spd: Optional[bool] = None, m: Optional[int] = None,
                skip_levels: Optional[int] = None, kappa: Optional[float] = None,
                verify: bool = False, export_factor=None,
                tol: float = 1e-12) -> BenchRow:
    """Run one benchmark instance and return its row.

    Factorization failures are reported in the row's status field rather
    than raised, so sweeps can continue. ``verify`` densifies the factor
    and checks it against the matrix; N > VERIFY_MAX_N raises ValueError.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    problem = make_problem(example_id, n, seed, m=m, kappa=kappa)
    grid = problem.grid
    if verify and grid.ndof > VERIFY_MAX_N:
        raise ValueError(f"verify needs N <= {VERIFY_MAX_N}, got N = {grid.ndof}")
    if algorithm == "hifde3x" and grid.dim != 3:
        raise ValueError("hifde3x requires a 3D example (4-6)")
    if spd is None:
        spd = EXAMPLE_SPD[example_id]
    if algorithm == "mf":
        eps = None
    elif eps is None:
        raise ValueError(f"{algorithm} requires a compression tolerance")
    row = BenchRow(example=example_id, algo=algorithm, dim=grid.dim, n=n,
                   N=grid.ndof, eps=eps, kappa=problem.field.wave_number and
                   problem.field.wave_number / (2.0 * math.pi),
                   seed=seed)

    work = assemble(grid, problem.field)
    a_csr = work.to_scipy()
    kw = {} if skip_levels is None else {"skip_levels": skip_levels}
    try:
        if algorithm == "mf":
            f = factor_mf(work, grid, spd=spd)
        elif algorithm == "hifde":
            f = factor_hifde(work, grid, eps, spd=spd, **kw)
        else:
            f = factor_hifde3x(work, grid, eps, spd=spd, **kw)
    except Exception as exc:
        row.status = f"factorization failed: {type(exc).__name__}: {exc}"
        return row
    row.s_L = f.metrics["s_top"]
    row.t_f = f.metrics["t_f_seconds"]
    row.m_f = f.metrics["m_f_bytes"]

    rng = np.random.default_rng((seed, 2))
    x = rng.random(grid.ndof)
    f.apply(x)
    row.t_a = _seconds(f.apply, x)
    row.t_s_first = _seconds(f.apply_inverse, x)
    row.t_s = _seconds(f.apply_inverse, x)

    ests = (estimate_apply_error(a_csr, f, seed=seed), estimate_solve_error(a_csr, f, seed=seed))
    row.e_a, row.e_s = (e.value for e in ests)
    late = [f"{name} did not converge in {e.iterations} iterations" for name, e in
            zip(("estimate_apply_error", "estimate_solve_error"), ests) if not e.converged]
    if late:
        row.status = "; ".join(late)

    rhs = np.random.default_rng((seed, 1)).random(grid.ndof)
    if spd:
        rep = pcg(a_csr, rhs, f.apply_inverse, tol=tol)
    else:
        rep = gmres(a_csr, rhs, f.apply_inverse, tol=tol)
    row.n_i = rep.n_i
    if not rep.converged:
        row.status = f"solve did not converge: residual {rep.residual:.3g}"

    if verify:
        dense_f = f.apply(np.eye(f.n))
        dense_a = a_csr.toarray()
        err = np.linalg.norm(dense_a - dense_f, 2) / np.linalg.norm(dense_a, 2)
        bound = 1e-12 if eps is None else 100.0 * eps
        if err > bound:
            row.status = f"verify failed: dense error {err:.3g} > {bound:.3g}"
    if export_factor is not None:
        save_factor(f, export_factor)
    return row


def _seconds(op, x) -> float:
    t0 = time.perf_counter()
    op(x)
    return time.perf_counter() - t0


def run_sweep(specs: Iterable[dict]) -> Iterable[BenchRow]:
    """One row per spec dict (kwargs of run_example); failures are recorded
    in the row and the sweep continues."""
    for spec in specs:
        try:
            yield run_example(**spec)
        except Exception as exc:
            yield BenchRow(
                example=spec.get("example_id", 0),
                algo=spec.get("algorithm", "?"),
                dim=EXAMPLE_DIMS.get(spec.get("example_id"), 0),
                n=spec.get("n", 0), N=0,
                eps=spec.get("eps"), kappa=spec.get("kappa"),
                seed=spec.get("seed", 0),
                status=f"error: {type(exc).__name__}: {exc}",
            )


def rows_to_csv(rows: Iterable[BenchRow], fh=None) -> str:
    own = fh is None
    if own:
        fh = io.StringIO()
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for row in rows:
        w.writerow(row.as_csv_fields())
    return fh.getvalue() if own else ""
