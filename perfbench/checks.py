"""Correctness checks of the benchmark, made apart from the program.

Each check returns None when the output is right and a one-line message
when it is wrong. None of them compares against stored output: each one
recomputes the answer independently (the stencil, the residual, a SuperLU
solve) or tests a property the method must have. Checks that build
reference objects of their own run in a forked child process (``isolated``),
so that these never count in the benchmark process's peak resident set.
"""

from __future__ import annotations

import os
import pickle
import traceback

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Stated accuracy contracts. The factor's forward error may exceed the ID
# tolerance by the accumulation over levels, but not by more than this.
APPLY_ERR_PER_EPS = 10.0
KRYLOV_TOL = 1e-12
# A solution with relative residual r may differ from the exact one by up
# to cond(A) * r; for the 2D Laplacian at n=256, cond(A) ~ 3e4, so 1e-12
# residuals agree with SuperLU to 3e-8 at worst (measured: 5e-14).
SUPERLU_RTOL = 1e-7
# Block and column-by-column solves use different BLAS kernels (gemm vs
# gemv), so they agree to rounding, not bit for bit.
BLOCK_RTOL = 1e-12


def isolated(fn):
    """fn() computed in a forked child process and handed back pickled."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:                        # the child: compute, send, exit at once
        status = 1
        try:
            os.close(rfd)
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(fn(), fh)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"reference computation failed in its child process (wait status {status})")
    return pickle.loads(data)


def kron_sum_matrix(grid, field) -> sp.csr_matrix:
    """The stencil matrix rebuilt as a Kronecker sum from the coefficients.

    A = diag(b) + sum_i D_i^T diag(a_i) D_i / h^2, where D_i is the
    difference operator from the interior nodes to the staggered points
    along axis i (zero Dirichlet values outside) and the other axes carry
    identities. DOFs and staggered samples are numbered first axis fastest.
    """
    side, n = grid.n - 1, grid.n
    d1 = sp.diags([np.ones(side), -np.ones(side)], [0, -1], shape=(n, side), format="csr")
    eye = sp.identity(side, format="csr")
    a = sp.diags(field.b.ravel(order="F").astype(float))
    for axis in range(grid.dim):
        d = None
        for j in reversed(range(grid.dim)):     # last axis is the outermost factor
            term = d1 if j == axis else eye
            d = term if d is None else sp.kron(d, term, format="csr")
        w = sp.diags(field.a[axis].ravel(order="F") * float(n) * float(n))
        a = a + d.T @ w @ d
    return sp.csr_matrix(a)


def stencil(a, ref) -> str | None:
    """The assembled matrix equals the Kronecker-sum rebuild ``ref``."""
    if a.shape != ref.shape:
        return f"assembled shape {a.shape} != {ref.shape}"
    diff = abs(sp.csr_matrix(a) - ref).max()
    scale = abs(ref).max()
    if not diff <= 1e-14 * scale:
        return f"assembled matrix differs from the Kronecker-sum stencil by {diff:.3g} (scale {scale:.3g})"
    return None


def accounting(f, n: int) -> str | None:
    """Eliminated DOFs plus the top block cover 0..N-1 exactly once."""
    parts = [rec.eliminated() for lf in f.levels for rec in lf.records]
    allidx = np.sort(np.concatenate(parts + [np.asarray(f.top_idx)]).astype(np.int64))
    if len(allidx) != n or not np.array_equal(allidx, np.arange(n)):
        return f"eliminated {len(allidx) - len(f.top_idx)} + top block {len(f.top_idx)} do not partition N={n}"
    return None


def residual(a_ref, x, b) -> float:
    return float(np.linalg.norm(b - a_ref @ x) / np.linalg.norm(b))


def converged(rep, a_ref, b) -> str | None:
    """The solver reports convergence and the residual of the x it returns,
    measured under the rebuilt matrix, is within the requested 1e-12."""
    if not rep.converged:
        return f"Krylov did not converge: {rep.n_i} iterations, residual {rep.residual:.3g}"
    res = residual(a_ref, rep.x, b)
    if not res <= KRYLOV_TOL:
        return (f"relative residual {res:.3g} > {KRYLOV_TOL:g} under the rebuilt matrix "
                f"(the solver reported {rep.residual:.3g})")
    return None


def agrees(x, x_direct) -> str | None:
    """The Krylov solution agrees with a SuperLU solve."""
    err = np.linalg.norm(x - x_direct) / np.linalg.norm(x_direct)
    if not err <= SUPERLU_RTOL:
        return f"solution differs from SuperLU by {err:.3g} > {SUPERLU_RTOL:g}"
    return None


def krylov_solution(rep, grid, field, b, x_direct=None):
    """(shortfall, wrong, x_direct) of a Krylov solution of A x = b.

    The shortfall is ``converged`` under the rebuilt A. On 2D grids the
    solution must also agree with a SuperLU solve, ``x_direct``, computed
    here when not given; SuperLU's fill on 3D grids makes it too costly
    there, and x_direct is None.
    """
    a_ref = kron_sum_matrix(grid, field)
    shortfall = converged(rep, a_ref, b)
    if grid.dim != 2:
        return shortfall, None, None
    if x_direct is None:
        x_direct = superlu_solve(a_ref, b)
    return shortfall, agrees(rep.x, x_direct), x_direct


def superlu_solve(a_ref, b) -> np.ndarray:
    return spla.splu(sp.csc_matrix(a_ref)).solve(b)


def apply_error(value: float, eps: float) -> str | None:
    bound = APPLY_ERR_PER_EPS * eps
    if not 0.0 < value <= bound:
        return f"apply error {value:.3g} outside (0, {bound:.3g}]"
    return None


def finite_positive(value: float, what: str) -> str | None:
    if not (np.isfinite(value) and value > 0.0):
        return f"{what} {value!r} is not a finite positive number"
    return None


def quadratic_forms(xs, fxs) -> str | None:
    """x^T F x > 0 for every probe column (SPD factors only)."""
    q = np.einsum("ij,ij->j", xs, fxs)
    if not np.all(q > 0.0):
        return f"x^T F x <= 0 on {int(np.sum(q <= 0.0))} of {len(q)} random vectors"
    return None


def block_matches(x_block, x_cols) -> str | None:
    err = np.max(np.abs(x_block - x_cols))
    scale = np.max(np.abs(x_cols))
    if not err <= BLOCK_RTOL * scale:
        return f"block solve differs from single solves by {err:.3g} (scale {scale:.3g})"
    return None


def bit_identical(x_loaded, x_orig) -> str | None:
    if not np.array_equal(x_loaded, x_orig):
        return f"reloaded factor differs by {np.max(np.abs(x_loaded - x_orig)):.3g}"
    return None


def level_table(table, top_block: int) -> str | None:
    """The per-level active count ends at the top block."""
    if table and table[-1]["active_after"] != top_block:
        return f"per-level table ends at {table[-1]['active_after']} active, top block is {top_block}"
    return None
