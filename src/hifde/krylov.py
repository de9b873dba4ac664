"""Preconditioned CG/GMRES and power-iteration error estimators.

Operators are passed as anything matvec-like: a callable, a NumPy array,
a SciPy sparse matrix, or an object with a ``dot`` method. The error
estimators measure operator norms of A - F and I - A F^{-1} by power
iteration on G^T G with a standard-uniform random start vector and a 1e-2
relative convergence criterion on the norm estimate. The estimate of
||A - F|| also stops once it is at most POWER_ITER_FLOOR ||A||: below that
it measures rounding, on which an exact factor would iterate to the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "SolveReport",
    "pcg",
    "gmres",
    "EstimateResult",
    "estimate_apply_error",
    "estimate_solve_error",
]

POWER_ITER_RTOL = 1e-2
POWER_ITER_CAP = 512
POWER_ITER_FLOOR = 1e3 * np.finfo(float).eps


def _as_matvec(op) -> Callable[[np.ndarray], np.ndarray]:
    if op is None:
        return lambda x: x
    if callable(op) and not hasattr(op, "dot"):
        return op
    return lambda x: op @ x


def _rhs(b, tol: float) -> np.ndarray:
    """b as a float vector; ValueError unless b is real, 1-D and finite and
    tol is >= 0."""
    if np.iscomplexobj(b):
        raise ValueError(f"b is complex ({np.asarray(b).dtype}); a real one is needed")
    b = np.asarray(b, dtype=float)
    if b.ndim != 1:
        raise ValueError(f"b must be 1-D, got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError("b has non-finite entries")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    return b


@dataclass
class SolveReport:
    """Outcome of an iterative solve."""

    x: np.ndarray
    n_i: int
    residual: float
    converged: bool


def pcg(a, b, precond=None, tol: float = 1e-12, max_iter: int = 1000) -> SolveReport:
    """Preconditioned conjugate gradients on the relative residual.

    ``a`` must be SPD and ``precond`` an SPD approximation of its inverse.
    Convergence is ||b - A x|| / ||b|| <= tol for the x returned. The
    recursively updated residual drifts from b - A x by rounding, so when it
    passes tol the true residual is computed; if that fails, CG restarts
    from it. If the next true residual has not fallen to half of the last
    one, it has reached the floor to which b - A x can be computed (the tol
    asked for lies below it), and the solve stops there as converged.
    ``residual`` is the true value whenever ``converged``. A ``max_iter``
    below 0, a ``b`` that is complex, not 1-D or not finite, or a ``tol``
    that is NaN or below 0 raises ValueError.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    b = _rhs(b, tol)
    amat = _as_matvec(a)
    mmat = _as_matvec(precond)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveReport(np.zeros_like(b), 0, 0.0, True)
    x = np.zeros_like(b)
    r = b.copy()
    z = mmat(r)
    p = z.copy()
    rz = float(r @ z)
    res = 1.0  # relative residual of the zero start
    last_true = np.inf
    for it in range(1, max_iter + 1):
        ap = amat(p)
        alpha = rz / float(p @ ap)
        x += alpha * p
        r -= alpha * ap
        res = np.linalg.norm(r) / bnorm
        restart = res <= tol
        if restart:
            r = b - amat(x)
            res = np.linalg.norm(r) / bnorm
            if res <= tol or res > 0.5 * last_true:
                return SolveReport(x, it, res, True)
            last_true = res
        z = mmat(r)
        rz_new = float(r @ z)
        p = z.copy() if restart else z + (rz_new / rz) * p
        rz = rz_new
    return SolveReport(x, max_iter, res, False)


def gmres(a, b, precond=None, tol: float = 1e-12, max_iter: int = 1000,
          restart: int = 32) -> SolveReport:
    """Right-preconditioned restarted GMRES.

    n_i counts total inner iterations (one operator application each). A
    cycle ends before a column whose rotated diagonal is 0, which the back
    substitution would divide by. A ``max_iter`` below 0, a ``restart``
    below 1, or a ``b`` or ``tol`` as pcg rejects them raises ValueError.
    """
    if max_iter < 0 or restart < 1:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}" if max_iter < 0 else
                         f"restart must be >= 1, got {restart}")
    b = _rhs(b, tol)
    amat = _as_matvec(a)
    mmat = _as_matvec(precond)
    n = len(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return SolveReport(np.zeros_like(b), 0, 0.0, True)
    x = np.zeros_like(b)
    n_i = 0
    while True:
        r = b - amat(x)
        res = np.linalg.norm(r) / bnorm
        if res <= tol:
            return SolveReport(x, n_i, res, True)
        if n_i >= max_iter:
            return SolveReport(x, n_i, res, False)
        beta = res * bnorm
        mdim = min(restart, max_iter - n_i)
        v = np.zeros((mdim + 1, n))
        h = np.zeros((mdim + 1, mdim))
        cs = np.zeros(mdim)
        sn = np.zeros(mdim)
        g = np.zeros(mdim + 1)
        g[0] = beta
        v[0] = r / beta
        j_used = 0
        for j in range(mdim):
            w = amat(mmat(v[j]))
            n_i += 1
            for i in range(j + 1):
                h[i, j] = w @ v[i]
                w -= h[i, j] * v[i]
            h[j + 1, j] = np.linalg.norm(w)
            breakdown = h[j + 1, j] == 0.0
            if not breakdown:
                v[j + 1] = w / h[j + 1, j]
            for i in range(j):
                t = cs[i] * h[i, j] + sn[i] * h[i + 1, j]
                h[i + 1, j] = -sn[i] * h[i, j] + cs[i] * h[i + 1, j]
                h[i, j] = t
            rho = np.hypot(h[j, j], h[j + 1, j])
            if rho == 0.0:
                break
            cs[j] = h[j, j] / rho
            sn[j] = h[j + 1, j] / rho
            h[j, j] = rho
            h[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            j_used = j + 1
            if abs(g[j + 1]) / bnorm <= tol or breakdown:
                break
        y = np.zeros(j_used)
        for i in range(j_used - 1, -1, -1):
            y[i] = (g[i] - h[i, i + 1:j_used] @ y[i + 1:]) / h[i, i]
        x = x + mmat(v[:j_used].T @ y)


class EstimateResult(NamedTuple):
    """Power-iteration norm estimate."""

    value: float
    converged: bool
    iterations: int

    def __float__(self) -> float:
        return self.value


def _power_norm(gmat, gtmat, n: int, seed, rtol: float = POWER_ITER_RTOL,
                max_iter: int = POWER_ITER_CAP, floor: float = 0.0) -> EstimateResult:
    """sqrt of the dominant eigenvalue of G^T G by power iteration, which
    stops, converged, at an estimate of at most ``floor``."""
    rng = np.random.default_rng(seed)
    x = rng.random(n)
    x /= np.linalg.norm(x)
    est = 0.0
    for it in range(1, max_iter + 1):
        y = gtmat(gmat(x))
        lam = np.linalg.norm(y)
        new_est = np.sqrt(lam)
        if lam == 0.0 or not np.isfinite(lam):
            return EstimateResult(new_est if np.isfinite(lam) else np.inf, True, it)
        x = y / lam
        if new_est <= floor or (it > 1 and abs(new_est - est) <= rtol * new_est):
            return EstimateResult(new_est, True, it)
        est = new_est
    return EstimateResult(est, False, max_iter)


def estimate_apply_error(a, f, seed: int = 0) -> EstimateResult:
    """Relative forward error ||A - F|| / ||A|| of a factored operator."""
    amat = _as_matvec(a)
    fmat = f.apply if hasattr(f, "apply") else _as_matvec(f)
    n = a.shape[0] if hasattr(a, "shape") else f.n

    def g(x):
        return amat(x) - fmat(x)

    den = _power_norm(amat, amat, n, (seed, 0xB))
    num = _power_norm(g, g, n, (seed, 0xA), floor=POWER_ITER_FLOOR * den.value)
    value = num.value / den.value if den.value else np.inf
    return EstimateResult(value, num.converged and den.converged,
                          num.iterations + den.iterations)


def estimate_solve_error(a, f, seed: int = 0) -> EstimateResult:
    """Estimate of ||I - A F^{-1}|| for a factored operator F."""
    amat = _as_matvec(a)
    fsolve = f.apply_inverse if hasattr(f, "apply_inverse") else _as_matvec(f)
    n = a.shape[0] if hasattr(a, "shape") else f.n

    def g(x):
        return x - amat(fsolve(x))

    def gt(x):
        return x - fsolve(amat(x))

    return _power_norm(g, gt, n, (seed, 0xC))
