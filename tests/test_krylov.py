"""Iterative solvers and power-iteration error estimators."""

import re

import numpy as np
import pytest
import scipy.sparse as sp

from hifde import (assemble, build_grid, constant_field, estimate_apply_error,
                   estimate_solve_error, factor_hifde, factor_mf, gmres, krylov, make_problem,
                   pcg)

from oracles import random_spd


def tridiag(n):
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1]).tocsr()


@pytest.mark.parametrize("solve, kwargs, what", [
    (pcg, dict(max_iter=-3), "max_iter must be >= 0, got -3"),
    (gmres, dict(max_iter=-3), "max_iter must be >= 0, got -3"),
    (gmres, dict(restart=0), "restart must be >= 1, got 0"),
], ids=["pcg-max_iter", "gmres-max_iter", "gmres-restart"])
def test_bad_counts_are_rejected(solve, kwargs, what):
    # a negative max_iter used to return an unconverged report, and
    # restart=0 made GMRES loop without end
    with pytest.raises(ValueError, match="^" + re.escape(what) + "$"):
        solve(tridiag(5), np.ones(5), **kwargs)


class TestPcg:
    def test_exact_preconditioner_one_iteration(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 40, cond=1e4)
        b = rng.standard_normal(40)
        rep = pcg(a, b, precond=lambda x: np.linalg.solve(a, x), tol=1e-12)
        assert rep.converged and rep.n_i == 1

    def test_identity_preconditioner_finite_termination(self):
        b = np.ones(10)
        rep = pcg(tridiag(10), b, precond=None, tol=1e-12, max_iter=50)
        assert rep.converged and rep.n_i <= 10

    def test_reported_residual_matches_recomputed(self):
        rng = np.random.default_rng(1)
        a = random_spd(rng, 60, cond=1e5)
        b = rng.standard_normal(60)
        rep = pcg(a, b, precond=None, tol=1e-12, max_iter=500)
        true_res = np.linalg.norm(b - a @ rep.x) / np.linalg.norm(b)
        assert rep.converged
        assert true_res <= 10 * max(rep.residual, 1e-12)

    def test_converged_means_true_residual_within_tol(self):
        # Example 2 (contrast 1e4) preconditioned by a loose factor: here the
        # recursively updated residual passes tol before b - A x does
        problem = make_problem(2, 128)
        a = assemble(problem.grid, problem.field).to_scipy()
        f = factor_hifde(assemble(problem.grid, problem.field), problem.grid, 1e-2)
        b = np.random.default_rng(0).standard_normal(problem.grid.ndof)
        rep = pcg(a, b, f.apply_inverse, tol=1e-12)
        true_res = np.linalg.norm(b - a @ rep.x) / np.linalg.norm(b)
        assert rep.converged
        assert true_res <= 1e-12
        assert rep.residual == pytest.approx(true_res, rel=1e-12)

    def test_zero_rhs(self):
        rep = pcg(tridiag(5), np.zeros(5))
        assert rep.converged and rep.n_i == 0

    def test_nonconvergence_reported(self):
        rng = np.random.default_rng(2)
        a = random_spd(rng, 50, cond=1e8)
        b = rng.standard_normal(50)
        rep = pcg(a, b, precond=None, tol=1e-14, max_iter=3)
        assert not rep.converged and rep.n_i == 3

    def test_zero_iterations_unconverged(self):
        b = np.ones(6)
        rep = pcg(tridiag(6), b, max_iter=0)
        assert not rep.converged
        assert rep.n_i == 0 and rep.residual == 1.0
        assert np.array_equal(rep.x, np.zeros(6))

    def test_mf_preconditioner_is_exact(self):
        g = build_grid(2, 16, 4)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        csr = a.to_scipy()
        f = factor_mf(a, g)
        b = np.random.default_rng(3).random(g.ndof)
        rep = pcg(csr, b, f.apply_inverse, tol=1e-12)
        assert rep.converged and rep.n_i == 1


class TestGmres:
    def test_exact_preconditioner_one_iteration(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 30)) + 10 * np.eye(30)
        b = rng.standard_normal(30)
        rep = gmres(a, b, precond=lambda x: np.linalg.solve(a, x), tol=1e-12)
        assert rep.converged and rep.n_i == 1

    def test_identity_operator(self):
        b = np.linspace(1, 2, 12)
        rep = gmres(np.eye(12), b, tol=1e-12)
        assert rep.converged and rep.n_i == 1
        assert np.allclose(rep.x, b)

    def test_indefinite_full_krylov_converges(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 64, cond=100.0) - 3.0 * np.eye(64)
        b = rng.standard_normal(64)
        rep = gmres(a, b, tol=1e-10, max_iter=600, restart=64)
        assert rep.converged and rep.n_i <= 64
        assert np.linalg.norm(b - a @ rep.x) / np.linalg.norm(b) <= 1e-9

    def test_restart_cycles_make_progress(self):
        rng = np.random.default_rng(15)
        a = random_spd(rng, 64, cond=300.0)
        b = rng.standard_normal(64)
        rep = gmres(a, b, tol=1e-10, max_iter=600, restart=16)
        assert rep.converged and rep.n_i > 16
        assert np.linalg.norm(b - a @ rep.x) / np.linalg.norm(b) <= 1e-9

    def test_converged_respects_tolerance_invariant(self):
        rng = np.random.default_rng(6)
        a = random_spd(rng, 30, cond=1e3)
        b = rng.standard_normal(30)
        rep = gmres(a, b, tol=1e-11, max_iter=400)
        assert rep.converged
        assert rep.residual <= 1e-11


class TestEstimators:
    def test_exact_factor_tiny_forward_error(self):
        g = build_grid(2, 16, 4)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        csr = a.to_scipy()
        f = factor_mf(a, g)
        assert estimate_apply_error(csr, f).value <= 1e-12
        assert estimate_solve_error(csr, f).value <= 1e-10

    def test_rank_one_perturbation_against_dense_norm(self):
        rng = np.random.default_rng(7)
        n = 80
        a = sp.csr_matrix(random_spd(rng, n, cond=100.0))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        pert = np.outer(u, v) + np.outer(v, u)

        class FakeFactor:
            def apply(self, x):
                return a @ x + pert @ x

            def apply_inverse(self, x):
                raise NotImplementedError

        est = estimate_apply_error(a, FakeFactor(), seed=1)
        oracle = np.linalg.norm(pert, 2) / np.linalg.norm(a.toarray(), 2)
        assert est.value == pytest.approx(oracle, rel=0.05)

    def test_solve_error_diag_2x2_against_dense(self):
        a = np.diag([1.0, 2.0])

        class FakeFactor:
            n = 2

            def apply(self, x):
                return x.copy()

            def apply_inverse(self, x):
                return x.copy()

        # dense oracle: ||I - A F^{-1}|| for F = I
        oracle = np.linalg.norm(np.eye(2) - a, 2)
        est = estimate_solve_error(a, FakeFactor(), seed=0)
        assert est.value == pytest.approx(oracle, rel=0.05)

    def test_seed_invariance_within_10pct(self):
        g = build_grid(2, 16, 4)
        from hifde import factor_hifde, high_contrast_field
        a = assemble(g, high_contrast_field(g, seed=0))
        csr = a.to_scipy()
        f = factor_hifde(a, g, 1e-3)
        vals = [estimate_apply_error(csr, f, seed=s).value for s in range(4)]
        assert max(vals) <= 1.1 * min(vals) * (1 + 1e-9) or \
            (max(vals) - min(vals)) <= 0.1 * max(vals)

    def test_exact_factor_stops_at_the_rounding_floor(self):
        # ||A - F|| of an exact factor is rounding: its power iteration
        # stops after one step, at most POWER_ITER_FLOOR ||A||
        p = make_problem(1, 64)
        a = assemble(p.grid, p.field)
        csr = a.to_scipy()
        est = estimate_apply_error(csr, factor_mf(a, p.grid))
        den = krylov._power_norm(lambda x: csr @ x, lambda x: csr @ x, csr.shape[0], (0, 0xB))
        assert est.converged and est.iterations == den.iterations + 1
        assert est.value <= 1e-13

    def test_floor_leaves_a_compressed_estimate_unchanged(self, monkeypatch):
        p = make_problem(1, 32)
        a = assemble(p.grid, p.field)
        csr = a.to_scipy()
        f = factor_hifde(a, p.grid, 1e-6)
        est = estimate_apply_error(csr, f)
        monkeypatch.setattr(krylov, "POWER_ITER_FLOOR", 0.0)
        assert tuple(est) == tuple(estimate_apply_error(csr, f))
        assert est.value > 1e-9

    def test_iteration_cap_flag(self):
        rng = np.random.default_rng(8)
        a = sp.csr_matrix(random_spd(rng, 30, cond=10.0))

        class FakeFactor:
            def apply(self, x):
                return np.zeros_like(x)

            def apply_inverse(self, x):
                return np.zeros_like(x)

        est = estimate_apply_error(a, FakeFactor(), seed=2)
        assert est.value == pytest.approx(1.0, rel=0.05)
        assert est.iterations >= 2
