"""Dense kernel tests: LDL/Cholesky, interpolative decomposition, Schur."""

import numpy as np
import pytest

from hifde import (IndefiniteBlockError, SingularBlockError,
                   interpolative_decomposition, ldl, schur_complement)

from oracles import check_id_properties, random_spd, random_symmetric, svd_rank


class TestLdl:
    def test_scalar(self):
        fac = ldl(np.array([[4.0]]), spd_mode=True)
        assert np.array_equal(fac.lower, [[1.0]])
        assert np.array_equal(fac.d.diag, [4.0])

    def test_2x2_hand_elimination(self):
        fac = ldl(np.array([[2.0, 1.0], [1.0, 2.0]]), spd_mode=True)
        assert np.allclose(fac.d.diag, [2.0, 1.5])
        assert np.allclose(fac.lower, [[1.0, 0.0], [0.5, 1.0]])

    @pytest.mark.parametrize("spd", [True, False])
    def test_reconstruction_random_20(self, spd):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 20, cond=1e4) if spd else random_symmetric(rng, 20)
        fac = ldl(a, spd_mode=spd)
        err = np.linalg.norm(fac.apply(np.eye(fac.n)) - a, 2) / np.linalg.norm(a, 2)
        assert err <= 1e-12

    def test_roundtrip_condition_1e6(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a = random_spd(rng, n, cond=1e6)
            for spd in (True, False):
                fac = ldl(a, spd_mode=spd)
                err = np.linalg.norm(fac.apply(np.eye(fac.n)) - a, 2) / np.linalg.norm(a, 2)
                assert err <= 1e-12

    def test_solve_and_apply_match_dense(self):
        rng = np.random.default_rng(4)
        a = random_symmetric(rng, 15) + 8 * np.eye(15)
        b = rng.standard_normal(15)
        for spd in (True, False):
            fac = ldl(a, spd_mode=spd)
            assert np.allclose(fac.solve(b), np.linalg.solve(a, b), atol=1e-10)
            assert np.allclose(fac.apply(b), a @ b, atol=1e-10)
            # triangular pieces invert each other
            assert np.allclose(fac.solve_l(fac.apply_l(b)), b)
            assert np.allclose(fac.solve_lt(fac.apply_lt(b)), b)

    def test_spd_mode_reports_indefinite(self):
        with pytest.raises(IndefiniteBlockError):
            ldl(np.array([[0.0, 1.0], [1.0, 0.0]]), spd_mode=True)

    def test_singular_block_reported(self):
        with pytest.raises(SingularBlockError):
            ldl(np.zeros((1, 1)), spd_mode=False)
        with pytest.raises(SingularBlockError):
            ldl(np.ones((2, 2)), spd_mode=False)

    def test_2x2_pivots_only_when_indefinite(self):
        hollow = np.array([[0.0, 1.0], [1.0, 0.0]])
        fac = ldl(hollow, spd_mode=False)
        assert fac.d.pairs
        assert np.allclose(fac.apply(np.eye(fac.n)), hollow)
        rng = np.random.default_rng(5)
        spd_fac = ldl(random_spd(rng, 12), spd_mode=True)
        assert not spd_fac.d.pairs


class TestInterpolativeDecomposition:
    def test_proportional_columns(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        res = interpolative_decomposition(m, 1e-12)
        assert res.k == 1
        assert sorted([*res.sk, *res.rd]) == [0, 1]
        # pivoting selects the larger column as the skeleton
        assert res.sk.tolist() == [1]
        assert np.allclose(res.t, [[0.5]])
        assert np.allclose(m[:, res.rd], m[:, res.sk] @ res.t)

    def test_identity_full_rank(self):
        res = interpolative_decomposition(np.eye(3), 1e-12)
        assert res.k == 3
        assert len(res.rd) == 0

    def test_zero_matrix(self):
        res = interpolative_decomposition(np.zeros((4, 5)), 1e-9)
        assert res.k == 0
        assert len(res.rd) == 5

    def test_empty_rows(self):
        res = interpolative_decomposition(np.zeros((0, 3)), 1e-9)
        assert res.k == 0
        assert len(res.rd) == 3

    def test_rank5_product_vs_svd_oracle(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((30, 5)) @ rng.standard_normal((5, 12))
        assert svd_rank(m, 1e-10) == 5
        res = interpolative_decomposition(m, 1e-10)
        assert res.k == 5
        resid = np.linalg.norm(m[:, res.rd] - m[:, res.sk] @ res.t, 2)
        assert resid <= 1e-8 * np.linalg.norm(m, 2)

    def test_exact_rank_at_eps_zero(self):
        rng = np.random.default_rng(12)
        for r in (1, 3, 7):
            u, _ = np.linalg.qr(rng.standard_normal((25, r)))
            v, _ = np.linalg.qr(rng.standard_normal((14, r)))
            m = (u * np.geomspace(1, 0.1, r)) @ v.T
            res = interpolative_decomposition(m, 0.0)
            assert res.k == r

    def test_rank_monotone_in_eps(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            m = rng.standard_normal((18, 6)) @ rng.standard_normal((6, 15))
            k_loose = interpolative_decomposition(m, 1e-3).k
            k_tight = interpolative_decomposition(m, 1e-6).k
            assert k_tight >= k_loose

    def test_property_suite(self):
        check_id_properties(200)


class TestSchurComplement:
    def test_zero_coupling(self):
        rng = np.random.default_rng(21)
        a_qq = random_symmetric(rng, 6)
        fac = ldl(random_spd(rng, 4), spd_mode=True)
        x, out = schur_complement(a_qq, np.zeros((6, 4)), fac)
        assert np.array_equal(out, a_qq)
        assert x.shape == (4, 6) and not x.any()

    def test_2x2_hand_value(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        fac = ldl(a[:1, :1], spd_mode=True)
        x, out = schur_complement(a[1:, 1:], a[1:, :1], fac)
        assert np.allclose(out, [[1.5]])
        # X = D^{-1} L^{-1} A_qp^T, so L^{-T} X = A_pp^{-1} A_qp^T = 1/2
        assert np.allclose(fac.solve_lt(x), [[0.5]])

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(22)
        a = random_spd(rng, 15, cond=1e3)
        p = np.arange(6)
        q = np.arange(6, 15)
        fac = ldl(a[np.ix_(p, p)], spd_mode=True)
        x, out = schur_complement(a[np.ix_(q, q)], a[np.ix_(q, p)], fac)
        a_pp_inv = np.linalg.inv(a[np.ix_(p, p)])
        oracle = a[np.ix_(q, q)] - a[np.ix_(q, p)] @ a_pp_inv @ a[np.ix_(p, q)]
        assert np.linalg.norm(out - oracle, 2) <= 1e-12 * np.linalg.norm(a, 2)
        assert np.array_equal(out, out.T)
        x_oracle = a_pp_inv @ a[np.ix_(p, q)]
        bound = 1e-12 * np.linalg.norm(a_pp_inv, 2) * np.linalg.norm(a, 2)
        assert np.linalg.norm(fac.solve_lt(x) - x_oracle, 2) <= bound
