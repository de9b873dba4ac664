"""Dense kernel tests: LDL/Cholesky, interpolative decomposition, Schur, and
the stacked kernels against the per-block references of ``oracles``."""

import warnings

import numpy as np
import pytest

from hifde import (GeneralizedLDL, IndefiniteBlockError, SingularBlockError,
                   interpolative_decomposition, ldl)
from hifde.dense import ldl_stack, schur_stack

from oracles import (apply_l, apply_lt, block_apply, block_solve, check_id_properties,
                     random_spd, random_symmetric, reference_id, reference_ldl,
                     schur_complement, solve_l, solve_lt, svd_rank)


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
        err = np.linalg.norm(block_apply(fac, np.eye(fac.n)) - a, 2) / np.linalg.norm(a, 2)
        assert err <= 1e-12

    def test_roundtrip_condition_1e6(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            a = random_spd(rng, n, cond=1e6)
            for spd in (True, False):
                fac = ldl(a, spd_mode=spd)
                err = np.linalg.norm(block_apply(fac, np.eye(fac.n)) - a, 2) / np.linalg.norm(a, 2)
                assert err <= 1e-12

    def test_solve_and_apply_match_dense(self):
        rng = np.random.default_rng(4)
        a = random_symmetric(rng, 15) + 8 * np.eye(15)
        b = rng.standard_normal(15)
        for spd in (True, False):
            fac = ldl(a, spd_mode=spd)
            assert np.allclose(block_solve(fac, b), np.linalg.solve(a, b), atol=1e-10)
            assert np.allclose(block_apply(fac, b), a @ b, atol=1e-10)
            # triangular pieces invert each other
            assert np.allclose(solve_l(fac, apply_l(fac, b)), b)
            assert np.allclose(solve_lt(fac, apply_lt(fac, b)), b)

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
        assert np.allclose(block_apply(fac, np.eye(fac.n)), hollow)
        rng = np.random.default_rng(5)
        spd_fac = ldl(random_spd(rng, 12), spd_mode=True)
        assert not spd_fac.d.pairs


def same_id(x, y):
    return (x.k == y.k and x.resid == y.resid and x.t.shape == y.t.shape
            and np.array_equal(x.t, y.t) and x.sk.dtype == y.sk.dtype
            and np.array_equal(x.sk, y.sk) and np.array_equal(x.rd, y.rd))


class TestInterpolativeDecomposition:
    @pytest.mark.parametrize("eps", [0.0, 1e-12, 1e-6, 1e-2])
    def test_bitwise_equal_to_qr_formulation(self, eps):
        # direct geqp3/trtrs calls against sla.qr + sla.solve_triangular
        rng = np.random.default_rng(11)
        cases = [np.zeros((4, 3)), np.zeros((0, 3)), np.zeros((3, 0)), np.ones((1, 1)),
                 rng.standard_normal((7, 1)), rng.standard_normal((1, 7)),
                 rng.standard_normal((300, 160)) * np.geomspace(1.0, 1e-12, 160)]
        for _ in range(60):
            m, n = (int(v) for v in rng.integers(1, 40, 2))
            r = int(rng.integers(1, min(m, n) + 1))
            cases += [rng.standard_normal((m, n)),                                 # full rank
                      rng.standard_normal((m, r)) @ rng.standard_normal((r, n)),   # deficient
                      rng.standard_normal((m, n)) * np.geomspace(1.0, 1e-13, n)]   # graded
        for m in cases:
            assert same_id(interpolative_decomposition(m, eps), reference_id(m, eps)), m.shape


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
        assert np.allclose(solve_lt(fac, x), [[0.5]])

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
        assert np.linalg.norm(solve_lt(fac, x) - x_oracle, 2) <= bound


def outcome(fn):
    """The factor ``fn`` returns, or the type and message of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def same_factor(fac, ref):
    return (fac.mode == ref.mode and np.array_equal(fac.lower, ref.lower)
            and np.array_equal(fac.perm, ref.perm) and np.array_equal(fac.d.diag, ref.d.diag)
            and np.array_equal(fac.d.subdiag(), ref.d.subdiag()))


def embed(n, *blocks):
    """The block diagonal of ``blocks`` padded with ones to n x n."""
    out = np.eye(n)
    at = 0
    for b in blocks:
        m = len(b)
        out[at:at + m, at:at + m] = b
        at += m
    return out


# blocks that each per-block check refuses, and one that passes with 2x2 pivots
INDEFINITE = embed(5, [[1.0, 2.0], [2.0, 1.0]])
SINGULAR_1X1 = embed(5, np.ones((2, 2)))
SINGULAR_2X2 = embed(5, [[0.0, 1e-16], [1e-16, 0.0]])
# singular values 4e-15 and 1.6e-14 about the threshold 1e-14
SINGULAR_2X2_SKEW = embed(5, [[6e-15, 1e-14], [1e-14, 6e-15]])
SINGULAR_BOTH = embed(5, [[0.0, 1e-16], [1e-16, 0.0]], [[1e-20]])
HOLLOW = embed(5, [[0.0, 1.0], [1.0, 0.0]], [[0.0, 3.0], [3.0, 0.0]])


class TestStackedKernels:
    """ldl_stack and schur_stack equal the per-block references bit for bit:
    reference_ldl (sla.cholesky / sla.ldl, then the per-block pivot check)
    and schur_complement (two triangular solves per block)."""

    @pytest.mark.parametrize("spd", [True, False])
    def test_ldl_is_the_reference_on_one_block(self, spd):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 25))
            a = random_spd(rng, n, cond=1e6) if spd else random_symmetric(rng, n)
            assert same_factor(ldl(a, spd), reference_ldl(a, spd))

    @pytest.mark.parametrize("spd, blocks", [
        (True, [INDEFINITE, SINGULAR_1X1, np.eye(5), embed(5, [[1e-20]]), INDEFINITE]),
        (False, [SINGULAR_2X2, HOLLOW, SINGULAR_1X1, SINGULAR_BOTH, np.eye(5), SINGULAR_2X2_SKEW]),
    ])
    def test_mixed_stack_fails_as_the_reference(self, spd, blocks):
        rng = np.random.default_rng(32)
        good = random_spd(rng, 5) if spd else random_symmetric(rng, 5)
        stack = np.stack([good, *blocks, good])
        lower, perm, diag, sub, failures = ldl_stack(stack, spd)
        refs = [outcome(lambda: reference_ldl(b, spd)) for b in stack]
        expected = [(j, *ref) for j, ref in enumerate(refs) if isinstance(ref, tuple)]
        assert [(j, type(exc), str(exc)) for j, exc in failures] == expected
        # every kind of failure is in the stack, and ldl raises it too
        kinds = {(kind, msg.split("-th")[-1]) for _, kind, msg in expected}
        assert kinds == ({(IndefiniteBlockError, " leading minor of the array is not positive "
                           "definite"), (SingularBlockError, "singular pivot")} if spd else
                         {(SingularBlockError, "singular pivot"),
                          (SingularBlockError, "singular 2x2 pivot block")})
        if not spd:   # a singular 2x2 pivot is reported before a singular 1x1 one
            assert refs[4] == (SingularBlockError, "singular 2x2 pivot block")
        for j, kind, msg in expected:
            assert outcome(lambda: ldl(stack[j], spd)) == (kind, msg)
        for j, ref in enumerate(refs):
            if not isinstance(ref, tuple):
                assert np.array_equal(lower[j], ref.lower) and np.array_equal(perm[j], ref.perm)
                assert np.array_equal(diag[j], ref.d.diag)
                assert np.array_equal(sub[j], ref.d.subdiag())
        # Cholesky has no 2x2 pivots; HOLLOW (block 2) has two
        assert not sub.any() if spd else np.count_nonzero(sub[2]) == 2

    @pytest.mark.parametrize("spd", [True, False])
    @pytest.mark.parametrize("k, p, q", [(7, 6, 4), (5, 3, 0), (1, 9, 12), (12, 1, 3)])
    def test_schur_stack_is_schur_complement(self, spd, k, p, q):
        rng = np.random.default_rng(33 + k + p + q)
        a = np.stack([random_spd(rng, p + q) if spd else random_symmetric(rng, p + q)
                      for _ in range(k)])
        a_pp, a_qp, a_qq = a[:, :p, :p], a[:, p:, :p], a[:, p:, p:]
        lower, perm, diag, sub, failures = ldl_stack(a_pp, spd)
        assert not failures
        x, u = schur_stack(a_qp, lower, perm, diag, sub)
        b = a_qq - u
        b = 0.5 * (b + b.transpose(0, 2, 1))
        for j in range(k):
            ref_x, ref_b = schur_complement(a_qq[j], a_qp[j], reference_ldl(a_pp[j], spd))
            assert x[j].shape == ref_x.shape == (p, q)
            assert np.array_equal(x[j], ref_x) and np.array_equal(b[j], ref_b)

    def test_schur_stack_with_2x2_pivots(self):
        rng = np.random.default_rng(34)
        a = np.stack([random_symmetric(rng, 14) for _ in range(6)])
        a[:, np.arange(8), np.arange(8)] *= 1e-3   # small diagonals pivot 2x2
        lower, perm, diag, sub, failures = ldl_stack(a[:, :8, :8], False)
        assert not failures and np.count_nonzero(sub) >= 6
        x, u = schur_stack(a[:, 8:, :8], lower, perm, diag, sub)
        for j in range(6):
            ref_x, ref_b = schur_complement(a[j, 8:, 8:], a[j, 8:, :8],
                                            reference_ldl(a[j, :8, :8], False))
            b = a[j, 8:, 8:] - u[j]
            assert np.array_equal(x[j], ref_x) and np.array_equal(0.5 * (b + b.T), ref_b)

    def test_zero_diagonal_2x2_pivots_divide_by_nothing(self):
        # Bunch-Kaufman pivots [[0, 1], [1, 0]] as one 2x2 block; the rows
        # of a 2x2 pivot are not divided by its zero diagonal, neither in
        # the Schur update nor in a sweep
        a = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, -3.0], [2.0, -3.0, 5.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lower, perm, diag, sub, failures = ldl_stack(np.stack([a[:2, :2]] * 3), False)
            assert not failures and np.count_nonzero(sub) == 3 and not diag.any()
            x, u = schur_stack(np.stack([a[2:, :2]] * 3), lower, perm, diag, sub)
            ref_x, ref_b = schur_complement(a[2:, 2:], a[2:, :2], reference_ldl(a[:2, :2], False))
            b = a[2:, 2:] - u[2]
            assert np.array_equal(x[2], ref_x) and np.array_equal(0.5 * (b + b.T), ref_b)
            f = GeneralizedLDL(n=2, dim=2, spd=False, eps=0.0, levels=[],
                               top_idx=np.arange(2), top=ldl(a[:2, :2], False))
            rhs = np.array([[1.0, 4.0], [2.0, -1.0]])
            assert np.array_equal(f.apply_inverse(rhs[:, 0]), [2.0, 1.0])
            assert np.array_equal(f.apply_inverse(rhs), rhs[::-1])
            assert np.array_equal(f.apply(rhs), rhs[::-1])
