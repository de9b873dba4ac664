"""Elimination and skeletonization against explicit dense operators."""

import numpy as np
import pytest
import scipy.sparse as sp

from hifde import (SparseSymMatrix, assemble, build_grid, constant_field, eliminate_cell,
                   interior_cells, skeletonize_cell)

from oracles import (check_elimination_properties, check_skeletonization_properties,
                     dense_after, dense_q_inv_t, dense_s,
                     dense_s_inv_t, random_spd)


def from_dense(d):
    return SparseSymMatrix.from_scipy(sp.csr_matrix(d))


class TestEliminateCell:
    def test_tridiag_hand_computation(self):
        a = from_dense(np.array([[2.0, 1.0, 0.0],
                                 [1.0, 2.0, 1.0],
                                 [0.0, 1.0, 2.0]]))
        rec = eliminate_cell(a, np.array([0]), True)
        d = a.to_dense()
        assert d[1, 1] == pytest.approx(1.5)
        assert d[1, 2] == 1.0 and d[2, 2] == 2.0
        assert not a.active[0] and a.active[1] and a.active[2]
        assert rec.sk.tolist() == [1] and rec.interp is None

    def test_diagonal_matrix_no_fill(self):
        a = from_dense(np.diag([3.0, 4.0, 5.0, 6.0]))
        before = a.to_dense()
        rec = eliminate_cell(a, np.array([1, 2]), True)
        assert len(rec.sk) == 0
        d = a.to_dense()
        others = [0, 3]
        assert np.array_equal(d[np.ix_(others, others)],
                              before[np.ix_(others, others)])

    def test_level0_sweep_matches_dense_operator_oracle(self):
        g = build_grid(2, 8, 2)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        dense = a.to_dense()
        cs = interior_cells(g, 0, a.active)
        acc = dense.copy()
        for c in cs.cells:
            rec = eliminate_cell(a, c, True)
            s = dense_s(rec, a.n)
            acc = s.T @ acc @ s
        active = np.flatnonzero(a.active)
        got = a.gather(active, active)
        expect = acc[np.ix_(active, active)]
        scale = np.linalg.norm(dense, 2)
        assert np.linalg.norm(got - expect, 2) <= 1e-12 * scale

    def test_submatrix_of_eliminated_cell_is_zero(self):
        g = build_grid(2, 8, 2)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        c = interior_cells(g, 0, a.active).cells[5]
        eliminate_cell(a, c, True)
        rest = np.setdiff1d(np.arange(a.n), c)
        assert not a.gather(c, rest).any()

    def test_far_interactions_bit_identical(self):
        rng = np.random.default_rng(17)
        a_dense = random_spd(rng, 20, cond=100.0)
        a_dense[np.abs(a_dense) < 0.3 * np.abs(a_dense).max()] = 0.0
        a_dense = 0.5 * (a_dense + a_dense.T)
        np.fill_diagonal(a_dense, np.abs(a_dense).sum(1) + 1)
        a = from_dense(a_dense)
        c = np.array([2, 3])
        q = a.neighbors(c)
        far = np.setdiff1d(np.arange(20), np.concatenate([c, q]))
        before = a.gather(far, far).copy()
        eliminate_cell(a, c, True)
        assert np.array_equal(a.gather(far, far), before)

    def test_property_suite(self):
        check_elimination_properties(200)


class TestSkeletonizeCell:
    def test_isolated_cell_reduces_to_elimination(self):
        # two decoupled blocks: skeletonizing one gives k=0 and plain
        # elimination of the whole group
        rng = np.random.default_rng(1)
        blk1 = random_spd(rng, 3)
        blk2 = random_spd(rng, 4)
        d = np.zeros((7, 7))
        d[:3, :3] = blk1
        d[3:, 3:] = blk2
        a = from_dense(d)
        rec = skeletonize_cell(a, np.arange(3), 1e-9, True)
        assert rec.factor.n == 3
        assert len(rec.sk) == 0 and rec.rd.tolist() == [0, 1, 2]
        assert not a.active[:3].any()
        assert np.array_equal(a.to_dense()[3:, 3:], blk2)

    def test_exact_rank1_coupling(self):
        rng = np.random.default_rng(2)
        n = 9
        c = np.arange(3, 6)
        q = np.concatenate([np.arange(3), np.arange(6, 9)])
        d = np.zeros((n, n))
        d[np.ix_(c, c)] = random_spd(rng, 3, cond=10)
        d[np.ix_(q, q)] = random_spd(rng, 6, cond=10)
        coupling = np.outer(rng.standard_normal(6), rng.standard_normal(3))
        d[np.ix_(q, c)] = coupling
        d[np.ix_(c, q)] = coupling.T
        d += 20 * np.eye(n)
        a = from_dense(d)
        rec = skeletonize_cell(a, c, 1e-12, False)
        assert len(rec.sk) == 1
        # redundant DOFs are fully decoupled in storage
        others = np.setdiff1d(np.arange(n), rec.rd)
        assert not a.gather(rec.rd, others).any()
        # dense congruence oracle: S~ A_after S~^T == A_before (E is exactly 0)
        after = dense_after(a, rec)
        stilde = dense_q_inv_t(rec, n) @ dense_s_inv_t(rec, n)
        recon = stilde @ after @ stilde.T
        assert np.linalg.norm(recon - d, 2) <= 1e-12 * np.linalg.norm(d, 2)

    def test_eps_one_is_elimination_minus_correction(self):
        # maximal compression: k = 0, the whole coupling is truncated, and
        # what remains is exactly plain elimination minus its Schur
        # correction onto the neighbors
        rng = np.random.default_rng(3)
        base = random_spd(rng, 10, cond=50)
        base[np.abs(base) < 0.2] = 0.0
        base = 0.5 * (base + base.T)
        np.fill_diagonal(base, np.abs(base).sum(1) + 1)
        c = np.array([4, 5, 6])
        a1 = from_dense(base)
        a2 = from_dense(base)
        rec_s = skeletonize_cell(a1, c, 1.0, True)
        rec_e = eliminate_cell(a2, c, True)
        assert rec_s.factor.n == 3 and len(rec_s.sk) == 0
        # identical factorization of the cell block
        assert np.array_equal(rec_s.factor.lower, rec_e.factor.lower)
        assert np.array_equal(rec_s.factor.d.diag, rec_e.factor.d.diag)
        # the two results differ on (q, q) by exactly the Schur correction
        q = rec_e.sk
        diff = a1.to_dense() - a2.to_dense()
        cpp = base[np.ix_(c, c)]
        cqp = base[np.ix_(q, c)]
        schur = cqp @ np.linalg.solve(cpp, cqp.T)
        assert np.allclose(diff[np.ix_(q, q)], schur, atol=1e-11)
        diff[np.ix_(q, q)] = 0.0
        assert not diff.any()

    def test_no_op_when_full_rank(self):
        # identity coupling cannot be compressed: rd is empty, nothing changes
        rng = np.random.default_rng(4)
        d = random_spd(rng, 6, cond=10)
        a = from_dense(d)
        before = a.to_dense()
        rec = skeletonize_cell(a, np.arange(3), 1e-14, True)
        assert rec.factor.n == 0 and rec.coupling.shape == (0, 3)
        assert len(rec.rd) == 0 and len(rec.sk) == 3
        assert np.array_equal(a.to_dense(), before)
        assert a.active.all()

    def test_grid_edge_group_congruence(self):
        # a real edge group after level-0 elimination on the 5-point grid
        g = build_grid(2, 16, 4)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        from hifde import interface_cells
        for c in interior_cells(g, 0, a.active).cells:
            eliminate_cell(a, c, True)
        before = a.to_dense()
        cs = interface_cells(g, 0, a.active, "edge")
        eps = 1e-6
        rec = skeletonize_cell(a, cs.cells[10], eps, True)
        after = dense_after(a, rec)
        stilde = dense_q_inv_t(rec, a.n) @ dense_s_inv_t(rec, a.n)
        after = stilde @ after @ stilde.T
        err = np.linalg.norm(after - before, 2) / np.linalg.norm(before, 2)
        assert err <= 100 * eps

    def test_property_suite(self):
        check_skeletonization_properties(200)
