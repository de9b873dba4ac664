"""Sparse working-matrix storage tests against a dense mirror."""

import numpy as np
import pytest
import scipy.sparse as sp

from hifde import DofState, SparseSymMatrix, eliminate_cell

from oracles import random_sparse_sym, reference_csr


def tridiag(n):
    d = 2.0 * np.ones(n)
    o = -np.ones(n - 1)
    return SparseSymMatrix.from_scipy(sp.diags([o, d, o], [-1, 0, 1]).tocsr())


def update_block(a, q, delta):
    """A[q, q] += delta through the storage's own row replacement."""
    a.replace_rows(q, q, q, a.gather(q, q) + delta)


def eliminate_mirror(dense, active, c):
    """Dense mirror of eliminate_cell: Schur-update the other active DOFs,
    then zero the rows and columns of c."""
    o = np.setdiff1d(np.flatnonzero(active), c)
    dense[np.ix_(o, o)] -= dense[np.ix_(o, c)] @ np.linalg.solve(
        dense[np.ix_(c, c)], dense[np.ix_(c, o)])
    active[c] = False
    dense[c, :] = 0.0
    dense[:, c] = 0.0


class TestConstruction:
    def test_rejects_unsymmetric(self):
        m = sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            SparseSymMatrix.from_scipy(m)

    def test_roundtrip_dense(self):
        rng = np.random.default_rng(0)
        a, dense = random_sparse_sym(rng, 30)
        assert np.array_equal(a.to_dense(), dense)
        assert np.array_equal(a.to_scipy().toarray(), dense)

    def test_nnz_canonical(self):
        a = tridiag(10)
        assert a.nnz() == 10 + 9

    def test_to_scipy_and_nnz_match_row_loop(self):
        # retired (empty) rows, fill-in and explicitly stored zeros
        a, _ = random_sparse_sym(np.random.default_rng(4), 30, fill=0.1)
        state = DofState(a.n)
        eliminate_cell(a, state, np.array([2, 3, 11]), 0.0, True)
        eliminate_cell(a, state, np.array([20]), 0.0, True)
        q = a.neighbors(np.array([5]))
        a.replace_rows(q, q, q, np.zeros((len(q), len(q))))
        csr, nnz = reference_csr(a)
        got = a.to_scipy()
        assert got.shape == csr.shape and got.dtype == csr.dtype
        assert np.array_equal(got.indptr, csr.indptr)
        assert np.array_equal(got.indices, csr.indices)
        assert np.array_equal(got.data, csr.data)
        assert a.nnz() == nnz

    def test_input_is_not_changed(self):
        # a CSR input with a duplicate entry and an unsorted row: the
        # canonical form is built on a copy of its arrays
        s = sp.csr_matrix((np.array([1.0, 2.0, 2.0, 3.0, 3.0]), np.array([1, 0, 1, 0, 1]),
                           np.array([0, 3, 5])), shape=(2, 2))
        before = s.indptr.copy(), s.indices.copy(), s.data.copy()
        a = SparseSymMatrix.from_scipy(s)
        assert s.nnz == 5
        for got, want in zip((s.indptr, s.indices, s.data), before):
            assert np.array_equal(got, want)
        assert np.array_equal(a.to_dense(), [[2.0, 3.0], [3.0, 3.0]])

    @pytest.mark.parametrize("s, what", [
        (sp.csr_matrix(np.ones((2, 3))), r"not square: shape \(2, 3\)"),
        (np.ones(3), "must be 2-D, got a 1-D input"),
        (sp.csr_matrix(np.array([[1.0, 1j], [1j, 1.0]])), "complex"),
    ], ids=["non_square", "one_d", "complex"])
    def test_rejects_bad_input(self, s, what):
        with pytest.raises(ValueError, match=what):
            SparseSymMatrix.from_scipy(s)

    def test_rows_are_views_of_the_arrays(self):
        a = tridiag(4)
        assert [ix.tolist() for ix in a.row_idx] == [[0, 1], [0, 1, 2], [1, 2, 3], [2, 3]]
        a.row_val[2][1] = 5.0
        assert a.data[a.indptr[2] + 1] == 5.0 and a.to_scipy()[2, 2] == 5.0

    def test_to_scipy_is_a_copy(self):
        a = tridiag(4)
        s = a.to_scipy()
        s.data[:] = 0.0
        assert np.array_equal(a.to_dense(), tridiag(4).to_dense())

    def test_matrix_market_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        a, dense = random_sparse_sym(rng, 12)
        path = tmp_path / "a.mtx"
        a.save_matrix_market(path)
        b = SparseSymMatrix.load_matrix_market(path)
        assert np.allclose(b.to_dense(), dense)


class TestCsrFind:
    def test_positions_match_row_scan_in_any_order(self):
        # empty rows (retired DOFs) and a first and last row
        a, _ = random_sparse_sym(np.random.default_rng(2), 40, fill=0.1)
        eliminate_cell(a, DofState(a.n), np.array([0, 7]), 0.0, True)
        w = a
        rows = np.repeat(np.arange(w.n), np.diff(w.indptr))
        cols = w.indices.astype(np.int64)
        want = np.arange(len(cols))
        for order in (want, np.random.default_rng(3).permutation(len(cols))):
            assert np.array_equal(w.find(rows[order], cols[order]), want[order])

    def test_update_drops_the_cached_keys(self):
        w, _ = random_sparse_sym(np.random.default_rng(6), 20, fill=0.2)
        w.find(np.array([0]), np.array([0]))
        retired = np.zeros(w.n, dtype=bool)
        retired[[1, 4]] = True
        new = w.rebuilt(retired, np.array([2, 9, 15]), np.array([3]))
        w.update(new)
        rows = np.repeat(np.arange(w.n), np.diff(w.indptr))
        assert np.array_equal(w.find(rows, w.indices.astype(np.int64)), np.arange(len(rows)))


class TestSubmatrix:
    def test_identity_single(self):
        a = SparseSymMatrix.from_scipy(sp.eye(5).tocsr())
        assert np.array_equal(a.gather([3], [3]), [[1.0]])

    def test_tridiag_offdiag(self):
        assert np.array_equal(tridiag(3).gather([1], [2]), [[-1.0]])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            tridiag(3).gather([0], [7])

    def test_random_vs_dense_mirror(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            a, dense = random_sparse_sym(rng, n)
            p = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            q = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            assert np.array_equal(a.gather(p, q), dense[np.ix_(p, q)])


class TestNeighborSet:
    def test_tridiag_interior(self):
        assert tridiag(5).neighbors([3]).tolist() == [2, 4]

    def test_diagonal_empty(self):
        a = SparseSymMatrix.from_scipy(sp.eye(6).tocsr())
        assert len(a.neighbors([2, 4])) == 0

    def test_five_point_center(self):
        from hifde import assemble, build_grid, constant_field
        g = build_grid(2, 4, 2)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        # center DOF of the 3x3 interior lattice
        assert a.neighbors([4]).tolist() == [1, 3, 5, 7]

    def test_excludes_inactive(self):
        a = tridiag(5)
        # the coupling 3-2 is still stored; only the flag hides it
        a.active[2] = False
        assert a.neighbors([3]).tolist() == [4]


class TestBlockUpdate:
    def test_zero_delta_no_change(self):
        a = tridiag(6)
        before = a.to_dense()
        update_block(a, [1, 3], np.zeros((2, 2)))
        after = a.to_dense()
        assert np.array_equal(before, after)
        # exact zeros are stored, not dropped
        assert a.nnz() > 6 + 5

    def test_fill_in_on_empty_block(self):
        a = SparseSymMatrix.from_scipy(sp.eye(5).tocsr())
        delta = np.array([[0.0, 2.5], [2.5, -1.0]])
        update_block(a, [0, 3], delta)
        d = a.to_dense()
        assert d[0, 3] == 2.5 and d[3, 0] == 2.5 and d[3, 3] == 0.0

    def test_overlapping_updates_vs_dense_mirror(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(5, 30))
            a, dense = random_sparse_sym(rng, n)
            for _ in range(int(rng.integers(1, 6))):
                k = int(rng.integers(1, n))
                q = np.sort(rng.choice(n, size=k, replace=False))
                delta = rng.standard_normal((k, k))
                delta = delta + delta.T
                update_block(a, q, delta)
                dense[np.ix_(q, q)] += delta
            assert np.allclose(a.to_dense(), dense, rtol=0, atol=1e-14)


class TestDeactivate:
    def test_deactivate_all(self):
        a = tridiag(4)
        state = DofState(4)
        eliminate_cell(a, state, np.arange(4), 0.0, True)
        assert not a.active.any()
        assert np.isfinite(state.elim_level).sum() == 4

    def test_deactivate_empty(self):
        a = tridiag(4)
        before = a.to_dense()
        eliminate_cell(a, DofState(4), np.array([], dtype=np.int64), 0.0, True)
        assert np.array_equal(a.to_dense(), before)

    def test_double_deactivation_rejected(self):
        state = DofState(4)
        state.mark_eliminated([1], 0.0)
        with pytest.raises(ValueError):
            state.mark_eliminated([1], 1.0)

    def test_no_storage_between_inactive_and_active(self):
        rng = np.random.default_rng(4)
        a, _ = random_sparse_sym(rng, 20)
        state = DofState(20)
        c = np.array([3, 7, 11])
        eliminate_cell(a, state, c, 0.0, True)
        for i in c:
            assert len(a.row_idx[i]) == 0
        for i in range(20):
            if i not in c:
                assert not np.isin(a.row_idx[i], c).any()

    def test_dof_state_tracks_level(self):
        a = tridiag(6)
        state = DofState(6)
        eliminate_cell(a, state, [0, 1], 0.0, True)
        eliminate_cell(a, state, [5], 0.5, True)
        assert state.elim_level[0] == 0.0
        assert state.elim_level[5] == 0.5
        assert np.isnan(state.elim_level[3])


class TestMirrorSequences:
    def test_mixed_op_sequences_match_dense_mirror(self):
        """Interleaved updates and eliminations against the dense oracle."""
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(6, 25))
            a, dense = random_sparse_sym(rng, n)
            active = np.ones(n, dtype=bool)
            state = DofState(n)
            for _ in range(int(rng.integers(2, 8))):
                if rng.random() < 0.6:
                    cand = np.flatnonzero(active)
                    k = int(rng.integers(1, len(cand) + 1))
                    q = np.sort(rng.choice(cand, size=k, replace=False))
                    delta = rng.standard_normal((k, k))
                    delta = delta + delta.T
                    update_block(a, q, delta)
                    dense[np.ix_(q, q)] += delta
                else:
                    cand = np.flatnonzero(active)
                    if len(cand) <= 1:
                        continue
                    k = int(rng.integers(1, len(cand)))
                    c = np.sort(rng.choice(cand, size=k, replace=False))
                    eliminate_cell(a, state, c, 0.0, False)
                    eliminate_mirror(dense, active, c)
                act = np.flatnonzero(active)
                # the mirror's Schur complements round differently
                # (np.linalg.solve against the library's LDL solves)
                assert np.allclose(a.gather(act, act), dense[np.ix_(act, act)],
                                   rtol=0, atol=1e-12 * np.abs(dense).max())
