"""Sparse working-matrix storage tests against a dense mirror."""

import ast
import inspect
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp

from hifde import SparseSymMatrix, build_grid, eliminate_cell, factor_mf, skeletonize_cell
from hifde import factor_ops, sparse
from hifde.sparse import DenseSymMatrix

from oracles import cellset, random_sparse_sym, reference_csr


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
        eliminate_cell(a, np.array([2, 3, 11]), True)
        eliminate_cell(a, np.array([20]), True)
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

    def test_one_sided_stored_zero_gets_its_mirror(self):
        # zeros stored at (0, 2) and at (3, 1) only, one of them signed
        rows, cols = [0, 0, 1, 2, 3, 3], [0, 2, 1, 2, 1, 3]
        vals = np.array([1.0, 0.0, 2.0, 3.0, -0.0, 4.0])
        a = SparseSymMatrix.from_scipy(sp.csr_matrix((vals, (rows, cols)), shape=(4, 4)))
        row = np.repeat(np.arange(4), np.diff(a.indptr))
        stored = {(int(i), int(j)): v for i, j, v in zip(row, a.indices, a.data)}
        assert all((j, i) in stored for i, j in stored)
        assert all(np.all(np.diff(ix) > 0) for ix in a.row_idx)
        given = dict(zip(zip(rows, cols), vals))
        for ij, v in stored.items():
            if ij in given:     # unchanged, the sign of a zero included
                assert v == given[ij] and np.signbit(v) == np.signbit(given[ij]), ij
            else:               # a mirror, with the sign of its zero
                assert v == 0.0 and np.signbit(v) == np.signbit(given[ij[::-1]]), ij
        assert len(stored) == 8
        assert a.neighbors(np.array([0])).tolist() == [2]
        assert a.neighbors(np.array([2])).tolist() == [0]
        assert a.neighbors(np.array([1])).tolist() == [3]

    def test_zeros_of_unlike_sign_become_one_zero(self):
        # (0, 1) stores +0.0 and (1, 0) stores -0.0: both read +0.0, so the
        # stored values are symmetric bit for bit
        s = sp.csr_matrix((np.array([1.0, 0.0, -0.0, 2.0]), ([0, 0, 1, 1], [0, 1, 0, 1])),
                          shape=(2, 2))
        a = SparseSymMatrix.from_scipy(s)
        assert a.indices.tolist() == [0, 1, 0, 1]
        assert a.data.tolist() == [1.0, 0.0, 0.0, 2.0] and not np.signbit(a.data).any()

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


def kept(a, retired):
    """The mask of the stored entries of ``a`` that couple no DOF of
    ``retired``, as a level step builds it."""
    return factor_ops._goes_dense(a, retired, np.zeros(0, np.int64))[0]


def write_one_at_a_time(value, cliques, us):
    """The reference of both writers: the cliques in turn, each pair (i, j)
    of one, v <- 0.5 ((v - U_rc) + (v - U_cr)), in ``value``, a dict
    (i, j) -> v."""
    for s, u in zip(cliques, us):
        for r, i in enumerate(s.tolist()):
            for c, j in enumerate(s.tolist()):
                v = value[i, j]
                value[i, j] = 0.5 * ((v - u[r, c]) + (v - u[c, r]))


def as_stacks(cliques, us, idx):
    """The cliques ``idx`` as stacks (idx, sk, U) of one size, largest
    first and each stack in reverse: out of clique order."""
    sizes = np.array([len(cliques[i]) for i in idx])
    out = []
    for q in sorted(set(sizes.tolist()), reverse=True):
        k = idx[sizes == q][::-1]
        out.append((k, np.array([cliques[i] for i in k], np.int64).reshape(len(k), q),
                    np.array([us[i] for i in k]).reshape(len(k), q, q)))
    return out


def random_updates(rng, cliques):
    """A random U per clique, not symmetric, zero at the pairs (i, j) with
    i + j divisible by 3, where a stored -0.0 stays -0.0."""
    us = [rng.standard_normal((len(s), len(s))) for s in cliques]
    for s, u in zip(cliques, us):
        u[(s[:, None] + s[None, :]) % 3 == 0] = 0.0
    return us


def check_rebuilt(a, retired, cliques, sizes):
    """``a.rebuilt`` against a row scan of its output: the new matrix holds
    the kept entries with their values and every clique pair (a zero where
    nothing was kept), ascending in each row, and its writer, fed a random
    U per clique in two chunks of stacks out of clique order, leaves the
    values, bit for bit, that writing the cliques one at a time in order
    does. ``a`` is not changed. Returns the new matrix and each clique
    pair's round, clique-major and row-major: the number of earlier
    cliques that hold it."""
    before = [x.copy() for x in (a.indptr, a.indices, a.data)]
    new, write = a.rebuilt(kept(a, retired), cliques, sizes)
    for got, want in zip((a.indptr, a.indices, a.data), before):
        assert np.array_equal(got, want)
    assert new.active is a.active
    want = {(i, j): v for i, (ix, vv) in enumerate(zip(a.row_idx, a.row_val))
            for j, v in zip(ix.tolist(), vv.tolist()) if not retired[i] and not retired[j]}
    split = np.split(cliques, np.cumsum(sizes)[:-1]) if len(sizes) else []
    seen, rnd = {}, []
    for s in split:
        pairs = [(i, j) for i in s.tolist() for j in s.tolist()]
        for i, j in pairs:
            want.setdefault((i, j), 0.0)
            rnd.append(seen.get((i, j), 0))
        for p in pairs:
            seen[p] = seen.get(p, 0) + 1
    got = {(i, j): v for i, (ix, vv) in enumerate(zip(new.row_idx, new.row_val))
           for j, v in zip(ix.tolist(), vv.tolist())}
    assert got == want and all(np.all(np.diff(ix) > 0) for ix in new.row_idx)
    us = random_updates(np.random.default_rng(0), split)
    for chunk in np.array_split(np.arange(len(split)), 2):
        if len(chunk):
            write(as_stacks(split, us, chunk))
    write_one_at_a_time(want, split, us)
    keys = [(i, j) for i, ix in enumerate(new.row_idx) for j in ix.tolist()]
    assert same(new.data, [want[k] for k in keys])
    return new, np.array(rnd, np.int64)


@pytest.fixture
def small_blocks(monkeypatch):
    """rebuilt in row blocks of a budget of 3 entries; returns the list the
    blocks are appended to."""
    blocks, real = [], sparse.spans

    def spans(costs):
        out = real(costs, 3)
        blocks.extend(out)
        return out
    monkeypatch.setattr(sparse, "spans", spans)
    return blocks


class TestRebuilt:
    def test_writes_match_a_row_scan(self, small_blocks):
        # rows 5-8 retired, row 20 active with no stored entry, row 14 in no
        # clique; empty cliques, an unsorted one, entries shared 3 deep, and
        # a stored -0.0 at (0, 3) that every write leaves as it is
        dense = random_sparse_sym(np.random.default_rng(2), 24, fill=0.2)[1]
        dense[20, :] = dense[:, 20] = 0.0
        dense[0, 3] = dense[3, 0] = 1.0
        a = SparseSymMatrix.from_scipy(sp.csr_matrix(dense))
        for i, j in ((0, 3), (3, 0)):
            a.row_val[i][a.row_idx[i] == j] = -0.0
        retired = np.zeros(a.n, dtype=bool)
        retired[5:9] = True
        cliques = [[0, 3, 11, 20], [], [3, 11, 12], [], [22, 3, 0, 11], [13]]
        sizes = np.array([len(c) for c in cliques])
        new, rnd = check_rebuilt(a, retired, np.concatenate(cliques).astype(np.int64), sizes)
        assert rnd.max() == 2 and same(new.gather([0, 3], [3, 0])[[0, 1], [0, 1]], [-0.0, -0.0])
        # blocks with kept entries and pairs, with either only, and with neither
        in_clique = np.isin(np.arange(a.n), np.concatenate(cliques))
        has_kept = (dense[:, ~retired] != 0).any(axis=1) & ~retired
        kinds = {(bool(has_kept[r0:r1].any()), bool(in_clique[r0:r1].any()))
                 for r0, r1 in small_blocks}
        assert kinds == {(True, True), (True, False), (False, True), (False, False)}

    def test_no_cliques(self, small_blocks):
        a, dense = random_sparse_sym(np.random.default_rng(5), 12, fill=0.3)
        retired = np.zeros(a.n, dtype=bool)
        retired[[0, 11]] = True
        new, rnd = check_rebuilt(a, retired, np.zeros(0, np.int64), np.zeros(3, np.int64))
        assert len(rnd) == 0 and len(small_blocks) > 1
        dense[retired] = dense[:, retired] = 0.0
        assert np.array_equal(new.to_dense(), dense)

    @pytest.mark.parametrize("dim, n, m, depth", [(2, 16, 4, 4), (3, 8, 2, 8)])
    def test_entries_shared_many_deep(self, monkeypatch, small_blocks, dim, n, m, depth):
        # the stencils of test_entries_updated_by_many_cells: the level-0
        # Schur updates meet 4 (8) deep, so their rounds run to 3 (7). Level
        # 0's output is dense enough to go dense, so rebuilt is checked on
        # the CSR inputs of the factor's elimination steps
        t = sp.diags([-np.ones(n - 2), 2.5 * np.ones(n - 1), -np.ones(n - 2)], [-1, 0, 1])
        k = t
        for _ in range(dim - 1):
            k = sp.kron(k, t)
        calls, real = [], factor_ops._retire

        def retire(w, retired, cliques, sizes, *args):
            # the level's matrix: the step writes into none of its arrays
            if isinstance(w, SparseSymMatrix):
                calls.append((SparseSymMatrix(w.n, w.indptr, w.indices, w.data,
                                              w.active.copy()), (retired, cliques, sizes)))
            return real(w, retired, cliques, sizes, *args)
        monkeypatch.setattr(factor_ops, "_retire", retire)
        f = factor_mf(SparseSymMatrix.from_scipy(k), build_grid(dim, n, m))
        monkeypatch.setattr(factor_ops, "_retire", real)
        assert f.metrics["dense_from"] == 0.0 and len(calls) == 1
        rounds = [int(check_rebuilt(a, *args)[1].max(initial=0)) for a, args in calls]
        assert rounds[0] == depth - 1 and len(small_blocks) > 20 * len(rounds)

    def test_retire_leaves_the_write_format_to_the_storages(self):
        # the elimination step hands its updates to the output's writer: it
        # reads no storage's arrays and lays out no pairs itself
        tree = ast.parse(textwrap.dedent(inspect.getsource(factor_ops._retire)))
        attrs = {x.attr for x in ast.walk(tree) if isinstance(x, ast.Attribute)}
        names = {x.id for x in ast.walk(tree) if isinstance(x, ast.Name)}
        assert not attrs & {"indptr", "indices", "data", "values", "stored", "slot"}
        assert "triu_indices" not in attrs | names

    def test_update_takes_over_the_arrays(self):
        w, _ = random_sparse_sym(np.random.default_rng(6), 20, fill=0.2)
        retired = np.zeros(w.n, dtype=bool)
        retired[[1, 4]] = True
        new = w.rebuilt(kept(w, retired), np.array([2, 9, 15]), np.array([3]))[0]
        w.update(new)
        assert w.indptr is new.indptr and w.indices is new.indices and w.data is new.data
        # the same takeover makes the matrix dense, the object staying the same
        dense = DenseSymMatrix.kept(w, retired)
        w.update(dense)
        assert type(w) is DenseSymMatrix and w.values is dense.values and w.stored is dense.stored


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

    def test_inserted_column_replaces_a_stored_one(self):
        # column 1 of row 1 is stored and not in drop
        a = tridiag(3)
        a.replace_rows([1], [], [1], [[5.0]])
        assert a.row_idx[1].tolist() == [0, 1, 2]
        assert a.gather([1], [1]).tolist() == [[5.0]] and a.to_dense()[1, 1] == 5.0

    def test_drop_cols_vs_dense_mirror(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(5, 30))
            a, dense = random_sparse_sym(rng, n)
            rows = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            cols = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            stored = [ix.copy() for ix in a.row_idx]
            a.drop_cols(rows, cols)
            dense[np.ix_(rows, cols)] = 0.0
            assert np.array_equal(a.to_dense(), dense)
            for i, ix in enumerate(a.row_idx):
                want = np.setdiff1d(stored[i], cols) if i in rows else stored[i]
                assert np.array_equal(ix, want)


class TestDeactivate:
    def test_deactivate_all(self):
        a = tridiag(4)
        eliminate_cell(a, np.arange(4), True)
        assert not a.active.any()

    def test_deactivate_empty(self):
        a = tridiag(4)
        before = a.to_dense()
        eliminate_cell(a, np.array([], dtype=np.int64), True)
        assert np.array_equal(a.to_dense(), before)

    def test_double_deactivation_rejected(self):
        # a group holding a retired DOF is named before the matrix changes
        for retire in (lambda a, c: eliminate_cell(a, c, True),
                       lambda a, c: skeletonize_cell(a, c, 1e-9, True)):
            a = tridiag(6)
            eliminate_cell(a, [1], True)
            before = [x.copy() for x in (a.indptr, a.indices, a.data, a.active)]
            with pytest.raises(ValueError, match="DOF 1 is not active"):
                retire(a, np.array([3, 1, 4]))
            for got, want in zip((a.indptr, a.indices, a.data, a.active), before):
                assert np.array_equal(got, want)

    def test_no_storage_between_inactive_and_active(self):
        rng = np.random.default_rng(4)
        a, _ = random_sparse_sym(rng, 20)
        c = np.array([3, 7, 11])
        eliminate_cell(a, c, True)
        for i in c:
            assert len(a.row_idx[i]) == 0
        for i in range(20):
            if i not in c:
                assert not np.isin(a.row_idx[i], c).any()


class TestMirrorSequences:
    def test_mixed_op_sequences_match_dense_mirror(self):
        """Interleaved updates and eliminations against the dense oracle."""
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(6, 25))
            a, dense = random_sparse_sym(rng, n)
            active = np.ones(n, dtype=bool)
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
                    eliminate_cell(a, c, False)
                    eliminate_mirror(dense, active, c)
                act = np.flatnonzero(active)
                # the mirror's Schur complements round differently
                # (np.linalg.solve against the library's LDL solves)
                assert np.allclose(a.gather(act, act), dense[np.ix_(act, act)],
                                   rtol=0, atol=1e-12 * np.abs(dense).max())


# -- the dense storage --------------------------------------------------------

def same(x, y) -> bool:
    """Equal arrays, floats bit for bit (the sign of a zero included)."""
    x, y = np.asarray(x), np.asarray(y)
    if x.dtype.kind == "f" or y.dtype.kind == "f":
        return x.shape == y.shape and x.astype(float).tobytes() == y.astype(float).tobytes()
    return np.array_equal(x, y)


def storages(seed: int, n: int):
    """One random symmetric matrix in both storages, each with its own
    active flags: about a fifth of its off-diagonal pairs store 0.0 and one
    pair stores -0.0, and about a tenth of its DOFs (at least one, outside
    that pair) are retired. Returns
    the CSR matrix, the dense one and the -0.0 pair."""
    rng = np.random.default_rng(seed)
    dense = random_sparse_sym(rng, n)[1]
    i, j = np.nonzero(np.triu(dense, 1))
    vals = dense[i, j]
    vals[rng.random(len(i)) < 0.2] = 0.0
    vals[0] = -0.0
    k = np.arange(n)
    w = SparseSymMatrix.from_scipy(sp.csr_matrix(
        (np.r_[vals, vals, np.diag(dense)], (np.r_[i, j, k], np.r_[j, i, k])), shape=(n, n)))
    retired = rng.random(n) < 0.1
    retired[[i[0], j[0]]] = False
    retired[rng.choice(np.setdiff1d(np.arange(n), [i[0], j[0]]))] = True
    csr = w.rebuilt(kept(w, retired), np.zeros(0, np.int64), np.zeros(0, np.int64))[0]
    d = DenseSymMatrix.kept(w, retired)
    return (SparseSymMatrix(n, csr.indptr, csr.indices, csr.data, ~retired),
            DenseSymMatrix(n, d.dofs, d.values, d.stored, ~retired), (i[0], j[0]))


def cells_apart(w, rng) -> list:
    """Groups of one or two active DOFs of ``w``, no two of which couple."""
    member = np.zeros(w.n, dtype=bool)
    cells = []
    for i in rng.permutation(np.flatnonzero(w.active))[:w.n // 3].tolist():
        nb = w.neighbors([i])
        c = np.sort([i, nb[0]]) if len(nb) and rng.random() < 0.5 else np.array([i])
        if not member[c].any() and not member[w.neighbors(c)].any():
            member[c] = True
            cells.append(c)
    return cells


class TestDenseStorage:
    def test_reads_answer_as_on_csr(self):
        rng = np.random.default_rng(11)
        for seed in range(30):
            n = int(rng.integers(5, 40))
            s, d, (i, j) = storages(seed, n)
            assert s.data.size > np.count_nonzero(s.data) and len(d.dofs) < n
            rows = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            cols = rng.permutation(n)[:int(rng.integers(1, n + 1))]
            assert all(same(x, y) for x, y in zip(d.entries(rows), s.entries(rows)))
            assert same(d.row_lengths(rows), s.row_lengths(rows))
            assert same(d.gather(rows, cols), s.gather(rows, cols))
            every = np.arange(n)
            assert same(d.gather(every, every), s.gather(every, every))
            assert all(same(getattr(d.to_scipy(), key), getattr(s.to_scipy(), key))
                       for key in ("indptr", "indices", "data"))
            assert d.nnz() == s.nnz()
            assert same(d.neighbors(rows[:3]), s.neighbors(rows[:3]))
            # the stored -0.0 survives; a slot not stored reads +0.0
            for m in (s, d):
                assert same(m.gather([i], [j]), [[-0.0]]) and same(m.gather([j], [i]), [[-0.0]])
            unstored = np.argwhere(~d.stored)
            if len(unstored):
                r, c = d.dofs[unstored[0]]
                assert same(d.gather([r], [c]), [[0.0]]) and same(s.gather([r], [c]), [[0.0]])

    def test_row_lengths_of_no_rows(self):
        # an empty list is no rows on either storage, not a float index
        for m in storages(3, 12)[:2]:
            for rows in ([], (), np.zeros(0, np.int64)):
                got = m.row_lengths(rows)
                assert got.dtype == np.int64 and got.shape == (0,)
            assert np.array_equal(m.row_lengths([0, 5]), m.row_lengths(np.array([0, 5])))

    def test_no_rows_read_no_entries(self):
        # an empty tuple is no rows, not an index of the whole array
        for m in storages(3, 12)[:2]:
            cols = np.array([0, 4, 7])
            for rows in ([], (), np.zeros(0, np.int64)):
                assert [x.shape for x in m.entries(rows)] == [(0,)] * 3
                assert m.neighbors(rows).shape == (0,)
                assert m.gather(rows, cols).shape == (0, 3)

    def test_repeated_rows_and_cols_read_every_copy(self):
        assert np.array_equal(tridiag(3).gather([1], [1, 1]), [[2.0, 2.0]])
        rng = np.random.default_rng(12)
        for seed in range(20):
            n = int(rng.integers(5, 30))
            for m in storages(seed, n)[:2]:
                # twice as many as n, so some repeat; the mirror reads -0.0 as
                # +0.0, the distinct gather keeps its sign
                rows, cols = rng.integers(0, n, (2, 2 * n))
                got, every = m.gather(rows, cols), np.arange(n)
                assert np.array_equal(got, m.to_dense()[np.ix_(rows, cols)])
                assert same(got, m.gather(every, every)[np.ix_(rows, cols)])

    def test_kept_from_either_storage(self):
        # the dense output of a step on either storage: the same DOFs,
        # pattern and values, bit for bit, the stored -0.0 included; the
        # dense input is copied, not changed
        rng = np.random.default_rng(16)
        for seed in range(30):
            n = int(rng.integers(5, 40))
            s, d, (i, j) = storages(seed, n)
            retired = s.active & (rng.random(n) < 0.3)
            retired[[i, j]] = False
            before = [x.copy() for x in (d.values, d.stored, d.dofs)]
            got, want = DenseSymMatrix.kept(d, retired), DenseSymMatrix.kept(s, retired)
            assert all(same(getattr(got, key), getattr(want, key))
                       for key in ("dofs", "stored", "values", "slot"))
            assert got.active is d.active and same(got.gather([i], [j]), [[-0.0]])
            assert all(same(x, y) for x, y in zip((d.values, d.stored, d.dofs), before))
            assert not np.shares_memory(got.values, d.values)

    def test_schur_write_one_group_at_a_time(self):
        # stacks out of group order, whose fronts overlap: each group's
        # update lands in group order, as writing them one at a time does,
        # bit for bit, and every front pair is stored after it
        rng, shared = np.random.default_rng(17), 0
        for seed in range(20):
            n = int(rng.integers(8, 40))
            s, _, _ = storages(seed, n)
            d = DenseSymMatrix.kept(s, np.zeros(n, dtype=bool))
            cliques = [np.sort(rng.choice(d.dofs, int(rng.integers(0, min(6, len(d.dofs)) + 1)),
                                          replace=False)) for _ in range(int(rng.integers(2, 9)))]
            us = random_updates(rng, cliques)
            want = {(i, j): v for i, row in zip(d.dofs.tolist(), d.values.tolist())
                    for j, v in zip(d.dofs.tolist(), row)}
            stored = d.stored.copy()
            for c in cliques:
                stored[np.ix_(d.slot[c], d.slot[c])] = True
            write_one_at_a_time(want, cliques, us)
            d.schur_write(as_stacks(cliques, us, np.arange(len(cliques))))
            assert same(d.values.ravel(), [want[i, j] for i in d.dofs.tolist()
                                           for j in d.dofs.tolist()])
            assert same(d.stored, stored)
            shared += np.bincount(np.concatenate(cliques), minlength=n).max() > 1
        assert shared > 10

    @pytest.mark.parametrize("step", ["eliminate", "skeletonize"])
    def test_level_step_on_each_storage(self, monkeypatch, step):
        # on CSR throughout, switching to dense at the step, and dense
        # before it: the same flat arrays and the same matrix after
        shared = compressed = 0
        for seed in range(12):
            n = 45
            runs = []
            for share, storage in ((np.inf, 0), (0.0, 0), (np.inf, 1)):
                monkeypatch.setattr(factor_ops, "DENSE_SHARE", share)
                w = storages(seed, n)[storage]
                rng = np.random.default_rng(seed)
                if step == "eliminate":
                    cells = cells_apart(w, rng)
                    flats = factor_ops.eliminate_level(w, cellset(cells), 0.0, True)
                else:
                    dofs = rng.permutation(np.flatnonzero(w.active))[:2 * n // 3]
                    cells = [np.sort(c) for c in np.split(dofs, np.arange(4, len(dofs), 4))]
                    flats = factor_ops.skeletonize_level(w, cellset(cells, 0.5), 0.3, 0.5, False)
                every = np.arange(n)
                runs.append((type(w), flats, w.entries(every) + (w.gather(every, every),),
                             w.active.copy()))
            assert [r[0] for r in runs] == [SparseSymMatrix, DenseSymMatrix, DenseSymMatrix]
            (_, flats, entries, active), *others = runs
            for _, f, e, act in others:
                assert f.keys() == flats.keys()
                assert all(f[k].dtype == flats[k].dtype and same(f[k], flats[k]) for k in f)
                assert all(same(x, y) for x, y in zip(e, entries)) and same(act, active)
            shared += np.bincount(flats["sk"]).max(initial=0) > 1
            compressed += np.count_nonzero(flats["rd_len"])
        assert compressed and (step == "skeletonize" or shared)

    @pytest.mark.parametrize("budget", [None, 40], ids=["one_block", "small_blocks"])
    def test_neighbor_pass_finds_each_front(self, monkeypatch, budget):
        # a level's neighbor pass on either storage, its rows read in one
        # row block or in many: each group's q is the CSR matrix's neighbors
        # of the group, and the chunks, in group order, gather its A[c, c]
        # and A[q, c]
        if budget is not None:
            monkeypatch.setattr(factor_ops, "spans", lambda costs: sparse.spans(costs, budget))
        rng = np.random.default_rng(15)
        for seed in range(20):
            n = int(rng.integers(5, 40))
            s, d, _ = storages(seed, n)
            dofs = rng.permutation(np.flatnonzero(s.active))[:max(1, 2 * n // 3)]
            cuts = np.cumsum(rng.integers(1, 5, len(dofs)))
            cells = [np.sort(c) for c in np.split(dofs, cuts[cuts < len(dofs)])]
            for w in (s, d):
                cs = cellset(cells, 0.5)
                mark, clen, row_nnz = factor_ops._groups(w, cs, 0.5)
                q, qlen, fronts = factor_ops._neighbors(w, cs, mark, row_nnz)
                nbrs = np.split(q, np.cumsum(qlen)[:-1])
                assert len(nbrs) == len(cells)
                assert all(same(x, s.neighbors(c)) for x, c in zip(nbrs, cells))
                done = 0
                for a, f in fronts(row_nnz + (clen + qlen) * clen, lambda f, a: (a, f)):
                    assert a == done
                    pp, opp, qp, oqp = f.gather(np.arange(len(f.clen)))
                    for i, c in enumerate(cells[a:a + len(f.clen)]):
                        k, nb = len(c), nbrs[a + i]
                        assert same(pp[opp[i]:][:k * k].reshape(k, k), s.gather(c, c))
                        assert same(qp[oqp[i]:][:len(nb) * k].reshape(len(nb), k),
                                    s.gather(nb, c))
                    done += len(f.clen)
                assert done == len(cells)


class TestDenseSwitch:
    def test_mask_and_decision_match_a_dense_count(self, monkeypatch):
        # the mask of a step's kept entries against a dense stored pattern
        # with every retired row and column cleared, and the switch against
        # that pattern's count plus the pairs of cliques of ``sizes``, at a
        # share just above and just below the one it reaches
        rng = np.random.default_rng(14)
        for seed in range(40):
            n = int(rng.integers(5, 40))
            w = storages(seed, n)[0]
            retired = w.active & (rng.random(n) < 0.3)
            live = np.flatnonzero(w.active & ~retired)
            sizes = rng.integers(0, min(5, len(live)) + 1, int(rng.integers(0, 4)))
            stored = np.zeros((n, n), dtype=bool)
            for i, ix in enumerate(w.row_idx):
                stored[i, ix] = True
            stored[retired] = stored[:, retired] = False
            keep, _ = factor_ops._goes_dense(w, retired, sizes)
            row = np.repeat(np.arange(n), np.diff(w.indptr))
            got = np.zeros((n, n), dtype=bool)
            got[row[keep], w.indices[keep]] = True
            assert keep.shape == w.indices.shape and np.array_equal(got, stored)
            if len(live):
                share = (np.count_nonzero(stored) + (sizes * sizes).sum()) / len(live) ** 2
                for scale, dense in ((1 + 1e-9, False), (1 - 1e-9, True)):
                    monkeypatch.setattr(factor_ops, "DENSE_SHARE", share * scale)
                    assert factor_ops._goes_dense(w, retired, sizes)[1] == dense
