"""Cell partitioning: interior cells, interface Voronoi groups, adaptive
minimal separators."""

import numpy as np
import pytest
import scipy.sparse as sp

from hifde import (GridConfig, SparseSymMatrix, adaptive_interior_cells, assemble, build_grid,
                   cells_to_csv, constant_field, eliminate_cell, factor_hifde, factor_hifde3x,
                   interface_cells, interior_cells)
from hifde import driver, factor_ops, partition, sparse
from hifde.sparse import DenseSymMatrix

from oracles import assert_noninteracting, split_cells


def laplace(dim, n, m):
    g = build_grid(dim, n, m)
    return g, assemble(g, constant_field(g, 1.0, 0.0))


def run_level0(g, a):
    cs = interior_cells(g, 0, a.active)
    for c in cs.cells:
        eliminate_cell(a, c, True)


class TestInteriorCells:
    def test_level0_enumeration_2d(self):
        g, a = laplace(2, 8, 2)
        cs = interior_cells(g, 0, a.active)
        assert len(cs.cells) == 16
        coords = g.dof_coords()
        for members, center in zip(cs.cells, cs.centers):
            # enumerate the interior points of this cell directly
            lo = center - 1.0
            hi = center + 1.0
            expect = np.flatnonzero(
                np.all((coords > lo) & (coords < hi), axis=1))
            assert members.tolist() == expect.tolist()

    def test_union_with_separators_covers_grid(self):
        g, a = laplace(2, 8, 2)
        cs = interior_cells(g, 0, a.active)
        members = np.concatenate(cs.cells)
        coords = g.dof_coords()
        on_sep = (coords % 2 == 0).any(axis=1)
        assert len(members) + int(on_sep.sum()) == g.ndof
        assert len(np.unique(members)) == len(members)

    def test_cells_do_not_interact(self):
        for dim, n, m in ((2, 8, 2), (3, 8, 2)):
            g, a = laplace(dim, n, m)
            for ell in range(g.nlevels):
                cs = interior_cells(g, ell, a.active)
                assert_noninteracting(a, cs)

    def test_level_out_of_range(self):
        # every grouping refuses a level outside [0, L) alike (L = 2 here)
        g, a = laplace(2, 16, 4)
        groupings = (lambda ell: interior_cells(g, ell, a.active),
                     lambda ell: interface_cells(g, ell, a.active, "edge"),
                     lambda ell: adaptive_interior_cells(a, g, ell))
        for grouping in groupings:
            for ell in (-1, g.nlevels, g.nlevels + 1):
                with pytest.raises(ValueError, match=f"level {ell} out of range"):
                    grouping(ell)
        one = GridConfig(2, 8, 8, 0, 1 / 8)     # one cell spans the grid
        with pytest.raises(ValueError, match="no interfaces"):
            interface_cells(one, 0, np.ones(one.ndof, dtype=bool), "edge")

    def test_mf_levels_cover_everything(self):
        g, a = laplace(2, 16, 2)
        seen = []
        for ell in range(g.nlevels):
            cs = interior_cells(g, ell, a.active)
            for c in cs.cells:
                seen.append(c)
                eliminate_cell(a, c, True)
        covered = np.concatenate(seen)
        top = np.flatnonzero(a.active)
        assert len(covered) + len(top) == g.ndof
        assert len(np.unique(np.concatenate([covered, top]))) == g.ndof


class TestInterfaceCells:
    def test_edge_group_count_formula(self):
        g, a = laplace(2, 8, 2)
        run_level0(g, a)
        # one level below the top: K = 2, so 2*K*(K-1) = 4 edge groups
        cs = interface_cells(g, 1, a.active, "edge")
        assert len(cs.cells) == 4

    def test_level0_edges_on_fresh_grid(self):
        g, a = laplace(2, 8, 2)
        run_level0(g, a)
        cs = interface_cells(g, 0, a.active, "edge")
        k = 2 ** g.nlevels
        assert len(cs.cells) == 2 * k * (k - 1)

    def test_corner_points_in_no_group(self):
        g, a = laplace(2, 8, 2)
        run_level0(g, a)
        cs = interface_cells(g, 0, a.active, "edge")
        coords = g.dof_coords()
        corner_mask = (coords % 2 == 0).all(axis=1)
        corners = set(np.flatnonzero(corner_mask & a.active).tolist())
        grouped = set(np.concatenate(cs.cells).tolist())
        assert corners and not (corners & grouped)

    def test_groups_cover_active_except_corners(self):
        g, a = laplace(2, 8, 2)
        run_level0(g, a)
        cs = interface_cells(g, 0, a.active, "edge")
        coords = g.dof_coords()
        corner_mask = (coords % 2 == 0).all(axis=1)
        expected = set(np.flatnonzero(a.active & ~corner_mask).tolist())
        assert set(np.concatenate(cs.cells).tolist()) == expected

    def test_neighbors_confined_to_adjoining_cells(self):
        g, a = laplace(2, 8, 2)
        run_level0(g, a)
        cs = interface_cells(g, 0, a.active, "edge")
        coords = g.dof_coords()
        w = g.m
        for members, center in zip(cs.cells, cs.centers):
            horizontal = center[1] % w == 0
            if horizontal:
                lo = np.array([center[0] - w / 2, center[1] - w])
                hi = np.array([center[0] + w / 2, center[1] + w])
            else:
                lo = np.array([center[0] - w, center[1] - w / 2])
                hi = np.array([center[0] + w, center[1] + w / 2])
            nb = a.neighbors(members)
            assert np.all((coords[nb] >= lo) & (coords[nb] <= hi)), \
                "a group interacts beyond its two adjoining cells"

    def test_3d_faces_exclude_corner_edges(self):
        g, a = laplace(3, 8, 2)
        for c in interior_cells(g, 0, a.active).cells:
            eliminate_cell(a, c, True)
        cs = interface_cells(g, 0, a.active, "face")
        coords = g.dof_coords()
        on2 = (coords % 2 == 0).sum(axis=1) >= 2
        grouped = set(np.concatenate(cs.cells).tolist())
        edge_dofs = set(np.flatnonzero(on2 & a.active).tolist())
        assert edge_dofs and not (edge_dofs & grouped)
        k = 2 ** g.nlevels
        assert len(cs.cells) == 3 * (k - 1) * k * k

    def test_3d_edges_exclude_triple_corners(self):
        g, a = laplace(3, 8, 2)
        cs = interface_cells(g, 0, a.active, "edge")
        coords = g.dof_coords()
        triple = set(np.flatnonzero((coords % 2 == 0).all(axis=1)).tolist())
        grouped = set(np.concatenate(cs.cells).tolist())
        assert triple and not (triple & grouped)

    def test_bad_kind_rejected(self):
        g, a = laplace(2, 8, 2)
        with pytest.raises(ValueError):
            interface_cells(g, 0, a.active, "face")

    def test_csv_dump(self, tmp_path):
        g, a = laplace(2, 8, 2)
        cs = interior_cells(g, 0, a.active)
        path = tmp_path / "cells.csv"
        cells_to_csv(cs, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(np.concatenate(cs.cells)) + 1


class TestFlatCellSet:
    @pytest.mark.parametrize("dim, n", [(2, 16), (3, 8)])
    def test_groups_are_the_split_of_their_keys(self, monkeypatch, dim, n):
        # every grouping at every level, on a random pattern and active set:
        # the groups, read as views of ``members``, are those the keys split
        # into (np.split), with the same dtype
        built, real = [], partition._cellset

        def cellset(level, kind, sel, keys, cen2):
            built.append((real(level, kind, sel, keys, cen2), split_cells(sel, keys)))
            return built[-1][0]
        monkeypatch.setattr(partition, "_cellset", cellset)
        rng = np.random.default_rng(dim)
        g = build_grid(dim, n, 2)
        r = sp.random(g.ndof, g.ndof, density=2.0 / g.ndof, random_state=rng)
        a = SparseSymMatrix.from_scipy(r + r.T + sp.identity(g.ndof))
        a.active[:] = rng.random(g.ndof) < 0.8
        kinds = ["edge"] if dim == 2 else ["face", "edge"]
        for ell in range(g.nlevels):
            interior_cells(g, ell, a.active)
            adaptive_interior_cells(a, g, ell)
            for kind in kinds:
                interface_cells(g, ell, a.active, kind)
        assert len(built) == g.nlevels * (2 + len(kinds))
        for cs, want in built:
            assert len(cs) == len(want) == len(cs.centers) > 0
            assert cs.offsets.dtype == np.int64 and cs.offsets[0] == 0
            assert cs.offsets[-1] == len(cs.members)
            got = cs.cells
            assert len(got) == len(want) and all(
                x.dtype == y.dtype and np.array_equal(x, y) and np.shares_memory(x, cs.members)
                for x, y in zip(got, want))
            assert all(np.array_equal(cs[i], want[i]) for i in (0, -1, len(cs) // 2))

    def test_slices_and_len(self):
        g, a = laplace(2, 16, 2)
        cs = interior_cells(g, 0, a.active)
        groups = cs.cells
        assert len(cs) == len(groups) == 64
        for a_, b in [(0, 64), (3, 7), (5, 5), (7, 3), (-4, None), (None, 2), (60, 99)]:
            part = cs[a_:b]
            assert (part.level, part.kind) == (cs.level, cs.kind)
            assert len(part) == len(groups[a_:b]) == len(part.cells)
            assert all(np.array_equal(x, y) for x, y in zip(part.cells, groups[a_:b]))
            assert np.array_equal(part.centers, cs.centers[a_:b])
            assert part.offsets[0] == 0 and part.offsets[-1] == len(part.members)
            assert np.shares_memory(part.members, cs.members) or not len(part)
        assert np.array_equal(cs[3:7][1], groups[4]) and np.array_equal(cs[-1], groups[-1])
        with pytest.raises(IndexError):
            cs[64]
        with pytest.raises(ValueError, match="steps of 1"):
            cs[::2]

    def test_empty_set(self):
        g, a = laplace(2, 16, 2)
        empty = interior_cells(g, 0, np.zeros(g.ndof, dtype=bool))
        assert len(empty) == 0 and not empty and empty.cells == []
        assert empty.offsets.tolist() == [0] and empty.members.size == 0
        assert empty.centers.shape == (0, 2) and len(empty[0:3]) == 0
        w = a.to_scipy()
        for step in (lambda: factor_ops.eliminate_level(a, empty, 0.0, True),
                     lambda: factor_ops.skeletonize_level(a, empty, 1e-6, 0.5, True)):
            flats = step()
            assert all(len(x) == 0 for x in flats.values())
        assert (a.to_scipy() != w).nnz == 0 and a.active.all()


def interface_lattice(g, ell, kind):
    """Every interface center of level ell, in grid units, family by family:
    half-offsets along the edge (across the face), multiples of the cell
    width w elsewhere."""
    w = (1 << ell) * g.m
    k = g.n // w
    centers = []
    for f in range(g.dim):
        axes = [w * (np.arange(1, k + 1) - 0.5) if (ax == f) != (kind == "face")
                else w * np.arange(1.0, k) for ax in range(g.dim)]
        centers.append(np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, g.dim))
    return np.concatenate(centers)


@pytest.mark.parametrize("dim, n, factor", [(2, 32, factor_hifde), (3, 16, factor_hifde3x)])
def test_interface_groups_are_voronoi_cells(monkeypatch, dim, n, factor):
    # the groups of every level and kind, on the active sets that a
    # factorization leaves, against a brute-force search of the lattice
    g, a = laplace(dim, n, 2)
    calls = []

    def spy(grid, ell, active, kind):
        calls.append((ell, kind, active.copy(), interface_cells(grid, ell, active, kind)))
        return calls[-1][-1]
    monkeypatch.setattr(driver, "interface_cells", spy)
    factor(a, g, 1e-6, skip_levels=0)
    kinds = ("edge",) if dim == 2 else ("face", "edge")
    assert sorted((ell, kind) for ell, kind, _, _ in calls) == \
        sorted((ell, kind) for ell in range(g.nlevels) for kind in kinds)
    coords = g.dof_coords()
    for ell, kind, active, cs in calls:
        # corners (2D), corner edges (3D faces), triple corners (3D edges)
        planes = (coords % ((1 << ell) * g.m) == 0).sum(axis=1)
        excluded = planes >= (3 if (dim, kind) == (3, "edge") else 2)
        members = np.concatenate(cs.cells)
        assert np.array_equal(np.sort(members), np.flatnonzero(active & ~excluded))
        assert len(np.unique(cs.centers, axis=0)) == len(cs.centers)
        lattice = interface_lattice(g, ell, kind)
        assert {tuple(c) for c in cs.centers} <= {tuple(c) for c in lattice}
        x = coords[members]
        own = np.repeat(cs.centers, [len(c) for c in cs.cells], axis=0)
        nearest = np.min([((x - c) ** 2).sum(axis=1) for c in lattice], axis=0)
        assert np.all(((x - own) ** 2).sum(axis=1) <= nearest), (ell, kind)


class TestAdaptiveInteriorCells:
    def test_block_diagonal_matrix_keeps_voronoi_cells(self):
        g = build_grid(3, 4, 2)
        coords = g.dof_coords()
        # couple DOFs only within each Voronoi cell (split at coordinate 2;
        # boundary-plane points tie to the lower cell)
        key = tuple((coords[:, i] + 1) // 2 - 1 for i in range(3))
        cell = key[0] + 2 * key[1] + 4 * key[2]
        n = g.ndof
        rows, cols, vals = [], [], []
        rng = np.random.default_rng(0)
        for cid in range(8):
            idx = np.flatnonzero(cell == cid)
            for i in idx:
                for j in idx:
                    if i < j and rng.random() < 0.5:
                        rows += [i, j]
                        cols += [j, i]
                        vals += [1.0, 1.0]
        rows += list(range(n))
        cols += list(range(n))
        vals += [10.0] * n
        a = SparseSymMatrix.from_scipy(
            sp.coo_matrix((vals, (rows, cols)), shape=(n, n)))
        cs = adaptive_interior_cells(a, g, 0)
        regrouped = {tuple(c.tolist()) for c in cs.cells}
        expected = {tuple(np.flatnonzero(cell == cid).tolist()) for cid in range(8)}
        assert regrouped == expected

    def test_single_coupling_sheds_from_first_cell_only(self):
        g = build_grid(3, 4, 2)
        coords = g.dof_coords()
        n = g.ndof
        # one DOF in cell 0 coupled to one DOF in cell 1 (x-split)
        i = int(np.flatnonzero((coords == [2, 1, 1]).all(axis=1))[0])
        j = int(np.flatnonzero((coords == [3, 1, 1]).all(axis=1))[0])
        a = SparseSymMatrix.from_scipy(sp.coo_matrix(
            ([1.0, 1.0] + [4.0] * n,
             ([i, j] + list(range(n)), [j, i] + list(range(n)))),
            shape=(n, n)))
        cs = adaptive_interior_cells(a, g, 0)
        members = {m for c in cs.cells for m in c.tolist()}
        assert i not in members      # shed from the first-processed cell
        assert j in members          # second cell then closed
        assert_noninteracting(a, cs)

    def test_output_always_noninteracting(self):
        g, a = laplace(3, 8, 2)
        cs = adaptive_interior_cells(a, g, 0)
        assert_noninteracting(a, cs)
        # after one elimination round the next level is still clean
        for c in cs.cells:
            eliminate_cell(a, c, True)
        cs1 = adaptive_interior_cells(a, g, 1)
        assert_noninteracting(a, cs1)
        assert len(cs1.cells) >= 1

    @pytest.mark.parametrize("seed", range(12))
    def test_sheds_in_closed_form(self, seed, monkeypatch):
        # a cell keeps exactly the Voronoi members that couple to no member
        # of a later cell (ascending center order), on either storage, read
        # in one row block or in blocks of a few entries
        blocks = []

        def spans(costs):
            out = sparse.spans(costs, budget)
            blocks.append(len(out))
            return out
        monkeypatch.setattr(partition, "spans", spans)
        rng = np.random.default_rng(seed)
        g = build_grid(*((2, 16) if seed % 2 else (3, 8)), 2)
        r = sp.random(g.ndof, g.ndof, density=rng.choice([1.0, 4.0]) / g.ndof,
                      random_state=rng)
        a = SparseSymMatrix.from_scipy(r + r.T + sp.identity(g.ndof))
        a.active[:] = rng.random(g.ndof) < rng.choice([0.5, 1.0])
        s = a.to_scipy().tocoo()
        coords = g.dof_coords()
        for ell in range(g.nlevels):
            w = (1 << ell) * g.m
            k = g.n // w
            # cell centers in linear index order; argmin takes the lowest on a tie
            jj = np.stack(np.meshgrid(*[np.arange(k)] * g.dim, indexing="ij"),
                          -1).reshape(-1, g.dim)[:, ::-1]
            centers = w * (jj + 0.5)
            cell = np.where(a.active, np.argmin(
                [((coords - c) ** 2).sum(axis=1) for c in centers], axis=0), -1)
            later = (cell[s.row] >= 0) & (cell[s.col] > cell[s.row])
            keep = (cell >= 0) & ~np.isin(np.arange(g.ndof), s.row[later])
            ids = np.unique(cell[keep])
            for m in (a, DenseSymMatrix.kept(a, np.zeros(g.ndof, dtype=bool))):
                for budget in (sparse.CHUNK, 5):
                    cs = adaptive_interior_cells(m, g, ell)
                    assert [c.tolist() for c in cs.cells] == \
                        [np.flatnonzero(keep & (cell == i)).tolist() for i in ids]
                    assert np.array_equal(cs.centers, centers[ids].reshape(-1, g.dim))
                    assert (blocks[-1] == 1) if budget == sparse.CHUNK else (blocks[-1] > 2)
