"""Cell partitioning: interior cells, interface Voronoi groups, adaptive
minimal separators."""

import numpy as np
import pytest
import scipy.sparse as sp

from hifde import (DofState, SparseSymMatrix, adaptive_interior_cells, assemble, build_grid,
                   cells_to_csv, constant_field, eliminate_cell, interface_cells,
                   interior_cells)

from oracles import assert_noninteracting


def laplace(dim, n, m):
    g = build_grid(dim, n, m)
    return g, assemble(g, constant_field(g, 1.0, 0.0))


def run_level0(g, a):
    state = DofState(a.n)
    cs = interior_cells(g, 0, a.active)
    for c in cs.cells:
        eliminate_cell(a, state, c, 0.0, True)
    return state


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
        g, a = laplace(2, 8, 2)
        with pytest.raises(ValueError):
            interior_cells(g, 2, a.active)

    def test_mf_levels_cover_everything(self):
        g, a = laplace(2, 16, 2)
        state = DofState(a.n)
        seen = []
        for ell in range(g.nlevels):
            cs = interior_cells(g, ell, a.active)
            for c in cs.cells:
                seen.append(c)
                eliminate_cell(a, state, c, float(ell), True)
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
        state = DofState(a.n)
        for c in interior_cells(g, 0, a.active).cells:
            eliminate_cell(a, state, c, 0.0, True)
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
        state = DofState(a.n)
        for c in cs.cells:
            eliminate_cell(a, state, c, 0.0, True)
        cs1 = adaptive_interior_cells(a, g, 1)
        assert_noninteracting(a, cs1)
        assert len(cs1.cells) >= 1
