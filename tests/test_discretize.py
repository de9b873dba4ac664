"""Grid construction, coefficient fields, and stencil assembly."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

from hifde import (GridConfig, assemble, build_grid, constant_field,
                   field_to_csv, high_contrast_field, smoothed_staggered_noise)


class TestBuildGrid:
    def test_2d_8_2(self):
        g = build_grid(2, 8, 2)
        assert g.nlevels == 2 and g.h == 1 / 8 and g.ndof == 49

    def test_3d_32_4(self):
        g = build_grid(3, 32, 4)
        assert g.nlevels == 3 and g.h == 1 / 32 and g.ndof == 31 ** 3

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            build_grid(2, 12, 2)
        with pytest.raises(ValueError):
            build_grid(2, 8, 8)      # ratio 1 means no levels
        with pytest.raises(ValueError):
            build_grid(2, 8, 1)      # leaf too small
        with pytest.raises(ValueError):
            build_grid(4, 8, 2)

    def test_odd_leaf_ok(self):
        g = build_grid(2, 12, 3)
        assert g.nlevels == 2

    def test_dof_coords_first_axis_fastest(self):
        g = build_grid(2, 4, 2)
        coords = g.dof_coords()
        assert coords[0].tolist() == [1, 1]
        assert coords[1].tolist() == [2, 1]
        assert coords[3].tolist() == [1, 2]


class TestFields:
    def test_laplace_field(self):
        g = build_grid(2, 8, 2)
        f = constant_field(g, 1.0, 0.0)
        assert all(np.all(a == 1.0) for a in f.a)
        assert np.all(f.b == 0.0)
        assert f.a[0].shape == (8, 7) and f.a[1].shape == (7, 8)

    def test_helmholtz_field_value(self):
        g = build_grid(2, 8, 2)
        k = 2 * math.pi * 4
        f = constant_field(g, 1.0, -k * k)
        assert np.allclose(f.b, -k * k)
        assert abs(f.b.flat[0] + 631.6546816697189) < 1e-10

    def test_uniform_samples(self):
        g = build_grid(3, 8, 2)
        f = constant_field(g, 2.0, 1.0)
        assert np.all(f.a[2] == 2.0) and np.all(f.b == 1.0)

    def test_high_contrast_values_and_split(self):
        g = build_grid(2, 32, 4)
        f = high_contrast_field(g, seed=7)
        vals = np.concatenate([a.ravel() for a in f.a])
        assert set(np.unique(vals)) == {1e-2, 1e2}
        nlow = int((vals == 1e-2).sum())
        nhigh = int((vals == 1e2).sum())
        assert abs(nlow - nhigh) <= 1
        assert f.contrast_ratio == 1e4

    def test_high_contrast_deterministic(self):
        g = build_grid(2, 16, 4)
        f1 = high_contrast_field(g, seed=3)
        f2 = high_contrast_field(g, seed=3)
        for a1, a2 in zip(f1.a, f2.a):
            assert np.array_equal(a1, a2)
        f3 = high_contrast_field(g, seed=4)
        assert any(not np.array_equal(a1, a3) for a1, a3 in zip(f1.a, f3.a))

    def test_smoothing_raises_autocorrelation(self):
        g = build_grid(2, 64, 4)
        rng = np.random.default_rng(11)
        raw = rng.random((g.n, g.n - 1))
        smooth = smoothed_staggered_noise(g, seed=11)[0]

        def lag4_corr(arr):
            a, b = arr[:-4, :].ravel(), arr[4:, :].ravel()
            return np.corrcoef(a, b)[0, 1]

        assert lag4_corr(smooth) > 0.5
        assert lag4_corr(smooth) > lag4_corr(raw) + 0.3


class TestAssemble:
    def test_single_dof_2d(self):
        g = GridConfig(dim=2, n=2, m=2, nlevels=0, h=0.5)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        assert np.array_equal(a.to_dense(), [[16.0]])

    def test_single_dof_3d(self):
        g = GridConfig(dim=3, n=2, m=2, nlevels=0, h=0.5)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        assert np.array_equal(a.to_dense(), [[24.0]])

    def test_center_row_conservation(self):
        g = build_grid(2, 4, 2)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        d = a.to_dense()
        center = 4
        assert d[center, center] == 64.0
        offs = np.delete(d[center], center)
        assert sorted(offs[offs != 0].tolist()) == [-16.0] * 4
        assert abs(d[center].sum()) == 0.0

    def test_exact_symmetry_bitwise(self):
        g = build_grid(2, 16, 4)
        a = assemble(g, high_contrast_field(g, seed=0))
        d = a.to_dense()
        assert np.array_equal(d, d.T)

    def test_spd_against_dense_cholesky(self):
        for dim, n in ((2, 16), (3, 8)):
            g = build_grid(dim, n, 2 if n == 8 else 4)
            f = high_contrast_field(g, seed=1)
            f.b[:] = np.abs(f.b)
            a = assemble(g, f)
            assert a.n <= 2000
            sla.cholesky(a.to_dense(), lower=True)  # raises if not SPD

    def test_nnz_bound(self):
        for dim, n, m in ((2, 16, 4), (3, 8, 2)):
            g = build_grid(dim, n, m)
            a = assemble(g, constant_field(g, 1.0, 0.0))
            assert a.nnz() <= (2 * dim + 1) * g.ndof

    def test_interior_rows_zero_sum(self):
        g = build_grid(2, 16, 4)
        a = assemble(g, high_contrast_field(g, seed=2))
        d = a.to_dense()
        coords = g.dof_coords()
        interior = np.all((coords > 1) & (coords < g.n - 1), axis=1)
        sums = np.abs(d[interior].sum(axis=1))
        assert sums.max() <= 1e-12 * np.abs(np.diag(d)).max()

    def test_variable_field_matches_stencil_formula(self):
        g = build_grid(2, 4, 2)
        rng = np.random.default_rng(9)
        from hifde import CoeffField
        ax = rng.random((4, 3)) + 0.5
        ay = rng.random((3, 4)) + 0.5
        b = rng.random((3, 3))
        a = assemble(g, CoeffField((ax, ay), b))
        d = a.to_dense()
        inv_h2 = 16.0
        # DOF (2, 2), linear index 4: check the stencil row entry by entry
        assert d[4, 4] == pytest.approx(
            (ax[1, 1] + ax[2, 1] + ay[1, 1] + ay[1, 2]) * inv_h2 + b[1, 1])
        assert d[4, 3] == pytest.approx(-ax[1, 1] * inv_h2)
        assert d[4, 5] == pytest.approx(-ax[2, 1] * inv_h2)
        assert d[4, 1] == pytest.approx(-ay[1, 1] * inv_h2)
        assert d[4, 7] == pytest.approx(-ay[1, 2] * inv_h2)

    def test_nan_coefficient_rejected(self):
        g = build_grid(2, 8, 2)
        f = constant_field(g, 1.0, 0.0)
        f.a[0][2, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            assemble(g, f)

    def test_inf_reaction_term_rejected(self):
        g = build_grid(2, 8, 2)
        f = constant_field(g, 1.0, 0.0)
        f.b[1, 1] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            assemble(g, f)

    def test_field_csv_export(self, tmp_path):
        g = build_grid(2, 4, 2)
        f = constant_field(g, 1.0, 0.0)
        path = tmp_path / "field.csv"
        field_to_csv(f, path)
        lines = path.read_text().strip().splitlines()
        nsamples = sum(a.size for a in f.a) + f.b.size
        assert len(lines) == nsamples + 1
        assert lines[0] == "array,i,j,k,value"
