"""Factorization drivers: construction, apply/solve, persistence."""

import re

import numpy as np
import pytest

from hifde import (GridConfig, IndefiniteBlockError, SingularBlockError, SparseSymMatrix,
                   assemble, build_grid, constant_field, driver, factor_hifde,
                   factor_hifde3x, factor_mf, high_contrast_field, interior_cells,
                   load_factor, make_problem, save_factor)

from oracles import reference_factor


def laplace(dim, n, m):
    g = build_grid(dim, n, m)
    a = assemble(g, constant_field(g, 1.0, 0.0))
    return g, a, a.to_scipy()


class TestMultifrontal:
    def test_reconstruction_2d(self):
        g, a, csr = laplace(2, 8, 2)
        f = factor_mf(a, g)
        dense = csr.toarray()
        err = np.linalg.norm(dense - f.apply(np.eye(f.n)), 2) / np.linalg.norm(dense, 2)
        assert err <= 1e-12

    def test_single_dof_grid(self):
        g = GridConfig(dim=2, n=2, m=2, nlevels=0, h=0.5)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        f = factor_mf(a, g)
        assert f.levels == []
        assert f.metrics["dense_from"] is None and f.metrics["dense_order"] is None
        assert f.apply(np.array([2.0]))[0] == pytest.approx(32.0)
        assert f.apply_inverse(np.array([16.0]))[0] == pytest.approx(1.0)

    def test_top_separator_count_n64(self):
        g, a, _ = laplace(2, 64, 4)
        f = factor_mf(a, g)
        # verified against the active-DOF trace: the top-level cross
        assert f.metrics["s_top"] == f.metrics["active_trace"][-1][1]
        assert f.metrics["s_top"] == 2 * (64 - 1) - 1

    def test_conservation_and_tags(self):
        g, a, _ = laplace(2, 16, 2)
        f = factor_mf(a, g)
        f.check()
        tags = [lf.level for lf in f.levels]
        assert tags == sorted(tags) and len(set(tags)) == len(tags)


class TestHifde:
    def test_tiny_eps_behaves_like_mf(self):
        g, a, csr = laplace(2, 16, 2)
        f = factor_hifde(a, g, 1e-15)
        dense = csr.toarray()
        err = np.linalg.norm(dense - f.apply(np.eye(f.n)), 2) / np.linalg.norm(dense, 2)
        assert err <= 1e-12

    def test_skip_all_levels_equals_mf_bitwise(self):
        g, a1, _ = laplace(2, 16, 2)
        f_skip = factor_hifde(a1, g, 1e-6, skip_levels=g.nlevels)
        g2, a2, _ = laplace(2, 16, 2)
        f_mf = factor_mf(a2, g2)
        assert len(f_skip.levels) == len(f_mf.levels)
        for lf1, lf2 in zip(f_skip.levels, f_mf.levels):
            assert lf1.level == lf2.level
            assert len(lf1.records) == len(lf2.records)
            for r1, r2 in zip(lf1.records, lf2.records):
                assert r1.interp is None
                assert np.array_equal(r1.rd, r2.rd)
                assert np.array_equal(r1.sk, r2.sk)
                assert np.array_equal(r1.factor.lower, r2.factor.lower)
                assert np.array_equal(r1.coupling, r2.coupling)
        assert np.array_equal(f_skip.top_idx, f_mf.top_idx)
        assert np.array_equal(f_skip.top.lower, f_mf.top.lower)

    @pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9])
    def test_dense_error_within_100eps(self, eps):
        g = build_grid(2, 16, 4)
        a = assemble(g, high_contrast_field(g, seed=5))
        dense = a.to_dense()
        f = factor_hifde(a, g, eps)
        err = np.linalg.norm(dense - f.apply(np.eye(f.n)), 2) / np.linalg.norm(dense, 2)
        assert err <= 100 * eps

    def test_compression_reduces_top_block(self):
        g, a, _ = laplace(2, 64, 4)
        f_h = factor_hifde(a, g, 1e-6)
        g2, a2, _ = laplace(2, 64, 4)
        f_m = factor_mf(a2, g2)
        assert f_h.metrics["s_top"] < f_m.metrics["s_top"]
        assert f_h.metrics["m_f_bytes"] < f_m.metrics["m_f_bytes"]

    def test_metrics_fields(self):
        g, a, _ = laplace(2, 16, 2)
        f = factor_hifde(a, g, 1e-9)
        assert f.metrics["m_f_bytes"] == f.storage_bytes() == 8 * (
            f.top.nfloats() + sum(lf.nfloats() for lf in f.levels))
        assert f.metrics["t_f_seconds"] > 0
        levels = [tag for tag, _ in f.metrics["active_trace"][1:]]
        assert levels == [lf.level for lf in f.levels]


class TestDenseTail:
    @pytest.mark.parametrize("example, n, algo, tag, order", [
        # output bound 0.467 at level 1, against 0.043 at level 0
        (6, 16, "hifde3x", 1.0, 631), (6, 16, "mf", 1.0, 631),
        # 0.321 at level 4, against 0.075 and 0.065 at levels 3 and 3.5
        (1, 256, "hifde", 4.0, 777),
    ])
    def test_the_level_that_goes_dense(self, example, n, algo, tag, order):
        p = make_problem(example, n)
        a = assemble(p.grid, p.field)
        spd = example == 1
        f = factor_mf(a, p.grid, spd=spd) if algo == "mf" else \
            (factor_hifde3x if algo == "hifde3x" else factor_hifde)(a, p.grid, 1e-6, spd=spd)
        assert (f.metrics["dense_from"], f.metrics["dense_order"]) == (tag, order)
        assert (tag, order) in f.metrics["active_trace"]


class TestHifde3d:
    def test_hifde3_dense_error(self):
        g, a, csr = laplace(3, 8, 2)
        f = factor_hifde(a, g, 1e-6)
        dense = csr.toarray()
        err = np.linalg.norm(dense - f.apply(np.eye(f.n)), 2) / np.linalg.norm(dense, 2)
        assert err <= 100 * 1e-6

    @pytest.mark.parametrize("skip", [0, 1])
    def test_hifde3x_dense_error(self, skip):
        g, a, csr = laplace(3, 8, 2)
        f = factor_hifde3x(a, g, 1e-9, skip_levels=skip)
        dense = csr.toarray()
        err = np.linalg.norm(dense - f.apply(np.eye(f.n)), 2) / np.linalg.norm(dense, 2)
        assert err <= 1e-7
        f.check()

    def test_hifde3x_near_exact_limit(self):
        g, a, csr = laplace(3, 8, 2)
        f = factor_hifde3x(a, g, 1e-15)
        dense = csr.toarray()
        err = np.linalg.norm(dense - f.apply(np.eye(f.n)), 2) / np.linalg.norm(dense, 2)
        assert err <= 1e-11

    def test_hifde3x_rejects_2d(self):
        g, a, _ = laplace(2, 8, 2)
        with pytest.raises(ValueError):
            factor_hifde3x(a, g, 1e-6)

    def test_hifde3x_fractional_tags(self):
        g, a, _ = laplace(3, 8, 2)
        f = factor_hifde3x(a, g, 1e-9, skip_levels=0)
        tags = [lf.level for lf in f.levels]
        assert tags == sorted(tags)
        assert any(abs(t - round(t)) > 0.2 for t in tags)


class TestApply:
    def test_apply_matches_sparse_matvec(self):
        g, a, csr = laplace(2, 32, 4)
        f = factor_mf(a, g)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(g.ndof)
        ax = csr @ x
        assert np.linalg.norm(f.apply(x) - ax) <= 1e-12 * np.linalg.norm(ax)

    def test_apply_zero(self):
        g, a, _ = laplace(2, 8, 2)
        f = factor_mf(a, g)
        assert not f.apply(np.zeros(g.ndof)).any()

    def test_linearity(self):
        g, a, _ = laplace(2, 8, 2)
        f = factor_hifde(a, g, 1e-6)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, g.ndof))
        lhs = f.apply(2.5 * x - 1.5 * y)
        rhs = 2.5 * f.apply(x) - 1.5 * f.apply(y)
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_operator_symmetry(self):
        g, a, _ = laplace(2, 16, 2)
        f = factor_hifde(a, g, 1e-6)
        rng = np.random.default_rng(2)
        x, y = rng.standard_normal((2, g.ndof))
        assert f.apply(x) @ y == pytest.approx(x @ f.apply(y), rel=1e-11)

    def test_apply_inverse_residual(self):
        g, a, csr = laplace(2, 32, 4)
        f = factor_mf(a, g)
        rng = np.random.default_rng(3)
        b = rng.standard_normal(g.ndof)
        res = np.linalg.norm(csr @ f.apply_inverse(b) - b) / np.linalg.norm(b)
        assert res <= 1e-12

    def test_chain_inverse_roundtrip(self):
        g, a, _ = laplace(2, 16, 2)
        f = factor_hifde(a, g, 1e-9)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(g.ndof)
        assert np.allclose(f.apply_inverse(f.apply(x)), x, atol=1e-9)

    def test_compressed_solve_residual(self):
        g, a, csr = laplace(2, 64, 4)
        f = factor_hifde(a, g, 1e-9)
        b = np.random.default_rng(7).random(g.ndof)
        res = np.linalg.norm(csr @ f.apply_inverse(b) - b) / np.linalg.norm(b)
        assert res <= 1e-5

    def test_spd_mode_all_cholesky_and_positive(self):
        g, a, _ = laplace(2, 32, 4)
        f = factor_hifde(a, g, 1e-9, spd=True)
        for lf in f.levels:
            for rec in lf.records:
                assert rec.factor.mode == "cholesky"
        assert f.top.mode == "cholesky"
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = rng.standard_normal(g.ndof)
            assert f.apply(x) @ x > 0


class TestErrors:
    def test_singular_pivot_propagates(self):
        g = build_grid(2, 4, 2)
        field = constant_field(g, 1.0, 0.0)
        # zero out a leaf-cell diagonal: b_j = -(sum of a)/h^2 at DOF (1,1)
        field.b[0, 0] = -4.0 * 16.0
        a = assemble(g, field)
        with pytest.raises(SingularBlockError, match=r"\(level 0, group 0, 1 DOFs\)") as info:
            factor_mf(a, g, spd=False)
        assert (info.value.level, info.value.group, info.value.block_size) == (0.0, 0, 1)

    def test_indefinite_in_spd_mode(self):
        g = build_grid(2, 4, 2)
        field = constant_field(g, 1.0, 0.0)
        field.b[0, 0] = -1e4
        a = assemble(g, field)
        with pytest.raises(IndefiniteBlockError, match=r"\(level 0, group 0, 1 DOFs\)"):
            factor_mf(a, g, spd=True)

    @pytest.mark.parametrize("algo", ["mf", "hifde"])
    def test_failure_names_its_location(self, algo):
        # Example 3 (Helmholtz) is indefinite; its Cholesky fails in the top block
        problem = make_problem(3, 32)
        a = assemble(problem.grid, problem.field)
        # the per-cell reference fails there too, on a copy it changes
        ref = assemble(problem.grid, problem.field)
        with pytest.raises(IndefiniteBlockError):
            reference_factor(ref, problem.grid, algo, 0.0 if algo == "mf" else 1e-6, spd=True)
        with pytest.raises(IndefiniteBlockError) as info:
            if algo == "mf":
                factor_mf(a, problem.grid, spd=True)
            else:
                factor_hifde(a, problem.grid, 1e-6, spd=True)
        exc = info.value
        # the failed top block is what the reference's matrix still has active
        assert (exc.level, exc.group, exc.block_size) == (None, None, int(ref.active.sum()))
        assert str(exc).endswith(f"not positive definite (top block, {exc.block_size} DOFs)")

    @pytest.mark.parametrize("algo", ["hifde", "hifde3x"])
    @pytest.mark.parametrize("skip", [-1, 1.5], ids=["negative", "not_an_integer"])
    def test_skip_levels_not_a_count(self, algo, skip, monkeypatch):
        # -1 used to factor as 0 does
        def no_level(*args, **kwargs):
            raise AssertionError("a level ran")
        monkeypatch.setattr(driver, "eliminate_level", no_level)
        monkeypatch.setattr(driver, "skeletonize_level", no_level)
        g = build_grid(3, 8, 2) if algo == "hifde3x" else build_grid(2, 16, 2)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        factor = factor_hifde3x if algo == "hifde3x" else factor_hifde
        what = f"skip_levels must be an integer >= 0, got {skip}"
        with pytest.raises(ValueError, match="^" + re.escape(what) + "$"):
            factor(a, g, 1e-6, skip_levels=skip)


class TestBadInput:
    """Input the factorization cannot use raises ValueError, named."""

    @pytest.mark.parametrize("algo", ["mf", "hifde", "hifde3x"])
    @pytest.mark.parametrize("small_matrix", [True, False])
    def test_matrix_and_grid_sizes_differ(self, algo, small_matrix):
        dim = 3 if algo == "hifde3x" else 2
        # 2D n=16 and n=32: 225 and 961 DOFs; 3D n=4 and n=8: 27 and 343
        small, large = (build_grid(dim, n, 2) for n in ((4, 8) if dim == 3 else (16, 32)))
        mat_grid, grid = (small, large) if small_matrix else (large, small)
        a = assemble(mat_grid, constant_field(mat_grid, 1.0, 0.0))
        factor = {"mf": factor_mf, "hifde": lambda a, g: factor_hifde(a, g, 1e-6),
                  "hifde3x": lambda a, g: factor_hifde3x(a, g, 1e-6)}[algo]
        with pytest.raises(ValueError, match=f"matrix of {a.n} DOFs on a grid of {grid.ndof}"):
            factor(a, grid)
        assert a.row_idx[0].size   # the matrix was not consumed

    def test_cells_that_interact(self):
        # an extra coupling (i, i + 2) across the x = 4 separator joins two
        # level-0 cells; eliminating them at once would be wrong
        g, a, csr = laplace(2, 32, 4)
        coords = g.dof_coords()
        i = int(np.flatnonzero((coords == [3, 1]).all(axis=1))[0])
        csr = csr.tolil()
        csr[i, i + 2] = csr[i + 2, i] = 0.5 * csr[i, i + 1]
        cells = interior_cells(g, 0, a.active).cells
        owner = [next(k for k, c in enumerate(cells) if d in c) for d in (i, i + 2)]
        with pytest.raises(ValueError, match=rf"cells {min(owner)} and {max(owner)} of level 0 "
                                             "interact"):
            factor_mf(SparseSymMatrix.from_scipy(csr.tocsr()), g)

    @pytest.mark.parametrize("shape", [(1,), (-1,), (5,), (3, 2), (0, 2, 2), ()])
    def test_apply_input_shape(self, shape):
        # shapes relative to N: (d,) is a vector of length N + d, (d, m) an
        # (N + d, m) block, (d, m, k) a 3-d array, () a scalar
        g, a, _ = laplace(2, 8, 2)
        f = factor_hifde(a, g, 1e-6)
        x = np.ones((f.n + shape[0], *shape[1:])) if shape else np.float64(1.0)
        for op in (f.apply, f.apply_inverse):
            with pytest.raises(ValueError, match=f"length {f.n}"):
                op(x)

    def test_apply_complex_input(self):
        # refused, not cast to its real part with a ComplexWarning
        g, a, _ = laplace(2, 8, 2)
        f = factor_hifde(a, g, 1e-6)
        x = np.ones(f.n) + 1j
        for op in (f.apply, f.apply_inverse):
            for v in (x, np.stack([x, x], axis=1), x.real.astype(complex)):
                with pytest.raises(ValueError, match=r"complex \(complex128\)"):
                    op(v)

    @pytest.mark.parametrize("algo", ["hifde", "hifde3x"])
    @pytest.mark.parametrize("eps", [-1e-6, float("nan"), float("inf")])
    def test_eps_not_finite_and_nonnegative(self, algo, eps, monkeypatch):
        # negative and NaN would be taken as exact rank, inf as rank 0
        def no_level(*args, **kwargs):
            raise AssertionError("a level ran")
        monkeypatch.setattr(driver, "eliminate_level", no_level)
        monkeypatch.setattr(driver, "skeletonize_level", no_level)
        g = build_grid(3, 8, 2) if algo == "hifde3x" else build_grid(2, 16, 2)
        a = assemble(g, constant_field(g, 1.0, 0.0))
        factor = factor_hifde3x if algo == "hifde3x" else factor_hifde
        with pytest.raises(ValueError, match=f"eps must be finite and >= 0, got {eps}"):
            factor(a, g, eps)


class TestSerialization:
    @pytest.mark.parametrize("maker", ["mf", "hifde", "hifde3x"])
    def test_roundtrip_bit_exact(self, maker, tmp_path):
        if maker == "hifde3x":
            g, a, _ = laplace(3, 8, 2)
            f = factor_hifde3x(a, g, 1e-6, spd=False)
        elif maker == "hifde":
            g, a, _ = laplace(2, 16, 4)
            f = factor_hifde(a, g, 1e-6)
        else:
            g, a, _ = laplace(2, 16, 4)
            f = factor_mf(a, g)
        path = tmp_path / "factor.bin"
        save_factor(f, path)
        f2 = load_factor(path)
        assert (f2.n, f2.dim, f2.spd, f2.eps) == (f.n, f.dim, f.spd, f.eps)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(f.n)
        assert np.array_equal(f.apply(x), f2.apply(x))
        assert np.array_equal(f.apply_inverse(x), f2.apply_inverse(x))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\0" * 64)
        with pytest.raises(ValueError):
            load_factor(path)

    @pytest.mark.parametrize("as_str", [False, True])
    def test_writes_exactly_the_given_path(self, tmp_path, as_str):
        g, a, _ = laplace(2, 8, 2)
        f = factor_hifde(a, g, 1e-6)
        path = tmp_path / "factor-1.gldl"
        save_factor(f, str(path) if as_str else path)
        assert [p.name for p in tmp_path.iterdir()] == ["factor-1.gldl"]
        assert load_factor(path).n == f.n

    @pytest.mark.parametrize("spd", [True, False])
    def test_block_mode_follows_spd(self, tmp_path, spd):
        g, a, _ = laplace(2, 16, 4)
        f = factor_hifde(a, g, 1e-6, spd=spd)
        path = tmp_path / "factor.gldl"
        save_factor(f, path)
        mode = "cholesky" if spd else "ldl"
        for fac in (f, load_factor(path)):
            assert fac.spd == spd
            records = [rec for lf in fac.levels for rec in lf.records]
            assert any(len(rec.rd) == 0 for rec in records)
            assert all(rec.factor.mode == mode for rec in records)
            assert fac.top.mode == mode


class TestCorruptedFile:
    """load_factor refuses a damaged or inconsistent file with a ValueError
    that names the problem."""

    @pytest.fixture
    def saved(self, tmp_path):
        g, a, _ = laplace(2, 16, 4)
        f = factor_hifde(a, g, 1e-6)
        path = tmp_path / "factor.gldl"
        save_factor(f, path)
        return f, path

    @staticmethod
    def rewrite(path, **changes):
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        arrays.update(changes)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)

    def test_truncated(self, saved):
        _, path = saved
        path.write_bytes(path.read_bytes()[:-200])
        with pytest.raises(ValueError, match="not a readable factor archive"):
            load_factor(path)

    def test_flipped_payload_bit(self, saved):
        _, path = saved
        raw = bytearray(path.read_bytes())
        with np.load(path) as z:
            lower = z["lower"].tobytes()
        at = raw.find(lower) + len(lower) // 2
        raw[at] ^= 0x10
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="CRC-32"):
            load_factor(path)

    def test_version_1_file(self, tmp_path):
        path = tmp_path / "old.gldl"
        path.write_bytes(b"GLDL" + (1).to_bytes(4, "little") + b"\0" * 64)
        with pytest.raises(ValueError, match="version-1"):
            load_factor(path)

    def test_index_out_of_range(self, saved):
        f, path = saved
        with np.load(path) as z:
            sk = z["sk"].copy()
        sk[0] = f.n
        self.rewrite(path, sk=sk)
        with pytest.raises(ValueError, match=r"sk index outside \[0, "):
            load_factor(path)

    def test_level_tags_not_increasing(self, saved):
        _, path = saved
        with np.load(path) as z:
            tags = z["level_tags"].copy()
        tags[1] = tags[0]
        self.rewrite(path, level_tags=tags)
        with pytest.raises(ValueError, match="level tags not strictly increasing"):
            load_factor(path)

    def test_dofs_not_covered_once(self, saved):
        _, path = saved
        with np.load(path) as z:
            rd = z["rd"].copy()
        rd[1] = rd[0]
        self.rewrite(path, rd=rd)
        with pytest.raises(ValueError, match="exactly once"):
            load_factor(path)

    def test_pivot_past_its_block(self, saved):
        # a nonzero subdiagonal at a block's last row would start a 2x2
        # pivot outside the block
        _, path = saved
        with np.load(path) as z:
            sub, rd_len = z["sub"].copy(), z["rd_len"]
        sub[int(rd_len[rd_len > 0][0]) - 1] = 0.5
        self.rewrite(path, sub=sub)
        with pytest.raises(ValueError, match="2x2 pivot runs past its block"):
            load_factor(path)

    @staticmethod
    def overlapping_pivots(z):
        # rows i, i + 1 and rows i + 1, i + 2 of one block as 2x2 pivots
        rd_len, sub = z["rd_len"], z["sub"].copy()
        i = int(rd_len[:np.argmax(rd_len >= 3)].sum())
        sub[i] = sub[i + 1] = 0.5
        return dict(sub=sub)

    @pytest.mark.parametrize("change, what", [
        (lambda z: dict(n=np.array([z["n"]] * 2)), "member n is not a scalar"),
        (lambda z: dict(version=np.array([2, 2])), "member version is not a scalar"),
        (lambda z: dict(spd=z["spd"][None]), "member spd is not a scalar"),
        (lambda z: dict(level_tags=z["level_tags"][None]), "member level_tags is not a 1-D array"),
        (lambda z: dict(top_idx=np.int64(0)), "member top_idx is not a 1-D array"),
        (lambda z: dict(eps=np.float64("nan")), "eps nan is not finite and >= 0"),
        (lambda z: dict(eps=np.float64(-1e-6)), "eps -1e-06 is not finite and >= 0"),
        (lambda z: dict(level_tags=np.r_[z["level_tags"][:-1], np.nan]), "level tags not finite"),
        (overlapping_pivots, "two 2x2 pivots overlap"),
    ], ids=["n_array", "version_array", "spd_array", "tags_2d", "top_idx_scalar", "eps_nan",
            "eps_negative", "tag_nan", "overlapping_pivots"])
    def test_malformed_member(self, saved, change, what):
        _, path = saved
        with np.load(path) as z:
            changes = change(z)
        self.rewrite(path, **changes)
        with pytest.raises(ValueError, match=re.escape(what)):
            load_factor(path)

    @pytest.mark.parametrize("key", ["rd", "perm", "level_sizes"])
    def test_integer_array_of_another_dtype(self, saved, key):
        _, path = saved
        with np.load(path) as z:
            value = z[key].astype(float)
        self.rewrite(path, **{key: value})
        with pytest.raises(ValueError, match="array dtypes are not those save_factor writes"):
            load_factor(path)
