"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The scaling and growth
criteria share one sweep fixture; expect the full module to take several
minutes (dominated by the n=1024 factorizations).
"""

import time

import numpy as np
import pytest

from hifde import (CoeffField, assemble, build_grid, constant_field, factor_hifde,
                   factor_mf, run_example, smoothed_staggered_noise)

from oracles import (check_elimination_properties, check_id_properties,
                     check_skeletonization_properties)


def report(num, detail):
    print(f"\nACCEPTANCE {num:02d} PASS: {detail}")


@pytest.fixture(scope="module")
def sweep_2d():
    """hifde (eps=1e-9) and mf factorizations of Example 1 over doubling n.
    A factor of n <= 256 takes well under a second, so one host pause moves
    its time by a large part: those sizes take the least of 3 factor times,
    from 3 rounds over both sizes, so that one slow spell of the host does
    not spoil all 3 times of a size."""
    out = {}
    for n in (128, 256) * 3 + (512, 1024):
        g = build_grid(2, n, 4)
        field = constant_field(g, 1.0, 0.0)
        f = factor_hifde(assemble(g, field), g, 1e-9, spd=True).metrics
        m = factor_mf(assemble(g, field), g, spd=True).metrics
        for key, r in ((("hifde", n), f), (("mf", n), m)):
            t = min(r["t_f_seconds"], out.get(key, (0, np.inf))[1])
            out[key] = (r["s_top"], t)
    return out


def test_criterion_01_mf_exactness():
    t0 = time.perf_counter()
    r2 = run_example(1, "mf", 64, seed=0)
    r3 = run_example(4, "mf", 16, seed=0)
    elapsed = time.perf_counter() - t0
    assert r2.status == "ok" and r3.status == "ok"
    assert r2.e_a <= 1e-12 and r3.e_a <= 1e-12
    assert r2.n_i == 1 and r3.n_i == 1
    assert elapsed < 5.0
    report(1, f"MF exact: 2D e_a={r2.e_a:.1e}, 3D e_a={r3.e_a:.1e}, "
              f"n_i=1/1, {elapsed:.1f}s < 5s")


def test_criterion_02_dense_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    shapes = [(8, 2), (8, 4), (12, 3), (16, 2), (16, 4), (20, 5),
              (12, 3), (16, 4), (20, 5), (8, 2)]
    worst = 0.0
    for i, (n, m) in enumerate(shapes):
        g = build_grid(2, n, m)
        smooth = smoothed_staggered_noise(g, seed=int(rng.integers(1 << 30)))
        a_arrays = tuple(0.5 + 2.0 * s for s in smooth)
        b = rng.random((n - 1, n - 1))
        field = CoeffField(a_arrays, b)
        for eps in (1e-3, 1e-6, 1e-9):
            a = assemble(g, field)
            dense = a.to_dense()
            f = factor_hifde(a, g, eps, spd=True)
            err = np.linalg.norm(dense - f.apply(np.eye(f.n)), 2) / np.linalg.norm(dense, 2)
            worst = max(worst, err / eps)
            assert err <= 100 * eps, f"instance {i} eps={eps:g}: {err:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(2, f"10 random instances x 3 tolerances: worst err/eps={worst:.2f} "
              f"<= 100, {elapsed:.1f}s < 30s")


def test_criterion_03_accuracy_trend():
    t0 = time.perf_counter()
    results = []
    for eps in (1e-6, 1e-9, 1e-12):
        r = run_example(1, "hifde", 256, eps=eps, seed=0)
        assert r.status == "ok"
        assert r.e_a <= 50 * eps, f"eps={eps:g}: e_a={r.e_a:.2e}"
        results.append((eps, r.e_a))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(3, "e_a tracks eps: " +
              ", ".join(f"{ea:.1e}@{eps:g}" for eps, ea in results) +
              f", {elapsed:.1f}s < 2min")


def test_criterion_04_preconditioner_quality():
    t0 = time.perf_counter()
    r = run_example(1, "hifde", 512, eps=1e-6, seed=0)
    elapsed = time.perf_counter() - t0
    assert r.status == "ok"
    assert r.n_i <= 16
    assert elapsed < 300.0
    report(4, f"511^2 DOFs at eps=1e-6: pcg n_i={r.n_i} <= 16, "
              f"{elapsed:.1f}s < 5min")


def test_criterion_05_high_contrast():
    stats = []
    for seed in (0, 1, 2):
        r = run_example(2, "hifde", 256, eps=1e-9, seed=seed)
        assert r.status == "ok", f"seed {seed}: {r.status}"
        assert r.n_i <= 8 and r.e_a <= 1e-7
        assert r.e_s <= 1e-2   # solve error amplified by the contrast ratio
        stats.append((r.n_i, r.e_a))
    report(5, "quantized high contrast, 3 seeds: " +
              ", ".join(f"n_i={ni} e_a={ea:.1e}" for ni, ea in stats))


def test_criterion_06_helmholtz_2d():
    r = run_example(3, "hifde", 256, eps=1e-9, seed=0)
    assert r.status == "ok"
    assert r.kappa == pytest.approx(8.0)
    assert r.n_i <= 8
    report(6, f"Helmholtz 32 DOFs/wavelength (kappa={r.kappa:g}): "
              f"gmres n_i={r.n_i} <= 8, e_a={r.e_a:.1e}")


def test_criterion_07_3d_variants():
    r3 = run_example(4, "hifde", 32, eps=1e-6, seed=0)
    rx = run_example(4, "hifde3x", 32, eps=1e-6, seed=0)
    for r, ref in ((r3, 1568), (rx, 931)):
        assert r.status == "ok"
        assert r.e_a <= 1e-5
        assert r.n_i <= 6
        assert ref / 3 <= r.s_L <= 3 * ref, f"s_L={r.s_L} not within 3x of {ref}"
    report(7, f"31^3 DOFs: face-only s_L={r3.s_L} (ref 1568), with-edges "
              f"s_L={rx.s_L} (ref 931), e_a={r3.e_a:.1e}/{rx.e_a:.1e}, "
              f"n_i={r3.n_i}/{rx.n_i}")


def test_criterion_08_skeleton_growth(sweep_2d):
    h = [sweep_2d[("hifde", n)][0] for n in (128, 256, 512)]
    m = [sweep_2d[("mf", n)][0] for n in (128, 256, 512)]
    h_ratios = [b / a for a, b in zip(h, h[1:])]
    m_ratios = [b / a for a, b in zip(m, m[1:])]
    assert all(r <= 1.6 for r in h_ratios), f"hifde growth {h_ratios}"
    assert all(r >= 1.9 for r in m_ratios), f"mf growth {m_ratios}"
    report(8, f"top-block growth per doubling: compressed {h} "
              f"(ratios {[f'{r:.2f}' for r in h_ratios]} <= 1.6), "
              f"mf {m} (ratios >= 1.9)")


def test_criterion_09_scaling_ratio(sweep_2d):
    ns = (128, 256, 512, 1024)
    h = [sweep_2d[("hifde", n)][1] for n in ns]
    m = [sweep_2d[("mf", n)][1] for n in ns]
    h_ratios = [b / a for a, b in zip(h, h[1:])]
    m_ratios = [b / a for a, b in zip(m, m[1:])]
    assert all(r <= 5.5 for r in h_ratios), f"hifde t_f ratios {h_ratios}"
    assert all(r <= 8.0 for r in m_ratios), f"mf t_f ratios {m_ratios}"
    report(9, "t_f per n-doubling: compressed "
              f"{[f'{r:.2f}' for r in h_ratios]} <= 5.5, "
              f"mf {[f'{r:.2f}' for r in m_ratios]} <= 8")


def test_criterion_10_spd_preservation():
    g = build_grid(2, 128, 4)
    a = assemble(g, constant_field(g, 1.0, 0.0))
    f = factor_hifde(a, g, 1e-9, spd=True)
    for lf in f.levels:
        for rec in lf.records:
            assert rec.factor.mode == "cholesky"
    assert f.top.mode == "cholesky"
    rng = np.random.default_rng(10)
    quad_min = np.inf
    for _ in range(100):
        x = rng.standard_normal(f.n)
        quad_min = min(quad_min, f.apply(x) @ x)
    assert quad_min > 0
    report(10, f"every pivot block Cholesky-factored; min quadratic form "
               f"over 100 random vectors = {quad_min:.3e} > 0")


def test_criterion_11_property_suites():
    t0 = time.perf_counter()
    check_id_properties(200)
    check_elimination_properties(200)
    check_skeletonization_properties(200)
    report(11, f"randomized property suites: 200 ID + 200 elimination + "
               f"200 skeletonization cases vs dense oracles, "
               f"{time.perf_counter() - t0:.1f}s")
