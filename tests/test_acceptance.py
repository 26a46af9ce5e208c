"""End-to-end acceptance checks.

Each test evaluates one criterion at its stated tolerance and records a single
PASS/FAIL line (see the terminal summary section "acceptance criteria").
Monte Carlo criteria run at fixed seeds; the bands account for sampling noise.
"""

import math

import numpy as np
import pytest

from fpdrift import (
    BmEstimatorCache,
    CrossCorrelation,
    ExperimentConfig,
    FbmEstimatorCache,
    Grid,
    HurstParams,
    check_omega,
    coverage_experiment,
    dmax_from_lower_bound,
    dmax_ou,
    drift_model,
    fbm_covariance,
    fixed_point,
    run_experiment,
    run_trials,
    sample_fbm_bundle,
    threshold_sweep,
)
from fpdrift.cli import main as cli_main

from tests.conftest import ACCEPTANCE_LINES, solution_bundle
from tests.test_estimators import (
    oracle_bm,
    oracle_dn,
    oracle_in,
    oracle_phi,
    oracle_ybar,
)

WORKERS = 4

# (model, H, horizon, sigma, acceptance band for the mean error)
TABLE_CELLS = [
    ("model1", 0.7, 0.1, 0.25, (0.019, 0.058)),
    ("model1", 0.9, 0.1, 0.25, (0.007, 0.028)),
    ("model2", 0.7, 0.75, 1.0, (0.024, 0.073)),
    ("model2", 0.9, 0.75, 1.0, (0.009, 0.037)),
]


def record(criterion: int, name: str, ok: bool, detail: str) -> bool:
    verdict = "PASS" if ok else "FAIL"
    ACCEPTANCE_LINES.append(f"criterion {criterion:2d} ({name}): {verdict} — {detail}")
    return ok


@pytest.fixture(scope="module")
def table_results():
    """Mean errors of the four reference cells, shared by criteria 1 and 2."""
    results = {}
    for model, h, horizon, sigma, band in TABLE_CELLS:
        cfg = ExperimentConfig(model=model, hurst=h, horizon=horizon, sigma=sigma,
                               n_max=50, replications=100, seed=7, eval_points=(50,))
        report, _ = run_experiment(cfg, workers=WORKERS)
        results[(model, h)] = (report.mean_error, band)
    return results


def test_criterion_1_error_table(table_results):
    details = []
    ok = True
    for (model, h), (mean, band) in table_results.items():
        cell_ok = band[0] <= mean <= band[1]
        ok = ok and cell_ok
        details.append(f"{model}/H={h}: {mean:.4f} in [{band[0]}, {band[1]}]"
                       + ("" if cell_ok else " VIOLATED"))
    assert record(1, "error table bands", ok, "; ".join(details))


def test_criterion_2_hurst_ordering(table_results):
    ok = True
    details = []
    for model in ("model1", "model2"):
        lo_h, hi_h = table_results[(model, 0.7)][0], table_results[(model, 0.9)][0]
        ok = ok and lo_h > hi_h
        details.append(f"{model}: err(H=0.7)={lo_h:.4f} > err(H=0.9)={hi_h:.4f}")
    assert record(2, "H=0.7 error exceeds H=0.9", ok, "; ".join(details))


def test_criterion_3_fixed_point_certificate():
    drift = drift_model("model2")
    hurst = HurstParams(h=0.9)
    max_resid = 0.0
    max_ratio = 0.0
    max_bisect_gap = 0.0
    checked = 0
    rng = np.random.default_rng(31)
    while checked < 20:
        bundle = solution_bundle(model="model2", h=0.9, n=10,
                                 seed=int(rng.integers(1 << 30)))
        cache = FbmEstimatorCache(bundle, drift, hurst, 1.0)
        stats = cache.stats(10)
        if not check_omega(stats, hurst, 1.0, 1.0, 0.75, 0.5):
            continue
        checked += 1
        phi = cache.phi(10, stats)
        r_n, _, residual = fixed_point(phi, 200, 1e-14)
        max_resid = max(max_resid, residual)
        pts = rng.uniform(-1.0, 2.0, size=10)
        for a in pts[:5]:
            for b in pts[5:]:
                max_ratio = max(max_ratio, abs(phi(a) - phi(b)) / abs(a - b))
        lo, hi = -1.0, 1.0
        while hi - phi(hi) < 0:
            hi *= 2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid - phi(mid) < 0:
                lo = mid
            else:
                hi = mid
        max_bisect_gap = max(max_bisect_gap, abs(r_n - 0.5 * (lo + hi)))
    ok = max_resid <= 1e-10 and max_ratio <= 0.5 + 1e-6 and max_bisect_gap <= 1e-8
    assert record(3, "fixed-point certificate", ok,
                  f"max residual {max_resid:.2e} <= 1e-10, "
                  f"max Lipschitz ratio {max_ratio:.4f} <= 0.5+1e-6, "
                  f"max bisection gap {max_bisect_gap:.2e} <= 1e-8 "
                  f"on {checked} instances")


def test_criterion_4_small_grid_oracles():
    worst = 0.0
    for steps in (2, 3):
        for n in (1, 2):
            for model in ("model1", "model2"):
                h, sigma = 0.8, 0.5
                bundle = solution_bundle(model=model, h=h, sigma=sigma,
                                         horizon=0.5, steps=steps, n=n,
                                         seed=100 * steps + n)
                x, t, T = bundle.values, bundle.grid.nodes, bundle.grid.horizon
                drift = drift_model(model)
                cache = FbmEstimatorCache(bundle, drift, HurstParams(h=h), sigma)
                stats = cache.stats()

                def rel(a, b):
                    return abs(a - b) / max(abs(b), 1e-300)

                worst = max(worst, rel(stats.d_n, oracle_dn(x, t, T, drift.b)))
                worst = max(worst, rel(stats.i_n, oracle_in(
                    x, T, drift.antiderivative, stats.d_n)))
                worst = max(worst, rel(
                    cache.phi(n, stats)(0.3),
                    oracle_phi(0.3, x, t, T, drift.b_prime, h, sigma,
                               stats.d_n, stats.i_n)))
                worst = max(worst, rel(
                    cache.ybar(n),
                    oracle_ybar(x, t, T, drift.b, drift.b_prime, h, sigma)))
            bm_bundle = solution_bundle(model="model2", h=0.5, sigma=1.0,
                                        horizon=0.5, steps=steps, n=n, seed=4)
            est = BmEstimatorCache(bm_bundle, drift_model("model2"), sigma=1.0).estimate()
            want = oracle_bm(bm_bundle.values, bm_bundle.grid.nodes,
                             bm_bundle.grid.horizon, drift_model("model2").b)
            worst = max(worst, abs(est.theta_hat - want) / abs(want))
    ok = worst <= 1e-12
    assert record(4, "small-grid oracle equivalence", ok,
                  f"worst relative error {worst:.2e} <= 1e-12")


def test_criterion_5_fbm_exactness():
    n_samples = 200_000
    grid = Grid(horizon=1.0, steps=8)
    details = []
    ok = True
    spots = [(0, 0), (1, 3), (2, 5), (3, 3), (4, 1), (5, 7), (6, 2), (7, 7),
             (0, 7), (2, 2)]
    for h in (0.6, 0.75, 0.9):
        hp = HurstParams(h=h)
        rng = np.random.default_rng(int(h * 1000))
        bundle = sample_fbm_bundle(hp, grid, CrossCorrelation.identity(n_samples), rng)
        v = bundle.values[:, 1:]
        cov = fbm_covariance(hp, grid)
        worst_z = 0.0
        for i, j in spots:
            emp = float(v[:, i] @ v[:, j]) / n_samples
            # Var(B_s B_t) = R(s,s) R(t,t) + R(s,t)^2 for centered Gaussians.
            se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n_samples)
            worst_z = max(worst_z, abs(emp - cov[i, j]) / se)
        ok = ok and worst_z <= 4.0
        details.append(f"H={h}: max |z| = {worst_z:.2f}")
    # H = 1/2: increment variance = mesh.
    rng = np.random.default_rng(500)
    bundle = sample_fbm_bundle(HurstParams(h=0.5), grid,
                               CrossCorrelation.identity(n_samples), rng)
    incr = np.diff(bundle.values, axis=1)
    var = incr.var(axis=0)
    se = grid.mesh * math.sqrt(2.0 / n_samples)
    z_half = float(np.abs(var - grid.mesh).max() / se)
    ok = ok and z_half <= 4.0
    details.append(f"H=0.5 increments: max |z| = {z_half:.2f}")
    assert record(5, "fBm covariance exactness", ok,
                  "; ".join(details) + " (all <= 4 SE)")


def test_criterion_6_consistency_rate():
    cfg = ExperimentConfig(model="model2", hurst=0.75, horizon=0.75, sigma=1.0,
                           n_max=160, replications=20, seed=11,
                           eval_points=(10, 40, 160))
    trials = run_trials(cfg, workers=WORKERS)
    log_n = np.log([10.0, 40.0, 160.0])
    slopes = [np.polyfit(log_n, np.log(np.abs(t["estimate"] - cfg.theta0)), 1)[0]
              for t in trials]
    slope = float(np.median(slopes))
    ok = -0.7 <= slope <= -0.3
    assert record(6, "N^(-1/2) consistency rate", ok,
                  f"median log-log slope {slope:.3f} in [-0.7, -0.3]")


def test_criterion_7_aci_coverage():
    bm_cfg = ExperimentConfig(model="model2", hurst=0.5, horizon=0.75, sigma=1.0,
                              mode="bm", n_max=200, steps=200,
                              replications=200, seed=3)
    bm_cov = coverage_experiment(bm_cfg, workers=WORKERS).coverage
    fbm_cfg = ExperimentConfig(model="model2", hurst=0.9, horizon=0.75, sigma=1.0,
                               n_max=50, replications=100, seed=7)
    fbm_cov = coverage_experiment(fbm_cfg, workers=WORKERS).coverage
    ok = bm_cov >= 0.90 and fbm_cov >= 0.90
    assert record(7, "confidence-interval coverage", ok,
                  f"bm: {bm_cov:.3f} >= 0.90; fbm: {fbm_cov:.3f} >= 0.90")


def test_criterion_8_threshold_behavior():
    settings = [
        ("model1", 0.1, 0.25, dmax_from_lower_bound(math.pi**2 / 4), 0.5, 0.1, 31),
        ("model2", 0.75, 1.0, dmax_ou(5.0, 1.0, 0.75), 1.0, 0.5, 31),
    ]
    ok = True
    details = []
    for model, horizon, sigma, dmax, start, step, count in settings:
        grid = [start + step * k for k in range(count)]
        cfg = ExperimentConfig(model=model, hurst=0.9, horizon=horizon,
                               sigma=sigma, n_max=15, replications=100, seed=2)
        curve, _ = threshold_sweep(cfg, [0.0, dmax] + grid, 15, workers=WORKERS)
        err0 = curve[0][1]
        err_dmax = curve[1][1]
        err_top = curve[-1][1]
        flat = abs(err_dmax - err0) <= 0.10 * err0
        exploded = err_top >= 5.0 * err0
        ok = ok and flat and exploded
        details.append(f"{model}: err(dmax)={err_dmax:.4f} vs err(0)={err0:.4f}, "
                       f"err(top)={err_top:.4f} ({err_top / err0:.1f}x)")
    assert record(8, "threshold sweep shape", ok, "; ".join(details))


def test_criterion_9_threshold_formulas():
    a = dmax_from_lower_bound(math.pi**2 / 4)
    b = dmax_ou(5.0, 1.0, 0.75)
    ok = a == math.pi**2 / 8 and b == 12.5 * math.exp(-1.5)
    assert record(9, "threshold formulas", ok,
                  f"pi^2/8 = {a:.10f} (~1.2337), 12.5 e^-1.5 = {b:.10f} (~2.7893)")


def test_criterion_10_worker_determinism(tmp_path):
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        code = cli_main([
            "experiment", "--set", "model=model2", "--set", "H=0.9",
            "--set", "replications=8", "--set", "n_max=10",
            "--seed", "77", "--out", str(out), "--workers", str(workers),
        ])
        assert code == 0
        outputs[workers] = ((out / "summary.csv").read_bytes(),
                            (out / "trajectories.csv").read_bytes())
    ok = outputs[1] == outputs[8]
    assert record(10, "worker-count determinism", ok,
                  "summary.csv and trajectories.csv byte-identical "
                  "for --workers 1 and --workers 8")
