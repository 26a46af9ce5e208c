import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpdrift import (
    BmEstimatorCache,
    DegenerateStatisticsError,
    DivergenceError,
    FbmEstimatorCache,
    Grid,
    HurstParams,
    PathBundle,
    SufficientStats,
    check_omega,
    dmax_from_lower_bound,
    dmax_ou,
    drift_model,
    fixed_point,
    iteration_schedule,
    normal_quantile,
)
from fpdrift.estimators import FBM_ROW, _kernels, _phi_lags, _phi_rows, _prefix_sums
from tests.conftest import solution_bundle


# ---------------------------------------------------------------------------
# Brute-force oracles: plain Python loops, no vectorization or factoring.
# ---------------------------------------------------------------------------

def oracle_dn(x, t, T, b):
    n, total = x.shape[0], 0.0
    dt = t[1] - t[0]
    for i in range(n):
        for j in range(len(t) - 1):
            total += b(x[i, j]) ** 2 * dt
    return total / (n * T)


def oracle_in(x, T, anti, d_n):
    n, total = x.shape[0], 0.0
    for i in range(n):
        total += anti(x[i, -1]) - anti(x[i, 0])
    return total / (n * T * d_n)


def oracle_phi(r, x, t, T, b_prime, h, sigma, d_n, i_n):
    n, nu = x.shape[0], len(t) - 1
    dt = t[1] - t[0]
    alpha = h * (2 * h - 1)
    total = 0.0
    for i in range(n):
        c = [0.0]
        for j in range(1, nu + 1):
            c.append(c[-1] + b_prime(x[i, j - 1]) * dt)
        for j in range(1, nu + 1):
            for l in range(j):
                total += (b_prime(x[i, j])
                          * math.exp((r + i_n) * (c[j] - c[l]))
                          * (t[j] - t[l]) ** (2 * h - 2) * dt * dt)
    return -alpha * sigma**2 / (n * T * d_n) * total


def oracle_ybar(x, t, T, b, b_prime, h, sigma):
    """Quadruple sum written out in full, O(nu^4)."""
    n, nu = x.shape[0], len(t) - 1
    dt = t[1] - t[0]
    alpha = h * (2 * h - 1)
    total = 0.0
    for i in range(n):
        double = 0.0
        for j in range(1, nu + 1):
            for k in range(1, nu + 1):
                if j == k:
                    continue
                double += (abs(b(x[i, j])) * abs(b(x[i, k]))
                           * abs(t[j] - t[k]) ** (2 * h - 2) * dt * dt)
        quad = 0.0
        for j in range(1, nu + 1):
            for k in range(1, nu + 1):
                for l in range(j):
                    for m in range(k):
                        quad += (b_prime(x[i, j]) * b_prime(x[i, k])
                                 * (t[j] - t[l]) ** (2 * h - 2)
                                 * (t[k] - t[m]) ** (2 * h - 2) * dt**4)
        total += alpha * double + alpha**2 * sigma**2 * quad
    return sigma**2 / (n * T**2) * total


def oracle_bm(x, t, T, b):
    n = x.shape[0]
    dt = t[1] - t[0]
    v = d = 0.0
    for i in range(n):
        for j in range(len(t) - 1):
            v += b(x[i, j]) * (x[i, j + 1] - x[i, j])
            d += b(x[i, j]) ** 2 * dt
    return (v / (n * T)) / (d / (n * T))


@pytest.mark.parametrize("steps,n", [(2, 1), (2, 2), (3, 1), (3, 2), (12, 3)])
@pytest.mark.parametrize("model", ["model1", "model2"])
def test_small_grid_oracles(steps, n, model):
    h, sigma = 0.8, 0.5
    bundle = solution_bundle(model=model, h=h, sigma=sigma, horizon=0.5,
                             steps=steps, n=n, seed=steps * 10 + n)
    t, T = bundle.grid.nodes, bundle.grid.horizon
    drift = drift_model(model)
    cache = FbmEstimatorCache(bundle, drift, HurstParams(h=h), sigma)

    # Every prefix m <= n, as the Monte Carlo engine evaluates them.
    for m in range(1, n + 1):
        x = bundle.values[:m]
        stats = cache.stats(m)
        d_n, i_n = stats.d_n, stats.i_n
        assert d_n == pytest.approx(oracle_dn(x, t, T, drift.b), rel=1e-12)
        assert i_n == pytest.approx(oracle_in(x, T, drift.antiderivative, d_n), rel=1e-12)

        phi = cache.phi(m, stats)
        # On model2 span(C) = T = 0.5: at r = 2000 the factors e^{+-sC} are only
        # finite once C is centred, and r = 3000 is summed pair by pair. Phi is
        # ~1e-40 there, so approx's default abs floor of 1e-12 is switched off.
        for r in (0.0, -0.3, 0.7, 2000.0, 3000.0):
            want = oracle_phi(r, x, t, T, drift.b_prime, h, sigma, d_n, i_n)
            assert phi(r) == pytest.approx(want, rel=1e-12, abs=0.0)

        got_y = cache.ybar(m)
        want_y = oracle_ybar(x, t, T, drift.b, drift.b_prime, h, sigma)
        assert got_y == pytest.approx(want_y, rel=1e-12)


def chunk_bundle(bundles):
    """The bundles as the consecutive blocks of one chunk's bundle."""
    return PathBundle(bundles[0].grid, np.concatenate([b.values for b in bundles]), "solution")


def _caches(mode, bundle, trials=1):
    drift = drift_model("model1")
    if mode == "fbm":
        return FbmEstimatorCache(bundle, drift, HurstParams(h=0.7), 0.25, trials)
    return BmEstimatorCache(bundle, drift, sigma=0.25, trials=trials)


@pytest.mark.parametrize("mode,h", [("fbm", 0.7), ("bm", 0.5)])
def test_cache_rows_do_not_depend_on_the_bundle_storage(mode, h):
    # Path-major, time-major (as the Euler scheme stores it) and a column block of
    # a wider array (as a bundle CSV is read): the same values, the same bits.
    bundle = solution_bundle(model="model1", h=h, horizon=0.1, sigma=0.25, steps=150, n=9)
    wide = np.zeros((bundle.grid.steps + 1, 11))
    wide[:, 1:10] = bundle.values.T
    storages = [np.ascontiguousarray(bundle.values), np.ascontiguousarray(bundle.values.T).T,
                wide[:, 1:10].T]
    rows = [_caches(mode, PathBundle(bundle.grid, values, "solution")).estimates(range(1, 10))
            for values in storages]
    assert rows[0].tobytes() == rows[1].tobytes() == rows[2].tobytes()


def _chunk_trials(case):
    """The bundles of a chunk's trials: three of one path or of four, three on a
    400-step grid, where OpenBLAS threads each trial's Ybar gemm, or `chunk_bundles`,
    whose trials sum the lags, the rows, and the rows of an overflowing jump."""
    if case == "mixed":
        return chunk_bundles()
    steps, size = {"one-path": (150, 1), "four-paths": (150, 4), "steps400": (400, 10)}[case]
    bundle = solution_bundle(model="model1", h=0.7, horizon=0.1, sigma=0.25, steps=steps,
                             n=3 * size)
    return [PathBundle(bundle.grid, bundle.values[t * size:(t + 1) * size], "solution")
            for t in range(3)]


@pytest.mark.parametrize("case", ["one-path", "four-paths", "steps400", "mixed"])
@pytest.mark.parametrize("mode", ["fbm", "bm"])
def test_chunk_rows_are_the_rows_of_each_trial_alone(mode, case):
    # One cache of the trials' consecutive blocks of paths: each trial's rows have
    # the bits of a cache built from its block alone.
    bundles = _chunk_trials(case)
    points = range(1, bundles[0].n_paths + 1)
    rows = _caches(mode, chunk_bundle(bundles), len(bundles)).solve(points)
    assert rows.shape == (len(bundles), len(points))
    for t, bundle in enumerate(bundles):
        assert rows[t].tobytes() == _caches(mode, bundle).estimates(points).tobytes()


@pytest.mark.parametrize("mode", ["fbm", "bm"])
def test_trials_must_divide_the_bundle(mode):
    bundle = solution_bundle(model="model1", h=0.7, horizon=0.1, sigma=0.25, n=5)
    for trials in (2, 0):
        with pytest.raises(ValueError, match=f"trials={trials} does not divide"):
            _caches(mode, bundle, trials)


@pytest.mark.parametrize("steps,n", [(2, 1), (3, 2)])
def test_bm_estimator_oracle(steps, n):
    bundle = solution_bundle(model="model2", h=0.5, sigma=1.0, horizon=0.5,
                             steps=steps, n=n, seed=5)
    est = BmEstimatorCache(bundle, drift_model("model2"), sigma=1.0).estimate()
    want = oracle_bm(bundle.values, bundle.grid.nodes, bundle.grid.horizon,
                     drift_model("model2").b)
    assert est.theta_hat == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Fixed-point iteration.
# ---------------------------------------------------------------------------

def test_fixed_point_matches_bisection():
    rng = np.random.default_rng(17)
    for trial in range(20):
        bundle = solution_bundle(model="model2", h=0.9, n=5,
                                 seed=int(rng.integers(1 << 30)))
        drift = drift_model("model2")
        hurst = HurstParams(h=0.9)
        cache = FbmEstimatorCache(bundle, drift, hurst, 1.0)
        stats = cache.stats(5)
        phi = cache.phi(5, stats)
        r_n, _, residual = fixed_point(phi, 200, 1e-14)
        assert residual <= 1e-12
        # Bisection on g(r) = r - phi(r), strictly increasing under contraction.
        lo, hi = -1.0, 1.0
        while hi - phi(hi) < 0:
            hi *= 2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mid - phi(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert r_n == pytest.approx(0.5 * (lo + hi), abs=1e-8)


def test_fixed_point_trivial_map():
    r, iters, resid = fixed_point(lambda r: 0.0, 50, 1e-12)
    assert (r, iters, resid) == (0.0, 1, 0.0)


def test_fixed_point_divergence():
    from fpdrift import DivergenceError
    with pytest.raises(DivergenceError):
        fixed_point(lambda r: r * 1e16 + 1e308, 50, 1e-12)


def test_fixed_point_linear_map():
    # phi(r) = 0.5 r + 1 has fixed point 2; geometric convergence from 0.
    r, iters, resid = fixed_point(lambda r: 0.5 * r + 1.0, 200, 1e-13)
    assert r == pytest.approx(2.0, abs=1e-12)
    assert resid <= 1e-12


# ---------------------------------------------------------------------------
# Estimates and certificates.
# ---------------------------------------------------------------------------

def test_estimate_fbm_structure():
    bundle = solution_bundle(n=10, seed=3)
    cache = FbmEstimatorCache(bundle, drift_model("model2"), HurstParams(h=0.9), 1.0)
    est = cache.estimate()
    assert est.theta_tilde == pytest.approx(est.i_n + est.r_n)
    # Truncated on Omega_N, then kept by a threshold at D_N itself.
    theta_c = cache.estimate(enforce_omega=True).theta_tilde
    assert theta_c in (0.0, est.theta_tilde)
    assert cache.estimate(enforce_omega=True, d_threshold=est.d_n).theta_tilde == theta_c
    assert est.omega_holds  # reference settings satisfy the certificate
    lo, hi, alpha = est.aci
    assert lo < est.theta_tilde < hi
    assert alpha == 0.05
    assert est.ybar >= 0.0
    with pytest.raises(ValueError):
        cache.estimate(alpha=1.5)


def test_estimate_fbm_threshold_gating():
    bundle = solution_bundle(n=10, seed=3)
    cache = FbmEstimatorCache(bundle, drift_model("model2"), HurstParams(h=0.9), 1.0)
    est = cache.estimate(d_threshold=1e6)
    assert est.theta_tilde == 0.0
    assert cache.estimate().theta_tilde != 0.0
    # The interval is the truncated estimate 0 +- the half-width.
    assert est.aci[1] == -est.aci[0] > 0.0


def test_constant_drift_gives_identity_estimate():
    # b constant: b' = 0, the map is identically 0, so the estimate is I_N.
    bundle = solution_bundle(model="custom:3", n=4, seed=11)
    drift = drift_model("custom:3")
    cache = FbmEstimatorCache(bundle, drift, HurstParams(h=0.9), 1.0)
    est = cache.estimate()
    stats = cache.stats()
    assert est.r_n == 0.0
    assert est.iterations == 1
    assert est.theta_tilde == pytest.approx(stats.i_n)


def test_check_omega_zero_derivative_trivially_true():
    bundle = solution_bundle(model="custom:3", n=2, seed=1)
    stats = FbmEstimatorCache(bundle, drift_model("custom:3"), HurstParams(h=0.9), 1.0).stats()
    assert check_omega(stats, HurstParams(h=0.9), 1.0, 0.0, 0.75, 0.5)


def test_check_omega_scaling():
    bundle = solution_bundle(n=10, seed=3)
    hp = HurstParams(h=0.9)
    stats = FbmEstimatorCache(bundle, drift_model("model2"), hp, 1.0).stats()
    assert check_omega(stats, hp, 1.0, 1.0, 0.75, 0.5)
    # A huge volatility shrinks the right-hand side below the statistic.
    assert not check_omega(stats, hp, 1e6, 1.0, 0.75, 0.5)
    with pytest.raises(ValueError):
        check_omega(stats, hp, 1.0, 1.0, 0.75, 1.5)


def test_omega_never_certified_with_unbounded_b_prime():
    # b(x) = -0.1 x^2 from x0 = 20: sup|b'| over the probe interval [-10, 10]
    # is 2, but |b'| = 0.2 |x| is about 4 on the paths. The probe bound would
    # certify Omega_N; b' is unbounded, so the certificate must not hold.
    drift = drift_model("custom:-0.1,0,0")
    hurst = HurstParams(h=0.9)
    bundle = solution_bundle(model="custom:-0.1,0,0", h=0.9, horizon=0.05, sigma=0.25,
                             x0=20.0, n=50, seed=0)
    assert np.abs(drift.b_prime(bundle.values)).max() > 1.5 * drift.sup_norm_b_prime
    cache = FbmEstimatorCache(bundle, drift, hurst, 0.25)
    assert check_omega(cache.stats(), hurst, 0.25, drift.sup_norm_b_prime, 0.05, 0.5)
    est = cache.estimate(enforce_omega=True)
    assert not est.omega_holds
    assert est.theta_tilde == 0.0


def test_degenerate_dn_raises():
    grid = Grid(horizon=1.0, steps=2)
    # Drift b(x) = x is zero along the zero path, so D_N = 0.
    bundle = PathBundle(grid=grid, values=np.zeros((1, 3)), kind="solution")
    drift = drift_model("custom:1,0")
    with pytest.raises(DegenerateStatisticsError):
        FbmEstimatorCache(bundle, drift, HurstParams(h=0.9), 1.0).stats()
    with pytest.raises(DegenerateStatisticsError):
        BmEstimatorCache(bundle, drift, sigma=1.0).estimate()
    est = BmEstimatorCache(bundle, drift, sigma=1.0).estimate(d_threshold=0.5)
    assert est.theta_hat_d == 0.0


def test_estimate_bm_aci_and_truncation():
    bundle = solution_bundle(h=0.5, n=20, seed=9)
    cache = BmEstimatorCache(bundle, drift_model("model2"), sigma=1.0)
    est = cache.estimate()
    lo, hi, alpha = est.aci
    assert lo < est.theta_hat < hi
    assert est.d_nn > 0 and est.ybar > 0
    est2 = cache.estimate(d_threshold=1e9)
    assert est2.theta_hat_d == 0.0
    # theta_hat and its interval stay untruncated; the row reports 0 +- the half-width.
    assert (est2.theta_hat, est2.aci) == (est.theta_hat, est.aci)
    row = cache.estimates(d_threshold=1e9)[0]
    assert (row["estimate"], row["aci_upper"]) == (0.0, -row["aci_lower"])
    with pytest.raises(ValueError):
        cache.estimate(alpha=1.5)


def test_readme_quick_start_runs(capsys):
    # The README's library example must run against the public API as it is.
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", text, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    theta = capsys.readouterr().out.split()[0]
    assert math.isfinite(float(theta))


# ---------------------------------------------------------------------------
# Thresholds, schedules, horizon bound, quantiles.
# ---------------------------------------------------------------------------

def test_threshold_formulas():
    assert dmax_from_lower_bound(math.pi**2 / 4) == math.pi**2 / 8
    assert dmax_ou(5.0, 1.0, 0.75) == 12.5 * math.exp(-1.5)
    with pytest.raises(ValueError):
        dmax_from_lower_bound(0.0)
    with pytest.raises(ValueError):
        dmax_ou(5.0, -1.0, 0.75)
    with pytest.warns(UserWarning):
        assert dmax_ou(0.0, 1.0, 0.75) == 0.0


def test_iteration_schedule():
    hp = HurstParams(h=0.9)
    assert iteration_schedule(10, 0.5, 0.75, 0.0, hp) == 1
    n_small = iteration_schedule(10, 0.5, 0.75, 1.0, hp)
    assert n_small >= 30
    # Grows logarithmically in N once past the floor.
    n_huge = iteration_schedule(10**40, 0.5, 0.75, 1.0, hp)
    assert n_huge > 30
    diff = iteration_schedule(4 * 10**40, 0.5, 0.75, 1.0, hp) - n_huge
    assert diff in (1, 2)  # log(sqrt(4)) / log(2) = 1 extra iteration
    # A contraction constant so small that the schedule's constant underflows to 0.
    assert iteration_schedule(10, 5e-324, 1.0, 1e3, hp) == 30


def test_iteration_schedule_memoized():
    hp = HurstParams(h=0.7)
    want = iteration_schedule.__wrapped__(17, 0.5, 0.75, 1.0, hp)
    iteration_schedule(17, 0.5, 0.75, 1.0, hp)
    hits = iteration_schedule.cache_info().hits
    assert iteration_schedule(17, 0.5, 0.75, 1.0, HurstParams(h=0.7)) == want
    assert iteration_schedule.cache_info().hits == hits + 1


def test_iteration_limits_memoized_per_points():
    from fpdrift.estimators import _iteration_limits

    hp, points = HurstParams(h=0.7), (1, 5, 17, 200)
    limits = _iteration_limits(points, 0.5, 0.75, 1.0, hp)
    assert limits.tolist() == [iteration_schedule(n, 0.5, 0.75, 1.0, hp) for n in points]
    assert limits.dtype == np.int64 and not limits.flags.writeable
    hits = _iteration_limits.cache_info().hits
    assert _iteration_limits(points, 0.5, 0.75, 1.0, HurstParams(h=0.7)) is limits
    assert _iteration_limits.cache_info().hits == hits + 1
    assert _iteration_limits.cache_info().maxsize is not None


def test_normal_quantile_accuracy():
    ndtri = pytest.importorskip("scipy.special").ndtri
    for p in [1e-9, 1e-4, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 1 - 1e-6]:
        assert normal_quantile(p) == pytest.approx(ndtri(p), abs=1e-9)
    with pytest.raises(ValueError):
        normal_quantile(0.0)
    with pytest.raises(ValueError):
        normal_quantile(1.0)


def test_normal_quantile_memoized():
    p = 1.0 - 0.05 / 4.0
    want = normal_quantile.__wrapped__(p)
    normal_quantile(p)
    hits = normal_quantile.cache_info().hits
    assert normal_quantile(p) == want  # bitwise the computed value
    assert normal_quantile.cache_info().hits == hits + 1


@given(p=st.floats(1e-12, 1 - 1e-12))
@settings(max_examples=200)
def test_normal_quantile_inverts_cdf(p):
    from fpdrift.estimators import normal_cdf
    assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-9)


# ---------------------------------------------------------------------------
# Property tests.
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 8),
       h=st.floats(0.6, 0.95), sigma=st.floats(0.2, 2.0))
def test_phi_nonnegative_for_nonpositive_derivative(seed, n, h, sigma):
    # b' <= 0 makes every summand of the map nonpositive before the minus sign.
    bundle = solution_bundle(model="model2", h=h, sigma=sigma, n=n, seed=seed)
    cache = FbmEstimatorCache(bundle, drift_model("model2"), HurstParams(h=h), sigma)
    phi = cache.phi(n, cache.stats(n))
    for r in (0.0, 0.5, -0.5):
        assert phi(r) >= 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(2, 10))
def test_lipschitz_ratio_under_omega(seed, n):
    # Sampled two-point Lipschitz ratios never exceed the certified constant.
    bundle = solution_bundle(model="model2", h=0.9, n=n, seed=seed)
    drift = drift_model("model2")
    hurst = HurstParams(h=0.9)
    cache = FbmEstimatorCache(bundle, drift, hurst, 1.0)
    stats = cache.stats(n)
    if not check_omega(stats, hurst, 1.0, 1.0, 0.75, 0.5):
        return
    phi = cache.phi(n, stats)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 2.0, size=8)
    for a in pts[:4]:
        for b in pts[4:]:
            ratio = abs(phi(a) - phi(b)) / abs(a - b)
            assert ratio <= 0.5 + 1e-6


# (model, horizon, sigma, x0): the two presets, and a drift whose b' = 1 - 3x^2
# changes sign along the paths, so the sum over node pairs cancels.
PHI_MODELS = {
    "model1": ("model1", 0.1, 0.25, 5.0),
    "model2": ("model2", 0.75, 1.0, 5.0),
    "sign-changing": ("custom:-1,0,1,0", 0.5, 1.0, 0.3),
}


@settings(max_examples=15, deadline=None)
@given(model=st.sampled_from(sorted(PHI_MODELS)), seed=st.integers(0, 10**6))
def test_prefix_estimates_match_direct(model, seed):
    # Each prefix of a cache is the truncated bundle's own cache, bit for bit:
    # both take the same exact Phi_N sum. Ybar's gemm reads a different number
    # of rows, so the interval agrees to rel 1e-10.
    name, horizon, sigma, x0 = PHI_MODELS[model]
    bundle = solution_bundle(model=name, horizon=horizon, sigma=sigma, x0=x0, n=6, seed=seed)
    drift, hurst = drift_model(name), HurstParams(h=0.9)
    rows = FbmEstimatorCache(bundle, drift, hurst, sigma).estimates(
        range(1, 6), max_iters=60, tol=1e-14)
    for m, row in zip(range(1, 6), rows):
        sub = PathBundle(grid=bundle.grid, values=bundle.values[:m], kind="solution")
        direct = FbmEstimatorCache(sub, drift, hurst, sigma).estimates(max_iters=60, tol=1e-14)[0]
        for field in ("estimate", "r_n", "iterations", "d_n", "i_n"):
            assert row[field].tobytes() == direct[field].tobytes(), (m, field)
        np.testing.assert_allclose(row[["aci_lower", "aci_upper"]].tolist(),
                                   direct[["aci_lower", "aci_upper"]].tolist(), rtol=1e-10)


# ---------------------------------------------------------------------------
# Phi_N is the exact sum on every prefix.
# ---------------------------------------------------------------------------

def exact_phi(cache, n, stats):
    """Phi_N of trial 0's first n paths, summed alone: on a linear cache one `_phi_lags`
    sum, scale n beta sum_k W_k e^{s beta t_k}; on another `_phi_rows` over its
    first n rows."""
    scale, beta, grid = cache._scale(n, stats.d_n), float(cache._beta[0]), cache.grid
    _, tri, _, weights = _kernels(cache.hurst, grid)
    if not math.isnan(beta):
        return lambda r: scale * n * beta * float(
            _phi_lags(np.array([(r + stats.i_n) * beta]), grid.nodes[1:], weights)[0])
    return lambda r: scale * _phi_rows(r + stats.i_n, cache._bp[0, :n], cache._c[0, :n],
                                       cache._c_span[0, :n], tri)


@settings(max_examples=30, deadline=None)
@given(model=st.sampled_from(sorted(PHI_MODELS)), seed=st.integers(0, 10**6),
       n=st.integers(2, 12), h=st.floats(0.6, 0.95),
       rs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
def test_phi_is_the_exact_sum(model, seed, n, h, rs):
    name, horizon, sigma, x0 = PHI_MODELS[model]
    bundle = solution_bundle(model=name, h=h, horizon=horizon, sigma=sigma, x0=x0,
                             n=n, seed=seed)
    cache = FbmEstimatorCache(bundle, drift_model(name), HurstParams(h=h), sigma)
    for m in range(1, n):
        stats = cache.stats(m)
        phi, exact = cache.phi(m, stats), exact_phi(cache, m, stats)
        points = [0.0, *rs]
        try:  # the fixed point, where the Picard iterates end up
            points.append(fixed_point(exact, 60, 1e-14)[0])
        except DivergenceError:
            pass  # the sign-changing drift need not give a contraction
        for r in points:
            assert phi(r) == exact(r)
    # b' = -1 on every node of every model2 path: its cache sums the lags.
    assert cache._beta.tolist() == [-1.0] if name == "model2" else np.isnan(cache._beta).all()


@pytest.mark.parametrize("model", ["model1", "sign-changing"])
def test_phi_matches_oracle_at_far_iterates(model):
    h, sigma = 0.8, 0.5
    # (drift, x0, iterates): on the sign-changing drift C grows, so e^{s(C_j - C_l)}
    # would overflow at r = 2000.
    name, x0, rs = {"model1": ("model1", 5.0, (-40.0, 25.0, 2000.0)),
                    "sign-changing": ("custom:-1,0,1,0", 0.3, (-40.0, 25.0, 500.0))}[model]
    bundle = solution_bundle(model=name, h=h, sigma=sigma, horizon=0.5, x0=x0, steps=12, n=3,
                             seed=7)
    t, T = bundle.grid.nodes, bundle.grid.horizon
    drift = drift_model(name)
    cache = FbmEstimatorCache(bundle, drift, HurstParams(h=h), sigma)
    stats = cache.stats(2)
    phi, exact = cache.phi(2, stats), exact_phi(cache, 2, stats)
    for r in rs:
        assert phi(r) == exact(r)
        want = oracle_phi(r, bundle.values[:2], t, T, drift.b_prime, h, sigma,
                          stats.d_n, stats.i_n)
        assert phi(r) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_full_bundle_estimate_is_the_scalar_iteration():
    bundle = solution_bundle(model="model1", h=0.7, n=6, seed=2)
    cache = FbmEstimatorCache(bundle, drift_model("model1"), HurstParams(h=0.7), 1.0)
    est = cache.estimate(max_iters=30, tol=1e-12)
    stats = cache.stats()
    r, iterations, residual = fixed_point(exact_phi(cache, 6, stats), 30, 1e-12)
    assert (est.r_n, est.iterations, est.residual) == (r, iterations, residual)
    # A solve of a prefix leaves the full bundle's bits as they were.
    cache.estimate(3, max_iters=30, tol=1e-12)
    again = cache.estimate(max_iters=30, tol=1e-12)
    assert (again.r_n, again.iterations, again.residual) == (r, iterations, residual)


def test_phi_is_exact_on_prefixes_of_degenerate_bundles():
    grid = Grid(horizon=1.0, steps=2)
    # b(x) = x - x^3 vanishes along paths at 0 and 1: D_N = 0 on the full
    # bundle. b' is 1 on one path and -2 on the other: two rows, no lag sum.
    roots = PathBundle(grid=grid, values=np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
                       kind="solution")
    cache = FbmEstimatorCache(roots, drift_model("custom:-1,0,1,0"), HurstParams(h=0.8), 1.0)
    stats = SufficientStats(d_n=1.0, i_n=0.5, m_n=1.0)
    phi, exact = cache.phi(1, stats), exact_phi(cache, 1, stats)
    assert np.isnan(cache._beta).all()
    for r in (0.0, 0.3):
        assert phi(r) == exact(r)

    # model1 paths at 0 whose last nodes are 2e4 and 3e4: I_N of the full
    # bundle is about 3980 and span(C) = 1, so there the factors e^{+-sC}
    # reach e^{1990}, past the float range.
    values = np.array([[0.0, 0.0, 2e4], [0.0, 0.0, 3e4]])
    bundle = PathBundle(grid=grid, values=values, kind="solution")
    cache = FbmEstimatorCache(bundle, drift_model("model1"), HurstParams(h=0.8), 1.0)
    assert cache.stats().i_n == pytest.approx(3980.0, rel=1e-3)
    stats = cache.stats(1)
    phi, exact = cache.phi(1, stats), exact_phi(cache, 1, stats)
    assert np.isnan(cache._beta).all()
    for s in (0.0, 0.5, 1.0):
        assert phi(s - stats.i_n) == exact(s - stats.i_n)


# ---------------------------------------------------------------------------
# Linear drifts: b' is one constant beta, so a cache sums Phi_N over the lags.
# ---------------------------------------------------------------------------

def test_lag_weights_are_the_subdiagonal_sums_of_tri():
    grid, hurst = Grid(horizon=0.75, steps=9), HurstParams(h=0.7)
    _, tri, _, weights = _kernels(hurst, grid)
    nu, mesh = grid.steps, grid.mesh
    assert weights.shape == (nu,) and not weights.flags.writeable
    for k in range(1, nu + 1):
        # The pairs (j, l = j - k), j = k..nu, all at t_j - t_l = k mesh.
        entries = [tri[j - 1, j - k] for j in range(k, nu + 1)]
        assert weights[k - 1] == pytest.approx(math.fsum(entries), rel=1e-15, abs=0.0)
        assert weights[k - 1] == pytest.approx(
            (nu - k + 1) * (k * mesh) ** (2 * hurst.h - 2) * mesh**2, rel=1e-13, abs=0.0)


# beta < 0 (model2's -1, -2, -0.5) and beta = 2 > 0, where the terms grow with s.
@pytest.mark.parametrize("model", ["model2", "custom:-2,1", "custom:2,1", "custom:-0.5,3"])
def test_lag_phi_matches_oracle(model):
    from fpdrift.estimators import _MAX_FACTOR_EXPONENT

    h, sigma, n, tol = 0.7, 1.0, 8, 1e-12
    bundle = solution_bundle(model=model, h=h, sigma=sigma, horizon=0.5, steps=12, n=n, seed=3)
    t, T = bundle.grid.nodes, bundle.grid.horizon
    drift, hurst = drift_model(model), HurstParams(h=h)
    cache = FbmEstimatorCache(bundle, drift, hurst, sigma)
    beta = float(cache._beta[0])
    assert beta == drift.b_prime(np.zeros(1))[0] and not hasattr(cache, "_c")
    rows = cache.estimates(range(1, n + 1), tol=tol)
    for m in (1, 2, n // 2, n):
        stats = cache.stats(m)
        phi, exact = cache.phi(m, stats), exact_phi(cache, m, stats)
        limit = iteration_schedule(m, 0.5, T, drift.sup_norm_b_prime, hurst)
        r_star, iterations, residual = fixed_point(phi, limit, tol)
        # The stacked solve is the scalar Picard iteration over phi, bit for bit.
        assert (rows["r_n"][m - 1], rows["iterations"][m - 1], rows["residual"][m - 1]) \
            == (r_star, iterations, residual)
        # Far enough that the factors e^{+-sC} of a row sum would overflow, on
        # the side where the terms e^{s beta t_k} decay.
        span = abs(beta) * T
        r_far = -math.copysign(1500.0, beta) / span - stats.i_n
        assert 0.5 * abs(r_far + stats.i_n) * span > _MAX_FACTOR_EXPONENT
        for r in (0.0, 0.3, -40.0, 25.0, 300.0, r_star, r_far):
            want = oracle_phi(r, bundle.values[:m], t, T, drift.b_prime, h, sigma,
                              stats.d_n, stats.i_n)
            assert phi(r) == exact(r)
            assert phi(r) == pytest.approx(want, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# All prefixes in one call: `estimates` against the scalar solve.
# ---------------------------------------------------------------------------

# (model, H, horizon, sigma, x0, seed, n, settings, prefixes that diverge, prefixes
# whose estimate is truncated to 0).
# model2 at T = 5 sends nearly every proper-prefix step to the exact sum;
# enforce_omega, d_threshold and a fixed max_iters change the reported
# estimate, the truncations and the step limits.
SCALAR_SOLVE_CASES = {
    "model1": ("model1", 0.9, 0.1, 0.25, 5.0, 3, 30, {}, 0, 0),
    "model2": ("model2", 0.7, 0.75, 1.0, 5.0, 4, 40, {"d_threshold": 2.0}, 0, 0),
    "model2-T5": ("model2", 0.7, 5.0, 1.0, 5.0, 5, 30, {"enforce_omega": True}, 0, 30),
    "sign-changing": ("custom:-1,0,1,0", 0.7, 1.0, 1.0, 0.3, 1, 30, {}, 4, 0),
    "sign-changing-capped": ("custom:-1,0,1,0", 0.7, 1.0, 1.0, 0.3, 1, 30,
                             {"max_iters": 12}, 2, 0),
    "linear-custom": ("custom:-2,1", 0.7, 0.75, 1.0, 5.0, 2, 30, {}, 0, 0),
    # A threshold amid the D_N values: prefixes below it report 0, also where
    # their iterate diverged (prefixes 2 and 4 of the sign-changing drift).
    "model2-truncated": ("model2", 0.7, 0.75, 1.0, 5.0, 4, 40, {"d_threshold": 13.0}, 0, 3),
    "sign-changing-truncated": ("custom:-1,0,1,0", 0.7, 1.0, 1.0, 0.3, 1, 30,
                                {"d_threshold": 0.065}, 4, 3),
}


@pytest.mark.parametrize("case", sorted(SCALAR_SOLVE_CASES))
def test_estimates_match_scalar_solve(case):
    name, h, horizon, sigma, x0, seed, n, settings, want_diverged, want_truncated = \
        SCALAR_SOLVE_CASES[case]
    bundle = solution_bundle(model=name, h=h, horizon=horizon, sigma=sigma, x0=x0,
                             n=n, seed=seed)
    drift, hurst, c, tol, alpha = drift_model(name), HurstParams(h=h), 0.5, 1e-12, 0.05
    cache = FbmEstimatorCache(bundle, drift, hurst, sigma)
    rows = cache.estimates(range(1, n + 1), c=c, alpha=alpha, tol=tol, **settings)
    diverged = truncated = 0
    for m, row in zip(range(1, n + 1), rows):
        stats = cache.stats(m)
        limit = settings.get("max_iters") or iteration_schedule(
            m, c, horizon, drift.sup_norm_b_prime, hurst)
        try:
            r, iterations, residual = fixed_point(cache.phi(m, stats), limit, tol)
        except DivergenceError as exc:
            diverged += 1
            if stats.d_n < settings.get("d_threshold", 0.0):  # 0 all the same
                truncated += 1
                assert row["estimate"] == 0.0 and row["aci_upper"] == -row["aci_lower"]
                assert np.isnan(row["residual"]) and not row["omega"]
                continue
            assert np.isnan([row[k] for k in ("estimate", "aci_lower", "r_n",
                                              "residual", "ybar")]).all()
            assert row["d_n"] == stats.d_n  # kept: the failure is no vanished D_N
            assert not row["omega"]
            assert f"after {row['iterations']} steps" in str(exc)
            with pytest.raises(DivergenceError, match=str(exc)):
                cache.estimate(m, c=c, alpha=alpha, tol=tol, **settings)
            continue
        omega = drift.b_prime_bounded and check_omega(stats, hurst, sigma,
                                                      drift.sup_norm_b_prime, horizon, c)
        theta = stats.i_n + r
        theta_c = theta if omega or not settings.get("enforce_omega") else 0.0
        reported = theta_c if stats.d_n >= settings.get("d_threshold", 0.0) else 0.0
        truncated += reported != theta
        ybar = cache.ybar(m)
        half = 2.0 * math.sqrt(ybar) * normal_quantile(1.0 - alpha / 4.0) / (
            math.sqrt(m) * stats.d_n)
        want = dict(estimate=reported, r_n=r, iterations=iterations, residual=residual,
                    omega=omega, d_n=stats.d_n, i_n=stats.i_n,
                    aci_lower=reported - half, aci_upper=reported + half, ybar=ybar)
        assert dict(zip(rows.dtype.names, row.tolist())) == want  # bitwise, field by field
    assert (diverged, truncated) == (want_diverged, want_truncated)
    # A linear drift's cache sums the lags.
    assert (not np.isnan(cache._beta).any()) == (name in ("model2", "custom:-2,1"))


def test_estimates_nan_rows_where_dn_vanishes():
    # b(x) = x: the zero first path makes D_1 = 0, while D_2 > 0.
    grid = Grid(horizon=1.0, steps=2)
    values = np.array([[0.0, 0.0, 0.0], [1.0, 0.9, 0.8]])
    bundle = PathBundle(grid=grid, values=values, kind="solution")
    cache = FbmEstimatorCache(bundle, drift_model("custom:1,0"), HurstParams(h=0.8), 1.0)
    rows = cache.estimates([1, 2])
    assert np.isnan(rows[0][["estimate", "aci_lower", "aci_upper", "r_n",
                             "residual"]].tolist()).all()
    assert (rows["omega"][0], rows["iterations"][0], rows["d_n"][0]) == (False, 0, 0.0)
    with pytest.raises(DegenerateStatisticsError):
        cache.estimate(1)
    assert cache.estimate(2).theta_tilde == rows["estimate"][1]
    bm = BmEstimatorCache(bundle, drift_model("custom:1,0"), sigma=1.0).estimates([1, 2])
    assert np.isnan(bm["estimate"][0]) and bm["omega"][0] and bm["d_n"][0] == 0.0
    # A threshold above D_1 = 0 truncates row 0 to the estimate 0, with a NaN interval.
    for truncated in (cache.estimates([1, 2], d_threshold=0.5),
                      BmEstimatorCache(bundle, drift_model("custom:1,0"), sigma=1.0).estimates(
                          [1, 2], d_threshold=0.5)):
        assert truncated["estimate"][0] == 0.0 and truncated["d_n"][0] == 0.0
        assert np.isnan(truncated[0][["aci_lower", "aci_upper"]].tolist()).all()
    assert cache.estimate(1, d_threshold=0.5).theta_tilde == 0.0


def test_bm_estimates_match_estimate():
    bundle = solution_bundle(h=0.5, n=25, seed=6)
    cache = BmEstimatorCache(bundle, drift_model("model2"), sigma=1.0)
    rows = cache.estimates(range(1, 26), d_threshold=3.0, alpha=0.1)
    for m, row in zip(range(1, 26), rows):
        est = cache.estimate(m, d_threshold=3.0, alpha=0.1)
        # No D_{N,n} falls below 3, so the row's estimate is theta_hat untruncated.
        assert est.theta_hat_d == est.theta_hat
        assert row.tolist() == (est.d_nn, est.v_nn, est.theta_hat_d, est.ybar,
                                *est.aci[:2], True)
        x = bundle.values[:m]
        b = -x[:, :-1]
        d_nn = float((b**2).sum(axis=1).sum() * bundle.grid.mesh / (m * bundle.grid.horizon))
        assert est.d_nn == pytest.approx(d_nn, rel=1e-12)


def test_prefix_sums_are_slice_sums():
    # numpy's pairwise sum of each slice, bit for bit; a cumsum differs.
    per_path = np.random.default_rng(3).standard_normal((3, 300)) * 1e3
    ns = np.arange(1, 301)
    sums = _prefix_sums(per_path, ns)
    for k in range(3):
        assert sums[k].tolist() == [per_path[k, :n].sum() for n in range(1, 301)]
    assert sums[0].tolist() != np.cumsum(per_path[0]).tolist()


# sha256 of the comma-joined Picard iteration counts (-1 where the iterates
# diverged) of trials 0 and 1 at seed 0, computed with one scalar solve per
# prefix before `estimates` existed.
PINNED_PICARD_COUNTS = {
    "fbm-prefix": ({"model": "model2", "hurst": 0.7, "horizon": 0.75, "sigma": 1.0,
                    "steps": 20, "n_max": 200},
                   "259699cb8441fc317eef068c9c93888fa728e816c9d95a51b4efcd254bc52fed"),
    "sign-changing": ({"model": "custom:-1,0,1,0", "hurst": 0.7, "horizon": 1.0,
                       "sigma": 1.0, "x0": 0.3, "steps": 20, "n_max": 100},
                      "8443605cd09120c93806f0ea7ec7a90c314ce2f0efdd0cb036d8409421baaa5a"),
}


@pytest.mark.parametrize("case", sorted(PINNED_PICARD_COUNTS))
def test_picard_counts_pinned(case):
    import hashlib
    from fpdrift import montecarlo

    kwargs, digest = PINNED_PICARD_COUNTS[case]
    cfg = montecarlo.ExperimentConfig(replications=2, seed=0, **kwargs)
    counts = []
    for trial in range(2):
        bundle = montecarlo.simulate_bundle(cfg, montecarlo.trial_rng(cfg, trial), cfg.n_max)
        rows = montecarlo.estimator_cache(cfg, bundle).estimates(cfg.points)
        counts += np.where(np.isnan(rows["r_n"]), -1, rows["iterations"]).tolist()
    assert hashlib.sha256(",".join(map(str, counts)).encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# A chunk of trials in one cache and one stacked solve.
# ---------------------------------------------------------------------------

def chunk_of(bundles, drift, hurst):
    """One cache of the bundles as the trials of a chunk, and each one's cache alone."""
    return (FbmEstimatorCache(chunk_bundle(bundles), drift, hurst, 1.0, trials=len(bundles)),
            [FbmEstimatorCache(b, drift, hurst, 1.0) for b in bundles])


def chunk_bundles():
    """Five model1 bundles of 40 paths: three plain ones, one whose last path
    jumps to -2e5 (I of the full bundle is about -9600, so its factors e^{+-sC}
    overflow, while the proper prefixes are those of the first bundle), and one
    stuck at x = 0, where b' = -1 on every node: a lag sum."""
    bundles = [solution_bundle(model="model1", h=0.7, theta0=0.2, n=40, seed=seed)
               for seed in range(3)]
    jump = bundles[0].values.copy()
    jump[-1] = 0.0
    jump[-1, -1] = -2e5
    bundles.append(PathBundle(grid=bundles[0].grid, values=jump, kind="solution"))
    bundles.append(PathBundle(grid=bundles[0].grid, values=np.zeros_like(jump), kind="solution"))
    return bundles


def chunk_caches():
    return chunk_of(chunk_bundles(), drift_model("model1"), HurstParams(h=0.7))


@pytest.mark.parametrize("points", [range(1, 41), (3, 17, 40), (5, 39)])
def test_stacked_solve_matches_each_cache(points):
    settings = dict(c=0.5, d_threshold=2.0, alpha=0.1, tol=1e-12)
    chunk, alone = chunk_caches()
    rows = chunk.solve(points, **settings)
    assert rows.shape == (5, len(points))
    for t, cache in enumerate(alone):
        assert rows[t].tobytes() == cache.estimates(points, **settings).tobytes()
    # Every Picard step of each proper prefix of the jumping trial is the exact
    # sum of that prefix.
    jump = alone[3]
    for m, row in zip(points, rows[3]):
        if m < 40:
            limit = iteration_schedule(m, 0.5, jump.t_total, 1.0, jump.hurst)
            r, iterations, residual = fixed_point(exact_phi(jump, m, jump.stats(m)), limit,
                                                  1e-12)
            assert (row["r_n"], row["iterations"], row["residual"]) == (r, iterations, residual)
    assert chunk._beta[4] == -1.0 and not np.isnan(rows["estimate"][4]).any()
    # A model2 trial of zero paths, with D_N = 0 throughout, before a plain one:
    # NaN rows, and the plain trial's bits alone.
    zeros = PathBundle(grid=jump.grid, values=np.zeros((40, 21)), kind="solution")
    pair, alone = chunk_of([zeros, solution_bundle(h=0.7, theta0=0.2, n=40, seed=5)],
                           drift_model("model2"), jump.hurst)
    rows = pair.solve(points, **dict(settings, d_threshold=0.0))
    assert np.isnan(rows["estimate"][0]).all() and not rows["omega"][0].any()
    # d_threshold = 2 truncates them to the estimate 0, with a NaN interval.
    rows = pair.solve(points, **settings)
    assert (rows["estimate"][0] == 0.0).all() and np.isnan(rows["aci_upper"][0]).all()
    for t, cache in enumerate(alone):
        assert rows[t].tobytes() == cache.estimates(points, **settings).tobytes()


@pytest.mark.parametrize("points", [range(1, 41), (5, 39)])
def test_solve_without_residual_changes_no_other_field(points):
    chunk, _ = chunk_caches()
    rows, lean = chunk.solve(points), chunk.solve(points, residual=False)
    assert np.isnan(lean["residual"]).all() and not np.isnan(rows["residual"][:4]).all()
    for name in FBM_ROW.names:
        if name != "residual":
            assert lean[name].tobytes() == rows[name].tobytes(), name


def exact_sum_bundles():
    """Five model1 bundles of 40 paths whose Picard steps take the exact sum in
    every way: two plain ones, one whose last path jumps to 2000 (I of the
    full bundle is about 32), one whose last path jumps to -2e5 (the full
    bundle's factors e^{+-sC} overflow: the direct sum), and 40 copies of a
    path that jumps to 2e4 (I about 4250: its factors overflow on every
    prefix, while the direct sum stays finite)."""
    bundles = [solution_bundle(model="model1", h=0.7, theta0=0.2, n=40, seed=seed)
               for seed in range(2)]
    for top in (2000.0, -2e5):
        jump = bundles[0].values.copy()
        jump[-1] = 0.0
        jump[-1, -1] = top
        bundles.append(PathBundle(grid=bundles[0].grid, values=jump, kind="solution"))
    copies = np.repeat(np.zeros_like(jump[-1:]), 40, axis=0)
    copies[:, -1] = 2e4
    bundles.append(PathBundle(grid=bundles[0].grid, values=copies, kind="solution"))
    return bundles


def factorized_oracle(cache, n, stats, r):
    """Phi_N as one 2-D exp, gemm and vdot over trial 0's first n paths."""
    s = r + stats.i_n
    bp, c, tri = cache._bp[0, :n], cache._c[0, :n], _kernels(cache.hurst, cache.grid)[1]
    total = np.vdot(bp * np.exp(s * c[:, 1:]), np.exp(-s * c[:, :-1]) @ tri.T)
    return cache._scale(n, stats.d_n) * float(total)


# (40, 3, 40) puts two pairs of each trial in one exact sum.
@pytest.mark.parametrize("points", [range(1, 41), (3, 17, 40), (40, 3, 40)])
def test_stacked_exact_sum_matches_each_cache(points):
    from fpdrift.estimators import _MAX_FACTOR_EXPONENT

    settings = dict(c=0.5, d_threshold=2.0, alpha=0.1, tol=1e-12)
    bundles = exact_sum_bundles()
    chunk, caches = chunk_of(bundles, drift_model("model1"), HurstParams(h=0.7))
    rows = chunk.solve(points, **settings)
    for t, cache in enumerate(caches):
        assert rows[t].tobytes() == cache.estimates(points, **settings).tobytes()
    # Only the full overflow-prone bundle's iterate diverges.
    assert np.argwhere(np.isnan(rows["estimate"])).tolist() == [
        [3, j] for j, n in enumerate(points) if n == 40]
    ns = np.array(points)
    stats, _ = chunk._pair_stats(ns)
    phi = chunk._phi_pairs(ns, stats)
    overflow, copies = caches[3], caches[4]
    assert np.isnan(chunk._beta).all()
    for cache in (overflow, copies):
        assert 0.5 * abs(cache.stats().i_n) * cache._c_reach[0, -1] > _MAX_FACTOR_EXPONENT
    # Every pair, at two iterates: the stacked sum is `exact_phi`'s, and the
    # 2-D one bit for bit where no factor would overflow; on the copies, the
    # direct sum of n rows, as the loop-written oracle sums.
    k = np.arange(len(caches) * len(ns))
    t_nodes, t_total = copies.grid.nodes, copies.t_total
    for r in (0.0, 0.3):
        values = phi(k, np.full(len(k), r))
        for (t, m), value in zip(np.ndindex(len(caches), len(ns)), values.tolist()):
            n, cache = int(ns[m]), caches[t]
            prefix = cache.stats(n)
            assert value == exact_phi(cache, n, prefix)(r)
            if cache is copies and n in (ns[0], ns[-1]):
                want = oracle_phi(r, bundles[4].values[:n], t_nodes, t_total,
                                  copies.drift.b_prime, 0.7, 1.0, prefix.d_n, prefix.i_n)
                assert value == pytest.approx(want, rel=1e-12, abs=0.0)
            elif cache is not copies and (cache is not overflow or n < 40):
                assert value == factorized_oracle(cache, n, prefix, r)


def test_mixed_chunk_gives_each_cache_its_bits_alone():
    # Two model1 trials sum the lags beside model1 trials that keep every row:
    # a bundle stuck at x = 0, where b' = -1 on every node, and one whose nodes
    # are each 1 or -1, where b' = -1/2. Copies of one path keep all their rows.
    bundles = [solution_bundle(model="model1", h=0.7, theta0=0.2, n=40, seed=seed)
               for seed in range(2)]
    grid = bundles[0].grid
    copies = np.repeat(bundles[1].values[:1], 40, axis=0)
    signs = np.random.default_rng(5).choice([-1.0, 1.0], size=copies.shape)
    trials = [bundles[0].values, np.zeros_like(copies), copies, bundles[1].values, signs]
    chunk, caches = chunk_of([PathBundle(grid=grid, kind="solution", values=v) for v in trials],
                             drift_model("model1"), HurstParams(h=0.7))
    np.testing.assert_array_equal(chunk._beta, [np.nan, -1.0, np.nan, np.nan, -0.5])
    settings = dict(c=0.5, d_threshold=2.0, alpha=0.1, tol=1e-12)
    for points in (range(1, 41), (3, 17, 40)):
        rows = chunk.solve(points, **settings)
        assert not np.isnan(rows["estimate"]).any()
        for t, cache in enumerate(caches):
            assert rows[t].tobytes() == cache.estimates(points, **settings).tobytes()


def test_stacked_bm_solve_matches_each_cache():
    bundles = [solution_bundle(h=0.5, n=25, seed=seed) for seed in range(4)]
    chunk = BmEstimatorCache(chunk_bundle(bundles), drift_model("model2"), sigma=1.0, trials=4)
    rows = chunk.solve(range(1, 26), d_threshold=3.0, alpha=0.1)
    for t, bundle in enumerate(bundles):
        cache = BmEstimatorCache(bundle, drift_model("model2"), sigma=1.0)
        assert rows[t].tobytes() == cache.estimates(range(1, 26), d_threshold=3.0,
                                                    alpha=0.1).tobytes()


@pytest.mark.parametrize("n_max", [1, 7, 8, 9, 129, 200])
def test_stacked_prefix_sums_match_each_cache(n_max):
    # Pairwise summation switches blocking at 8 and 128 terms.
    rng = np.random.default_rng(n_max)
    per_path = [rng.standard_normal((3, n_max)) * 1e3 for _ in range(4)]
    ns = np.arange(1, n_max + 1)
    stacked = _prefix_sums(np.stack(per_path, axis=1), ns)
    assert stacked.shape == (3, 4, n_max)
    for t, one in enumerate(per_path):
        assert stacked[:, t].tolist() == _prefix_sums(one, ns).tolist()
        assert stacked[:, t, -1].tolist() == one.sum(axis=1).tolist()
