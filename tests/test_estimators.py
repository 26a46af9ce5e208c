import math

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
    estimate_bm,
    estimate_fbm,
    fixed_point,
    iteration_schedule,
    max_horizon,
    normal_quantile,
)
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


@pytest.mark.parametrize("steps,n", [(2, 1), (3, 2)])
def test_bm_estimator_oracle(steps, n):
    bundle = solution_bundle(model="model2", h=0.5, sigma=1.0, horizon=0.5,
                             steps=steps, n=n, seed=5)
    est = estimate_bm(bundle, drift_model("model2"), sigma=1.0)
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
# Estimator wrappers and certificates.
# ---------------------------------------------------------------------------

def test_estimate_fbm_structure():
    bundle = solution_bundle(n=10, seed=3)
    est = estimate_fbm(bundle, drift_model("model2"), HurstParams(h=0.9), 1.0)
    assert est.theta_tilde == pytest.approx(est.i_n + est.r_n)
    assert est.theta_tilde_c in (0.0, est.theta_tilde)
    assert est.theta_tilde_cd in (0.0, est.theta_tilde_c)
    assert est.omega_holds  # reference settings satisfy the certificate
    lo, hi, alpha = est.aci
    assert lo < est.theta_tilde < hi
    assert alpha == 0.05
    assert est.ybar >= 0.0
    with pytest.raises(ValueError):
        estimate_fbm(bundle, drift_model("model2"), HurstParams(h=0.9), 1.0, alpha=1.5)


def test_estimate_fbm_threshold_gating():
    bundle = solution_bundle(n=10, seed=3)
    est = estimate_fbm(bundle, drift_model("model2"), HurstParams(h=0.9), 1.0,
                       d_threshold=1e6)
    assert est.theta_tilde_cd == 0.0
    assert est.theta_tilde != 0.0


def test_constant_drift_gives_identity_estimate():
    # b constant: b' = 0, the map is identically 0, so the estimate is I_N.
    bundle = solution_bundle(model="custom:3", n=4, seed=11)
    drift = drift_model("custom:3")
    est = estimate_fbm(bundle, drift, HurstParams(h=0.9), 1.0)
    stats = FbmEstimatorCache(bundle, drift, HurstParams(h=0.9), 1.0).stats()
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
    assert est.theta_tilde == 0.0 and est.theta_tilde_c == 0.0


def test_degenerate_dn_raises():
    grid = Grid(horizon=1.0, steps=2)
    # Drift b(x) = x is zero along the zero path, so D_N = 0.
    bundle = PathBundle(grid=grid, values=np.zeros((1, 3)), kind="solution")
    drift = drift_model("custom:1,0")
    with pytest.raises(DegenerateStatisticsError):
        FbmEstimatorCache(bundle, drift, HurstParams(h=0.9), 1.0).stats()
    with pytest.raises(DegenerateStatisticsError):
        estimate_bm(bundle, drift, sigma=1.0)
    est = BmEstimatorCache(bundle, drift, sigma=1.0).estimate(d_threshold=0.5)
    assert est.theta_hat_d == 0.0


def test_estimate_bm_aci_and_truncation():
    bundle = solution_bundle(h=0.5, n=20, seed=9)
    est = estimate_bm(bundle, drift_model("model2"), sigma=1.0)
    lo, hi, alpha = est.aci
    assert lo < est.theta_hat < hi
    assert est.d_nn > 0 and est.ybar > 0
    est2 = estimate_bm(bundle, drift_model("model2"), sigma=1.0, d_threshold=1e9)
    assert est2.theta_hat_d == 0.0
    with pytest.raises(ValueError):
        estimate_bm(bundle, drift_model("model2"), sigma=1.0, alpha=1.5)


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


def test_max_horizon():
    hp = HurstParams(h=0.9)
    drift = drift_model("model2")
    t1 = max_horizon(1.0, 1.0, 0.75, hp, 1.0, drift, 0.5, x0=5.0)
    assert t1 > 0
    # Larger lower bound ell loosens the constraint.
    t2 = max_horizon(2.0, 1.0, 0.75, hp, 1.0, drift, 0.5, x0=5.0)
    assert t2 > t1
    # Zero-derivative drift imposes no constraint at all.
    assert max_horizon(1.0, 1.0, 0.75, hp, 1.0, drift_model("custom:3"),
                       0.5, x0=5.0) == math.inf
    with pytest.raises(ValueError):
        max_horizon(0.0, 1.0, 0.75, hp, 1.0, drift, 0.5, x0=5.0)


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


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_prefix_estimates_match_direct(seed):
    # Cache evaluation on a prefix equals estimating the truncated bundle.
    bundle = solution_bundle(n=6, seed=seed)
    drift = drift_model("model2")
    hurst = HurstParams(h=0.9)
    cache = FbmEstimatorCache(bundle, drift, hurst, 1.0)
    sub = PathBundle(grid=bundle.grid, values=bundle.values[:4], kind="solution")
    direct = estimate_fbm(sub, drift, hurst, 1.0, max_iters=60, tol=1e-14)
    via_cache = cache.estimate(4, max_iters=60, tol=1e-14)
    assert via_cache.theta_tilde == pytest.approx(direct.theta_tilde, rel=1e-12)
    assert via_cache.d_n == pytest.approx(direct.d_n, rel=1e-12)
    assert via_cache.aci[0] == pytest.approx(direct.aci[0], rel=1e-10)


# ---------------------------------------------------------------------------
# The Taylor table of Phi_N on proper prefixes.
# ---------------------------------------------------------------------------

# (model, horizon, sigma, x0): the two presets, and a drift whose b' = 1 - 3x^2
# changes sign along the paths, so the sum over node pairs cancels.
TABLE_MODELS = {
    "model1": ("model1", 0.1, 0.25, 5.0),
    "model2": ("model2", 0.75, 1.0, 5.0),
    "sign-changing": ("custom:-1,0,1,0", 0.5, 1.0, 0.3),
}


@settings(max_examples=30, deadline=None)
@given(model=st.sampled_from(sorted(TABLE_MODELS)), seed=st.integers(0, 10**6),
       n=st.integers(2, 12), h=st.floats(0.6, 0.95),
       rs=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
def test_taylor_table_matches_exact_sum(model, seed, n, h, rs):
    name, horizon, sigma, x0 = TABLE_MODELS[model]
    bundle = solution_bundle(model=name, h=h, horizon=horizon, sigma=sigma, x0=x0,
                             n=n, seed=seed)
    cache = FbmEstimatorCache(bundle, drift_model(name), HurstParams(h=h), sigma)
    for m in range(1, n):
        stats = cache.stats(m)
        phi, exact = cache.phi(m, stats), cache._phi_exact(m, stats)
        points = [0.0, *rs]
        try:  # the fixed point, where the Picard iterates end up
            points.append(fixed_point(exact, 60, 1e-14)[0])
        except DivergenceError:
            pass  # the sign-changing drift need not give a contraction
        for r in points:
            assert phi(r) == pytest.approx(exact(r), rel=1e-12, abs=0.0)
    assert cache._taylor is not None


def test_taylor_table_serves_proper_prefixes():
    # The Picard solves of every proper prefix, as `experiment` runs them:
    # the table serves most evaluations, within rel 1e-12 of the exact sum.
    bundle = solution_bundle(model="model2", h=0.7, n=40, seed=4)
    cache = FbmEstimatorCache(bundle, drift_model("model2"), HurstParams(h=0.7), 1.0)
    served = evaluated = 0
    for m in range(1, 40):
        stats = cache.stats(m)
        phi, exact = cache.phi(m, stats), cache._phi_exact(m, stats)
        r, iterations, _ = fixed_point(phi, 30, 1e-12)
        r_exact, iterations_exact, _ = fixed_point(exact, 30, 1e-12)
        assert iterations == iterations_exact
        assert r == pytest.approx(r_exact, rel=1e-12, abs=0.0)
        for r_k in (0.0, r):
            evaluated += 1
            served += phi(r_k) != exact(r_k)
            assert phi(r_k) == pytest.approx(exact(r_k), rel=1e-12, abs=0.0)
    assert served > evaluated // 2


def test_taylor_table_falls_back_near_a_root():
    # With b' changing sign, Phi_N of these prefixes crosses zero near the
    # centre s0. There the error bound, relative to |Phi_N|, fails and the
    # exact sum is served; rel 1e-12 holds right up to the root.
    bundle = solution_bundle(model="custom:-1,0,1,0", h=0.8, horizon=0.5, sigma=1.0,
                             x0=0.5, n=8, seed=1)
    cache = FbmEstimatorCache(bundle, drift_model("custom:-1,0,1,0"), HurstParams(h=0.8), 1.0)
    for m in (3, 5, 7):
        stats = cache.stats(m)
        phi, exact = cache.phi(m, stats), cache._phi_exact(m, stats)
        grid = np.linspace(-0.6, 0.3, 10)
        signs = np.sign([exact(r) for r in grid])
        k = int(np.flatnonzero(signs[:-1] != signs[1:])[0])
        lo, hi = grid[k], grid[k + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if np.sign(exact(mid)) == signs[k] else (lo, mid)
        for r in (lo - 1e-4, lo - 1e-8, lo, hi, hi + 1e-8, hi + 1e-4):
            assert phi(r) == pytest.approx(exact(r), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("model", ["model1", "model2"])
def test_taylor_table_falls_back_far_from_centre(model):
    h, sigma = 0.8, 0.5
    bundle = solution_bundle(model=model, h=h, sigma=sigma, horizon=0.5, steps=12, n=3,
                             seed=7)
    t, T = bundle.grid.nodes, bundle.grid.horizon
    drift = drift_model(model)
    cache = FbmEstimatorCache(bundle, drift, HurstParams(h=h), sigma)
    stats = cache.stats(2)
    phi, exact = cache.phi(2, stats), cache._phi_exact(2, stats)
    assert cache._taylor is not None
    # |s - s0| span(C) is far past where ten Taylor terms reach 1e-13.
    for r in (-40.0, 25.0, 2000.0):
        assert phi(r) == exact(r)
        want = oracle_phi(r, bundle.values[:2], t, T, drift.b_prime, h, sigma,
                          stats.d_n, stats.i_n)
        assert phi(r) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_full_bundle_never_builds_the_table():
    bundle = solution_bundle(model="model2", h=0.7, n=6, seed=2)
    cache = FbmEstimatorCache(bundle, drift_model("model2"), HurstParams(h=0.7), 1.0)
    est = cache.estimate(max_iters=30, tol=1e-12)
    assert "_taylor" not in vars(cache)
    stats = cache.stats()
    r, iterations, residual = fixed_point(cache._phi_exact(6, stats), 30, 1e-12)
    assert (est.r_n, est.iterations, est.residual) == (r, iterations, residual)
    # A prefix builds the table; the full bundle still takes the exact sum.
    cache.estimate(3, max_iters=30, tol=1e-12)
    assert cache._taylor is not None
    again = cache.estimate(max_iters=30, tol=1e-12)
    assert (again.r_n, again.iterations, again.residual) == (r, iterations, residual)


def test_taylor_table_skipped_without_finite_centre():
    grid = Grid(horizon=1.0, steps=2)
    # b(x) = x vanishes along zero paths: D_N = 0, so there is no centre s0.
    zeros = PathBundle(grid=grid, values=np.zeros((2, 3)), kind="solution")
    cache = FbmEstimatorCache(zeros, drift_model("custom:1,0"), HurstParams(h=0.8), 1.0)
    stats = SufficientStats(d_n=1.0, i_n=0.5, m_n=1.0)
    phi, exact = cache.phi(1, stats), cache._phi_exact(1, stats)
    assert cache._taylor is None
    for r in (0.0, 0.3):
        assert phi(r) == exact(r)

    # b(x) = -x: D_N = 1/2, I_N = -1599 and span(C) = 1, so the factors
    # e^{+-s0 C} reach e^{799.5}, past the float range.
    values = np.array([[1.0, 0.0, 40.0], [1.0, 0.0, 40.0]])
    bundle = PathBundle(grid=grid, values=values, kind="solution")
    cache = FbmEstimatorCache(bundle, drift_model("custom:-1,0"), HurstParams(h=0.8), 1.0)
    stats = cache.stats(1)
    assert stats.i_n == pytest.approx(-1599.0)
    phi, exact = cache.phi(1, stats), cache._phi_exact(1, stats)
    assert cache._taylor is None
    for r in (1599.0, 1599.5, 1600.0):
        assert phi(r) == exact(r)
