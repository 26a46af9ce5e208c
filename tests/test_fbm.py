import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fpdrift import (
    CrossCorrelation,
    Grid,
    HurstParams,
    PathBundle,
    block_correlation,
    fbm_covariance,
    sample_fbm_bundle,
)
from fpdrift.fbm import _cholesky_psd


def test_grid_nodes_and_mesh():
    g = Grid(horizon=0.75, steps=20)
    assert g.mesh == pytest.approx(0.0375)
    nodes = g.nodes
    assert nodes.shape == (21,)
    assert nodes[0] == 0.0
    assert nodes[-1] == 0.75  # exact endpoint, not 20 * (0.75 / 20)
    assert np.allclose(np.diff(nodes), g.mesh)


@pytest.mark.parametrize("bad", [dict(horizon=0.0, steps=5), dict(horizon=-1.0, steps=5),
                                 dict(horizon=1.0, steps=0)])
def test_grid_rejects_degenerate(bad):
    with pytest.raises(ValueError):
        Grid(**bad)


def test_hurst_constants():
    hp = HurstParams(h=0.7)
    assert hp.alpha == pytest.approx(0.7 * 0.4)
    assert hp.alpha_bar == pytest.approx(hp.alpha / (2 * 0.7 * (2 * 0.7 + 1)))
    with pytest.raises(ValueError):
        HurstParams(h=1.0)
    with pytest.raises(ValueError):
        HurstParams(h=0.0)


@given(h=st.floats(0.51, 0.99), s=st.floats(0.01, 2.0), t=st.floats(0.01, 2.0))
def test_covariance_formula_pointwise(h, s, t):
    # R(s, t) = (s^2H + t^2H - |t - s|^2H) / 2 checked against a direct formula
    # at arbitrary grid positions.
    grid = Grid(horizon=max(s, t), steps=2)
    hp = HurstParams(h=h)
    cov = fbm_covariance(hp, grid)
    nodes = grid.nodes[1:]
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            expect = 0.5 * (a ** (2 * h) + b ** (2 * h) - abs(a - b) ** (2 * h))
            assert cov[i, j] == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("h,horizon,steps", [(0.5, 1.0, 1), (0.7, 0.5, 37),
                                               (0.9, 0.75, 20), (0.55, 3.0, 200)])
def test_covariance_matches_meshgrid_formula(h, horizon, steps):
    t = Grid(horizon=horizon, steps=steps).nodes[1:]
    s, u = np.meshgrid(t, t, indexing="ij")
    two_h = 2.0 * h
    want = 0.5 * (s**two_h + u**two_h - np.abs(u - s) ** two_h)
    got = fbm_covariance(HurstParams(h=h), Grid(horizon=horizon, steps=steps))
    assert np.array_equal(got, want)
    assert np.array_equal(got, got.T)


@pytest.mark.parametrize("h", [0.5, 0.6, 0.75, 0.9])
def test_covariance_is_psd(h):
    cov = fbm_covariance(HurstParams(h=h), Grid(horizon=1.0, steps=12))
    vals = np.linalg.eigvalsh(cov)
    assert vals.min() > -1e-12


def test_cholesky_psd_handles_singular():
    # Rank-deficient: all-ones correlation (rho = 1) has a valid factor.
    m = np.ones((4, 4))
    l = _cholesky_psd(m)
    assert np.allclose(l @ l.T, m, atol=1e-10)


def test_cholesky_psd_rejects_indefinite():
    m = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky_psd(m)


def test_sample_starts_at_zero_and_shapes():
    grid = Grid(horizon=1.0, steps=8)
    bundle = sample_fbm_bundle(HurstParams(h=0.7), grid,
                               CrossCorrelation.identity(5),
                               np.random.default_rng(0))
    assert bundle.values.shape == (5, 9)
    assert np.all(bundle.values[:, 0] == 0.0)
    assert bundle.kind == "noise"


def test_sampling_deterministic_given_seed():
    grid = Grid(horizon=1.0, steps=8)
    kw = dict(hurst=HurstParams(h=0.8), grid=grid, corr=CrossCorrelation.identity(3))
    a = sample_fbm_bundle(rng=np.random.default_rng(99), **kw)
    b = sample_fbm_bundle(rng=np.random.default_rng(99), **kw)
    assert np.array_equal(a.values, b.values)


def test_empirical_covariance_small():
    # Coarse Monte Carlo check on a tiny grid; the tight version is in the
    # acceptance suite.
    grid = Grid(horizon=1.0, steps=4)
    hp = HurstParams(h=0.75)
    rng = np.random.default_rng(7)
    bundle = sample_fbm_bundle(hp, grid, CrossCorrelation.identity(40000), rng)
    emp = bundle.values[:, 1:].T @ bundle.values[:, 1:] / bundle.n_paths
    assert np.allclose(emp, fbm_covariance(hp, grid), atol=0.05)


def test_cross_correlation_applied():
    # With rho = 1 inside a block of 2, the two paths coincide.
    grid = Grid(horizon=1.0, steps=5)
    corr = block_correlation(4, 2, 1.0)
    bundle = sample_fbm_bundle(HurstParams(h=0.7), grid, corr, np.random.default_rng(3))
    assert np.allclose(bundle.values[0], bundle.values[1], atol=1e-10)
    assert not np.allclose(bundle.values[0], bundle.values[2])


def test_block_correlation_structure():
    corr = block_correlation(6, 3, 0.4)
    m = corr.matrix
    assert m.shape == (6, 6)
    assert np.all(np.diag(m) == 1.0)
    assert m[0, 1] == 0.4 and m[1, 2] == 0.4
    assert m[0, 3] == 0.0  # different clusters independent
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 6 * 2  # q(q-1) per cluster, 2 clusters


def test_block_correlation_identity_cases():
    assert block_correlation(5, 1, 0.0).is_identity
    assert block_correlation(6, 3, 0.0).is_identity


def test_block_correlation_validation():
    with pytest.raises(ValueError):
        block_correlation(5, 2, 0.3)  # q does not divide n
    with pytest.raises(ValueError):
        block_correlation(6, 3, -0.6)  # below -1/(q-1)
    with pytest.raises(ValueError):
        block_correlation(6, 3, 1.2)


def test_cross_correlation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        CrossCorrelation(size=2, matrix=np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ValueError):
        CrossCorrelation(size=2, matrix=np.array([[2.0, 0.0], [0.0, 1.0]]))  # diagonal
    with pytest.raises(np.linalg.LinAlgError):
        CrossCorrelation(size=2, matrix=np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite


def test_path_bundle_validation():
    grid = Grid(horizon=1.0, steps=2)
    with pytest.raises(ValueError):
        PathBundle(grid=grid, values=np.zeros((2, 4)), kind="noise")  # wrong width
    with pytest.raises(ValueError):
        PathBundle(grid=grid, values=np.full((1, 3), np.nan), kind="solution")
    with pytest.raises(ValueError):
        PathBundle(grid=grid, values=np.ones((1, 3)), kind="noise")  # nonzero start
    with pytest.raises(ValueError):
        PathBundle(grid=grid, values=np.zeros((1, 3)), kind="other")


@settings(max_examples=25, deadline=None)
@given(h=st.floats(0.55, 0.95), steps=st.integers(2, 10))
def test_increment_variance_property(h, steps):
    # E[(B_t - B_s)^2] = |t - s|^2H follows from the covariance; check the
    # matrix identity R(t,t) - 2R(s,t) + R(s,s) = (t - s)^2H on the grid.
    grid = Grid(horizon=1.0, steps=steps)
    cov = fbm_covariance(HurstParams(h=h), grid)
    t = grid.nodes[1:]
    for i in range(steps):
        for j in range(i + 1, steps):
            incr_var = cov[j, j] - 2 * cov[i, j] + cov[i, i]
            assert incr_var == pytest.approx((t[j] - t[i]) ** (2 * h), rel=1e-9)


@pytest.mark.parametrize("q", [1, 2])
def test_brownian_running_sum_matches_the_cholesky_sample(q):
    # At H = 1/2 the sampler sums sqrt(mesh) z over time instead of applying the
    # Cholesky factor of min(s, t): the same paths from the same draws, up to
    # rounding, stored time-major.
    grid, n = Grid(horizon=0.75, steps=100), 12
    corr = block_correlation(n, q, 0.3)
    bundle = sample_fbm_bundle(HurstParams(h=0.5), grid, corr, np.random.default_rng(5))
    assert bundle.values.shape == (n, 101) and bundle.values.T.flags.c_contiguous
    z = np.random.default_rng(5).standard_normal((n, grid.steps))
    want = z @ np.linalg.cholesky(fbm_covariance(HurstParams(h=0.5), grid)).T
    if q > 1:
        want = corr.factor @ want
    assert np.all(bundle.values[:, 0] == 0.0)
    np.testing.assert_allclose(bundle.values[:, 1:], want, rtol=1e-13,
                               atol=1e-13 * np.abs(want).max())
