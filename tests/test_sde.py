from dataclasses import replace

import numpy as np
import pytest

from fpdrift import (
    CrossCorrelation,
    DivergenceError,
    Grid,
    HurstParams,
    PathBundle,
    SdeSpec,
    drift_model,
    euler_additive,
    sample_fbm_bundle,
)

PROBE = np.linspace(-8.0, 8.0, 101)


def assert_self_consistent(m, probe, h=1e-5, tol=1e-6):
    """Central differences of b and of the antiderivative match b' and b on the
    probe set, and |b'| stays within sup_norm_b_prime there."""
    fd_b_prime = (m.b(probe + h) - m.b(probe - h)) / (2.0 * h)
    assert np.allclose(fd_b_prime, m.b_prime(probe), atol=tol)
    fd_b = (m.antiderivative(probe + h) - m.antiderivative(probe - h)) / (2.0 * h)
    assert np.allclose(fd_b, m.b(probe), atol=tol)
    assert np.all(np.abs(m.b_prime(probe)) <= m.sup_norm_b_prime + tol)


@pytest.mark.parametrize("name", ["model1", "model2", "custom:1,0,-2"])
def test_catalog_models_self_consistent(name):
    assert_self_consistent(drift_model(name), PROBE)


@pytest.mark.parametrize("name,bounded", [
    ("model1", True), ("model2", True), ("custom:2", True), ("custom:-6000,0", True),
    ("custom:0,1,0", True), ("custom:-0.1,0,0", False), ("custom:1,0,-2", False),
])
def test_b_prime_bounded(name, bounded):
    assert drift_model(name).b_prime_bounded is bounded


def test_model1_values():
    m = drift_model("model1")
    assert m.b(0.0) == pytest.approx(np.pi)
    assert m.b_prime(0.0) == pytest.approx(-1.0)
    assert m.sup_norm_b_prime == 1.0
    # b(x)^2 >= pi^2/4 since arctan < pi/2; criterion 9's threshold rests on it.
    assert np.all(m.b(PROBE) ** 2 >= np.pi**2 / 4 - 1e-12)


def test_model2_is_ornstein_uhlenbeck():
    m = drift_model("model2")
    assert m.b(3.0) == -3.0
    assert np.all(m.b_prime(PROBE) == -1.0)
    assert m.sup_norm_b_prime == 1.0


def test_custom_polynomial_parsing():
    # coefficients highest degree first: 2x^2 - 1
    m = drift_model("custom:2,0,-1")
    assert m.b(2.0) == pytest.approx(7.0)
    assert m.b_prime(2.0) == pytest.approx(8.0)
    assert_self_consistent(m, np.linspace(-5, 5, 51))
    with pytest.raises(ValueError):
        drift_model("custom:")
    with pytest.raises(ValueError):
        drift_model("nope")


def test_euler_additive_hand_computed():
    # Two steps of X' = theta0 * (-X) + sigma dB with known increments.
    grid = Grid(horizon=1.0, steps=2)
    noise = PathBundle(grid=grid, values=np.array([[0.0, 0.2, -0.1]]), kind="noise")
    spec = SdeSpec(x0=1.0, theta0=2.0, sigma=0.5, drift=drift_model("model2"),
                   hurst=HurstParams(h=0.7), grid=grid)
    out = euler_additive(spec, noise)
    x1 = 1.0 + 2.0 * (-1.0) * 0.5 + 0.5 * 0.2          # = 0.1
    x2 = x1 + 2.0 * (-x1) * 0.5 + 0.5 * (-0.1 - 0.2)   # = -0.15
    assert out.values[0] == pytest.approx([1.0, x1, x2])
    assert out.kind == "solution"


def _euler_oracle(spec, noise):
    """The Euler scheme written column by column, as in its formula."""
    db = np.diff(noise.values, axis=1)
    x = np.empty_like(noise.values)
    x[:, 0] = spec.x0
    for j in range(spec.grid.steps):
        x[:, j + 1] = x[:, j] + spec.theta0 * spec.drift.b(x[:, j]) * spec.grid.mesh \
            + spec.sigma * db[:, j]
    return x


@pytest.mark.parametrize("h", [0.5, 0.9])
@pytest.mark.parametrize("model,horizon,x0", [
    ("model1", 0.1, 5.0), ("model2", 0.75, 5.0), ("custom:-1,0,1,0", 0.5, 0.5)])
def test_euler_additive_matches_columnwise_oracle(model, horizon, x0, h):
    grid = Grid(horizon=horizon, steps=50)
    hurst = HurstParams(h=h)
    noise = sample_fbm_bundle(hurst, grid, CrossCorrelation.identity(7),
                              np.random.default_rng(3))
    spec = SdeSpec(x0=x0, theta0=1.5, sigma=0.8, drift=drift_model(model),
                   hurst=hurst, grid=grid)
    out = euler_additive(spec, noise)
    # The state is stored time-major, and values is its transposed view.
    assert out.values.shape == (7, 51) and out.values.T.flags.c_contiguous
    assert np.array_equal(out.values, _euler_oracle(spec, noise))


def test_euler_additive_identity_drift_does_not_alias_state():
    # b returns its argument itself; the step must not scale the state in place.
    grid = Grid(horizon=1.0, steps=4)
    noise = PathBundle(grid=grid, values=np.zeros((2, 5)), kind="noise")
    drift = replace(drift_model("model2"), b=lambda x: x)
    spec = SdeSpec(x0=1.0, theta0=1.0, sigma=1.0, drift=drift, hurst=HurstParams(h=0.7),
                   grid=grid)
    assert np.array_equal(euler_additive(spec, noise).values, np.tile(1.25 ** np.arange(5), (2, 1)))


def test_euler_additive_explosive_drift_raises():
    grid = Grid(horizon=1.0, steps=20)
    noise = PathBundle(grid=grid, values=np.zeros((3, 21)), kind="noise")
    spec = SdeSpec(x0=5.0, theta0=1.0, sigma=1.0, drift=drift_model("custom:1,0,0"),
                   hurst=HurstParams(h=0.7), grid=grid)
    with pytest.raises(DivergenceError):
        euler_additive(spec, noise)


def test_euler_additive_checks_inputs():
    grid = Grid(horizon=1.0, steps=2)
    other = Grid(horizon=2.0, steps=2)
    noise = PathBundle(grid=grid, values=np.zeros((1, 3)), kind="noise")
    spec = SdeSpec(x0=0.0, theta0=1.0, sigma=1.0, drift=drift_model("model2"),
                   hurst=HurstParams(h=0.7), grid=other)
    with pytest.raises(ValueError):
        euler_additive(spec, noise)
    sol = PathBundle(grid=grid, values=np.ones((1, 3)), kind="solution")
    spec2 = SdeSpec(x0=0.0, theta0=1.0, sigma=1.0, drift=drift_model("model2"),
                    hurst=HurstParams(h=0.7), grid=grid)
    with pytest.raises(ValueError):
        euler_additive(spec2, sol)


def test_sde_spec_rejects_zero_sigma():
    grid = Grid(horizon=1.0, steps=2)
    with pytest.raises(ValueError):
        SdeSpec(x0=0.0, theta0=1.0, sigma=0.0, drift=drift_model("model2"),
                hurst=HurstParams(h=0.7), grid=grid)

