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
    constant_vol,
    drift_model,
    euler_additive,
    euler_multiplicative,
    extract_regeneration_copies,
    sample_fbm_bundle,
)

PROBE = np.linspace(-8.0, 8.0, 101)


@pytest.mark.parametrize("name", ["model1", "model2", "custom:1,0,-2"])
def test_catalog_models_self_consistent(name):
    drift_model(name).validate(PROBE)


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
    assert m.sup_b_prime == 0.0
    assert m.sup_norm_b_prime == 1.0
    # b(x)^2 >= pi^2/4 since arctan < pi/2
    assert m.square_lower_bound == pytest.approx(np.pi**2 / 4)
    assert np.all(m.b(PROBE) ** 2 >= m.square_lower_bound - 1e-12)


def test_model2_is_ornstein_uhlenbeck():
    m = drift_model("model2")
    assert m.b(3.0) == -3.0
    assert np.all(m.b_prime(PROBE) == -1.0)
    assert m.sup_b_prime == -1.0


def test_custom_polynomial_parsing():
    # coefficients highest degree first: 2x^2 - 1
    m = drift_model("custom:2,0,-1")
    assert m.b(2.0) == pytest.approx(7.0)
    assert m.b_prime(2.0) == pytest.approx(8.0)
    m.validate(np.linspace(-5, 5, 51))
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
    assert out.values.shape == (7, 51) and out.values.flags.c_contiguous
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


def test_euler_multiplicative_matches_additive_for_constant_vol():
    grid = Grid(horizon=1.0, steps=10)
    hurst = HurstParams(h=0.5)
    noise = sample_fbm_bundle(hurst, grid, CrossCorrelation.identity(3),
                              np.random.default_rng(1))
    spec = SdeSpec(x0=2.0, theta0=1.0, sigma=0.7, drift=drift_model("model2"),
                   hurst=hurst, grid=grid)
    add = euler_additive(spec, noise)
    spec_unit = SdeSpec(x0=2.0, theta0=1.0, sigma=1.0, drift=drift_model("model2"),
                        hurst=hurst, grid=grid)
    mult = euler_multiplicative(spec_unit, constant_vol(0.7), noise)
    assert np.allclose(add.values, mult.values)


def test_euler_multiplicative_requires_half():
    grid = Grid(horizon=1.0, steps=4)
    noise = PathBundle(grid=grid, values=np.zeros((1, 5)), kind="noise")
    spec = SdeSpec(x0=0.0, theta0=1.0, sigma=1.0, drift=drift_model("model2"),
                   hurst=HurstParams(h=0.7), grid=grid)
    with pytest.raises(ValueError):
        euler_multiplicative(spec, constant_vol(1.0), noise)


def test_sde_spec_rejects_zero_sigma():
    grid = Grid(horizon=1.0, steps=2)
    with pytest.raises(ValueError):
        SdeSpec(x0=0.0, theta0=1.0, sigma=0.0, drift=drift_model("model2"),
                hurst=HurstParams(h=0.7), grid=grid)


def test_constant_vol():
    v = constant_vol(-0.5)
    v.validate(PROBE)
    assert v.lower_bound == 0.5
    with pytest.raises(ValueError):
        constant_vol(0.0)


def test_regeneration_copies_crafted_path():
    # 12 nodes, mesh 0.5, copies of horizon 1.0 (2 steps each). x0 = 1.
    values = np.array([[1.0, 1.5, 2.0, 1.4, 0.8, 1.2, 1.1, 1.0, 0.9, 1.3, 1.2, 1.1]])
    grid = Grid(horizon=5.5, steps=11)
    path = PathBundle(grid=grid, values=values, kind="solution")
    copies = extract_regeneration_copies(path, x0=1.0, copy_horizon=1.0, max_copies=5)
    # First copy: nodes 0..2. Search from node 3: crossing at node 4
    # (1.4 - 1)(0.8 - 1) < 0. Second copy: nodes 4..6. Search from node 7:
    # X = 1.0 exactly, (0.1)(0.0) <= 0, third copy: nodes 7..9.
    assert len(copies) == 3
    assert np.array_equal(copies[0], values[0, 0:3])
    assert np.array_equal(copies[1], values[0, 4:7])
    assert np.array_equal(copies[2], values[0, 7:10])


def test_regeneration_copies_no_return():
    # Monotone path never returns to x0: only the initial copy.
    values = np.arange(8.0).reshape(1, -1)
    grid = Grid(horizon=7.0, steps=7)
    path = PathBundle(grid=grid, values=values, kind="solution")
    copies = extract_regeneration_copies(path, x0=0.0, copy_horizon=2.0, max_copies=4)
    assert len(copies) == 1
    assert np.array_equal(copies[0], values[0, :3])


def test_regeneration_copies_validation():
    grid = Grid(horizon=1.0, steps=4)
    path = PathBundle(grid=grid, values=np.zeros((2, 5)), kind="solution")
    with pytest.raises(ValueError):
        extract_regeneration_copies(path, 0.0, 0.5, 2)  # two paths
    single = PathBundle(grid=grid, values=np.ones((1, 5)), kind="solution")
    with pytest.raises(ValueError):
        extract_regeneration_copies(single, 0.0, 0.5, 2)  # does not start at x0
    with pytest.raises(ValueError):
        extract_regeneration_copies(single, 1.0, 0.3, 2)  # mesh does not divide
