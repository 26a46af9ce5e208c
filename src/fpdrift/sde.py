"""Drift/volatility model catalog and Euler simulation of the observed copies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError
from .fbm import Grid, HurstParams, PathBundle


@dataclass(frozen=True)
class DriftModel:
    """Drift function b with derivative, antiderivative and bound metadata.

    `antiderivative` satisfies antiderivative' = b (integration constant 0);
    only differences of it are ever used. `sup_b_prime` is sup b' (the constant
    M), `sup_norm_b_prime` is sup |b'|, and `square_lower_bound` is an optional
    known lower bound on b(x)^2. `b_prime_bounded` is False when b' is unbounded
    on the line, so that the two sups are only taken over a probe interval.
    """

    name: str
    b: Callable[[np.ndarray], np.ndarray]
    b_prime: Callable[[np.ndarray], np.ndarray]
    antiderivative: Callable[[np.ndarray], np.ndarray]
    sup_b_prime: float
    sup_norm_b_prime: float
    square_lower_bound: Optional[float] = None
    b_prime_bounded: bool = True

    def validate(self, probe: np.ndarray, h: float = 1e-5, tol: float = 1e-6) -> None:
        """Finite-difference consistency check of b_prime and antiderivative on a probe set."""
        probe = np.asarray(probe, dtype=float)
        fd_b_prime = (self.b(probe + h) - self.b(probe - h)) / (2.0 * h)
        if not np.allclose(fd_b_prime, self.b_prime(probe), atol=tol):
            raise ValueError(f"{self.name}: b_prime inconsistent with b")
        fd_b = (self.antiderivative(probe + h) - self.antiderivative(probe - h)) / (2.0 * h)
        if not np.allclose(fd_b, self.b(probe), atol=tol):
            raise ValueError(f"{self.name}: antiderivative inconsistent with b")
        bp = self.b_prime(probe)
        if np.any(bp > self.sup_b_prime + tol):
            raise ValueError(f"{self.name}: b_prime exceeds sup_b_prime on probe set")
        if np.any(np.abs(bp) > self.sup_norm_b_prime + tol):
            raise ValueError(f"{self.name}: |b_prime| exceeds sup_norm_b_prime on probe set")


@dataclass(frozen=True)
class VolModel:
    """Volatility function for the H = 1/2 multiplicative-noise model."""

    name: str
    sigma_fn: Callable[[np.ndarray], np.ndarray]
    sigma_prime: Callable[[np.ndarray], np.ndarray]
    lower_bound: float  # mu > 0 with |sigma(.)| >= mu
    sup_norm: float

    def validate(self, probe: np.ndarray, h: float = 1e-5, tol: float = 1e-6) -> None:
        probe = np.asarray(probe, dtype=float)
        fd = (self.sigma_fn(probe + h) - self.sigma_fn(probe - h)) / (2.0 * h)
        if not np.allclose(fd, self.sigma_prime(probe), atol=tol):
            raise ValueError(f"{self.name}: sigma_prime inconsistent with sigma_fn")
        if np.any(np.abs(self.sigma_fn(probe)) < self.lower_bound - tol):
            raise ValueError(f"{self.name}: |sigma| falls below its stated lower bound")


@dataclass(frozen=True)
class SdeSpec:
    """Everything needed to simulate dX = theta0 b(X) dt + sigma dB from x0."""

    x0: float
    theta0: float
    sigma: float
    drift: DriftModel
    hurst: HurstParams
    grid: Grid

    def __post_init__(self):
        if self.sigma == 0.0:
            raise ValueError("sigma must be nonzero")


def _model1() -> DriftModel:
    # b(x) = pi - arctan(x); sup b' = 0 (sup of -1/(1+x^2), not attained).
    return DriftModel(
        name="model1",
        b=lambda x: np.pi - np.arctan(x),
        b_prime=lambda x: -1.0 / (1.0 + np.asarray(x, dtype=float) ** 2),
        antiderivative=lambda x: np.pi * x - x * np.arctan(x) + 0.5 * np.log1p(np.asarray(x, dtype=float) ** 2),
        sup_b_prime=0.0,
        sup_norm_b_prime=1.0,
        square_lower_bound=np.pi**2 / 4.0,
    )


def _model2() -> DriftModel:
    return DriftModel(
        name="model2",
        b=lambda x: -np.asarray(x, dtype=float),
        b_prime=lambda x: np.full_like(np.asarray(x, dtype=float), -1.0),
        antiderivative=lambda x: -np.asarray(x, dtype=float) ** 2 / 2.0,
        sup_b_prime=-1.0,
        sup_norm_b_prime=1.0,
        square_lower_bound=None,
    )


# Probe interval used to bound derivatives of user-supplied polynomial drifts.
_CUSTOM_PROBE = np.linspace(-10.0, 10.0, 401)


def _custom_polynomial(coeffs: list[float]) -> DriftModel:
    """Drift b given by polynomial coefficients (highest degree first).

    Derivative bounds are taken over a fixed probe interval, since b' is
    unbounded on the whole line unless it is constant (degree <= 1).
    """
    if not np.isfinite(coeffs).all():
        raise ValueError(f"custom drift coefficients must be finite, got {coeffs}")
    poly = np.polynomial.Polynomial(list(reversed([float(c) for c in coeffs])))
    dpoly = poly.deriv()
    ipoly = poly.integ()
    bp = dpoly(_CUSTOM_PROBE)
    return DriftModel(
        name="custom:" + ",".join(repr(float(c)) for c in coeffs),
        b=poly,
        b_prime=dpoly,
        antiderivative=ipoly,
        sup_b_prime=float(bp.max()),
        sup_norm_b_prime=float(np.abs(bp).max()),
        square_lower_bound=None,
        b_prime_bounded=not np.any(dpoly.coef[1:]),
    )


def drift_model(spec: str) -> DriftModel:
    """Resolve a drift model by string id: "model1", "model2" or "custom:c0,c1,...". """
    if spec == "model1":
        return _model1()
    if spec == "model2":
        return _model2()
    if spec.startswith("custom:"):
        coeffs = [float(c) for c in spec[len("custom:"):].split(",") if c.strip()]
        if not coeffs:
            raise ValueError("custom drift needs at least one coefficient")
        return _custom_polynomial(coeffs)
    raise ValueError(f"unknown drift model id {spec!r}")


def constant_vol(sigma: float) -> VolModel:
    if sigma == 0.0:
        raise ValueError("constant volatility must be nonzero")
    return VolModel(
        name=f"const:{sigma!r}",
        sigma_fn=lambda x: np.full_like(np.asarray(x, dtype=float), sigma),
        sigma_prime=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        lower_bound=abs(sigma),
        sup_norm=abs(sigma),
    )


def euler_additive(spec: SdeSpec, noise: PathBundle) -> PathBundle:
    """Euler scheme X_{j+1} = X_j + theta0 b(X_j) dt + sigma (B_{j+1} - B_j)."""
    if noise.grid != spec.grid:
        raise ValueError("noise bundle grid does not match the SDE grid")
    if noise.kind != "noise":
        raise ValueError("euler_additive expects a noise bundle")
    b = spec.drift.b
    # 0-d arrays spare each step's ufuncs the conversion of a Python float.
    theta0, dt = np.array(spec.theta0), np.array(spec.grid.mesh)
    # Time-major state, so each step reads and writes contiguous rows in place.
    # Row j + 1 holds sigma (B_{j+1} - B_j) until step j adds X_j + theta0 b(X_j) dt to it.
    x = np.empty((spec.grid.steps + 1, noise.n_paths))
    x[0] = spec.x0
    # Overflow is reported once, as DivergenceError, instead of as warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(noise.values[:, 1:].T, noise.values[:, :-1].T, out=x[1:])
        x[1:] *= spec.sigma
        for xj, xnext in zip(x[:-1], x[1:]):
            # A fresh product before the in-place scaling, so a drift that
            # returns its argument cannot alias the state.
            d = theta0 * b(xj)
            d *= dt
            d += xj
            xnext += d
    if not np.all(np.isfinite(x)):
        raise DivergenceError("the Euler scheme produced non-finite values; "
                              "the drift explodes on this horizon")
    return PathBundle(grid=spec.grid, values=np.ascontiguousarray(x.T), kind="solution")


def euler_multiplicative(spec: SdeSpec, vol: VolModel, noise: PathBundle) -> PathBundle:
    """Euler-Maruyama for the H = 1/2 model with state-dependent volatility."""
    if spec.hurst.h != 0.5:
        raise ValueError("multiplicative noise is only supported for H = 1/2")
    if noise.grid != spec.grid:
        raise ValueError("noise bundle grid does not match the SDE grid")
    if noise.kind != "noise":
        raise ValueError("euler_multiplicative expects a noise bundle")
    dt = spec.grid.mesh
    db = np.diff(noise.values, axis=1)
    x = np.empty_like(noise.values)
    x[:, 0] = spec.x0
    for j in range(spec.grid.steps):
        x[:, j + 1] = (
            x[:, j]
            + spec.theta0 * spec.drift.b(x[:, j]) * dt
            + vol.sigma_fn(x[:, j]) * db[:, j]
        )
    return PathBundle(grid=spec.grid, values=x, kind="solution")


def extract_regeneration_copies(
    long_path: PathBundle,
    x0: float,
    copy_horizon: float,
    max_copies: int,
) -> list[np.ndarray]:
    """Cut one long trajectory into segments starting at successive returns to x0.

    The first segment starts at t = 0; segment i >= 2 starts at the first grid
    node t_j > tau_{i-1} + copy_horizon where X - x0 changes sign (or hits 0)
    between t_{j-1} and t_j. Returns up to `max_copies` segments of
    steps(copy_horizon) + 1 nodes; fewer is a valid outcome.

    Independence of the segments relies on the underlying process being
    recurrent (e.g. dissipative drift with theta0 > 0); this is the caller's
    responsibility and is not verified here.
    """
    if long_path.n_paths != 1:
        raise ValueError("expected a single long path")
    mesh = long_path.grid.mesh
    steps_per_copy = round(copy_horizon / mesh)
    if not np.isclose(steps_per_copy * mesh, copy_horizon, rtol=1e-9, atol=1e-12):
        raise ValueError("grid mesh must divide the copy horizon")
    x = long_path.values[0]
    if x[0] != x0:
        raise ValueError("long path must start at x0")
    total_nodes = x.size
    segments: list[np.ndarray] = []
    start = 0
    while len(segments) < max_copies and start + steps_per_copy < total_nodes:
        segments.append(x[start : start + steps_per_copy + 1].copy())
        if len(segments) == max_copies:
            break
        # First node strictly past the copy horizon where X - x0 changes sign.
        j = start + steps_per_copy + 1
        dev = x - x0
        next_start = None
        while j < total_nodes:
            if dev[j] * dev[j - 1] <= 0.0:
                next_start = j
                break
            j += 1
        if next_start is None:
            break
        start = next_start
    return segments
