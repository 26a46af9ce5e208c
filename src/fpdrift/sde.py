"""Drift model catalog and Euler simulation of the observed copies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError
from .fbm import Grid, HurstParams, PathBundle


@dataclass(frozen=True)
class DriftModel:
    """Drift function b with derivative, antiderivative and bound metadata.

    `antiderivative` satisfies antiderivative' = b (integration constant 0);
    only differences of it are ever used. `sup_norm_b_prime` is sup |b'|.
    `b_prime_bounded` is False when b' is unbounded on the line, so that the sup
    is only taken over a probe interval.
    """

    name: str
    b: Callable[[np.ndarray], np.ndarray]
    b_prime: Callable[[np.ndarray], np.ndarray]
    antiderivative: Callable[[np.ndarray], np.ndarray]
    sup_norm_b_prime: float
    b_prime_bounded: bool = True


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
    # b(x) = pi - arctan(x); |b'(x)| = 1/(1+x^2) <= 1, attained at 0.
    return DriftModel(
        name="model1",
        b=lambda x: np.pi - np.arctan(x),
        b_prime=lambda x: -1.0 / (1.0 + np.asarray(x, dtype=float) ** 2),
        antiderivative=lambda x: np.pi * x - x * np.arctan(x) + 0.5 * np.log1p(np.asarray(x, dtype=float) ** 2),
        sup_norm_b_prime=1.0,
    )


def _model2() -> DriftModel:
    return DriftModel(
        name="model2",
        b=lambda x: -np.asarray(x, dtype=float),
        b_prime=lambda x: np.full_like(np.asarray(x, dtype=float), -1.0),
        antiderivative=lambda x: -np.asarray(x, dtype=float) ** 2 / 2.0,
        sup_norm_b_prime=1.0,
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
    return DriftModel(
        name="custom:" + ",".join(repr(float(c)) for c in coeffs),
        b=poly,
        b_prime=dpoly,
        antiderivative=ipoly,
        sup_norm_b_prime=float(np.abs(dpoly(_CUSTOM_PROBE)).max()),
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
    return PathBundle(grid=spec.grid, values=x.T, kind="solution")  # time-major storage
