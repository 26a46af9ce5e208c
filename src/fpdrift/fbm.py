"""Exact sampling of (possibly cross-correlated) fractional Brownian motion bundles.

Paths are sampled on a uniform grid by Cholesky factorization of the node
covariance, which is exact for the small grids used here. Cross-correlation
between copies is applied by left-multiplying the standard-normal draw with
the Cholesky factor of the correlation matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError

# Pivot tolerance for positive-semidefiniteness checks.
PSD_TOL = 1e-10


@dataclass(frozen=True)
class Grid:
    """Uniform dissection of [0, T] with `steps` intervals (steps + 1 nodes)."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def mesh(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        """Nodes t_j = j*T/steps for j = 0..steps; endpoints exact."""
        t = np.arange(self.steps + 1) * (self.horizon / self.steps)
        t[-1] = self.horizon
        return t


@dataclass(frozen=True)
class HurstParams:
    """Hurst index H in (0, 1) with its derived kernel constants."""

    h: float

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"Hurst index must lie in (0, 1), got {self.h}")

    @property
    def alpha(self) -> float:
        """H(2H - 1); positive iff H > 1/2."""
        return self.h * (2.0 * self.h - 1.0)

    @property
    def alpha_bar(self) -> float:
        """alpha / (2H(2H + 1)), the contraction-bound constant."""
        return self.alpha / (2.0 * self.h * (2.0 * self.h + 1.0))


@dataclass(frozen=True)
class CrossCorrelation:
    """Correlation structure across the N copies.

    `matrix is None` encodes the identity (independent copies) without
    materializing an N x N array, so very large bundles stay cheap.
    """

    size: int
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=float)
            if m.shape != (self.size, self.size):
                raise ValueError(f"matrix shape {m.shape} does not match size {self.size}")
            if not np.allclose(m, m.T, atol=1e-12):
                raise ValueError("correlation matrix must be symmetric")
            if not np.allclose(np.diag(m), 1.0, atol=1e-12):
                raise ValueError("correlation matrix must have unit diagonal")
            _cholesky_psd(m)  # raises if not PSD

    @classmethod
    def identity(cls, size: int) -> "CrossCorrelation":
        return cls(size=size, matrix=None)

    @property
    def is_identity(self) -> bool:
        return self.matrix is None


@dataclass
class PathBundle:
    """N sampled trajectories on a grid; rows are paths, columns are nodes."""

    grid: Grid
    values: np.ndarray  # shape (N, steps + 1)
    kind: str  # "noise" | "solution"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if self.values.shape[1] != self.grid.steps + 1:
            raise ValueError(
                f"values has {self.values.shape[1]} columns, grid expects {self.grid.steps + 1}"
            )
        if self.kind not in ("noise", "solution"):
            raise ValueError(f"kind must be 'noise' or 'solution', got {self.kind!r}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("path values must be finite")
        if self.kind == "noise" and self.values.shape[0] and np.any(self.values[:, 0] != 0.0):
            raise ValueError("noise paths must start at 0")

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]


def _cholesky_psd(a: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """Factor L with L @ L.T = a for a symmetric PSD matrix.

    Symmetrizes first, tries a plain Cholesky, and falls back to an
    eigendecomposition that tolerates eigenvalues down to -tol.
    """
    a = 0.5 * (a + a.T)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        pass
    vals, vecs = np.linalg.eigh(a)
    if vals.min() < -tol:
        raise np.linalg.LinAlgError(
            f"matrix is not positive semidefinite (min eigenvalue {vals.min():.3e})"
        )
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def fbm_covariance(hurst: HurstParams, grid: Grid) -> np.ndarray:
    """Covariance matrix 0.5*(s^2H + t^2H - |t-s|^2H) at nodes t_1..t_steps.

    Raises DivergenceError when an entry leaves the float range.
    """
    t = grid.nodes[1:]
    two_h = 2.0 * hurst.h
    # At most two steps x steps arrays are live. Both terms are symmetric in
    # (i, j) bit for bit, so cov is too. An overflow is reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        t2h = t**two_h
        lag = np.subtract.outer(t, t)
        np.abs(lag, out=lag)
        lag **= two_h
        cov = t2h[:, None] + t2h[None, :]
        cov -= lag
        cov *= 0.5
    if not np.isfinite(cov).all():
        raise DivergenceError(f"the fBm covariance overflows on the horizon T={grid.horizon:g} "
                              f"at H={hurst.h:g}")
    return cov


@functools.lru_cache(maxsize=8)
def _time_factor(hurst: HurstParams, grid: Grid) -> np.ndarray:
    """Cholesky factor of the node covariance, a pure function of (H, grid):
    built once per process and shared read-only."""
    factor = _cholesky_psd(fbm_covariance(hurst, grid))
    factor.flags.writeable = False
    return factor


def sample_fbm_bundle(
    hurst: HurstParams,
    grid: Grid,
    corr: CrossCorrelation,
    rng: np.random.Generator,
) -> PathBundle:
    """Draw an exact Gaussian bundle with Cov(B^i_s, B^k_t) = R_ik * R_H(s, t)."""
    l_time = _time_factor(hurst, grid)
    z = rng.standard_normal((corr.size, grid.steps))
    paths = z @ l_time.T
    if not corr.is_identity:
        l_cross = _cholesky_psd(np.asarray(corr.matrix, dtype=float))
        paths = l_cross @ paths
    values = np.hstack([np.zeros((corr.size, 1)), paths])
    return PathBundle(grid=grid, values=values, kind="noise")


def block_correlation(n: int, q: int, rho: float) -> CrossCorrelation:
    """Block-diagonal correlation: n/q independent clusters of size q, off-diagonal rho."""
    if n < 1 or q < 1:
        raise ValueError("n and q must be positive")
    if n % q != 0:
        raise ValueError(f"q={q} does not divide n={n}")
    if q > 1 and not (-1.0 / (q - 1) < rho <= 1.0):
        raise ValueError(f"rho={rho} outside PSD range (-1/(q-1), 1] for q={q}")
    if q == 1 or rho == 0.0:
        return CrossCorrelation.identity(n)
    block = np.full((q, q), rho)
    np.fill_diagonal(block, 1.0)
    matrix = np.kron(np.eye(n // q), block)
    return CrossCorrelation(size=n, matrix=matrix)


def dependence_count(corr: CrossCorrelation) -> int:
    """Number of ordered pairs (i, k), i != k, with R_ik exactly nonzero."""
    if corr.is_identity:
        return 0
    off = corr.matrix - np.diag(np.diag(corr.matrix))
    return int(np.count_nonzero(off))
