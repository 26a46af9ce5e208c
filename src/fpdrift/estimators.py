"""Estimator computations: sufficient statistics, the fixed-point map and its
iteration, contraction certificate, truncations, thresholds and confidence
intervals.

`FbmEstimatorCache` (H > 1/2) and `BmEstimatorCache` (H = 1/2) are the one
implementation of D_N, I_N, Phi_N, Ybar_N and the interval half-width:
`FbmEstimatorCache(paths, drift, hurst, sigma=1.0).estimate(n)` estimates from
the first n paths of a solution bundle (default: all of them).

All integrals are replaced by left-point Riemann sums on the bundle's grid.
The singular kernel |t - s|^(2H-2) is only evaluated at distinct nodes since
inner sums always exclude the diagonal.

Phi_N's double sum over node pairs factorizes as
e^{s(C_j - C_l)} = e^{sC_j} e^{-sC_l}, so one exact evaluation costs
O(N*steps) `exp` calls plus one (N x steps) @ (steps x steps) matmul, and the
cache holds O(N*steps + steps^2) numbers. The kernels depend only on (H, grid)
and are built once per process.

`cache.estimates(points)` solves all prefixes N in points (the Monte Carlo
engine: N = 1..n_max) in one vectorized Picard iteration. A proper prefix n < N
is served from a Taylor table of Phi_N about s0 = I of the full bundle: K = 10
moments per path, prefix-summed, built once per cache at the cost of about K
exact evaluations. A Picard step is then a degree-K Horner evaluation, O(K)
whatever N and steps are. The table value is used only when a bound on its
Taylor remainder and rounding is below 1e-13 of it; otherwise, and always on
the full bundle, the exact sum of that prefix alone is evaluated.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateStatisticsError, DivergenceError
from .fbm import Grid, HurstParams, PathBundle
from .sde import DriftModel, VolModel

DEFAULT_CONTRACTION = 0.5
DEFAULT_TOL = 1e-12
MIN_ITERATIONS = 30


# ---------------------------------------------------------------------------
# Standard normal quantile / distribution function.
# ---------------------------------------------------------------------------

def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# Acklam's rational approximation coefficients for the inverse normal CDF.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


@functools.lru_cache(maxsize=64)
def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF via Acklam's rational approximation,
    refined with one Halley step (accuracy well below 1e-8).

    Memoized: a run asks for the same one or two levels on every prefix."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile level must lie in (0, 1), got {p}")
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((( _C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = ((((( _A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / \
            (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0)
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((( _C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / \
            ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0)
    # Halley refinement against erfc.
    e = normal_cdf(x) - p
    u = e * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


# ---------------------------------------------------------------------------
# Result records.
# ---------------------------------------------------------------------------

@dataclass
class SufficientStats:
    """D_N, I_N and M_N of a path prefix, feeding the fixed-point map."""

    d_n: float
    i_n: float
    m_n: float


@dataclass
class EstimateFBM:
    theta_tilde: float
    r_n: float
    iterations: int
    residual: float
    omega_holds: bool
    theta_tilde_c: float
    theta_tilde_cd: float
    d_n: float
    i_n: float
    aci: tuple[float, float, float]  # (lower, upper, alpha)
    ybar: float


@dataclass
class EstimateBM:
    d_nn: float
    v_nn: float
    theta_hat: float
    theta_hat_d: float
    ybar: float
    aci: Optional[tuple[float, float, float]] = None


# Rows of `FbmEstimatorCache.estimates`: the EstimateFBM fields in order, aci split.
# Where D_N <= 0 (iterations 0) or an iterate diverged: NaN floats, omega False.
FBM_ROW = np.dtype([("estimate", float), ("r_n", float), ("iterations", np.int64),
                    ("residual", float), ("omega", bool), ("theta_c", float),
                    ("theta_cd", float), ("d_n", float), ("i_n", float),
                    ("aci_lower", float), ("aci_upper", float), ("ybar", float)])
# Rows of `BmEstimatorCache.estimates`, likewise; omega False where `estimate` raises.
BM_ROW = np.dtype([("d_n", float), ("v_n", float), ("estimate", float), ("estimate_d", float),
                   ("ybar", float), ("aci_lower", float), ("aci_upper", float), ("omega", bool)])


def _prefix_sums(per_path: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """Row k of per_path summed over the first n paths, for each n in ns: bitwise
    per_path[k, :n].sum() (numpy's pairwise sum), which a cumsum is not."""
    return np.array([np.add.reduce(per_path[:, :n], axis=1) for n in ns.tolist()]).T


def _rows(dtype: np.dtype, defined: np.ndarray, **fields) -> np.ndarray:
    """Structured rows of the given fields, floats NaN where not defined. A finite
    estimate must have a finite interval."""
    width = fields["aci_upper"] - fields["aci_lower"]
    if not np.isfinite(width[defined & np.isfinite(fields["estimate"])]).all():
        raise DivergenceError("the confidence interval leaves the float range: "
                              "sigma^2 Ybar_N / D_N^2 overflows on this bundle")
    rows = np.empty(defined.shape, dtype=dtype)
    for name, value in fields.items():
        rows[name] = value
    rows[[name for name in fields if dtype[name] == float]][~defined] = np.nan
    return rows


# ---------------------------------------------------------------------------
# Fixed-point map.
# ---------------------------------------------------------------------------

# Largest exponent of a single factor e^{+-sC} in the factorized Phi_N. The
# matmul sums a factor against one row of tri, so the margin of 32 below
# ln(DBL_MAX) covers any row sum of tri up to e^32 (~8e13).
_MAX_FACTOR_EXPONENT = float(np.log(np.finfo(float).max)) - 32.0


@functools.lru_cache(maxsize=8)
def _kernels(hurst: HurstParams, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The kernels of one (H, grid), built once per process and shared read-only.

    lag[j, l] = |t_j - t_l|^(2H-2) over nodes t_0..t_nu, zero on the diagonal;
    tri[j - 1, l] = (t_j - t_l)^(2H-2) mesh^2 for l < j, zero otherwise.
    A run uses one (H, grid); the bound keeps a long-lived process from holding
    every kernel it ever built.
    """
    t = grid.nodes
    dt = grid.mesh
    diff = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(diff, 1.0)
    lag = diff ** (2.0 * hurst.h - 2.0)
    np.fill_diagonal(lag, 0.0)
    tri = np.tril(lag[1:, :-1]) * dt * dt
    lag.flags.writeable = False
    tri.flags.writeable = False
    return lag, tri


# Taylor table of Phi_N on proper prefixes: order K, and the bound on the
# relative error of a value it serves.
_TAYLOR_ORDER = 10
_TAYLOR_RTOL = 1e-13
_TAYLOR_INV_FACT = 1.0 / math.factorial(_TAYLOR_ORDER)
_EPS = float(np.finfo(float).eps)
# Past this y = |s - s0| A_n the remainder term alone exceeds the tolerance.
_TAYLOR_Y_MAX = (_TAYLOR_RTOL * math.factorial(_TAYLOR_ORDER)) ** (1.0 / _TAYLOR_ORDER)


def _phi_factorized(s: float, bp: np.ndarray, c: np.ndarray, tri: np.ndarray) -> float:
    """sum_i sum_j b'_ij e^{sC_ij} (tri e^{-sC_i})_j over paths whose factors
    e^{+-sC_i} stay in the float range."""
    return float(np.vdot(bp * np.exp(s * c[:, 1:]), np.exp(-s * c[:, :-1]) @ tri.T))


def _phi_direct(s: float, bp: np.ndarray, c: np.ndarray, tri: np.ndarray) -> float:
    """One path's sum_{l<j} b'(X(t_j)) tri[j-1, l] e^{s(C_j - C_l)}, term by term."""
    # tril zeroes the exponents of the pairs l >= j, whose e^0 = 1 meets tri's zeros.
    e = np.tril(s * np.subtract.outer(c[1:], c[:-1]))
    np.exp(e, out=e)
    e *= tri
    return float(bp @ e.sum(axis=1))


def check_omega(
    stats: SufficientStats,
    hurst: HurstParams,
    sigma: float,
    sup_norm_b_prime: float,
    t_total: float,
    c: float,
) -> bool:
    """Contraction certificate: T^2H M_N / D_N <= c / (alpha_bar sigma^2 |b'|_inf^2),
    elementwise where the fields of stats are arrays over prefixes."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"contraction constant must lie in (0, 1), got {c}")
    if sup_norm_b_prime == 0.0:
        return True  # the map is identically zero, trivially a contraction
    if np.any(stats.d_n <= 0.0):
        raise DegenerateStatisticsError("D_N vanished; the contraction event is undefined")
    lhs = t_total ** (2.0 * hurst.h) * stats.m_n / stats.d_n
    rhs = c / (hurst.alpha_bar * sigma**2 * sup_norm_b_prime**2)
    return lhs <= rhs


def fixed_point(
    phi: Callable[[float], float],
    max_iters: int,
    tol: float,
) -> tuple[float, int, float]:
    """Picard iteration from 0; returns (last iterate, iterations, |phi(R) - R|)."""
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    r = 0.0
    iterations = 0
    for _ in range(max_iters):
        r_next = phi(r)
        iterations += 1
        if not math.isfinite(r_next):
            raise DivergenceError(f"non-finite iterate after {iterations} steps")
        step = abs(r_next - r)
        r = r_next
        if step <= tol:
            break
    residual = abs(phi(r) - r)
    return r, iterations, residual


@functools.lru_cache(maxsize=4096)
def iteration_schedule(
    n: int,
    c: float,
    t_total: float,
    sup_norm_b_prime: float,
    hurst: HurstParams,
) -> int:
    """Iteration count guaranteeing the iterate error is o(N^-1/2), floored at 30.
    Memoized: every trial of a run asks for the same count per prefix."""
    if not 0.0 < c < 1.0:
        raise ValueError(f"contraction constant must lie in (0, 1), got {c}")
    if sup_norm_b_prime == 0.0:
        return 1
    m = c / (1.0 - c) / (2.0 * t_total * hurst.alpha_bar * sup_norm_b_prime)
    needed = -math.log(m * math.sqrt(n)) / math.log(c)
    return max(MIN_ITERATIONS, math.ceil(needed))


# ---------------------------------------------------------------------------
# Thresholds and horizon bound.
# ---------------------------------------------------------------------------

def dmax_from_lower_bound(frak_b: float) -> float:
    """Recommended truncation threshold when b(.)^2 >= frak_b > 0."""
    if frak_b <= 0.0:
        raise ValueError("no computable threshold without a positive lower bound on b^2")
    return frak_b / 2.0


def dmax_ou(x0: float, theta_max: float, t_max: float) -> float:
    """Recommended threshold for Ornstein-Uhlenbeck copies: (x0^2/2) e^(-2 theta_max T_max)."""
    if theta_max <= 0.0 or t_max <= 0.0:
        raise ValueError("theta_max and t_max must be positive")
    if x0 == 0.0:
        warnings.warn("x0 = 0 gives a degenerate (zero) threshold", stacklevel=2)
        return 0.0
    return 0.5 * x0**2 * math.exp(-2.0 * theta_max * t_max)


def max_horizon(
    ell: float,
    theta_max: float,
    t_max: float,
    hurst: HurstParams,
    sigma: float,
    drift: DriftModel,
    c: float,
    x0: float,
) -> float:
    """Largest admissible estimation horizon given a lower bound ell on |b|_f."""
    if ell <= 0.0:
        raise ValueError("ell must be positive")
    sup_bp = drift.sup_norm_b_prime
    if sup_bp == 0.0:
        return math.inf
    s = abs(sigma)
    c1 = max(abs(float(drift.b(x0))), sup_bp / 2.0)
    inner = (
        theta_max**2 * t_max**2
        + theta_max * t_max / ell
        + s * t_max**hurst.h * (1.0 + s * t_max**hurst.h) / ell**2
    )
    base = c * ell**2 / (hurst.alpha_bar * sigma**2 * sup_bp**2)
    return (base * math.exp(-2.0 * c1 * sup_bp * inner)) ** (1.0 / (2.0 * hurst.h))


# ---------------------------------------------------------------------------
# Confidence-interval statistic for H > 1/2.
# ---------------------------------------------------------------------------

def _ybar_contributions(
    paths: PathBundle,
    drift: DriftModel,
    hurst: HurstParams,
    sigma: float,
) -> np.ndarray:
    """Per-path contributions y_i to the asymptotic-variance statistic.

    The quadruple sum factorizes over its two (outer, inner) index pairs into a
    perfect square, so it costs O(steps^2) per path and is never negative.
    """
    dt = paths.grid.mesh
    lag, tri = _kernels(hurst, paths.grid)
    x_nodes = paths.values[:, 1:]  # nodes t_1..t_nu

    babs = np.abs(drift.b(x_nodes))
    double_term = hurst.alpha * dt * dt * ((babs @ lag[1:, 1:]) * babs).sum(axis=1)

    # kappa_j mesh = sum_{l<j} (t_j - t_l)^(2H-2) mesh^2, the row sums of tri
    s_lin = drift.b_prime(x_nodes) @ tri.sum(axis=1)
    quad_term = hurst.alpha**2 * sigma**2 * s_lin**2

    return double_term + quad_term


# ---------------------------------------------------------------------------
# Bundle-level caches (per-path contributions are prefix-summable, so the
# Monte Carlo engine can reuse one simulation across N = 1..N_max).
# ---------------------------------------------------------------------------

class FbmEstimatorCache:
    """Precomputes per-path statistics of a solution bundle once, then serves
    fixed-point estimates on path prefixes."""

    def __init__(self, paths: PathBundle, drift: DriftModel, hurst: HurstParams, sigma: float):
        if hurst.h <= 0.5:
            raise ValueError("the fixed-point estimator requires H > 1/2")
        self.paths = paths
        self.drift = drift
        self.hurst = hurst
        self.sigma = sigma
        self.t_total = paths.grid.horizon
        x = paths.values
        dt = paths.grid.mesh
        d_i = (drift.b(x[:, :-1]) ** 2).sum(axis=1) * dt
        ib_i = drift.antiderivative(x[:, -1]) - drift.antiderivative(x[:, 0])
        self._per_path = np.stack([d_i, ib_i, _ybar_contributions(paths, drift, hurst, sigma)])
        bp = drift.b_prime(x)
        # C_i(t_j) = sum_{l<j} b'(X_i(t_l)) * mesh, with C_i(t_0) = 0, centred on
        # the midpoint of its range so that e^{sC} and e^{-sC} overflow together.
        c = np.zeros_like(x)
        np.cumsum(bp[:, :-1] * dt, axis=1, out=c[:, 1:])
        c_min, c_max = c.min(axis=1), c.max(axis=1)
        self._c = c - 0.5 * (c_min + c_max)[:, None]
        self._c_span = c_max - c_min
        self._c_reach = np.maximum.accumulate(self._c_span)  # widest span of each prefix
        self._bp = bp[:, 1:]  # b'(X) at t_1..t_nu
        self._tri = _kernels(hurst, paths.grid)[1]

    def _prefix_stats(self, ns: np.ndarray) -> tuple[SufficientStats, np.ndarray]:
        """D_N, I_N and M_N as arrays over the prefix sizes ns, plus Ybar_N
        as a fourth array; I_N and M_N mean nothing where D_N <= 0."""
        d_sum, ib_sum, y_sum = _prefix_sums(self._per_path, ns)
        nt = ns * self.t_total
        # D_N = 0 divides by zero, and M_N overflows to inf where Omega_N cannot hold.
        with np.errstate(all="ignore"):
            d_n = d_sum / nt
            i_n = ib_sum / (nt * d_n)
            m_n = np.exp(self.drift.sup_norm_b_prime * np.abs(i_n) * self.t_total)
            ybar = self.sigma**2 / (ns * self.t_total**2) * y_sum
        return SufficientStats(d_n=d_n, i_n=i_n, m_n=m_n), ybar

    def stats(self, n: Optional[int] = None) -> SufficientStats:
        stats, _ = self._prefix_stats(np.array([self.paths.n_paths if n is None else n]))
        if stats.d_n[0] <= 0.0:
            raise DegenerateStatisticsError("D_N vanished on this prefix")
        return SufficientStats(*(float(a[0]) for a in (stats.d_n, stats.i_n, stats.m_n)))

    def ybar(self, n: int) -> float:
        return float(self._prefix_stats(np.array([n]))[1][0])

    def phi(self, n: int, stats: SufficientStats) -> Callable[[float], float]:
        """Phi_N(r) = scale sum_i sum_j b'_ij e^{sC_ij} (tri e^{-sC_i})_j, s = r + I_N.

        On a proper prefix n < n_paths the sum comes from the Taylor table
        whenever its certified error bound allows, and from `_phi_exact`
        otherwise; the full bundle always takes `_phi_exact`.
        """
        phi = self._phi_prefixes(np.array([n]), SufficientStats(
            *(np.array([a]) for a in (stats.d_n, stats.i_n, stats.m_n))))
        return lambda r: float(phi(np.zeros(1, dtype=np.int64), np.array([r]))[0])

    def _phi_prefixes(self, ns: np.ndarray,
                      stats: SufficientStats) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Phi_N of prefix ns[k] at r, for index and iterate arrays (k, r): the
        Taylor table where its error bound holds, else the exact sum of that
        prefix alone."""
        scale = self._scale(ns, stats.d_n)
        table = self._taylor if (ns < self.paths.n_paths).any() else None

        def phi(k: np.ndarray, r: np.ndarray) -> np.ndarray:
            values = np.full(len(k), np.nan)
            if table is not None:
                s0, moments, weights = table
                n = ns[k]
                x = r + stats.i_n[k] - s0
                y = np.abs(x) * self._c_reach[n - 1]
                served = np.flatnonzero((y <= _TAYLOR_Y_MAX) & (n < self.paths.n_paths))
                x, y, rows = x[served], y[served], n[served] - 1
                coeffs = moments[rows]
                v = np.zeros(len(served))
                for j in range(_TAYLOR_ORDER - 1, -1, -1):
                    v = v * x + coeffs[:, j]
                # Taylor remainder plus the rounding of the binomial moments.
                bound = weights[rows] * np.exp(y) * (y**_TAYLOR_ORDER * _TAYLOR_INV_FACT
                                                     + _TAYLOR_ORDER * _EPS)
                values[served] = np.where(bound <= _TAYLOR_RTOL * np.abs(v),
                                          scale[k[served]] * v, np.nan)
            for j in np.flatnonzero(np.isnan(values)).tolist():
                e = k[j]
                prefix = SufficientStats(*(float(a[e]) for a in (stats.d_n, stats.i_n, stats.m_n)))
                values[j] = self._phi_exact(int(ns[e]), prefix)(float(r[j]))
            return values

        return phi

    def _phi_exact(self, n: int, stats: SufficientStats) -> Callable[[float], float]:
        """Phi_N as the factorized sum over the first n paths.

        A path whose factors e^{+-sC_i} would leave the float range is summed
        pair by pair instead; the result is the same sum either way.
        """
        bp, c, span, tri = self._bp[:n], self._c[:n], self._c_span[:n], self._tri
        span_max = float(self._c_reach[n - 1])
        scale = self._scale(n, stats.d_n)
        i_n = stats.i_n

        def _phi(r: float) -> float:
            s = r + i_n
            # An overflow surfaces as a non-finite value, which fixed_point reports.
            with np.errstate(all="ignore"):
                if 0.5 * abs(s) * span_max <= _MAX_FACTOR_EXPONENT:
                    return scale * _phi_factorized(s, bp, c, tri)
                direct = 0.5 * abs(s) * span > _MAX_FACTOR_EXPONENT
                total = sum(_phi_direct(s, bp[i], c[i], tri) for i in np.flatnonzero(direct))
                return scale * (total + _phi_factorized(s, bp[~direct], c[~direct], tri))

        return _phi

    def _scale(self, n, d_n):
        """-alpha sigma^2 / (N T D_N), for scalars or arrays over prefixes."""
        return -self.hurst.alpha * self.sigma**2 / (n * self.t_total * d_n)

    @functools.cached_property
    def _taylor(self) -> Optional[tuple[float, np.ndarray, np.ndarray]]:
        """(s0, moments, weights): Phi_N's Taylor moments about s0 = I of the
        full bundle, prefix-summed over paths, or None where the full bundle
        gives no finite table. moments[n - 1, k] = sum_{i<=n} mu_ik and
        weights[n - 1] = sum_{i<=n} sum_{(j,l)} |w| e^{s0 a}.

        mu_ik = sum_{(j,l)} w e^{s0 a} a^k / k! with a = C_j - C_l is built in
        the binomial form sum_{m+p=k} <P_m, Q_p>_i, where
        P_m = b' e^{s0 C_j} C_j^m / m! and Q_p = (e^{-s0 C_l} (-C_l)^p / p!) @ tri.T,
        which takes K products with tri and no table over node pairs.
        """
        try:
            s0 = self.stats().i_n
        except DegenerateStatisticsError:
            return None
        if not 0.5 * abs(s0) * float(self._c_reach[-1]) <= _MAX_FACTOR_EXPONENT:
            return None  # the factors e^{+-s0 C} leave the float range (or s0 is NaN)
        c_j, c_l, tri = self._c[:, 1:], self._c[:, :-1], self._tri
        with np.errstate(all="ignore"):
            up = np.exp(s0 * c_j)
            p_m = np.empty((_TAYLOR_ORDER,) + c_j.shape)
            p_m[0] = self._bp * up
            for m in range(1, _TAYLOR_ORDER):
                np.multiply(p_m[m - 1], c_j / m, out=p_m[m])
            q = np.exp(-s0 * c_l)
            q_tri = q @ tri.T
            # tri >= 0 and e^{-s0 C} > 0, so Q_0 also weighs |w|.
            weights = np.cumsum(np.einsum("ij,ij->i", np.abs(self._bp) * up, q_tri))
            moments = np.zeros((c_j.shape[0], _TAYLOR_ORDER))
            for p in range(_TAYLOR_ORDER):
                if p:
                    q *= -c_l / p
                    q_tri = q @ tri.T
                moments[:, p:] += np.einsum("mij,ij->im", p_m[:_TAYLOR_ORDER - p], q_tri)
            np.cumsum(moments, axis=0, out=moments)
        if not (np.isfinite(moments).all() and np.isfinite(weights).all()):
            return None
        return s0, moments, weights

    def estimates(self, points: Optional[Sequence[int]] = None, *,
                  c: float = DEFAULT_CONTRACTION, d_threshold: float = 0.0, alpha: float = 0.05,
                  enforce_omega: bool = False, max_iters: Optional[int] = None,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
        """One `FBM_ROW` per n in points (default: all paths): the fixed-point
        estimate on the first n paths, with its confidence interval of
        half-width 2 sqrt(Ybar) u_{1-a/4} / (sqrt(N) D_N). Picard runs from 0 on
        all prefixes at once; each stops after a step of at most tol, or after
        max_iters steps (default: the `iteration_schedule` of its N)."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if (max_iters is not None and max_iters < 1) or tol < 0.0:
            raise ValueError(f"need max_iters >= 1 and tol >= 0, got {max_iters} and {tol}")
        ns = np.array([self.paths.n_paths] if points is None else points, dtype=np.int64)
        stats, ybar = self._prefix_stats(ns)
        ok = ~(stats.d_n <= 0.0)
        live = np.flatnonzero(ok)
        sup = self.drift.sup_norm_b_prime
        omega = np.zeros(len(ns), dtype=bool)
        # With b' unbounded, the probe-interval sup|b'| is no bound on the
        # paths, so it may set the iteration count but never certify Omega_N.
        if self.drift.b_prime_bounded:
            live_stats = SufficientStats(stats.d_n[live], stats.i_n[live], stats.m_n[live])
            omega[live] = check_omega(live_stats, self.hurst, self.sigma, sup, self.t_total, c)
        limits = np.array([max_iters or iteration_schedule(n, c, self.t_total, sup, self.hurst)
                           for n in ns.tolist()])
        r, iterations = np.zeros(len(ns)), np.zeros(len(ns), dtype=np.int64)
        residual = np.full(len(ns), np.nan)
        k, r_k, limits_k, steps = live, r[live], limits[live], 0
        with np.errstate(all="ignore"):
            half = 2.0 * np.sqrt(ybar) * normal_quantile(1.0 - alpha / 4.0) / (
                np.sqrt(ns) * stats.d_n)
            phi = self._phi_prefixes(ns, stats)
            while k.size:
                steps += 1
                r_next = phi(k, r_k)
                r[k], iterations[k] = r_next, steps
                going = np.isfinite(r_next) & (np.abs(r_next - r_k) > tol) & (steps < limits_k)
                k, r_k, limits_k = k[going], r_next[going], limits_k[going]
            ok &= np.isfinite(r)
            live = np.flatnonzero(ok)
            residual[live] = np.abs(phi(live, r[live]) - r[live])
            theta = stats.i_n + r
            theta_c = np.where(omega, theta, 0.0)
            reported = theta_c if enforce_omega else theta
            return _rows(FBM_ROW, ok, estimate=reported, aci_lower=reported - half,
                         aci_upper=reported + half, d_n=stats.d_n, i_n=stats.i_n, r_n=r,
                         residual=residual, omega=omega & ok, iterations=iterations,
                         theta_c=theta_c, ybar=ybar,
                         theta_cd=np.where(stats.d_n >= d_threshold, theta_c, 0.0))

    def estimate(self, n: Optional[int] = None, *, alpha: float = 0.05,
                 **settings) -> EstimateFBM:
        """The `estimates` row of the first n paths (default: all of them);
        settings as for `estimates`. Raises where that row is NaN."""
        *fields, lower, upper, ybar = self.estimates(
            None if n is None else (n,), alpha=alpha, **settings)[0].tolist()
        _, r_n, iterations = fields[:3]
        if math.isnan(r_n):
            if iterations == 0:
                raise DegenerateStatisticsError("D_N vanished on this prefix")
            raise DivergenceError(f"non-finite iterate after {iterations} steps")
        return EstimateFBM(*fields, aci=(lower, upper, alpha), ybar=ybar)


class BmEstimatorCache:
    """Per-path statistics of the discrete-time least-squares estimator (H = 1/2)."""

    def __init__(self, paths: PathBundle, drift: DriftModel,
                 vol: Optional[VolModel] = None, sigma: Optional[float] = None):
        if vol is None and sigma is None:
            raise ValueError("either a volatility model or a constant sigma is required")
        x = paths.values
        dt = paths.grid.mesh
        self.t_total = paths.grid.horizon
        self.n_paths = paths.n_paths
        b_nodes = drift.b(x[:, :-1])
        sig_nodes = vol.sigma_fn(x[:, :-1]) if vol is not None else np.full_like(b_nodes, sigma)
        # Per-path contributions to D, V and Ybar, summed over each prefix. An
        # overflow here is reported by `estimates` (DivergenceError), not as warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            self._per_path = np.stack([(b_nodes**2).sum(axis=1) * dt,
                                       (b_nodes * np.diff(x, axis=1)).sum(axis=1),
                                       (b_nodes**2 * sig_nodes**2).sum(axis=1) * dt])

    def estimates(self, points: Optional[Sequence[int]] = None, *, d_threshold: float = 0.0,
                  alpha: float = 0.05) -> np.ndarray:
        """One `BM_ROW` per n in points (default: all paths): the least-squares
        estimate on the first n paths; NaN where D_{N,n} <= 0."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        ns = np.array([self.n_paths] if points is None else points, dtype=np.int64)
        d_sum, v_sum, y_sum = _prefix_sums(self._per_path, ns)
        nt = ns * self.t_total
        with np.errstate(all="ignore"):
            d_nn, v_nn = d_sum / nt, v_sum / nt
            ybar = y_sum / (ns * self.t_total**2)
            positive = ~(d_nn <= 0.0)
            theta = np.where(positive, v_nn / d_nn, np.nan)
            half = np.sqrt(ybar) * normal_quantile(1.0 - alpha / 2.0) / (np.sqrt(ns) * d_nn)
            defined = positive | (d_threshold > 0.0)
            return _rows(BM_ROW, defined, estimate=theta, aci_lower=theta - half,
                         aci_upper=theta + half, d_n=d_nn, v_n=v_nn,
                         estimate_d=np.where(d_nn >= d_threshold, theta, 0.0), ybar=ybar,
                         omega=defined)

    def estimate(self, n: Optional[int] = None, *, d_threshold: float = 0.0,
                 alpha: float = 0.05) -> EstimateBM:
        """The `estimates` row of the first n paths (default: all of them)."""
        *fields, lower, upper, defined = self.estimates(
            None if n is None else (n,), d_threshold=d_threshold, alpha=alpha)[0].tolist()
        if not defined:
            raise DegenerateStatisticsError("D_{N,n} vanished; estimator undefined")
        return EstimateBM(*fields, aci=None if fields[0] <= 0.0 else (lower, upper, alpha))
