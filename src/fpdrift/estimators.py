"""Estimator computations: sufficient statistics, the fixed-point map and its
iteration, contraction certificate, truncations, thresholds and confidence
intervals.

`FbmEstimatorCache` (H > 1/2) and `BmEstimatorCache` (H = 1/2) are the one
implementation of D_N, I_N, Phi_N, Ybar_N and the interval half-width, and
`truncate` of the estimate both `solve`s report. `FbmEstimatorCache(paths, drift,
hurst, sigma=1.0).estimate(n)` estimates from the first n paths of a bundle.

All integrals are replaced by left-point Riemann sums on the bundle's grid.
The singular kernel |t - s|^(2H-2) is only evaluated at distinct nodes since
inner sums always exclude the diagonal.

Where b'(X) is one constant beta on every node of every path (any linear
drift, such as model2's b(x) = -x), C_j - C_l = beta (t_j - t_l), so each term
of Phi_N's double sum depends only on its lag k = j - l: Phi_N(s) is
scale N beta sum_k W_k e^{s beta t_k}, W_k the sum of tri's (k-1)-th
subdiagonal. Such a cache keeps beta alone, O(steps) memory with the weights,
and a Picard step costs O(P*steps) `exp` calls over P pairs. On the other
caches the sum factorizes as e^{s(C_j - C_l)} = e^{sC_j} e^{-sC_l}: a prefix n
costs O(n*steps) `exp` calls and one (n x steps) @ (steps x steps) matmul, and
the cache holds O(N*steps + steps^2) numbers. The kernels are built once per
(H, grid) and process.

`FbmEstimatorCache.solve(caches, points)` solves all prefixes N in points (the
Monte Carlo engine: N = 1..n_max) of caches of one config in one vectorized
Picard iteration, bitwise as `cache.estimates(points)` on each. Every Phi_N
value is the exact sum of its prefix: a Picard step makes one lag sum over the
linear pairs and one call per row count over the others, a gemm per pair; a
pair whose factors e^{+-sC} would overflow takes `_phi_rows`, term by term.
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
from .sde import DriftModel

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

    Memoized: a run asks for the same one or two levels, once per chunk's solve."""
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
    aci: Optional[tuple[float, float, float]]


# Rows of `FbmEstimatorCache.estimates`: the EstimateFBM fields in order, aci split;
# the estimate `truncate`s theta~. Where it is NaN: NaN floats but d_n, omega False.
FBM_ROW = np.dtype([("estimate", float), ("r_n", float), ("iterations", np.int64),
                    ("residual", float), ("omega", bool), ("d_n", float), ("i_n", float),
                    ("aci_lower", float), ("aci_upper", float), ("ybar", float)])
# Rows of `BmEstimatorCache.estimates`, likewise from V/D; omega True (H = 1/2 needs none).
BM_ROW = np.dtype([("d_n", float), ("v_n", float), ("estimate", float), ("ybar", float),
                   ("aci_lower", float), ("aci_upper", float), ("omega", bool)])


def _prefix_sums(per_path: np.ndarray, ns: np.ndarray) -> np.ndarray:
    """per_path[..., :n] summed over its last axis, for each n in ns along a new
    last axis: bitwise numpy's pairwise sum of the slice, which a cumsum is not.
    A sum that overflows is inf, left to the estimate's own checks."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.stack([np.add.reduce(per_path[..., :n], axis=-1) for n in ns.tolist()], -1)


def _column_sums(a: np.ndarray) -> np.ndarray:
    """a summed down each column, row by row, as numpy reduces a wider array's first
    axis; one column alone it would sum pairwise, so that one is accumulated."""
    return np.add.accumulate(a, axis=0)[-1] if a.shape[1] == 1 else np.add.reduce(a, axis=0)


def _check_per_path(per_path: np.ndarray, what: str) -> None:
    """Raise where a path's D or I (bm: D or V) left the float range. Its Ybar,
    per_path[2], is left to the interval check of `_rows`."""
    if not np.isfinite(per_path[:2]).all():
        raise DivergenceError(f"a per-path statistic leaves the float range: {what} "
                              "overflows on this bundle")


def truncate(theta: np.ndarray, d_n: np.ndarray, d_threshold, omega=True) -> np.ndarray:
    """The paper's truncated estimate: theta (NaN where undefined), 0 where omega is
    False, then 0 where D_N < d_threshold (an array of them broadcasts)."""
    return np.where(d_n < d_threshold, 0.0, np.where(omega | np.isnan(theta), theta, 0.0))


def _rows(dtype: np.dtype, **fields) -> np.ndarray:
    """Structured rows of the fields, floats but d_n NaN where the estimate is, so that D_N
    names a failure's cause; the interval is NaN where D_N <= 0, else finite if the estimate is."""
    estimate, positive = fields["estimate"], fields["d_n"] > 0.0
    width = fields["aci_upper"] - fields["aci_lower"]
    if not np.isfinite(width[positive & np.isfinite(estimate)]).all():
        raise DivergenceError("the confidence interval leaves the float range: "
                              "sigma^2 Ybar_N / D_N^2 overflows on this bundle")
    rows = np.empty(estimate.shape, dtype=dtype)
    for name, value in fields.items():
        rows[name] = value
    floats = [name for name in fields if dtype[name] == float and name != "d_n"]
    rows[floats][np.isnan(estimate)] = rows[["aci_lower", "aci_upper"]][~positive] = np.nan
    return rows


# ---------------------------------------------------------------------------
# Fixed-point map.
# ---------------------------------------------------------------------------

# Largest exponent of a single factor e^{+-sC} in the factorized Phi_N. The
# matmul sums a factor against one row of tri, so the margin of 32 below
# ln(DBL_MAX) covers any row sum of tri up to e^32 (~8e13).
_MAX_FACTOR_EXPONENT = float(np.log(np.finfo(float).max)) - 32.0


@functools.lru_cache(maxsize=8)
def _kernels(hurst: HurstParams, grid: Grid) -> tuple[np.ndarray, ...]:
    """The kernels of one (H, grid), built once per process and shared read-only.

    lag[j, l] = |t_j - t_l|^(2H-2) over nodes t_0..t_nu, zero on the diagonal;
    tri[j - 1, l] = (t_j - t_l)^(2H-2) mesh^2 for l < j, zero otherwise;
    kappa = the row sums of tri; weights[k - 1] = W_k, the sum of tri's (k-1)-th
    subdiagonal (lag k). A run uses one (H, grid); the bound keeps a long-lived
    process from holding every kernel it ever built.
    """
    t = grid.nodes
    dt = grid.mesh
    diff = np.abs(t[:, None] - t[None, :])
    np.fill_diagonal(diff, 1.0)
    lag = diff ** (2.0 * hurst.h - 2.0)
    np.fill_diagonal(lag, 0.0)
    tri = np.tril(lag[1:, :-1]) * dt * dt
    kappa = tri.sum(axis=1)
    weights = np.array([np.trace(tri, -k) for k in range(len(tri))])
    for a in (lag, tri, kappa, weights):
        a.flags.writeable = False
    return lag, tri, kappa, weights


def _phi_factorized(s: np.ndarray, bp: np.ndarray, c: np.ndarray, tri: np.ndarray,
                    work: Sequence[np.ndarray] = ()) -> np.ndarray:
    """sum_i sum_j b'_ij e^{sC_ij} (tri e^{-sC_i})_j for each p at s[p], over (P, n, steps)
    bp and (P, n, steps + 1) c whose factors e^{+-sC_i} stay in the float range: one gemm
    and one dot per p, the bits of p alone. Temporaries go to the flat buffers in work."""
    a, q = (w[:bp.size].reshape(bp.shape) for w in work or (np.empty(bp.size), np.empty(bp.size)))
    flat, s = (len(s), bp.shape[1] * bp.shape[2]), s[:, None, None]
    np.exp(np.multiply(-s, c[..., :-1], out=a), out=a)
    np.matmul(a, tri.T, out=q)
    np.exp(np.multiply(s, c[..., 1:], out=a), out=a)
    a *= bp
    return (a.reshape(flat)[:, None] @ q.reshape(flat)[..., None]).reshape(-1)


def _phi_rows(s: float, bp: np.ndarray, c: np.ndarray, span: np.ndarray,
              tri: np.ndarray) -> float:
    """sum_i sum_j b'_ij e^{sC_ij} (tri e^{-sC_i})_j over the rows i of bp and c: one
    `_phi_factorized` call over the rows whose factors e^{+-sC_i} stay in the float
    range, and each other row term by term. An overflow surfaces as a non-finite value."""
    with np.errstate(all="ignore"):
        direct = 0.5 * abs(s) * span > _MAX_FACTOR_EXPONENT
        rows = np.flatnonzero(direct)
        # Row i term by term, sum_{l<j} b'_ij tri[j-1, l] e^{s(C_ij - C_il)}: tril zeroes
        # the exponents of the pairs l >= j, whose e^0 = 1 meets tri's zeros.
        terms = (np.exp(np.tril(s * np.subtract.outer(c[i, 1:], c[i, :-1]))) * tri for i in rows)
        # From -0.0, so that with no such row the total is the factorized sum.
        total = sum((float(bp[i] @ e.sum(axis=1)) for i, e in zip(rows, terms)), -0.0)
        rest = _phi_factorized(np.array([s]), bp[None, ~direct], c[None, ~direct], tri)
        return total + float(rest[0])


def _phi_lags(x: np.ndarray, times: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_k W_k e^{x_p t_k} for each x_p = s beta: one linear path's sum, reduced on its
    own row, not by a gemv, whose kernels may order a row's sum by its place in the block."""
    e = np.multiply.outer(x, times)
    return np.add.reduce(np.multiply(np.exp(e, out=e), weights, out=e), axis=1)


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
    # float64 powers: where T^2H or the bound overflows to inf, Omega_N fails. Where
    # the bound underflows to 0, the right side is +inf: Omega_N holds.
    with np.errstate(over="ignore"):
        lhs = np.float64(t_total) ** (2.0 * hurst.h) * stats.m_n / stats.d_n
        bound = hurst.alpha_bar * np.float64(sigma)**2 * np.float64(sup_norm_b_prime)**2
    return lhs <= (c / bound if bound > 0.0 else math.inf)


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
    for iterations in range(1, max_iters + 1):
        r_next = phi(r)
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
    # log(m sqrt(N)), m = c / (1 - c) / (2 T alpha_bar |b'|_inf), from the logs of
    # its factors: finite where m itself would under- or overflow.
    log_m = (math.log(c) - math.log(1.0 - c) - math.log(2.0) - math.log(t_total)
             - math.log(hurst.alpha_bar) - math.log(sup_norm_b_prime) + 0.5 * math.log(n))
    if not log_m > 0.0:  # no iteration needed
        return MIN_ITERATIONS
    return max(MIN_ITERATIONS, math.ceil(-log_m / math.log(c)))


@functools.lru_cache(maxsize=64)
def _iteration_limits(points: tuple[int, ...], c: float, t_total: float,
                      sup_norm_b_prime: float, hurst: HurstParams) -> np.ndarray:
    """The `iteration_schedule` of each N in points, as one read-only array.
    Memoized: a run solves the same points in every chunk."""
    limits = np.array([iteration_schedule(n, c, t_total, sup_norm_b_prime, hurst)
                       for n in points], dtype=np.int64)
    limits.flags.writeable = False
    return limits


# ---------------------------------------------------------------------------
# Thresholds.
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


# ---------------------------------------------------------------------------
# Confidence-interval statistic for H > 1/2.
# ---------------------------------------------------------------------------

def _ybar_contributions(b: np.ndarray, bp: np.ndarray, hurst: HurstParams, grid: Grid,
                        sigma: float) -> np.ndarray:
    """Per-path contributions y_i to the asymptotic-variance statistic, from b
    and b' on the nodes t_1..t_nu.

    The quadruple sum factorizes over its two (outer, inner) index pairs into a
    perfect square, so it costs O(steps^2) per path and is never negative.
    """
    lag, _, kappa, _ = _kernels(hurst, grid)
    babs = np.abs(b)
    double_term = hurst.alpha * grid.mesh * grid.mesh * ((babs @ lag[1:, 1:]) * babs).sum(axis=1)
    # kappa_j mesh = sum_{l<j} (t_j - t_l)^(2H-2) mesh^2, the row sums of tri
    quad_term = hurst.alpha**2 * sigma**2 * (bp @ kappa)**2
    return double_term + quad_term


# ---------------------------------------------------------------------------
# Bundle-level caches (per-path contributions are prefix-summable, so the
# Monte Carlo engine can reuse one simulation across N = 1..N_max).
# ---------------------------------------------------------------------------

class FbmEstimatorCache:
    """Precomputes per-path statistics of a solution bundle once, then serves
    fixed-point estimates on path prefixes.

    Phi_N of a prefix n is always the exact sum: over the lags where b'(X) is one
    constant beta (`_beta`), otherwise over the first n rows of b'(X) and C."""

    def __init__(self, paths: PathBundle, drift: DriftModel, hurst: HurstParams, sigma: float):
        if hurst.h <= 0.5:
            raise ValueError("the fixed-point estimator requires H > 1/2")
        self.paths = paths
        self.drift = drift
        self.hurst = hurst
        self.sigma = sigma
        self.t_total = paths.grid.horizon
        x = np.ascontiguousarray(paths.values)  # path-major, whatever the storage
        dt = paths.grid.mesh
        # An overflow here is reported once, as DivergenceError, not as warnings.
        with np.errstate(all="ignore"):
            b, bp = drift.b(x), drift.b_prime(x)
            d_i = (b[:, :-1] ** 2).sum(axis=1) * dt
            ib_i = drift.antiderivative(x[:, -1]) - drift.antiderivative(x[:, 0])
            y_i = _ybar_contributions(b[:, 1:], bp[:, 1:], hurst, paths.grid, sigma)
        self._per_path = np.stack([d_i, ib_i, y_i])
        _check_per_path(self._per_path, "b(X)^2 or the antiderivative of b")
        # Where b'(X) is one constant beta on every node of every path (a linear
        # drift), each term of Phi_N depends only on its lag: keep beta alone.
        self._beta = float(bp.flat[0]) if (bp == bp.flat[0]).all() else None
        if self._beta is None:
            # C_i(t_j) = sum_{l<j} b'(X_i(t_l)) * mesh, with C_i(t_0) = 0, centred on
            # the midpoint of its range so that e^{sC} and e^{-sC} overflow together.
            c = np.zeros_like(bp)
            np.cumsum(bp[:, :-1] * dt, axis=1, out=c[:, 1:])
            c_min, c_max = c.min(axis=1), c.max(axis=1)
            self._c = c - 0.5 * (c_min + c_max)[:, None]
            self._c_span = c_max - c_min
            self._c_reach = np.maximum.accumulate(self._c_span)  # the widest of each prefix
            self._bp = bp[:, 1:]  # b'(X) at t_1..t_nu

    @staticmethod
    def _pair_stats(caches, ns: np.ndarray) -> tuple[SufficientStats, np.ndarray]:
        """D_N, I_N and M_N of the pairs (caches[t], prefix ns[j]), t-major, plus
        Ybar_N as a fourth array; I_N and M_N mean nothing where D_N <= 0."""
        first, n = caches[0], np.tile(ns, len(caches))
        per_path = np.stack([cache._per_path for cache in caches], axis=1)  # (3, chunk, paths)
        d_sum, ib_sum, y_sum = _prefix_sums(per_path, ns).reshape(3, -1)
        nt = n * first.t_total
        # D_N = 0 divides by zero, and M_N overflows to inf where Omega_N cannot hold.
        with np.errstate(all="ignore"):
            d_n = d_sum / nt
            i_n = ib_sum / (nt * d_n)
            m_n = np.exp(first.drift.sup_norm_b_prime * np.abs(i_n) * first.t_total)
            ybar = first.sigma**2 / (n * np.float64(first.t_total)**2) * y_sum
        return SufficientStats(d_n=d_n, i_n=i_n, m_n=m_n), ybar

    def stats(self, n: Optional[int] = None) -> SufficientStats:
        stats, _ = self._pair_stats([self], np.array([self.paths.n_paths if n is None else n]))
        if stats.d_n[0] <= 0.0:
            raise DegenerateStatisticsError("D_N vanished on this prefix")
        return SufficientStats(*(float(a[0]) for a in (stats.d_n, stats.i_n, stats.m_n)))

    def ybar(self, n: int) -> float:
        return float(self._pair_stats([self], np.array([n]))[1][0])

    def phi(self, n: int, stats: SufficientStats) -> Callable[[float], float]:
        """Phi_N(r) at s = r + I_N: the `_phi_pairs` value of the one pair (this cache, n)."""
        phi = self._phi_pairs([self], np.array([n]), SufficientStats(
            *(np.array([a]) for a in (stats.d_n, stats.i_n, stats.m_n))))
        return lambda r: float(phi(np.zeros(1, dtype=np.int64), np.array([r]))[0])

    @staticmethod
    def _phi_pairs(caches, ns: np.ndarray,
                   stats: SufficientStats) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """Phi_N of the pairs of `_pair_stats` at r, for index and iterate arrays
        (k, r): the exact sum over the pair's n paths, with the bits the pair gets
        alone. A pair of a linear cache sums its lags, `_phi_lags`; the others sum
        their first n rows, one stacked `_phi_factorized` call per row count, or
        `_phi_rows` alone where a factor e^{+-sC} would overflow."""
        first, grid = caches[0], caches[0].paths.grid
        _, tri, _, weights = _kernels(first.hurst, grid)
        trial, n = np.repeat(np.arange(len(caches)), len(ns)), np.tile(ns, len(caches))
        scale = first._scale(n, stats.d_n)
        linear = np.array([x._beta is not None for x in caches])
        beta = np.array([x._beta or 0.0 for x in caches])[trial]
        # The rows each pair sums: none on a linear cache, whose pairs sum the lags.
        rows, lag_scale, times = np.where(linear[trial], 0, n), scale * n * beta, grid.nodes[1:]
        # The other caches in one stack; slot is the place of a pair's cache in it.
        rowed = [x for x in caches if x._beta is None]
        if rowed:
            slot = (np.cumsum(~linear) - 1)[trial]
            # The widest span of C over each pair's rows (a linear pair's is unused).
            reach = np.stack([x._c_reach for x in rowed])[slot, n - 1]
            bp, c = (np.stack([getattr(x, name) for x in rowed]) for name in ("_bp", "_c"))
            # Buffers for the most rows one call can read: its pairs times their count.
            work = list(np.empty((2, len(rowed) * int(np.bincount(ns, ns).max()) * len(tri))))

        # An overflow surfaces as a non-finite value, which the Picard iteration reports.
        @np.errstate(all="ignore")
        def phi(k: np.ndarray, r: np.ndarray) -> np.ndarray:
            s, values, by_rows = r + stats.i_n[k], np.empty(len(k)), rows[k]
            for m in np.flatnonzero(np.bincount(by_rows)).tolist():
                j = np.flatnonzero(by_rows == m)
                e, s_j = k[j], s[j]
                if not m:
                    values[j] = lag_scale[e] * _phi_lags(s_j * beta[e], times, weights)
                    continue
                # One stacked factorized sum where no factor can overflow; a pair
                # where one can is summed alone, row by row.
                fit = 0.5 * np.abs(s_j) * reach[e] <= _MAX_FACTOR_EXPONENT
                if not fit.all():
                    for jj, ee in zip(j[~fit].tolist(), e[~fit].tolist()):
                        x = caches[trial[ee]]
                        values[jj] = scale[ee] * _phi_rows(s[jj], x._bp[:m], x._c[:m],
                                                           x._c_span[:m], tri)
                    j, e, s_j = j[fit], e[fit], s_j[fit]
                if not j.size:
                    continue
                # One pair per cache, in order, as on most steps: no gathered copy.
                t = slot[e]
                every = len(t) == len(rowed) and (t == np.arange(len(t))).all()
                bp_m, c_m = (a[:, :m] if every else np.take(a[:, :m], t, axis=0) for a in (bp, c))
                values[j] = scale[e] * _phi_factorized(s_j, bp_m, c_m, tri, work)
            return values

        return phi

    def _scale(self, n, d_n):
        """-alpha sigma^2 / (N T D_N), for scalars or arrays over prefixes."""
        return -self.hurst.alpha * self.sigma**2 / (n * self.t_total * d_n)

    @staticmethod
    def solve(caches: Sequence["FbmEstimatorCache"], points: Optional[Sequence[int]] = None, *,
              c: float = DEFAULT_CONTRACTION, d_threshold: float = 0.0, alpha: float = 0.05,
              enforce_omega: bool = False, max_iters: Optional[int] = None,
              tol: float = DEFAULT_TOL, residual: bool = True) -> np.ndarray:
        """`FBM_ROW`s, shape (len(caches), len(points)): [t, j] is the `truncate`d
        estimate on the first points[j] paths of caches[t] (default: all), the same
        bits as alone, +- the half-width 2 sqrt(Ybar) u_{1-a/4} / (sqrt(N) D_N).
        Picard runs from 0 on all pairs at once; each stops after a step of at
        most tol, or after max_iters steps (default: the `iteration_schedule` of N).
        The residual |Phi_N(R_N) - R_N| costs one more Phi_N sweep; with
        residual=False it is skipped and left NaN, and no other field changes."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if (max_iters is not None and max_iters < 1) or tol < 0.0:
            raise ValueError(f"need max_iters >= 1 and tol >= 0, got {max_iters} and {tol}")
        # The first cache's drift sets sup|b'|, Omega_N and the iteration limits of all.
        if len({(x.paths.n_paths, x.paths.grid, x.hurst, x.sigma, x.drift.name)
                for x in caches}) != 1:
            raise ValueError("the caches must share n_paths, grid, H, sigma and drift")
        first = caches[0]
        ns = np.array([first.paths.n_paths] if points is None else points, dtype=np.int64)
        (stats, ybar), n = first._pair_stats(caches, ns), np.tile(ns, len(caches))
        ok = ~(stats.d_n <= 0.0)
        live = np.flatnonzero(ok)
        sup = first.drift.sup_norm_b_prime
        omega = np.zeros(len(n), dtype=bool)
        # With b' unbounded, the probe-interval sup|b'| is no bound on the
        # paths, so it may set the iteration count but never certify Omega_N.
        if first.drift.b_prime_bounded:
            live_stats = SufficientStats(stats.d_n[live], stats.i_n[live], stats.m_n[live])
            omega[live] = check_omega(live_stats, first.hurst, first.sigma, sup,
                                      first.t_total, c)
        limits = np.tile(np.full(len(ns), max_iters) if max_iters else _iteration_limits(
            tuple(ns.tolist()), c, first.t_total, sup, first.hurst), len(caches))
        r, iterations = np.zeros(len(n)), np.zeros(len(n), dtype=np.int64)
        residuals = np.full(len(n), np.nan)
        k, r_k, limits_k, steps = live, r[live], limits[live], 0
        with np.errstate(all="ignore"):
            half = 2.0 * np.sqrt(ybar) * normal_quantile(1.0 - alpha / 4.0) / (
                np.sqrt(n) * stats.d_n)
            phi = first._phi_pairs(caches, ns, stats)
            while k.size:
                steps += 1
                r_next = phi(k, r_k)
                r[k], iterations[k] = r_next, steps
                going = np.isfinite(r_next) & (np.abs(r_next - r_k) > tol) & (steps < limits_k)
                k, r_k, limits_k = k[going], r_next[going], limits_k[going]
            ok &= np.isfinite(r)
            if residual:
                live = np.flatnonzero(ok)
                residuals[live] = np.abs(phi(live, r[live]) - r[live])
            estimate = truncate(np.where(ok, stats.i_n + r, np.nan), stats.d_n, d_threshold,
                                omega if enforce_omega else True)
            return _rows(FBM_ROW, estimate=estimate, aci_lower=estimate - half,
                         aci_upper=estimate + half, d_n=stats.d_n, i_n=stats.i_n, r_n=r,
                         residual=residuals, omega=omega & ok, iterations=iterations,
                         ybar=ybar).reshape(len(caches), len(ns))

    def estimates(self, points: Optional[Sequence[int]] = None, **settings) -> np.ndarray:
        """The `solve` rows of this cache alone: one `FBM_ROW` per n in points."""
        return self.solve([self], points, **settings)[0]

    def estimate(self, n: Optional[int] = None, *, alpha: float = 0.05,
                 **settings) -> EstimateFBM:
        """The `estimates` row of the first n paths (default: all of them);
        settings as for `estimates`. Raises where its estimate is NaN."""
        *fields, lower, upper, ybar = self.estimates(
            None if n is None else (n,), alpha=alpha, **settings)[0].tolist()
        theta, _, iterations = fields[:3]
        if math.isnan(theta):
            if iterations == 0:
                raise DegenerateStatisticsError("D_N vanished on this prefix")
            raise DivergenceError(f"non-finite iterate after {iterations} steps")
        return EstimateFBM(*fields, aci=(lower, upper, alpha), ybar=ybar)


class BmEstimatorCache:
    """Per-path statistics of the discrete-time least-squares estimator (H = 1/2)."""

    def __init__(self, paths: PathBundle, drift: DriftModel, sigma: float):
        # Time-major: each path sums along time row by row, in one order whatever the
        # bundle's storage and however many paths it holds.
        x = np.ascontiguousarray(paths.values.T)
        dt = paths.grid.mesh
        self.t_total = paths.grid.horizon
        self.n_paths = paths.n_paths
        # Per-path contributions to D, V and Ybar, summed over each prefix. An
        # overflow here is reported as DivergenceError, here or by `estimates`.
        with np.errstate(over="ignore", invalid="ignore"):
            b = drift.b(x[:-1])
            b_dx = np.subtract(x[1:], x[:-1])
            b_dx *= b
            v = _column_sums(b_dx)
            b_sq = np.multiply(b, b, out=b_dx)  # not in b, which may be x's own rows
            d = _column_sums(b_sq) * dt
            b_sq *= sigma**2
            self._per_path = np.stack([d, v, _column_sums(b_sq) * dt])
        _check_per_path(self._per_path, "b(X)^2 or b(X) dX")

    def split(self, size: int) -> list["BmEstimatorCache"]:
        """Caches of this one's consecutive size paths, with the bits each has alone."""
        parts = [object.__new__(BmEstimatorCache) for _ in range(0, self.n_paths, size)]
        for part, per_path in zip(parts, np.split(self._per_path, len(parts), axis=1)):
            part.t_total, part.n_paths, part._per_path = self.t_total, size, per_path
        return parts

    @staticmethod
    def solve(caches: Sequence["BmEstimatorCache"], points: Optional[Sequence[int]] = None, *,
              d_threshold: float = 0.0, alpha: float = 0.05) -> np.ndarray:
        """`BM_ROW`s, shape (len(caches), len(points)): [t, j] is the `truncate`d
        least-squares estimate V/D on the first points[j] paths of caches[t]
        (default: all), the same bits as alone."""
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if len({(x.n_paths, x.t_total) for x in caches}) != 1:
            raise ValueError("the caches must share n_paths and T")
        t_total = caches[0].t_total
        ns = np.array([caches[0].n_paths] if points is None else points, dtype=np.int64)
        d_sum, v_sum, y_sum = _prefix_sums(np.stack([c._per_path for c in caches], axis=1), ns)
        nt = ns * t_total
        with np.errstate(all="ignore"):
            d_nn, v_nn = d_sum / nt, v_sum / nt
            ybar = y_sum / (ns * np.float64(t_total)**2)  # inf, not OverflowError
            estimate = truncate(np.where(d_nn > 0.0, v_nn / d_nn, np.nan), d_nn, d_threshold)
            half = np.sqrt(ybar) * normal_quantile(1.0 - alpha / 2.0) / (np.sqrt(ns) * d_nn)
            return _rows(BM_ROW, estimate=estimate, aci_lower=estimate - half,
                         aci_upper=estimate + half, d_n=d_nn, v_n=v_nn, ybar=ybar, omega=True)

    def estimates(self, points: Optional[Sequence[int]] = None, **settings) -> np.ndarray:
        """The `solve` rows of this cache alone: one `BM_ROW` per n in points."""
        return self.solve([self], points, **settings)[0]

    def estimate(self, n: Optional[int] = None, *, d_threshold: float = 0.0,
                 alpha: float = 0.05) -> EstimateBM:
        """The `estimates` row of the first n paths (default: all of them) as theta_hat_d,
        raising where it is NaN; theta_hat = V/D and aci as at threshold 0."""
        rows = [self.estimates(None if n is None else (n,), d_threshold=d, alpha=alpha)[0]
                for d in dict.fromkeys((d_threshold, 0.0))]  # one solve at threshold 0
        (d_nn, v_nn, theta_d, ybar, *_), (_, _, theta, _, lower, upper, _) = (
            rows[0].tolist(), rows[-1].tolist())
        if math.isnan(theta_d):
            raise DegenerateStatisticsError("D_{N,n} vanished; estimator undefined")
        return EstimateBM(d_nn, v_nn, theta, theta_d, ybar,
                          None if d_nn <= 0.0 else (lower, upper, alpha))
