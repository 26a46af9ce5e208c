"""Exception types shared across the package."""


class FpdriftError(Exception):
    """Base class for package-specific failures."""


class DegenerateStatisticsError(FpdriftError):
    """The empirical denominator statistic vanished; the ratio estimator is undefined."""


class DivergenceError(FpdriftError):
    """A computation produced non-finite values: the fixed-point iteration
    diverged, the Euler scheme blew up (an explosive drift on this horizon), or
    the fBm covariance overflowed (a horizon too long for the float range)."""


class ConfigError(FpdriftError):
    """Invalid or malformed run configuration."""
