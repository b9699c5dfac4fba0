"""Standard-normal primitives and closed-form Gaussian risk quantities.

Everything in this module is scalar, pure, and dependency-free: the
standard-normal density, the distribution function, its inverse (a rational
approximation polished by Newton steps), the conditional moments of one
jointly Gaussian variable given the other, and the closed-form VaR and
expected-shortfall factors of a normal variable.

Sign convention used throughout the package: VaR is the low quantile of the
variable itself (``mu - q * sigma`` with ``q > 0``), a typically negative
outcome level, not a positive loss figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DegenerateModelError, DomainError, InvalidCovarianceError

_SQRT_2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Covariance inputs estimated from data can overshoot the PSD boundary by a
# few ulps; tolerate that, reject anything larger.
_PSD_SLACK = 1e-12

# Acklam's rational approximation of the inverse standard-normal CDF.
# Raw accuracy is ~1.15e-9 relative; Newton refinement below takes it to
# machine precision.
_ACKLAM_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ACKLAM_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)
_ACKLAM_P_LOW = 0.02425


def std_normal_pdf(x: float) -> float:
    """Density of the standard normal distribution at ``x``."""
    if not math.isfinite(x):
        raise DomainError(f"pdf argument must be finite, got {x!r}")
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function, accurate to machine precision."""
    if not math.isfinite(x):
        raise DomainError(f"cdf argument must be finite, got {x!r}")
    return 0.5 * math.erfc(-x / _SQRT_2)


def _acklam_initial(p: float) -> float:
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < _ACKLAM_P_LOW:
        t = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * t + c[1]) * t + c[2]) * t + c[3]) * t + c[4]) * t + c[5]) / (
            (((d[0] * t + d[1]) * t + d[2]) * t + d[3]) * t + 1.0
        )
    if p > 1.0 - _ACKLAM_P_LOW:
        t = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * t + c[1]) * t + c[2]) * t + c[3]) * t + c[4]) * t + c[5]) / (
            (((d[0] * t + d[1]) * t + d[2]) * t + d[3]) * t + 1.0
        )
    t = p - 0.5
    r = t * t
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * t / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


def std_normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF.

    Rational approximation followed by two Newton steps against
    :func:`std_normal_cdf`, so that ``cdf(quantile(p))`` matches ``p`` to
    far better than 1e-9 across (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must be in (0, 1), got {p!r}")
    x = _acklam_initial(p)
    for _ in range(2):
        density = std_normal_pdf(x)
        if density <= 1e-300:
            break  # deep tail: the initial approximation is already as good as it gets
        x -= (std_normal_cdf(x) - p) / density
    return x


@dataclass(frozen=True)
class RiskParams:
    """VaR threshold ``alpha`` and its standard-normal quantile.

    ``alpha`` must lie in (0.5, 1): at or below one half the quantile turns
    non-positive and the stressed/unstressed ordering of every downstream
    statistic flips, so such thresholds are rejected outright.  The quantile
    is computed once at construction and cached.
    """

    alpha: float
    quantile: float = field(init=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.alpha, (int, float)) and 0.5 < self.alpha < 1.0):
            raise DomainError(f"alpha must be in (0.5, 1), got {self.alpha!r}")
        object.__setattr__(self, "quantile", std_normal_quantile(float(self.alpha)))


@dataclass(frozen=True)
class ConditionalMoments:
    """Mean and variance of one Gaussian variable given the other's value."""

    mean: float
    variance: float


def conditional_moments(
    mu_a: float,
    mu_i: float,
    var_i: float,
    var_a: float,
    cov_ai: float,
    x: float,
) -> ConditionalMoments:
    """Moments of ``X_a`` given ``X_i = x`` for jointly Gaussian ``(X_i, X_a)``.

    mean     = mu_a + (cov_ai / var_i) * (x - mu_i)
    variance = var_a - b**2, with b = cov_ai / sqrt(var_i)

    The conditional variance does not depend on ``x`` and never exceeds the
    unconditional ``var_a`` (variance reduction by conditioning); it equals
    ``var_a`` exactly when the variables are uncorrelated.
    """
    for name, value in (("mu_a", mu_a), ("mu_i", mu_i), ("cov_ai", cov_ai), ("x", x)):
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value!r}")
    if not (math.isfinite(var_i) and var_i > 0.0):
        raise DegenerateModelError(f"var_i must be positive, got {var_i!r}")
    if not (math.isfinite(var_a) and var_a > 0.0):
        raise DegenerateModelError(f"var_a must be positive, got {var_a!r}")
    # sds and b, not cov_ai**2: squares of tiny moments underflow to 0
    std_i, std_a = math.sqrt(var_i), math.sqrt(var_a)
    if abs(cov_ai) > std_i * std_a * (1.0 + _PSD_SLACK):
        raise InvalidCovarianceError(
            f"|cov_ai| = {abs(cov_ai)!r} exceeds std_i * std_a = {std_i * std_a!r}"
        )
    mean = mu_a + (cov_ai / var_i) * (x - mu_i)
    b = cov_ai / std_i
    variance = var_a - b * b
    return ConditionalMoments(mean=mean, variance=max(variance, 0.0))


def var_normal(mu: float, var: float, params: RiskParams) -> float:
    """Quantile-style Value at Risk of a normal variable.

    Returns ``mu - q * sqrt(var)`` with ``q`` the alpha-quantile: the level
    the variable falls below with probability ``1 - alpha``.  ``var = 0`` is
    accepted as a point mass.
    """
    if not (math.isfinite(mu) and math.isfinite(var)):
        raise DomainError(f"mu and var must be finite, got {mu!r}, {var!r}")
    if var < 0.0:
        raise DomainError(f"var must be nonnegative, got {var!r}")
    return mu - params.quantile * math.sqrt(var)


def es_mean_normal(var: float, params: RiskParams) -> float:
    """Mean-corrected expected shortfall of a normal variable with variance ``var``.

    Average distance below the mean over the worst ``1 - alpha`` tail:
    ``-(pdf(q) / (1 - alpha)) * sqrt(var)``.  Strictly deeper in the tail
    than the mean-corrected VaR ``-q * sqrt(var)`` whenever ``var > 0``.
    """
    if not math.isfinite(var):
        raise DomainError(f"var must be finite, got {var!r}")
    if var < 0.0:
        raise DomainError(f"var must be nonnegative, got {var!r}")
    multiplier = std_normal_pdf(params.quantile) / (1.0 - params.alpha)
    return -multiplier * math.sqrt(var)
