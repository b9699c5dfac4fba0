"""Standard-normal primitives and closed-form Gaussian risk quantities.

Everything in this module is scalar, pure, and dependency-free: the
standard-normal density, the distribution function, its inverse (the
distribution function's root, found by bisection), the conditional moments
of one jointly Gaussian variable given the other, and the closed-form VaR
and expected-shortfall factors of a normal variable.

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


def std_normal_quantile(p: float) -> float:
    """Inverse of the standard normal CDF: the double where ``std_normal_cdf`` crosses ``p``.

    A root, not an approximation: ``p > 1/2`` reflects to ``-quantile(1 - p)``
    (``1 - p`` is exact there), and below one half the CDF is bisected on
    [-40, 0] down to two adjacent doubles, of which the one whose CDF is
    nearer ``p`` is returned.  For ``p`` in [1/4, 1/2) the comparison is
    ``erf(x / sqrt 2) / 2`` against the exact ``p - 1/2``, which keeps a
    small root's precision.  For ``p`` down to 1e-300 the result is within
    two ulps of the exact quantile, the rounding of ``x / sqrt 2`` inside the
    CDF being most of that.  For subnormal ``p`` the CDF itself holds few
    digits: ``cdf(quantile(p))`` still rounds back to ``p``, but the result
    may differ from the exact quantile by a few parts in 10**4.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"quantile argument must be in (0, 1), got {p!r}")
    if p > 0.5:
        return -std_normal_quantile(1.0 - p)
    if p == 0.5:
        return 0.0
    if p < 0.25:
        cdf, target = std_normal_cdf, p
    else:
        cdf, target = (lambda x: 0.5 * math.erf(x / _SQRT_2)), p - 0.5
    lo, mid, hi = -40.0, -20.0, 0.0
    while lo < mid < hi:
        if cdf(mid) > target:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return hi if cdf(hi) - target < target - cdf(lo) else lo


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
    # b = cov_ai / std_i against std_a, not cov_ai**2 or std_i * std_a: squares
    # and products of tiny moments underflow
    std_a, b = math.sqrt(var_a), cov_ai / math.sqrt(var_i)
    if abs(b) > std_a * (1.0 + _PSD_SLACK):
        raise InvalidCovarianceError(f"|cov_ai| / std_i = {abs(b)!r} exceeds std_a = {std_a!r}")
    mean = mu_a + (cov_ai / var_i) * (x - mu_i)
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
