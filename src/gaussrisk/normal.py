"""Standard-normal primitives and closed-form Gaussian risk quantities.

Everything in this module is scalar, pure, and dependency-free: the
standard-normal density, the distribution function, its inverse (the
distribution function's root, found by bisection), the two alpha
multipliers every closed form reads (:class:`RiskParams`), and the
conditional moments of one jointly Gaussian variable given the other.

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


def _check_loading(b: float, std_a: float) -> None:
    """The 2x2 PSD rule: raise InvalidCovarianceError if ``|b| = |cov| / std_i`` exceeds ``std_a``.

    Read as a loading against an sd, not as ``cov**2`` against ``var_i *
    var_a``: squares and products of tiny moments underflow.
    """
    if abs(b) > std_a * (1.0 + _PSD_SLACK):
        raise InvalidCovarianceError(
            f"|cov_ia| / std_i = {abs(b)!r} exceeds std_a = {std_a!r}: "
            "not a valid covariance matrix"
        )


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
    """VaR threshold ``alpha`` and the two multipliers every closed form reads.

    ``quantile`` is ``q = quantile(alpha)``: a normal variable's VaR is
    ``mu - q * sd``.  ``es_multiplier`` is ``m = pdf(q) / (1 - alpha)``: its
    mean-corrected expected shortfall, the mean below the VaR less ``mu``, is
    ``-m * sd``, and ``m > q``.  ``alpha`` must lie in (0.5, 1): at or below
    one half the quantile turns non-positive and the stressed/unstressed
    ordering of every downstream statistic flips, so such thresholds are
    rejected outright.  Both multipliers are computed once, at construction.
    """

    alpha: float
    quantile: float = field(init=False)
    es_multiplier: float = field(init=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.alpha, (int, float)) and 0.5 < self.alpha < 1.0):
            raise DomainError(f"alpha must be in (0.5, 1), got {self.alpha!r}")
        q = std_normal_quantile(float(self.alpha))
        object.__setattr__(self, "quantile", q)
        object.__setattr__(self, "es_multiplier", std_normal_pdf(q) / (1.0 - self.alpha))


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
    b = cov_ai / math.sqrt(var_i)
    _check_loading(b, math.sqrt(var_a))
    mean = mu_a + (cov_ai / var_i) * (x - mu_i)
    variance = var_a - b * b
    return ConditionalMoments(mean=mean, variance=max(variance, 0.0))
