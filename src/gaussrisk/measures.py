"""Systemic-risk statistics for a bivariate Gaussian bank-vs-system model.

One bank ``i`` is singled out of a banking system; ``a`` is the aggregate of
all the others and ``s = i + a`` is the whole system.  Under joint normality
every statistic below has a closed form, and each one compares a *stressed*
situation (conditioning variable at its VaR) with an *unstressed* benchmark
(conditioning variable at its mean):

``covar_collateral``   VaR of the rest of the system given the bank at its VaR.
``covar_at_mean``      the unstressed benchmark of the same conditional VaR.
``delta_coll_var``     their difference: the spillover the bank exerts on the
                       others; equals ``beta_ai * (-q * std_i)``.
``delta_coll_es``      expected-shortfall analogue of the spillover.
``delta_cond_var``     stressed-minus-unstressed VaR of the *whole system*
                       given the bank: own risk plus spillover.
``delta_contr_var``    stressed-minus-unstressed VaR of the *bank* given the
                       system at its VaR: the top-down contribution view.
``var_contribution``   Euler allocation of system VaR to the bank,
                       ``E(X_i | X_s = VaR(X_s))``.
``std_allocation``     covariance-over-std capital allocation weight; times
                       ``-q`` it reproduces ``delta_contr_var``.

All functions are pure; :func:`full_report` additionally re-derives every
statistic a second way and raises :class:`ConsistencyError` if the two
routes disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    ConsistencyError,
    DegenerateModelError,
    DegenerateSystemError,
    DomainError,
    InvalidCovarianceError,
)
from .normal import RiskParams, conditional_moments, es_mean_normal, std_normal_pdf, var_normal

# Covariance inputs estimated from data can overshoot the PSD boundary by a
# few ulps; tolerate that, reject anything larger.
_PSD_SLACK = 1e-12


@dataclass(frozen=True)
class GaussianPair:
    """Jointly Gaussian model of one bank against the rest of the system.

    ``mu_i``/``var_i`` describe the singled-out bank, ``mu_a``/``var_a`` the
    sum of all other banks, ``cov_ia`` their covariance.  Variances must be
    positive and the implied 2x2 covariance matrix positive semidefinite.
    The whole system ``X_s = X_i + X_a`` is described by the derived
    ``mu_s``, ``var_s``, ``cov_is`` and ``std_s``.
    """

    mu_i: float
    mu_a: float
    var_i: float
    var_a: float
    cov_ia: float

    def __post_init__(self) -> None:
        for name in ("mu_i", "mu_a", "var_i", "var_a", "cov_ia"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise DomainError(f"{name} must be a finite number, got {value!r}")
        if self.var_i <= 0.0:
            raise DegenerateModelError(f"var_i must be positive, got {self.var_i!r}")
        if self.var_a <= 0.0:
            raise DegenerateModelError(f"var_a must be positive, got {self.var_a!r}")
        # keep every derived statistic representable: no silent overflow to inf
        if not (
            math.isfinite(self.var_i * self.var_a)
            and math.isfinite(self.var_i + 2.0 * self.cov_ia + self.var_a)
            and math.isfinite(self.mu_i + self.mu_a)
        ):
            raise DomainError("model magnitudes overflow double precision")
        if self.cov_ia * self.cov_ia > self.var_i * self.var_a * (1.0 + _PSD_SLACK):
            raise InvalidCovarianceError(
                f"cov_ia^2 = {self.cov_ia**2!r} exceeds var_i * var_a = "
                f"{self.var_i * self.var_a!r}: not a valid covariance matrix"
            )

    @property
    def rho(self) -> float:
        """Correlation between the bank and the rest of the system, in [-1, 1]."""
        # sd times sd, not sqrt(var * var): the product of two tiny variances underflows to 0
        raw = self.cov_ia / (self.std_i * self.std_a)
        return max(-1.0, min(1.0, raw))

    @property
    def std_i(self) -> float:
        return math.sqrt(self.var_i)

    @property
    def std_a(self) -> float:
        return math.sqrt(self.var_a)

    @property
    def mu_s(self) -> float:
        """Mean of the whole system ``X_s = X_i + X_a``."""
        return self.mu_i + self.mu_a

    @property
    def var_s(self) -> float:
        """Variance of the whole system, ``var_i + 2 cov_ia + var_a``.

        PSD of the pair forces it to be nonnegative up to rounding, so it is
        clamped at 0; a perfect hedge gives exactly 0.
        """
        return max(self.var_i + 2.0 * self.cov_ia + self.var_a, 0.0)

    @property
    def cov_is(self) -> float:
        """Covariance of the bank with the whole system, ``cov_ia + var_i``."""
        return self.cov_ia + self.var_i

    @property
    def std_s(self) -> float:
        return math.sqrt(self.var_s)

    def swapped(self) -> "GaussianPair":
        """The same model with the bank and rest-of-system roles exchanged."""
        return GaussianPair(
            mu_i=self.mu_a, mu_a=self.mu_i,
            var_i=self.var_a, var_a=self.var_i,
            cov_ia=self.cov_ia,
        )


@dataclass(frozen=True)
class BankRiskReport:
    """Every per-bank statistic in one place.

    The contribution-family fields (``delta_contr_var``, ``var_contribution``,
    ``beta_is``) are ``None`` when the system variance is zero (perfect
    hedge), where they are undefined; every other field is always a finite
    float.
    """

    var_i: float                       # VaR(X_i)
    var_mean_i: float                  # VaR(X_i) - E(X_i) = -q * std_i
    covar_ai: float                    # VaR(X_a | X_i = VaR(X_i))
    covare_ai: float                   # VaR(X_a | X_i = E(X_i))
    delta_coll_var: float
    delta_coll_es: float
    delta_cond_var: float
    delta_contr_var: Optional[float]
    var_contribution: Optional[float]
    beta_ai: float                     # cov(X_i, X_a) / var(X_i)
    beta_si: float                     # cov(X_i, X_s) / var(X_i)
    beta_is: Optional[float]           # cov(X_i, X_s) / var(X_s)
    rho: float


def beta_coefficient(cov: float, var: float) -> float:
    """Regression slope ``cov / var`` of one variable on another."""
    if not (math.isfinite(cov) and math.isfinite(var)):
        raise DomainError(f"cov and var must be finite, got {cov!r}, {var!r}")
    if var <= 0.0:
        raise DegenerateModelError(f"var must be positive, got {var!r}")
    return cov / var


def covar_collateral(pair: GaussianPair, params: RiskParams) -> float:
    """VaR of the rest of the system given the bank sits at its own VaR.

    Closed form ``mu_a - q * cov_ia / std_i - q * conditional_std``: the first
    two terms are the conditional mean at the stress point, the third the
    conditional standard deviation (which does not depend on the condition).
    """
    q = params.quantile
    cond_var = conditional_moments(
        pair.mu_a, pair.mu_i, pair.var_i, pair.var_a, pair.cov_ia, pair.mu_i
    ).variance
    return pair.mu_a - q * pair.cov_ia / pair.std_i - q * math.sqrt(cond_var)


def covar_at_mean(pair: GaussianPair, params: RiskParams) -> float:
    """VaR of the rest of the system given the bank at its expected value.

    The unstressed benchmark: ``mu_a - q * conditional_std``.
    """
    cond = conditional_moments(
        pair.mu_a, pair.mu_i, pair.var_i, pair.var_a, pair.cov_ia, pair.mu_i
    )
    return var_normal(cond.mean, cond.variance, params)


def delta_coll_var(pair: GaussianPair, params: RiskParams) -> float:
    """Spillover VaR shift the bank exerts on the others: ``-q * cov_ia / std_i``.

    Equals the stressed-minus-unstressed difference of the conditional VaR
    (the conditional variance cancels), the regression slope times the
    bank's mean-corrected VaR, and ``-q * rho * std_a``.  Independent of the
    bank's own scale.
    """
    return -params.quantile * pair.cov_ia / pair.std_i


def delta_coll_es(pair: GaussianPair, params: RiskParams) -> float:
    """Expected-shortfall analogue of the spillover: ``-(pdf(q)/(1-alpha)) * cov_ia / std_i``.

    Same shape as :func:`delta_coll_var` with the ES multiplier in place of
    the quantile, hence always at least as large in magnitude.
    """
    multiplier = std_normal_pdf(params.quantile) / (1.0 - params.alpha)
    return -multiplier * pair.cov_ia / pair.std_i


def delta_cond_var(pair: GaussianPair, params: RiskParams) -> float:
    """Stressed-minus-unstressed VaR of the whole system given the bank.

    ``-q * (cov_ia + var_i) / std_i``: the bank's own mean-corrected VaR plus
    the spillover it exerts on the others.
    """
    return -params.quantile * (pair.cov_ia + pair.var_i) / pair.std_i


def delta_contr_var(pair: GaussianPair, params: RiskParams) -> float:
    """Stressed-minus-unstressed VaR of the bank given the whole system.

    ``-q * (cov_ia + var_i) / std_s``: the bank's share of a system-wide
    stress event, the top-down counterpart of :func:`delta_cond_var`.
    """
    if pair.var_s <= 0.0:
        raise DegenerateSystemError(
            "system variance is zero (perfect hedge): the contribution-family "
            "statistics are undefined"
        )
    return -params.quantile * pair.cov_is / pair.std_s


def var_contribution(pair: GaussianPair, params: RiskParams) -> float:
    """Euler allocation of system VaR to the bank: ``E(X_i | X_s = VaR(X_s))``.

    Equals ``mu_i + delta_contr_var``; contributions over all banks sum to
    the system VaR.
    """
    return pair.mu_i + delta_contr_var(pair, params)


def std_allocation(pair: GaussianPair) -> float:
    """Capital allocation weight ``cov(X_s, X_i) / std(X_s)`` of the bank.

    The allocation principle when the standard deviation measures aggregate
    risk; multiplied by ``-q`` it reproduces :func:`delta_contr_var`.
    """
    if pair.var_s <= 0.0:
        raise DegenerateSystemError(
            "system variance is zero (perfect hedge): std allocation is undefined"
        )
    return pair.cov_is / pair.std_s


def _check(name: str, a: float, b: float, scale: float) -> None:
    tol = 1e-9 * max(abs(a), abs(b), scale)
    if not abs(a - b) <= tol:
        raise ConsistencyError(
            f"internal cross-check {name!r} failed: {a!r} vs {b!r} (tolerance {tol!r})"
        )


def full_report(pair: GaussianPair, params: RiskParams) -> BankRiskReport:
    """Compute every statistic for one bank and cross-check the results.

    Each statistic is derived twice (closed form and composition of the
    conditional-moment primitives); any disagreement beyond 1e-9 relative to
    the model's scale raises :class:`ConsistencyError` rather than returning
    silently wrong numbers.  For a degenerate (zero-variance) system the
    contribution-family fields are reported as ``None``.
    """
    q = params.quantile
    var_s, cov_is, std_s = pair.var_s, pair.cov_is, pair.std_s

    var_value = var_normal(pair.mu_i, pair.var_i, params)
    var_mean = -q * pair.std_i
    covar = covar_collateral(pair, params)
    covare = covar_at_mean(pair, params)
    d_coll = delta_coll_var(pair, params)
    d_coll_es = delta_coll_es(pair, params)
    d_cond = delta_cond_var(pair, params)
    b_ai = beta_coefficient(pair.cov_ia, pair.var_i)
    b_si = beta_coefficient(cov_is, pair.var_i)

    degenerate_system = var_s <= 0.0
    if degenerate_system:
        d_contr = contribution = b_is = None
    else:
        d_contr = delta_contr_var(pair, params)
        contribution = var_contribution(pair, params)
        b_is = beta_coefficient(cov_is, var_s)

    scale = abs(pair.mu_i) + abs(pair.mu_a) + q * (pair.std_i + pair.std_a + std_s)

    _check("spillover = stressed - unstressed", d_coll, covar - covare, scale)
    _check("spillover = slope * mean-corrected VaR", d_coll, b_ai * var_mean, scale)
    _check("spillover = -q * rho * std_a", d_coll, -q * pair.rho * pair.std_a, scale)
    # Mean shifts at zero means: they do not depend on location, and
    # var_value - mu_i loses the shift to rounding when |mu_i| dwarfs std_i.
    stress_shift = conditional_moments(
        0.0, 0.0, pair.var_i, pair.var_a, pair.cov_ia, var_mean
    ).mean
    _check("spillover = conditional mean shift", d_coll, stress_shift, scale)
    _check(
        "ES spillover = slope * mean-corrected ES",
        d_coll_es, b_ai * es_mean_normal(pair.var_i, params), scale,
    )
    if abs(d_coll_es) + 1e-9 * scale < abs(d_coll):
        raise ConsistencyError(
            f"ES spillover {d_coll_es!r} smaller in magnitude than VaR spillover {d_coll!r}"
        )
    _check("system shift = own + spillover", d_cond, d_coll + var_mean, scale)
    _check("system shift = system slope * mean-corrected VaR", d_cond, b_si * var_mean, scale)

    if not degenerate_system:
        assert d_contr is not None and contribution is not None and b_is is not None
        _check(
            "contribution shift = slope * system mean-corrected VaR",
            d_contr, b_is * (-q * std_s), scale,
        )
        _check(
            "system shift = (std_s / std_i) * contribution shift",
            d_cond, (std_s / pair.std_i) * d_contr, scale,
        )
        allocation_shift = conditional_moments(
            0.0, 0.0, var_s, pair.var_i, cov_is, -q * std_s
        ).mean
        _check("contribution shift = conditional mean shift", d_contr, allocation_shift, scale)
        _check(
            "contribution shift = -q * std allocation",
            d_contr, -q * std_allocation(pair), scale,
        )

    return BankRiskReport(
        var_i=var_value,
        var_mean_i=var_mean,
        covar_ai=covar,
        covare_ai=covare,
        delta_coll_var=d_coll,
        delta_coll_es=d_coll_es,
        delta_cond_var=d_cond,
        delta_contr_var=d_contr,
        var_contribution=contribution,
        beta_ai=b_ai,
        beta_si=b_si,
        beta_is=b_is,
        rho=pair.rho,
    )
