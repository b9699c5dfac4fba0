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
from dataclasses import dataclass, fields
from typing import Iterator, Optional

from .errors import (
    ConsistencyError,
    DegenerateModelError,
    DegenerateSystemError,
    DomainError,
    InvalidCovarianceError,
)
from .normal import (
    _PSD_SLACK,
    RiskParams,
    conditional_moments,
    es_mean_normal,
    std_normal_pdf,
    var_normal,
)


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
        for field in fields(self):
            value = getattr(self, field.name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise DomainError(f"{field.name} must be a finite number, got {value!r}")
        if self.var_i <= 0.0:
            raise DegenerateModelError(f"var_i must be positive, got {self.var_i!r}")
        if self.var_a <= 0.0:
            raise DegenerateModelError(f"var_a must be positive, got {self.var_a!r}")
        # keep every derived statistic representable: no silent overflow to
        # inf, in the variances or in the report's slopes on the bank
        if not (
            math.isfinite(self.var_i * self.var_a)
            and math.isfinite(self.var_i + 2.0 * self.cov_ia + self.var_a)
            and math.isfinite(self.mu_i + self.mu_a)
            and math.isfinite(self.cov_ia / self.var_i)
            and math.isfinite(self.cov_is / self.var_i)
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

        PSD of the pair forces it to be nonnegative up to rounding, so a sum
        that is not positive is clamped at exactly 0 (a perfect hedge).  A
        positive sum is kept at least ``cov_is**2 / var_i``, the bound PSD
        puts on it (``var_s var_i - cov_is**2 = var_i var_a - cov_ia**2``):
        near rho = -1 the sum is cancellation residue that may fall below it.
        """
        raw = self.var_i + 2.0 * self.cov_ia + self.var_a
        if raw <= 0.0:
            return 0.0
        explained_sd = self.cov_is / self.std_i  # squared after dividing: cov_is**2 may overflow
        return max(raw, explained_sd * explained_sd)

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


def _cross_checks(
    pair: GaussianPair, params: RiskParams, report: BankRiskReport, scale: float
) -> Iterator[tuple[str, float, float]]:
    """The ``(name, statistic, second route)`` rows that :func:`full_report` checks, in order.

    A route is computed only when its row is reached, after every earlier
    row has passed, so the first disagreement is the error raised.
    """
    q = params.quantile
    var_mean, d_coll, d_coll_es = report.var_mean_i, report.delta_coll_var, report.delta_coll_es
    d_cond, d_contr, std_s = report.delta_cond_var, report.delta_contr_var, pair.std_s

    yield "spillover = stressed - unstressed", d_coll, report.covar_ai - report.covare_ai
    yield "spillover = slope * mean-corrected VaR", d_coll, report.beta_ai * var_mean
    yield "spillover = -q * rho * std_a", d_coll, -q * pair.rho * pair.std_a
    # Mean shifts at zero means: they do not depend on location, and
    # report.var_i - mu_i loses the shift to rounding when |mu_i| dwarfs std_i.
    stress_shift = conditional_moments(0.0, 0.0, pair.var_i, pair.var_a, pair.cov_ia, var_mean)
    yield "spillover = conditional mean shift", d_coll, stress_shift.mean
    es_mean = es_mean_normal(pair.var_i, params)
    yield "ES spillover = slope * mean-corrected ES", d_coll_es, report.beta_ai * es_mean
    if abs(d_coll_es) + 1e-9 * scale < abs(d_coll):
        raise ConsistencyError(
            f"ES spillover {d_coll_es!r} smaller in magnitude than VaR spillover {d_coll!r}"
        )
    yield "system shift = own + spillover", d_cond, d_coll + var_mean
    yield "system shift = system slope * mean-corrected VaR", d_cond, report.beta_si * var_mean

    if d_contr is None:  # a perfect hedge has no contribution family to check
        return
    yield (
        "contribution shift = slope * system mean-corrected VaR",
        d_contr, report.beta_is * (-q * std_s),
    )
    yield (
        "system shift = (std_s / std_i) * contribution shift",
        d_cond, (std_s / pair.std_i) * d_contr,
    )
    allocation_shift = conditional_moments(
        0.0, 0.0, pair.var_s, pair.var_i, pair.cov_is, -q * std_s
    )
    yield "contribution shift = conditional mean shift", d_contr, allocation_shift.mean
    yield "contribution shift = -q * std allocation", d_contr, -q * std_allocation(pair)


def _report(pair: GaussianPair, params: RiskParams) -> BankRiskReport:
    """Every closed-form statistic of one bank, unchecked.

    The one place that says which closed form each report field holds:
    :func:`full_report` cross-checks it and the Monte Carlo oracle compares
    it with a simulation.
    """
    q = params.quantile
    degenerate_system = pair.var_s <= 0.0
    return BankRiskReport(
        var_i=var_normal(pair.mu_i, pair.var_i, params),
        var_mean_i=-q * pair.std_i,
        covar_ai=covar_collateral(pair, params),
        covare_ai=covar_at_mean(pair, params),
        delta_coll_var=delta_coll_var(pair, params),
        delta_coll_es=delta_coll_es(pair, params),
        delta_cond_var=delta_cond_var(pair, params),
        delta_contr_var=None if degenerate_system else delta_contr_var(pair, params),
        var_contribution=None if degenerate_system else var_contribution(pair, params),
        beta_ai=beta_coefficient(pair.cov_ia, pair.var_i),
        beta_si=beta_coefficient(pair.cov_is, pair.var_i),
        beta_is=None if degenerate_system else beta_coefficient(pair.cov_is, pair.var_s),
        rho=pair.rho,
    )


def full_report(pair: GaussianPair, params: RiskParams) -> BankRiskReport:
    """Compute every statistic for one bank and cross-check the results.

    Each statistic is derived twice (closed form and composition of the
    conditional-moment primitives); any disagreement beyond 1e-9 relative to
    the model's scale raises :class:`ConsistencyError` rather than returning
    silently wrong numbers.  For a degenerate (zero-variance) system the
    contribution-family fields are reported as ``None``.
    """
    report = _report(pair, params)
    q = params.quantile
    scale = abs(pair.mu_i) + abs(pair.mu_a) + q * (pair.std_i + pair.std_a + pair.std_s)
    for name, a, b in _cross_checks(pair, params, report, scale):
        _check(name, a, b, scale)
    return report
