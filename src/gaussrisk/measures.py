"""Systemic-risk statistics for a bivariate Gaussian bank-vs-system model.

One bank ``i`` is singled out of a banking system; ``a`` is the aggregate of
all the others and ``s = i + a`` is the whole system.  Under joint normality
each statistic is a mean plus an alpha multiplier times one of four
alpha-free loadings of the bank:

``s_i  = sd_i``                    the bank's own scale;
``b_ai = cov_ia / sd_i``           the spillover loading of the others on it;
``c_ai = sqrt(var_a - b_ai**2)``   the others' sd given the bank;
``b_is = cov_is / sd_s``           its loading on the whole system.

The multiplier is :class:`RiskParams`' ``quantile`` ``q`` for a VaR and its
``es_multiplier`` ``m = pdf(q) / (1 - alpha)`` for an expected shortfall.  A
stressed statistic puts the conditioning variable at its VaR, an unstressed
one at its mean:

``covar_ai``          ``mu_a - q b_ai - q c_ai``: VaR of the others given the bank at its VaR.
``covare_ai``         ``mu_a - q c_ai``: the same given the bank at its mean.
``delta_coll_var``    ``-q b_ai``: their difference, the spillover on the others.
``delta_coll_es``     ``-m b_ai``: its expected-shortfall analogue.
``delta_cond_var``    ``-q (b_ai + s_i)``: the same shift of the whole system.
``delta_contr_var``   ``-q b_is``: the bank's shift given the system at its VaR.
``var_contribution``  ``mu_i - q b_is``: the Euler allocation of the system's VaR.

:func:`full_report` builds every field from the loadings and re-derives
each one but ``var_i`` (its own definition) as the paper states it, a mean
plus a slope times the mean-corrected VaR or ES, through the conditional law
that defines it, raising :class:`ConsistencyError` if the two routes disagree.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import ConsistencyError, DegenerateModelError, DomainError
from .normal import ConditionalMoments, RiskParams, _check_loading, conditional_moments


@dataclass(frozen=True)
class GaussianPair:
    """Jointly Gaussian model of one bank against the rest of the system.

    ``mu_i``/``var_i`` describe the singled-out bank, ``mu_a``/``var_a`` the
    sum of all other banks, ``cov_ia`` their covariance.  Variances must be
    positive and the implied 2x2 covariance matrix positive semidefinite.

    Construction derives, once, the sds ``std_i`` and ``std_a``, the
    correlation ``rho`` in [-1, 1], and the whole system ``X_s = X_i + X_a``:
    its mean ``mu_s``, variance ``var_s`` and sd ``std_s``, and the bank's
    covariance with it, ``cov_is = cov_ia + var_i``.  They are attributes,
    not fields: ``==``, ``hash`` and ``repr`` read the five fields alone.
    """

    mu_i: float
    mu_a: float
    var_i: float
    var_a: float
    cov_ia: float

    def __post_init__(self) -> None:
        derived = vars(self)  # frozen: the derived values go straight into __dict__
        for name, value in derived.items():  # the five fields, in order: none is derived yet
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise DomainError(f"{name} must be a finite number, got {value!r}")
        mu_i, mu_a, var_i, var_a, cov_ia = derived.values()
        if var_i <= 0.0:
            raise DegenerateModelError(f"var_i must be positive, got {var_i!r}")
        if var_a <= 0.0:
            raise DegenerateModelError(f"var_a must be positive, got {var_a!r}")
        std_i, std_a = math.sqrt(var_i), math.sqrt(var_a)
        mu_s, cov_is = mu_i + mu_a, cov_ia + var_i
        # keep every derived statistic representable: no silent overflow to
        # inf, in the variances or in the report's slopes on the bank
        if not (
            math.isfinite(var_i + 2.0 * cov_ia + var_a)
            and math.isfinite(mu_s)
            and math.isfinite(cov_ia / var_i)
            and math.isfinite(cov_is / var_i)
        ):
            raise DomainError("model magnitudes overflow double precision")
        _check_loading(cov_ia / std_i, std_a)
        # var_s is summed exactly: fsum rounds once, so the cancellation near
        # rho = -1 costs no digits.  A sum that is not positive is clamped at
        # exactly 0 (a perfect hedge).  A positive sum is kept at least
        # cov_is**2 / var_i, the bound PSD puts on it (var_s var_i - cov_is**2
        # = var_i var_a - cov_ia**2), which the PSD slack or a rounding may
        # otherwise cross; squared after dividing, as cov_is**2 may overflow.
        var_s = math.fsum((var_i, 2.0 * cov_ia, var_a))
        explained_sd = cov_is / std_i
        var_s = 0.0 if var_s <= 0.0 else max(var_s, explained_sd * explained_sd)
        # rho: one division while std_i * std_a is a normal double; a
        # subnormal product has lost digits, so divide by each sd in turn
        sd_product = std_i * std_a
        if sd_product >= sys.float_info.min:
            rho = cov_ia / sd_product
        else:
            rho = cov_ia / std_i / std_a
        derived.update(
            std_i=std_i, std_a=std_a, mu_s=mu_s, cov_is=cov_is,
            var_s=var_s, std_s=math.sqrt(var_s), rho=max(-1.0, min(1.0, rho)),
        )

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


def _check(name: str, a: float, b: float, slack: float) -> None:
    if abs(a - b) <= slack:  # two finite routes that agree within the slack
        return
    tol = max(1e-9 * abs(a), 1e-9 * abs(b), slack)
    if not (math.isfinite(a) and math.isfinite(b) and abs(a - b) <= tol):
        raise ConsistencyError(
            f"internal cross-check {name!r} failed: {a!r} vs {b!r} (tolerance {tol!r})"
        )


def _loadings(pair: GaussianPair) -> tuple[float, float, float, Optional[float]]:
    """``(s_i, b_ai, c_ai, b_is)``: the four alpha-free loadings of the bank.

    Each divides before it squares, so none underflows where the statistics
    do not.  ``b_is`` is None for a perfect hedge, which has no system sd.
    """
    s_i = pair.std_i
    b_ai = pair.cov_ia / s_i
    c_ai = math.sqrt(max(pair.var_a - b_ai * b_ai, 0.0))
    b_is = None if pair.var_s <= 0.0 else pair.cov_is / pair.std_s
    return s_i, b_ai, c_ai, b_is


def _report(pair: GaussianPair, params: RiskParams) -> BankRiskReport:
    """Every statistic of one bank, unchecked: a mean plus a multiplier times a loading.

    The one place that says which closed form each report field holds:
    :func:`full_report` cross-checks it and the Monte Carlo oracle compares
    it with a simulation.
    """
    q, m = params.quantile, params.es_multiplier
    s_i, b_ai, c_ai, b_is = _loadings(pair)
    hedged = b_is is None
    return BankRiskReport(
        var_i=pair.mu_i - q * s_i,
        var_mean_i=-q * s_i,
        covar_ai=pair.mu_a - q * b_ai - q * c_ai,
        covare_ai=pair.mu_a - q * c_ai,
        delta_coll_var=-q * b_ai,
        delta_coll_es=-m * b_ai,
        delta_cond_var=-q * (b_ai + s_i),
        delta_contr_var=None if hedged else -q * b_is,
        var_contribution=None if hedged else pair.mu_i - q * b_is,
        beta_ai=pair.cov_ia / pair.var_i,
        beta_si=pair.cov_is / pair.var_i,
        beta_is=None if hedged else pair.cov_is / pair.var_s,
        rho=pair.rho,
    )


def full_report(pair: GaussianPair, params: RiskParams) -> BankRiskReport:
    """Every statistic of one bank, each cross-checked: the per-statistic API.

    Each field is built from the bank's loadings and derived a second time,
    as a mean plus a slope times a mean-corrected VaR or ES, through the
    conditional law that defines it: X_a given X_i, or X_i given X_s, each at
    the VaR and at the mean (8 checks; 6 for a perfect hedge).  Each law is
    taken at zero means and the location added after: ``report.var_i - mu_i``
    would lose the stress to rounding when ``|mu_i|`` dwarfs ``std_i``.  A
    route is computed only when its check is reached, so the first
    disagreement is the error raised.  A route that is not finite, or a
    disagreement beyond 1e-9 relative to the model's scale, raises
    :class:`ConsistencyError` rather than returning silently wrong numbers.
    For a degenerate (zero-variance) system the contribution-family fields
    are reported as ``None``.
    """
    report = _report(pair, params)
    q, var_mean = params.quantile, report.var_mean_i
    # 1e-9 of the model's scale, each term scaled before the sum: the sum of
    # two means near the largest double would overflow and pass anything
    slack = 1e-9 * abs(pair.mu_i) + 1e-9 * abs(pair.mu_a) + 1e-9 * q * (
        pair.std_i + pair.std_a + pair.std_s
    )

    def var_given(law: ConditionalMoments) -> float:
        return law.mean - q * math.sqrt(law.variance)

    # X_a given X_i, at the bank's VaR and at its mean
    stressed = conditional_moments(0.0, 0.0, pair.var_i, pair.var_a, pair.cov_ia, var_mean)
    unstressed = conditional_moments(0.0, 0.0, pair.var_i, pair.var_a, pair.cov_ia, 0.0)
    _check("CoVaR = VaR given the bank at its VaR", report.covar_ai,
           pair.mu_a + var_given(stressed), slack)
    _check("CoVaRe = VaR given the bank at its mean", report.covare_ai,
           pair.mu_a + var_given(unstressed), slack)
    d_coll, d_coll_es = report.delta_coll_var, report.delta_coll_es
    _check("spillover = conditional mean shift", d_coll, stressed.mean - unstressed.mean, slack)
    _check("spillover = -q * rho * std_a", d_coll, -q * pair.rho * pair.std_a, slack)
    es_mean = -params.es_multiplier * pair.std_i
    _check("ES spillover = slope * mean-corrected ES", d_coll_es, report.beta_ai * es_mean, slack)
    if abs(d_coll_es) + slack < abs(d_coll):
        raise ConsistencyError(
            f"ES spillover {d_coll_es!r} smaller in magnitude than VaR spillover {d_coll!r}"
        )
    _check("system shift = system slope * mean-corrected VaR", report.delta_cond_var,
           report.beta_si * var_mean, slack)
    if report.delta_contr_var is None:  # a perfect hedge has no contribution family to check
        return report
    # X_i given X_s, at the system's VaR and at its mean
    stressed = conditional_moments(0.0, 0.0, pair.var_s, pair.var_i, pair.cov_is, -q * pair.std_s)
    unstressed = conditional_moments(0.0, 0.0, pair.var_s, pair.var_i, pair.cov_is, 0.0)
    _check("contribution shift = conditional mean shift", report.delta_contr_var,
           stressed.mean - unstressed.mean, slack)
    _check("VaR contribution = mean + conditional mean shift", report.var_contribution,
           pair.mu_i + stressed.mean, slack)
    return report
