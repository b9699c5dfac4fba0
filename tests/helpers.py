"""Shared test oracles and generators.

The quantile helper is a bisection on the (erfc-based) CDF, the method of
production's quantile too, so it is no independent check of it: the
independent reference is the 60-digit mpmath root in tests/test_normal.py and
tests/test_measures.py.  Tail means come from quadrature in the tests that
need them.
"""

from __future__ import annotations

import dataclasses
import math

from hypothesis import strategies as st

import gaussrisk.mc
from gaussrisk.measures import GaussianPair
from gaussrisk.normal import std_normal_cdf


def bisect_std_normal_quantile(p: float, lo: float = -40.0, hi: float = 40.0) -> float:
    """Quantile by bisection on std_normal_cdf; mpmath's root is the independent reference."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pair_scale(pair: GaussianPair, quantile: float) -> float:
    """Natural magnitude of the statistics of a pair; anchors relative tolerances."""
    return abs(pair.mu_i) + abs(pair.mu_a) + quantile * (pair.std_i + pair.std_a + pair.std_s)


def assert_close(a: float, b: float, scale: float, rel: float = 1e-12, label: str = ""):
    tol = rel * max(abs(a), abs(b), scale)
    assert abs(a - b) <= tol, f"{label}: {a!r} vs {b!r} (tol {tol!r})"


@st.composite
def gaussian_pairs(draw, min_abs_rho: float = 0.0, max_abs_rho: float = 0.95):
    """Well-conditioned random pairs: sds in [0.25, 4], means in [-2, 2]."""
    sd_i = draw(st.floats(0.25, 4.0))
    sd_a = draw(st.floats(0.25, 4.0))
    rho = draw(st.floats(-max_abs_rho, max_abs_rho))
    if abs(rho) < min_abs_rho:
        rho = math.copysign(min_abs_rho, rho if rho != 0.0 else 1.0)
    mu_i = draw(st.floats(-2.0, 2.0))
    mu_a = draw(st.floats(-2.0, 2.0))
    return GaussianPair(
        mu_i=mu_i, mu_a=mu_a, var_i=sd_i * sd_i, var_a=sd_a * sd_a,
        cov_ia=rho * sd_i * sd_a,
    )


alphas = st.floats(min_value=0.55, max_value=0.9995)


def bias_validated_closed_forms(monkeypatch, bias: float) -> None:
    """Add ``bias`` to every closed form the Monte Carlo oracle checks: a fault to catch.

    The oracle reads its closed forms from the one report builder, so the
    fault goes in there: every statistic of the report is shifted.
    """
    build = gaussrisk.mc._report

    def biased(pair, params):
        report = build(pair, params)
        return dataclasses.replace(report, **{
            field.name: getattr(report, field.name) + bias
            for field in dataclasses.fields(report) if getattr(report, field.name) is not None
        })

    monkeypatch.setattr(gaussrisk.mc, "_report", biased)
