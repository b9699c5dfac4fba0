"""Acceptance suite: one test per criterion, each printing one pass line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines as they pass.
"""

import math
import time

import numpy as np
import pytest

from gaussrisk.errors import DegenerateSystemError
from gaussrisk.estimation import MomentEstimate, ReturnPanel, estimate_moments, pair_for_bank
from gaussrisk.mc import McConfig, validate_closed_forms
from gaussrisk.measures import GaussianPair, full_report
from gaussrisk.normal import RiskParams, conditional_moments, std_normal_cdf, std_normal_quantile
from helpers import normal_var

# ---------------------------------------------------------------------------
# criterion 5/6 shared fixture: a simulated 3-bank panel with known truth
# ---------------------------------------------------------------------------

TRUE_MEANS = np.array([0.02, -0.03, 0.01])
TRUE_COV = np.array(
    [
        [1.0, 0.3, 0.2],
        [0.3, 2.0, 0.5],
        [0.2, 0.5, 1.5],
    ]
)
BANKS = ("A", "B", "C")


@pytest.fixture(scope="module")
def estimated_panel_moments():
    rng = np.random.default_rng(20240817)
    root = np.linalg.cholesky(TRUE_COV)
    observations = rng.standard_normal((100_000, 3)) @ root.T + TRUE_MEANS
    panel = ReturnPanel(BANKS, observations)
    return estimate_moments(panel)


def test_criterion_1_quantile_fidelity():
    started = time.perf_counter()
    assert std_normal_quantile(0.999) == pytest.approx(3.09, abs=0.005)
    worst = 0.0
    for i in range(997):
        p = 0.001 + i * (0.998 / 996.0)
        worst = max(worst, abs(std_normal_cdf(std_normal_quantile(p)) - p))
    assert worst < 1e-9
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1 PASS: quantile(0.999)={std_normal_quantile(0.999):.6f} "
        f"(within 0.005 of 3.09); grid round-trip worst error {worst:.3e} < 1e-9 "
        f"[{elapsed * 1000:.0f} ms]"
    )


def test_criterion_2_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(98765)
    count = 0
    worst = 0.0

    def close(a, b, scale):
        nonlocal worst
        err = abs(a - b) / max(abs(a), abs(b), scale)
        worst = max(worst, err)
        assert err <= 1e-12

    while count < 1000:
        sd_i = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        sd_a = math.exp(rng.uniform(math.log(0.25), math.log(4.0)))
        rho = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.05, 0.95)
        mu_i, mu_a = rng.uniform(-2.0, 2.0, size=2)
        alpha = float(rng.choice([0.95, 0.99, 0.999]))
        params = RiskParams(alpha)
        q = params.quantile
        pair = GaussianPair(mu_i, mu_a, sd_i**2, sd_a**2, rho * sd_i * sd_a)
        swapped = pair.swapped()
        scale = abs(mu_i) + abs(mu_a) + q * (pair.std_i + pair.std_a + pair.std_s)
        count += 1

        report, other = full_report(pair, params), full_report(swapped, params)

        spill = report.delta_coll_var
        # triple identity and the expected-value form
        close(spill, report.covar_ai - report.covare_ai, scale)
        close(spill, report.beta_ai * (-q * pair.std_i), scale)
        close(spill, -q * pair.rho * pair.std_a, scale)
        stressed_mean = conditional_moments(
            pair.mu_a, pair.mu_i, pair.var_i, pair.var_a, pair.cov_ia,
            normal_var(pair.mu_i, pair.var_i, params),
        ).mean
        close(spill, stressed_mean - pair.mu_a, scale)
        # size independence
        rescaled = GaussianPair(
            2.0 * pair.mu_i, pair.mu_a, 4.0 * pair.var_i, pair.var_a, 2.0 * pair.cov_ia
        )
        close(spill, full_report(rescaled, params).delta_coll_var, scale)
        # ES analogue and dominance
        close(report.delta_coll_es, report.beta_ai * (-params.es_multiplier * pair.std_i), scale)
        assert abs(report.delta_coll_es) >= abs(spill)
        # own-plus-spillover decomposition and the system-slope form
        close(report.delta_cond_var, spill + (-q * pair.std_i), scale)
        close(report.delta_cond_var, report.beta_si * (-q * pair.std_i), scale)
        # beta shares sum to one
        assert abs(report.beta_is + other.beta_is - 1.0) <= 1e-12
        # contribution shifts aggregate to the system's mean-corrected VaR
        close(report.delta_contr_var + other.delta_contr_var, -q * pair.std_s, scale)
        # ratio between the two perspectives
        close(report.delta_cond_var, (pair.std_s / pair.std_i) * report.delta_contr_var, scale)
        # weighted system shifts aggregate
        close(
            (pair.std_i / pair.std_s) * report.delta_cond_var
            + (pair.std_a / pair.std_s) * other.delta_cond_var,
            -q * pair.std_s, scale,
        )
        # contributions sum to the system VaR
        close(
            report.var_contribution + other.var_contribution,
            normal_var(pair.mu_s, pair.var_s, params), scale,
        )
        # std-allocation link: the allocation cov_is / std_s is beta_is * std_s
        close(-q * report.beta_is * pair.std_s, report.delta_contr_var, scale)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 2 PASS: {count} randomized pairs, every identity within 1e-12 "
        f"(worst scale-relative error {worst:.3e}) [{elapsed * 1000:.0f} ms]"
    )


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    pair = GaussianPair(0.0, 0.0, 1.0, 4.0, 1.0)
    required = (
        "covar_ai", "covare_ai", "delta_coll_var", "delta_cond_var",
        "delta_contr_var", "var_contribution", "delta_coll_es",
    )
    worst = 0.0
    for seed in (11, 22, 33, 44, 55):
        config = McConfig(sample_count=2_000_000, bandwidth=0.05, seed=seed, alpha=0.99)
        report = validate_closed_forms(pair, config)
        by_name = {check.name: check for check in report.checks}
        for name in required:
            check = by_name[name]
            assert check.passed is not None, f"{name} unevaluated at seed {seed}"
            assert check.passed, (
                f"{name} failed at seed {seed}: |{check.closed_form:.4f} - "
                f"{check.empirical:.4f}| = {check.abs_error:.4f} > {check.tolerance:.4f}"
            )
            worst = max(worst, check.abs_error)
        assert report.all_passed
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 3 PASS: 7 statistics x 5 seeds within 4 estimated MC standard "
        f"errors (worst abs error {worst:.4f}) [{elapsed:.1f} s]"
    )


def test_criterion_4_degenerate_and_boundary():
    params = RiskParams(0.99)
    independent = GaussianPair(0.0, 0.0, 1.0, 1.0, 0.0)
    assert full_report(independent, params).delta_coll_var == 0.0
    hedged = GaussianPair(0.0, 0.0, 1.0, 1.0, -1.0)
    report = full_report(hedged, params)
    assert report.delta_cond_var == 0.0
    with pytest.raises(DegenerateSystemError):
        validate_closed_forms(hedged, McConfig(sample_count=10_000))
    assert report.delta_contr_var is None and report.var_contribution is None
    print(
        "ACCEPTANCE 4 PASS: independence spillover is exactly 0; perfect hedge gives "
        "zero system shift, a typed degenerate-system error, and unavailable "
        "contribution fields"
    )


def test_criterion_5_estimation_consistency(estimated_panel_moments):
    params = RiskParams(0.99)
    truth = MomentEstimate(BANKS, TRUE_MEANS, TRUE_COV, 100_000)
    worst = 0.0
    for bank in BANKS:
        true_report = full_report(pair_for_bank(truth, bank), params)
        est_report = full_report(pair_for_bank(estimated_panel_moments, bank), params)
        for field in vars(true_report):
            expected = getattr(true_report, field)
            actual = getattr(est_report, field)
            rel = abs(actual - expected) / abs(expected)
            worst = max(worst, rel)
            assert rel <= 0.05, f"{bank}.{field}: {actual} vs {expected} ({rel:.2%})"
    print(
        f"ACCEPTANCE 5 PASS: 100000-row panel recovers all 13 statistics x 3 banks "
        f"within 5% of the ground truth (worst {worst:.2%})"
    )


def test_criterion_6_aggregation_identity(estimated_panel_moments):
    params = RiskParams(0.99)
    est = estimated_panel_moments
    total = sum(
        full_report(pair_for_bank(est, bank), params).var_contribution for bank in est.labels
    )
    system_var = normal_var(float(est.means.sum()), float(est.covariance.sum()), params)
    error = abs(total - system_var)
    assert error < 1e-9
    print(
        f"ACCEPTANCE 6 PASS: sum of VaR contributions matches system VaR "
        f"({total:.9f} vs {system_var:.9f}, |diff| = {error:.2e} < 1e-9)"
    )
