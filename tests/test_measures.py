import dataclasses
import functools
import math
import operator

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gaussrisk.measures
from gaussrisk.errors import (
    ConsistencyError,
    DegenerateModelError,
    DomainError,
    GaussRiskError,
    InvalidCovarianceError,
)
from gaussrisk.measures import GaussianPair, full_report
from gaussrisk.normal import RiskParams, conditional_moments
from helpers import (
    alphas, assert_close, bisect_std_normal_quantile, gaussian_pairs, normal_var, pair_scale,
)

P99 = RiskParams(0.99)
P999 = RiskParams(0.999)
# the production method again; tests/test_normal.py checks both against a 60-digit root
Q99 = bisect_std_normal_quantile(0.99)


def unit_pair(cov: float, mu_i: float = 0.0, mu_a: float = 0.0) -> GaussianPair:
    return GaussianPair(mu_i=mu_i, mu_a=mu_a, var_i=1.0, var_a=1.0, cov_ia=cov)


class TestGaussianPair:
    def test_rejects_zero_variance(self):
        with pytest.raises(DegenerateModelError):
            GaussianPair(0.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(DegenerateModelError):
            GaussianPair(0.0, 0.0, 1.0, -1.0, 0.0)

    def test_rejects_non_psd(self):
        with pytest.raises(InvalidCovarianceError):
            GaussianPair(0.0, 0.0, 1.0, 1.0, 1.0001)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            GaussianPair(float("nan"), 0.0, 1.0, 1.0, 0.0)

    def test_rejects_overflowing_magnitudes(self):
        with pytest.raises(DomainError):
            GaussianPair(0.0, 0.0, 1e308, 1e308, 0.0)

    @pytest.mark.parametrize("cov_ia", [-8.3e-09, 8.3e-09])
    def test_rejects_overflowing_slopes(self, cov_ia):
        # cov_ia / var_i and cov_is / var_i, the report's slopes on the bank, pass 1.7e308
        with pytest.raises(DomainError, match="^model magnitudes overflow double precision$"):
            GaussianPair(0.0, 0.0, 5e-321, 1.38e304, cov_ia)

    def test_huge_finite_slope_is_kept(self):
        pair = GaussianPair(0.0, 0.0, 1e-300, 1.0, 1e-160)
        assert pair.cov_ia / pair.var_i == pytest.approx(1e140)

    def test_subnormal_pair_reports_without_a_false_cross_check(self):
        # std_i * std_a is subnormal: rho divided by it would lose the digits
        # that the spillover's cross-check -q * rho * std_a needs
        pair = GaussianPair(0.0, 1.1010284518142523e-156, 5.02363e-318, 5e-324, -3.656e-321)
        report = full_report(pair, P99)
        assert report.rho == pytest.approx(pair.cov_ia / pair.std_i / pair.std_a, rel=1e-15)

    def test_rho_clamped_at_boundary(self):
        assert unit_pair(1.0).rho == 1.0
        assert unit_pair(-1.0).rho == -1.0

    def test_swapped_exchanges_roles(self):
        pair = GaussianPair(0.1, 0.2, 1.0, 4.0, 1.0)
        swapped = pair.swapped()
        assert (swapped.mu_i, swapped.var_i) == (pair.mu_a, pair.var_a)
        assert swapped.cov_ia == pair.cov_ia


class TestBetaCoefficient:
    @pytest.mark.parametrize("cov,var,expected", [(0.0, 1.0, 0.0), (1.0, 1.0, 1.0), (3.0, 4.0, 0.75)])
    def test_values(self, cov, var, expected):
        assert full_report(GaussianPair(0.0, 0.0, var, 4.0, cov), P99).beta_ai == expected


class TestCovarCollateral:
    def test_independence_reduces_to_plain_var(self):
        value = full_report(unit_pair(0.0), P999).covar_ai
        assert value == pytest.approx(-3.09, abs=0.005)
        assert value == -P999.quantile

    def test_full_correlation_collapses_conditional_variance(self):
        value = full_report(unit_pair(1.0), P99).covar_ai
        assert value == pytest.approx(-Q99, abs=1e-9)
        assert value == pytest.approx(-2.3263, abs=1e-3)

    def test_half_correlation(self):
        oracle = -0.5 * Q99 - Q99 * math.sqrt(0.75)
        assert oracle == pytest.approx(-3.1779, abs=1e-3)
        assert full_report(unit_pair(0.5), P99).covar_ai == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas)
    def test_agrees_with_composition(self, pair, alpha):
        # Same number by composing the conditional moments at the stress point.
        params = RiskParams(alpha)
        stress = normal_var(pair.mu_i, pair.var_i, params)
        cm = conditional_moments(pair.mu_a, pair.mu_i, pair.var_i, pair.var_a, pair.cov_ia, stress)
        composed = normal_var(cm.mean, cm.variance, params)
        assert_close(
            full_report(pair, params).covar_ai, composed,
            pair_scale(pair, params.quantile), label="covar composition",
        )


class TestCovarAtMean:
    def test_independence(self):
        report = full_report(unit_pair(0.0), P999)
        assert report.covare_ai == report.covar_ai

    def test_zero_conditional_variance(self):
        assert full_report(unit_pair(1.0, mu_a=1.0), P99).covare_ai == 1.0

    def test_half_correlation(self):
        oracle = -Q99 * math.sqrt(0.75)
        assert oracle == pytest.approx(-2.0147, abs=1e-3)
        assert full_report(unit_pair(0.5), P99).covare_ai == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas)
    def test_not_below_stressed_value_for_positive_dependence(self, pair, alpha):
        report = full_report(pair, RiskParams(alpha))
        if pair.cov_ia >= 0.0:
            assert report.covare_ai >= report.covar_ai


class TestDeltaCollVar:
    def test_independence_kills_spillover(self):
        assert full_report(unit_pair(0.0), P99).delta_coll_var == 0.0

    def test_half_correlation(self):
        value = full_report(unit_pair(0.5), P99).delta_coll_var
        assert value == pytest.approx(-0.5 * Q99, abs=1e-9)
        assert value == pytest.approx(-1.1632, abs=1e-3)

    def test_size_of_bank_drops_out(self):
        base = GaussianPair(0.0, 0.0, 1.0, 1.0, 0.5)
        doubled = GaussianPair(0.0, 0.0, 4.0, 1.0, 1.0)  # bank scaled by 2
        assert full_report(doubled, P99).delta_coll_var == full_report(base, P99).delta_coll_var

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas, st.floats(0.1, 7.0))
    def test_size_invariance_general(self, pair, alpha, c):
        params = RiskParams(alpha)
        rescaled = GaussianPair(
            pair.mu_i * c, pair.mu_a, pair.var_i * c * c, pair.var_a, pair.cov_ia * c
        )
        assert_close(
            full_report(rescaled, params).delta_coll_var, full_report(pair, params).delta_coll_var,
            pair_scale(pair, params.quantile), label="size invariance",
        )


class TestDeltaCollEs:
    def test_independence(self):
        assert full_report(unit_pair(0.0), P99).delta_coll_es == 0.0

    def test_half_correlation(self):
        oracle = -0.5 * P99.es_multiplier  # es_multiplier pinned to quadrature
        assert oracle == pytest.approx(-1.3326, abs=1e-3)
        assert full_report(unit_pair(0.5), P99).delta_coll_es == pytest.approx(oracle, abs=1e-12)

    def test_unit_beta(self):
        assert full_report(unit_pair(1.0), P99).delta_coll_es == pytest.approx(-2.6652, abs=1e-3)

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas)
    def test_beta_times_mean_corrected_es(self, pair, alpha):
        params = RiskParams(alpha)
        report = full_report(pair, params)
        assert_close(
            report.delta_coll_es, report.beta_ai * (-params.es_multiplier * pair.std_i),
            pair_scale(pair, params.quantile), label="ES spillover",
        )

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas)
    def test_dominates_var_spillover(self, pair, alpha):
        report = full_report(pair, RiskParams(alpha))
        es_value = abs(report.delta_coll_es)
        var_value = abs(report.delta_coll_var)
        assert es_value >= var_value
        if pair.cov_ia == 0.0:
            assert es_value == var_value == 0.0


class TestSystemView:
    """The pair's moments of the whole system X_s = X_i + X_a."""

    def test_aggregation(self):
        pair = GaussianPair(0.0, 0.0, 1.0, 4.0, 1.0)
        assert pair.var_s == 7.0
        assert pair.cov_is == 2.0
        assert pair.std_s == math.sqrt(7.0)

    def test_perfect_hedge_degenerates(self):
        pair = GaussianPair(0.0, 0.0, 1.0, 1.0, -1.0)
        assert pair.var_s == 0.0
        assert pair.cov_is == 0.0
        assert pair.std_s == 0.0

    def test_mean_adds(self):
        assert GaussianPair(1.0, 2.0, 1.0, 1.0, 0.3).mu_s == 3.0

    def test_var_s_clamped_at_zero(self):
        # rho a hair below -1, within the PSD slack: the raw sum is -2e-13
        pair = GaussianPair(0.0, 0.0, 1.0, 1.0, -(1.0 + 1e-13))
        assert pair.var_i + 2.0 * pair.cov_ia + pair.var_a < 0.0
        assert pair.var_s == 0.0
        assert pair.std_s == 0.0
        assert full_report(pair, RiskParams(0.99)).delta_contr_var is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_rho_minus_one_pairs_report(self, seed):
        # With close sds, var_s is cancellation residue; unfloored it fell
        # below cov_is**2 / var_i, and the Euler cross-check's PSD test
        # raised InvalidCovarianceError for about 1 pair in 23.
        rng = np.random.default_rng(seed)
        sd_i = rng.uniform(0.5, 2.0, 10_000)
        sd_a = sd_i * rng.uniform(0.9, 1.1, 10_000)
        for s_i, s_a in zip(sd_i.tolist(), sd_a.tolist()):
            pair = GaussianPair(0.0, 0.0, s_i * s_i, s_a * s_a, -s_i * s_a)
            assert pair.cov_is**2 <= pair.var_i * pair.var_s * (1.0 + 1e-12)
            contribution = full_report(pair, P99).delta_contr_var
            # |corr(i, s)| <= 1 bounds the contribution by the bank's own VaR shift
            assert contribution is None or abs(contribution) <= Q99 * pair.std_i * (1.0 + 1e-12)

    @settings(max_examples=200)
    @given(gaussian_pairs())
    def test_algebraic_consistency(self, pair):
        rebuilt = pair.var_i + 2.0 * (pair.cov_is - pair.var_i) + pair.var_a
        assert_close(pair.var_s, rebuilt, pair.var_i + pair.var_a, label="var_s rebuild")
        assert pair.cov_is**2 <= pair.var_i * pair.var_s * (1.0 + 1e-12)

class TestDeltaCondVar:
    def test_independence_keeps_only_own_risk(self):
        value = full_report(unit_pair(0.0), P999).delta_cond_var
        assert value == pytest.approx(-3.09, abs=0.005)
        assert value == -P999.quantile

    def test_half_correlation(self):
        value = full_report(unit_pair(0.5), P99).delta_cond_var
        assert value == pytest.approx(-1.5 * Q99, abs=1e-9)
        assert value == pytest.approx(-3.4895, abs=1e-3)

    def test_perfect_hedge_is_neutral(self):
        assert full_report(unit_pair(-1.0), P99).delta_cond_var == 0.0


class TestDeltaContrVar:
    def test_independent_equal_banks(self):
        oracle = -Q99 / math.sqrt(2.0)
        assert oracle == pytest.approx(-1.6450, abs=1e-3)
        assert full_report(unit_pair(0.0), P99).delta_contr_var == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=200)
    @given(st.floats(0.1, 4.0), st.floats(-0.8, 0.95), alphas)
    def test_symmetric_banks_split_evenly(self, sd, rho, alpha):
        params = RiskParams(alpha)
        pair = GaussianPair(0.0, 0.0, sd * sd, sd * sd, rho * sd * sd)
        assert_close(
            full_report(pair, params).delta_contr_var, 0.5 * (-params.quantile * pair.std_s),
            pair_scale(pair, params.quantile), label="symmetric split",
        )

    def test_uneven_banks(self):
        value = full_report(GaussianPair(0.0, 0.0, 1.0, 4.0, 1.0), P99).delta_contr_var
        assert value == pytest.approx(-2.0 * Q99 / math.sqrt(7.0), abs=1e-9)
        assert value == pytest.approx(-1.7586, abs=1e-3)


class TestVarContribution:
    def test_zero_mean_equals_contribution_shift(self):
        report = full_report(unit_pair(0.0), P99)
        assert report.var_contribution == report.delta_contr_var

    def test_mean_shift(self):
        value = full_report(unit_pair(0.0, mu_i=1.0), P99).var_contribution
        assert value == pytest.approx(1.0 - Q99 / math.sqrt(2.0), abs=1e-9)
        assert value == pytest.approx(-0.6450, abs=1e-3)

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_contributions_sum_to_system_var(self, pair, alpha):
        params = RiskParams(alpha)
        total = (
            full_report(pair, params).var_contribution
            + full_report(pair.swapped(), params).var_contribution
        )
        assert_close(
            total, normal_var(pair.mu_s, pair.var_s, params),
            pair_scale(pair, params.quantile), label="contribution sum",
        )


class TestStdAllocation:
    """The allocation weight cov_is / std_s: the report's beta_is times std_s."""

    @staticmethod
    def allocation(pair: GaussianPair) -> float:
        return full_report(pair, P99).beta_is * pair.std_s

    def test_equal_independent_banks(self):
        assert self.allocation(unit_pair(0.0)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_uneven_banks(self):
        pair = GaussianPair(0.0, 0.0, 1.0, 4.0, 1.0)
        assert self.allocation(pair) == pytest.approx(2.0 / math.sqrt(7.0), abs=1e-12)

    @settings(max_examples=200)
    @given(gaussian_pairs())
    def test_allocations_sum_to_system_std(self, pair):
        total = self.allocation(pair) + self.allocation(pair.swapped())
        assert_close(total, pair.std_s, pair.std_s, label="allocation sum")


class TestCrossStatisticIdentities:
    """The proposition/remark identity battery over random valid pairs."""

    @settings(max_examples=300)
    @given(gaussian_pairs(min_abs_rho=0.05), alphas)
    def test_spillover_triple_identity(self, pair, alpha):
        params = RiskParams(alpha)
        q = params.quantile
        scale = pair_scale(pair, q)
        report = full_report(pair, params)
        spill = report.delta_coll_var
        assert_close(spill, report.covar_ai - report.covare_ai,
                     scale, label="stressed minus unstressed")
        assert_close(spill, report.beta_ai * (-q * pair.std_i), scale, label="beta form")
        assert_close(spill, -q * pair.rho * pair.std_a, scale, label="correlation form")

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_spillover_is_conditional_mean_shift(self, pair, alpha):
        params = RiskParams(alpha)
        stress = normal_var(pair.mu_i, pair.var_i, params)
        shifted = conditional_moments(
            pair.mu_a, pair.mu_i, pair.var_i, pair.var_a, pair.cov_ia, stress
        ).mean
        assert_close(full_report(pair, params).delta_coll_var, shifted - pair.mu_a,
                     pair_scale(pair, params.quantile), label="mean shift")

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_system_shift_decomposition(self, pair, alpha):
        params = RiskParams(alpha)
        own = -params.quantile * pair.std_i
        report = full_report(pair, params)
        assert_close(report.delta_cond_var, report.delta_coll_var + own,
                     pair_scale(pair, params.quantile), label="own plus spillover")

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_beta_shares_sum_to_one(self, pair, alpha):
        params = RiskParams(alpha)
        b_is = full_report(pair, params).beta_is
        b_as = full_report(pair.swapped(), params).beta_is
        assert abs(b_is + b_as - 1.0) < 1e-15

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_contribution_shifts_sum_to_system_mean_corrected_var(self, pair, alpha):
        params = RiskParams(alpha)
        total = (
            full_report(pair, params).delta_contr_var
            + full_report(pair.swapped(), params).delta_contr_var
        )
        assert_close(total, -params.quantile * pair.std_s,
                     pair_scale(pair, params.quantile), label="contribution shifts")

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_ratio_between_perspectives(self, pair, alpha):
        params = RiskParams(alpha)
        report = full_report(pair, params)
        assert_close(
            report.delta_cond_var,
            (pair.std_s / pair.std_i) * report.delta_contr_var,
            pair_scale(pair, params.quantile), label="perspective ratio",
        )
        # equivalent normalized forms
        assert_close(
            report.delta_cond_var / pair.std_s,
            report.delta_contr_var / pair.std_i,
            params.quantile, label="normalized perspective ratio",
        )

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_weighted_system_shifts_aggregate(self, pair, alpha):
        params = RiskParams(alpha)
        weighted = (
            (pair.std_i / pair.std_s) * full_report(pair, params).delta_cond_var
            + (pair.std_a / pair.std_s) * full_report(pair.swapped(), params).delta_cond_var
        )
        assert_close(weighted, -params.quantile * pair.std_s,
                     pair_scale(pair, params.quantile), label="weighted aggregate")

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_std_allocation_reproduces_contribution_shift(self, pair, alpha):
        params = RiskParams(alpha)
        report = full_report(pair, params)
        assert_close(
            -params.quantile * report.beta_is * pair.std_s, report.delta_contr_var,
            pair_scale(pair, params.quantile), label="allocation times quantile",
        )

    @settings(max_examples=200)
    @given(
        st.floats(0.25, 4.0), st.floats(0.25, 4.0), st.floats(-2, 2), st.floats(-2, 2),
        st.floats(-0.9, 0.9), st.floats(0.001, 0.1), alphas,
    )
    def test_monotone_in_covariance(self, sd_i, sd_a, mu_i, mu_a, rho, bump, alpha):
        params = RiskParams(alpha)
        cov_lo = rho * sd_i * sd_a
        cov_hi = (rho + bump) * sd_i * sd_a
        lo = full_report(GaussianPair(mu_i, mu_a, sd_i**2, sd_a**2, cov_lo), params)
        hi = full_report(GaussianPair(mu_i, mu_a, sd_i**2, sd_a**2, cov_hi), params)
        assert hi.delta_coll_var < lo.delta_coll_var
        assert hi.delta_cond_var < lo.delta_cond_var
        # The contribution shift is only monotone where cov_ia > -var_a: its
        # derivative in cov_ia is proportional to -(cov_ia + var_a), so the
        # direction reverses once the covariance drops below -var_a.
        if cov_lo >= -sd_a * sd_a:
            assert hi.delta_contr_var < lo.delta_contr_var
        elif cov_hi <= -sd_a * sd_a:
            assert hi.delta_contr_var > lo.delta_contr_var


class TestFullReport:
    def test_independence_pair(self):
        report = full_report(unit_pair(0.0), P99)
        assert report.delta_coll_var == 0.0
        assert report.delta_cond_var == report.var_mean_i
        assert report.beta_ai == 0.0
        assert report.rho == 0.0

    def test_perfect_hedge_marks_contribution_fields_unavailable(self):
        report = full_report(unit_pair(-1.0), P99)
        assert report.delta_cond_var == 0.0
        assert report.delta_contr_var is None
        assert report.var_contribution is None
        assert report.beta_is is None
        # every other field stays finite
        assert math.isfinite(report.covar_ai)
        assert math.isfinite(report.delta_coll_var)

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas)
    def test_definitional_invariants(self, pair, alpha):
        params = RiskParams(alpha)
        report = full_report(pair, params)
        scale = pair_scale(pair, params.quantile)
        assert_close(report.delta_coll_var, report.covar_ai - report.covare_ai,
                     scale, label="spillover definition")
        assert_close(report.var_mean_i, report.var_i - pair.mu_i, scale, label="mean correction")
        for name, value in vars(report).items():
            if value is not None:
                assert math.isfinite(value), name

    CHECK_NAMES = [
        "CoVaR = VaR given the bank at its VaR",
        "CoVaRe = VaR given the bank at its mean",
        "spillover = conditional mean shift",
        "spillover = -q * rho * std_a",
        "ES spillover = slope * mean-corrected ES",
        "system shift = system slope * mean-corrected VaR",
        "contribution shift = conditional mean shift",
        "VaR contribution = mean + conditional mean shift",
    ]

    @pytest.mark.parametrize(
        "pair, expected",
        [(GaussianPair(0.1, 0.2, 1.0, 4.0, 1.0), 8), (unit_pair(-1.0), 6)],
        ids=["general", "perfect-hedge"],
    )
    def test_cross_checks_run_in_a_fixed_order(self, monkeypatch, pair, expected):
        # a perfect hedge has no contribution family, so its last 2 checks do not run
        names = []
        check = gaussrisk.measures._check

        def record(name, a, b, scale):
            names.append(name)
            check(name, a, b, scale)

        monkeypatch.setattr(gaussrisk.measures, "_check", record)
        full_report(pair, P99)
        assert names == self.CHECK_NAMES[:expected]

    @pytest.mark.parametrize(
        "pair, field",
        [
            pytest.param(GaussianPair(0.1, 0.2, 1.0, 4.0, 1.0), field, id=field)
            for field in (
                "var_mean_i", "covar_ai", "covare_ai", "delta_coll_var", "delta_coll_es",
                "delta_cond_var", "delta_contr_var", "var_contribution",
            )
        ] + [
            # |mu_i| + |mu_a| overflows: a tolerance summed from the raw means was inf
            pytest.param(
                GaussianPair(1.7e308, -1.7e308, 1.0, 1.0, 0.0), field, id=f"huge-means-{field}"
            )
            for field in ("covar_ai", "covare_ai", "var_contribution")
        ],
    )
    def test_every_checked_field_has_a_route(self, monkeypatch, pair, field):
        # one field off by a relative 1e-6, far past the 1e-9 tolerance: some row must catch it
        build = gaussrisk.measures._report

        def mutated(pair, params):
            report = build(pair, params)
            return dataclasses.replace(report, **{field: getattr(report, field) * (1.0 + 1e-6)})

        monkeypatch.setattr(gaussrisk.measures, "_report", mutated)
        with pytest.raises(ConsistencyError):
            full_report(pair, P99)

    @pytest.mark.parametrize("route", [math.inf, -math.inf, math.nan])
    def test_a_route_that_is_not_finite_fails_its_check(self, route):
        # an infinite route would otherwise widen its own tolerance to inf and pass
        with pytest.raises(ConsistencyError):
            gaussrisk.measures._check("row", -2.3, route, 1.0)

    def test_cross_checks_catch_corruption(self):
        # full_report re-derives each statistic two ways; feeding it an
        # inconsistent params object must blow up, not return quietly.
        params = RiskParams(0.99)
        # an ES multiplier below the quantile: the ES spillover turns shallower than the VaR's
        object.__setattr__(params, "es_multiplier", 0.9 * params.quantile)
        with pytest.raises(ConsistencyError):
            full_report(unit_pair(0.5), params)

    @settings(max_examples=1000, deadline=None)
    @given(
        st.floats(-323.3, 308.25), st.floats(-323.3, 308.25),  # 5e-324 .. 1.78e308
        st.floats(-1.0, 1.0),
        st.one_of(st.just(0.0), st.floats(-15.0, 15.0)),
        st.one_of(st.just(0.0), st.floats(-15.0, 15.0)),
        st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]), alphas,
    )
    # sd_s / sd_i past the double range: the two models of tests/test_cli.py
    @example(-323.3, 300.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.99)
    @example(-320.0, 300.0, 1e-160 / (math.sqrt(1e-320) * 1e150), 0.0, 0.0, 1.0, 1.0, 0.99)
    def test_valid_pair_gives_finite_statistics_or_a_typed_error(
        self, log_var_i, log_var_a, rho, log_loc_i, log_loc_a, sign_i, sign_a, alpha
    ):
        # variances over the whole double range, subnormal ones included, and
        # means up to 1e15 sds from zero: a report is finite, and no valid
        # pair trips a cross-check.
        var_i, var_a = 10.0**log_var_i, 10.0**log_var_a
        sd_i, sd_a = math.sqrt(var_i), math.sqrt(var_a)
        mu_i = 0.0 if log_loc_i == 0.0 else sign_i * 10.0**log_loc_i * sd_i
        mu_a = 0.0 if log_loc_a == 0.0 else sign_a * 10.0**log_loc_a * sd_a
        try:
            report = full_report(
                GaussianPair(mu_i, mu_a, var_i, var_a, rho * sd_i * sd_a), RiskParams(alpha)
            )
        except GaussRiskError as exc:
            assert not isinstance(exc, ConsistencyError), exc
            return
        for name, value in vars(report).items():
            if value is not None:
                assert math.isfinite(value), name


@functools.lru_cache(maxsize=None)
def _multipliers(alpha: float) -> tuple[mpmath.mpf, mpmath.mpf]:
    """``(q, pdf(q) / (1 - alpha))`` at 60 digits."""
    with mpmath.workdps(60):
        a = mpmath.mpf(alpha)
        q = mpmath.sqrt(2) * mpmath.erfinv(2 * a - 1)
        return q, mpmath.npdf(q) / (1 - a)


class TestHighPrecisionReference:
    """Every report field against its closed form evaluated at 60 digits.

    The bounds were stated before the first run, in units of U = 2**-52:
    - a location field is within LOCATION of the report's scale.  The
      quantile is within two ulps of its root, the ES multiplier
      pdf(q) / (1 - alpha) amplifies a relative error of q by q**2 < 10,
      and each field adds a few roundings.
    - covar_ai and covare_ai carry c_ai, the square root of the cancelling
      var_a - b_ai**2: near |rho| = 1 its error is about sqrt(2 U) * sd_a,
      so they get CONDITIONAL_SD * q * sd_a more.
    - a slope is within SLOPE ulp, an ulp being U of its value or, for a
      subnormal value, the subnormal spacing 2**-1074.  var_s is the exactly
      rounded sum, so beta_is is a few roundings from its value even where
      the sum cancels.
    - a field is None exactly where its reference is: a perfect hedge.
    """

    U = 2.0**-52
    LOCATION = 16 * U
    CONDITIONAL_SD = 4 * math.sqrt(U)
    SLOPE = 16
    SLOPES = ("beta_ai", "beta_si", "beta_is", "rho")

    @staticmethod
    def reference(pair: GaussianPair, alpha: float) -> tuple[dict, mpmath.mpf]:
        """The 13 fields of the pair's exact moments, and their scale."""
        q, m = _multipliers(alpha)
        with mpmath.workdps(60):
            mu_i, mu_a, v_i, v_a, c = map(
                mpmath.mpf, (pair.mu_i, pair.mu_a, pair.var_i, pair.var_a, pair.cov_ia)
            )
            s_i, s_a = mpmath.sqrt(v_i), mpmath.sqrt(v_a)
            b_ai = c / s_i
            c_ai = mpmath.sqrt(max(v_a - b_ai**2, 0))
            c_is = c + v_i
            v_s = v_i + 2 * c + v_a
            # within the PSD slack the pair's rho may pass 1; var_s keeps its PSD floor
            v_s = max(v_s, c_is**2 / v_i) if v_s > 0 else mpmath.mpf(0)
            b_is = c_is / mpmath.sqrt(v_s) if v_s > 0 else None
            fields = dict(
                var_i=mu_i - q * s_i, var_mean_i=-q * s_i,
                covar_ai=mu_a - q * b_ai - q * c_ai, covare_ai=mu_a - q * c_ai,
                delta_coll_var=-q * b_ai, delta_coll_es=-m * b_ai,
                delta_cond_var=-q * c_is / s_i,
                delta_contr_var=None if b_is is None else -q * b_is,
                var_contribution=None if b_is is None else mu_i - q * b_is,
                beta_ai=c / v_i, beta_si=c_is / v_i,
                beta_is=None if b_is is None else c_is / v_s,
                rho=max(-1, min(1, c / (s_i * s_a))),
            )
            scale = abs(mu_i) + abs(mu_a) + q * (s_i + s_a + mpmath.sqrt(v_s))
            return fields, scale

    def test_cancelling_system_variance_is_summed_exactly(self):
        # rho near -1 with sd_i near sd_a: var_i + 2 cov_ia + var_a cancels to
        # 1e-4 of its terms, and a left-to-right sum put beta_is 3118 ulp off
        pair = GaussianPair(
            0.0, -1.1392100147904283e-97,
            6.3924575148940405e-201, 6.557158278887279e-201, -6.4742841856241265e-201,
        )
        expected, _ = self.reference(pair, 0.99)
        with mpmath.workdps(60):
            exact_var_s = sum(map(mpmath.mpf, (pair.var_i, 2 * pair.cov_ia, pair.var_a)))
            assert pair.var_s == float(exact_var_s)
            beta_is = full_report(pair, P99).beta_is
            assert abs(beta_is - expected["beta_is"]) <= self.U * abs(beta_is)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(-150.0, 150.0), st.floats(-150.0, 150.0),
        st.one_of(
            st.floats(-1.0, 1.0), st.sampled_from([-1.0, 1.0]),
            st.builds(operator.mul, st.sampled_from([-1.0, 1.0]), st.floats(1.0 - 1e-16, 1.0)),
        ),
        st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
        st.one_of(st.just(0.0), st.floats(-1e6, 1e6)),
        st.sampled_from([0.95, 0.99, 0.999]),
    )
    def test_fields_match_a_60_digit_reference(
        self, log_sd_i, log_sd_a, rho, loc_i, loc_a, alpha
    ):
        sd_i, sd_a = 10.0**log_sd_i, 10.0**log_sd_a
        try:
            pair = GaussianPair(
                loc_i * sd_i, loc_a * sd_a, sd_i * sd_i, sd_a * sd_a, rho * sd_i * sd_a
            )
            report = full_report(pair, RiskParams(alpha))
        except GaussRiskError as exc:
            assert not isinstance(exc, ConsistencyError), exc
            return
        expected, scale = self.reference(pair, alpha)
        q = _multipliers(alpha)[0]
        with mpmath.workdps(60):
            for name, want in expected.items():
                got = getattr(report, name)
                if got is None or want is None:
                    assert got is None and want is None, (name, got, want)
                    continue
                if name in self.SLOPES:
                    bound = self.SLOPE * max(self.U * abs(want), 2.0**-1074)
                else:
                    bound = self.LOCATION * scale
                if name in ("covar_ai", "covare_ai"):
                    bound += self.CONDITIONAL_SD * q * mpmath.sqrt(pair.var_a)
                error = abs(mpmath.mpf(got) - want)
                assert error <= bound, f"{name}: {got!r} vs {want} (error {error}, bound {bound})"
