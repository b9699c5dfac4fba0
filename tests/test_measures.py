import math

import pytest
from hypothesis import given, settings, strategies as st

from gaussrisk.errors import (
    ConsistencyError,
    DegenerateModelError,
    DegenerateSystemError,
    DomainError,
    GaussRiskError,
    InvalidCovarianceError,
)
from gaussrisk.measures import (
    GaussianPair,
    beta_coefficient,
    covar_at_mean,
    covar_collateral,
    delta_coll_es,
    delta_coll_var,
    delta_cond_var,
    delta_contr_var,
    full_report,
    std_allocation,
    var_contribution,
)
from gaussrisk.normal import (
    RiskParams,
    conditional_moments,
    es_mean_normal,
    var_normal,
)
from helpers import alphas, assert_close, bisect_std_normal_quantile, gaussian_pairs, pair_scale

P99 = RiskParams(0.99)
P999 = RiskParams(0.999)
Q99 = bisect_std_normal_quantile(0.99)  # independent quantile oracle


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
        assert beta_coefficient(cov, var) == expected

    def test_rejects_degenerate(self):
        with pytest.raises(DegenerateModelError):
            beta_coefficient(1.0, 0.0)


class TestCovarCollateral:
    def test_independence_reduces_to_plain_var(self):
        value = covar_collateral(unit_pair(0.0), P999)
        assert value == pytest.approx(-3.09, abs=0.005)
        assert value == var_normal(0.0, 1.0, P999)

    def test_full_correlation_collapses_conditional_variance(self):
        assert covar_collateral(unit_pair(1.0), P99) == pytest.approx(-Q99, abs=1e-9)
        assert covar_collateral(unit_pair(1.0), P99) == pytest.approx(-2.3263, abs=1e-3)

    def test_half_correlation(self):
        oracle = -0.5 * Q99 - Q99 * math.sqrt(0.75)
        assert oracle == pytest.approx(-3.1779, abs=1e-3)
        assert covar_collateral(unit_pair(0.5), P99) == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas)
    def test_agrees_with_composition(self, pair, alpha):
        # Same number by composing the conditional moments at the stress point.
        params = RiskParams(alpha)
        stress = var_normal(pair.mu_i, pair.var_i, params)
        cm = conditional_moments(pair.mu_a, pair.mu_i, pair.var_i, pair.var_a, pair.cov_ia, stress)
        composed = var_normal(cm.mean, cm.variance, params)
        assert_close(
            covar_collateral(pair, params), composed,
            pair_scale(pair, params.quantile), label="covar composition",
        )


class TestCovarAtMean:
    def test_independence(self):
        assert covar_at_mean(unit_pair(0.0), P999) == covar_collateral(unit_pair(0.0), P999)

    def test_zero_conditional_variance(self):
        assert covar_at_mean(unit_pair(1.0, mu_a=1.0), P99) == 1.0

    def test_half_correlation(self):
        oracle = -Q99 * math.sqrt(0.75)
        assert oracle == pytest.approx(-2.0147, abs=1e-3)
        assert covar_at_mean(unit_pair(0.5), P99) == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas)
    def test_not_below_stressed_value_for_positive_dependence(self, pair, alpha):
        params = RiskParams(alpha)
        if pair.cov_ia >= 0.0:
            assert covar_at_mean(pair, params) >= covar_collateral(pair, params)


class TestDeltaCollVar:
    def test_independence_kills_spillover(self):
        assert delta_coll_var(unit_pair(0.0), P99) == 0.0

    def test_half_correlation(self):
        assert delta_coll_var(unit_pair(0.5), P99) == pytest.approx(-0.5 * Q99, abs=1e-9)
        assert delta_coll_var(unit_pair(0.5), P99) == pytest.approx(-1.1632, abs=1e-3)

    def test_size_of_bank_drops_out(self):
        base = GaussianPair(0.0, 0.0, 1.0, 1.0, 0.5)
        doubled = GaussianPair(0.0, 0.0, 4.0, 1.0, 1.0)  # bank scaled by 2
        assert delta_coll_var(doubled, P99) == delta_coll_var(base, P99)

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas, st.floats(0.1, 7.0))
    def test_size_invariance_general(self, pair, alpha, c):
        params = RiskParams(alpha)
        rescaled = GaussianPair(
            pair.mu_i * c, pair.mu_a, pair.var_i * c * c, pair.var_a, pair.cov_ia * c
        )
        assert_close(
            delta_coll_var(rescaled, params), delta_coll_var(pair, params),
            pair_scale(pair, params.quantile), label="size invariance",
        )


class TestDeltaCollEs:
    def test_independence(self):
        assert delta_coll_es(unit_pair(0.0), P99) == 0.0

    def test_half_correlation(self):
        oracle = 0.5 * es_mean_normal(1.0, P99)  # es_mean_normal pinned to quadrature
        assert oracle == pytest.approx(-1.3326, abs=1e-3)
        assert delta_coll_es(unit_pair(0.5), P99) == pytest.approx(oracle, abs=1e-12)

    def test_unit_beta(self):
        assert delta_coll_es(unit_pair(1.0), P99) == pytest.approx(-2.6652, abs=1e-3)

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas)
    def test_beta_times_mean_corrected_es(self, pair, alpha):
        params = RiskParams(alpha)
        expected = beta_coefficient(pair.cov_ia, pair.var_i) * es_mean_normal(pair.var_i, params)
        assert_close(
            delta_coll_es(pair, params), expected,
            pair_scale(pair, params.quantile), label="ES spillover",
        )

    @settings(max_examples=200)
    @given(gaussian_pairs(), alphas)
    def test_dominates_var_spillover(self, pair, alpha):
        params = RiskParams(alpha)
        es_value = abs(delta_coll_es(pair, params))
        var_value = abs(delta_coll_var(pair, params))
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
        with pytest.raises(DegenerateSystemError):
            delta_contr_var(pair, RiskParams(0.99))

    @settings(max_examples=200)
    @given(gaussian_pairs())
    def test_algebraic_consistency(self, pair):
        rebuilt = pair.var_i + 2.0 * (pair.cov_is - pair.var_i) + pair.var_a
        assert_close(pair.var_s, rebuilt, pair.var_i + pair.var_a, label="var_s rebuild")
        assert pair.cov_is**2 <= pair.var_i * pair.var_s * (1.0 + 1e-12)


class TestDeltaCondVar:
    def test_independence_keeps_only_own_risk(self):
        value = delta_cond_var(unit_pair(0.0), P999)
        assert value == pytest.approx(-3.09, abs=0.005)
        assert value == -P999.quantile

    def test_half_correlation(self):
        assert delta_cond_var(unit_pair(0.5), P99) == pytest.approx(-1.5 * Q99, abs=1e-9)
        assert delta_cond_var(unit_pair(0.5), P99) == pytest.approx(-3.4895, abs=1e-3)

    def test_perfect_hedge_is_neutral(self):
        assert delta_cond_var(unit_pair(-1.0), P99) == 0.0


class TestDeltaContrVar:
    def test_independent_equal_banks(self):
        oracle = -Q99 / math.sqrt(2.0)
        assert oracle == pytest.approx(-1.6450, abs=1e-3)
        assert delta_contr_var(unit_pair(0.0), P99) == pytest.approx(oracle, abs=1e-9)

    @settings(max_examples=200)
    @given(st.floats(0.1, 4.0), st.floats(-0.8, 0.95), alphas)
    def test_symmetric_banks_split_evenly(self, sd, rho, alpha):
        params = RiskParams(alpha)
        pair = GaussianPair(0.0, 0.0, sd * sd, sd * sd, rho * sd * sd)
        assert_close(
            delta_contr_var(pair, params), 0.5 * (-params.quantile * pair.std_s),
            pair_scale(pair, params.quantile), label="symmetric split",
        )

    def test_uneven_banks(self):
        pair = GaussianPair(0.0, 0.0, 1.0, 4.0, 1.0)
        assert delta_contr_var(pair, P99) == pytest.approx(-2.0 * Q99 / math.sqrt(7.0), abs=1e-9)
        assert delta_contr_var(pair, P99) == pytest.approx(-1.7586, abs=1e-3)

    def test_degenerate_system_raises(self):
        with pytest.raises(DegenerateSystemError):
            delta_contr_var(unit_pair(-1.0), P99)


class TestVarContribution:
    def test_zero_mean_equals_contribution_shift(self):
        pair = unit_pair(0.0)
        assert var_contribution(pair, P99) == delta_contr_var(pair, P99)

    def test_mean_shift(self):
        pair = unit_pair(0.0, mu_i=1.0)
        assert var_contribution(pair, P99) == pytest.approx(1.0 - Q99 / math.sqrt(2.0), abs=1e-9)
        assert var_contribution(pair, P99) == pytest.approx(-0.6450, abs=1e-3)

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_contributions_sum_to_system_var(self, pair, alpha):
        params = RiskParams(alpha)
        total = var_contribution(pair, params) + var_contribution(pair.swapped(), params)
        assert_close(
            total, var_normal(pair.mu_s, pair.var_s, params),
            pair_scale(pair, params.quantile), label="contribution sum",
        )


class TestStdAllocation:
    def test_equal_independent_banks(self):
        assert std_allocation(unit_pair(0.0)) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)

    def test_uneven_banks(self):
        pair = GaussianPair(0.0, 0.0, 1.0, 4.0, 1.0)
        assert std_allocation(pair) == pytest.approx(2.0 / math.sqrt(7.0), abs=1e-12)

    @settings(max_examples=200)
    @given(gaussian_pairs())
    def test_allocations_sum_to_system_std(self, pair):
        total = std_allocation(pair) + std_allocation(pair.swapped())
        assert_close(total, pair.std_s, pair.std_s, label="allocation sum")

    def test_degenerate_system_raises(self):
        with pytest.raises(DegenerateSystemError):
            std_allocation(unit_pair(-1.0))


class TestCrossStatisticIdentities:
    """The proposition/remark identity battery over random valid pairs."""

    @settings(max_examples=300)
    @given(gaussian_pairs(min_abs_rho=0.05), alphas)
    def test_spillover_triple_identity(self, pair, alpha):
        params = RiskParams(alpha)
        q = params.quantile
        scale = pair_scale(pair, q)
        spill = delta_coll_var(pair, params)
        assert_close(spill, covar_collateral(pair, params) - covar_at_mean(pair, params),
                     scale, label="stressed minus unstressed")
        assert_close(spill, beta_coefficient(pair.cov_ia, pair.var_i) * (-q * pair.std_i),
                     scale, label="beta form")
        assert_close(spill, -q * pair.rho * pair.std_a, scale, label="correlation form")

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_spillover_is_conditional_mean_shift(self, pair, alpha):
        params = RiskParams(alpha)
        stress = var_normal(pair.mu_i, pair.var_i, params)
        shifted = conditional_moments(
            pair.mu_a, pair.mu_i, pair.var_i, pair.var_a, pair.cov_ia, stress
        ).mean
        assert_close(delta_coll_var(pair, params), shifted - pair.mu_a,
                     pair_scale(pair, params.quantile), label="mean shift")

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_system_shift_decomposition(self, pair, alpha):
        params = RiskParams(alpha)
        own = -params.quantile * pair.std_i
        assert_close(delta_cond_var(pair, params), delta_coll_var(pair, params) + own,
                     pair_scale(pair, params.quantile), label="own plus spillover")

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_beta_shares_sum_to_one(self, pair, alpha):
        swapped = pair.swapped()
        b_is = beta_coefficient(pair.cov_is, pair.var_s)
        b_as = beta_coefficient(swapped.cov_is, swapped.var_s)
        assert abs(b_is + b_as - 1.0) < 1e-15

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_contribution_shifts_sum_to_system_mean_corrected_var(self, pair, alpha):
        params = RiskParams(alpha)
        total = delta_contr_var(pair, params) + delta_contr_var(pair.swapped(), params)
        assert_close(total, -params.quantile * pair.std_s,
                     pair_scale(pair, params.quantile), label="contribution shifts")

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_ratio_between_perspectives(self, pair, alpha):
        params = RiskParams(alpha)
        assert_close(
            delta_cond_var(pair, params),
            (pair.std_s / pair.std_i) * delta_contr_var(pair, params),
            pair_scale(pair, params.quantile), label="perspective ratio",
        )
        # equivalent normalized forms
        assert_close(
            delta_cond_var(pair, params) / pair.std_s,
            delta_contr_var(pair, params) / pair.std_i,
            params.quantile, label="normalized perspective ratio",
        )

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_weighted_system_shifts_aggregate(self, pair, alpha):
        params = RiskParams(alpha)
        weighted = (
            (pair.std_i / pair.std_s) * delta_cond_var(pair, params)
            + (pair.std_a / pair.std_s) * delta_cond_var(pair.swapped(), params)
        )
        assert_close(weighted, -params.quantile * pair.std_s,
                     pair_scale(pair, params.quantile), label="weighted aggregate")

    @settings(max_examples=300)
    @given(gaussian_pairs(), alphas)
    def test_std_allocation_reproduces_contribution_shift(self, pair, alpha):
        params = RiskParams(alpha)
        assert_close(
            -params.quantile * std_allocation(pair), delta_contr_var(pair, params),
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
        lo = GaussianPair(mu_i, mu_a, sd_i**2, sd_a**2, cov_lo)
        hi = GaussianPair(mu_i, mu_a, sd_i**2, sd_a**2, cov_hi)
        assert delta_coll_var(hi, params) < delta_coll_var(lo, params)
        assert delta_cond_var(hi, params) < delta_cond_var(lo, params)
        # The contribution shift is only monotone where cov_ia > -var_a: its
        # derivative in cov_ia is proportional to -(cov_ia + var_a), so the
        # direction reverses once the covariance drops below -var_a.
        if cov_lo >= -sd_a * sd_a:
            assert delta_contr_var(hi, params) < delta_contr_var(lo, params)
        elif cov_hi <= -sd_a * sd_a:
            assert delta_contr_var(hi, params) > delta_contr_var(lo, params)


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

    def test_cross_checks_catch_corruption(self):
        # full_report re-derives each statistic two ways; feeding it an
        # inconsistent params object must blow up, not return quietly.
        params = RiskParams(0.99)
        object.__setattr__(params, "alpha", 0.97)  # quantile no longer matches alpha
        with pytest.raises(ConsistencyError):
            full_report(unit_pair(0.5), params)

    @settings(max_examples=1000, deadline=None)
    @given(
        st.floats(-30.0, 30.0), st.floats(-30.0, 30.0), st.floats(-1.0, 1.0),
        st.one_of(st.just(0.0), st.floats(-15.0, 15.0)),
        st.one_of(st.just(0.0), st.floats(-15.0, 15.0)),
        st.sampled_from([1.0, -1.0]), st.sampled_from([1.0, -1.0]), alphas,
    )
    def test_valid_pair_gives_finite_statistics_or_a_typed_error(
        self, log_sd_i, log_sd_a, rho, log_loc_i, log_loc_a, sign_i, sign_a, alpha
    ):
        # sds over 1e-30..1e30 and means up to 1e15 sds from zero: a report is
        # finite, and no valid pair trips a cross-check.
        sd_i, sd_a = 10.0**log_sd_i, 10.0**log_sd_a
        mu_i = 0.0 if log_loc_i == 0.0 else sign_i * 10.0**log_loc_i * sd_i
        mu_a = 0.0 if log_loc_a == 0.0 else sign_a * 10.0**log_loc_a * sd_a
        try:
            report = full_report(
                GaussianPair(mu_i, mu_a, sd_i * sd_i, sd_a * sd_a, rho * sd_i * sd_a),
                RiskParams(alpha),
            )
        except GaussRiskError as exc:
            assert not isinstance(exc, ConsistencyError), exc
            return
        for name, value in vars(report).items():
            if value is not None:
                assert math.isfinite(value), name
