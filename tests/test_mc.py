import json
import math

import numpy as np
import pytest

from gaussrisk.errors import DegenerateSystemError, DomainError, ThinBandError, ThinTailError
from gaussrisk.mc import (
    McConfig,
    RNG_METHOD,
    _band_values,
    _quantile_se,
    _slope,
    empirical_conditional_var,
    empirical_es,
    empirical_quantile,
    sample_pair,
    validate_closed_forms,
)
from gaussrisk.measures import GaussianPair, covar_at_mean, covar_collateral, delta_coll_var
from gaussrisk.normal import RiskParams

from helpers import bias_validated_closed_forms

UNIT_INDEPENDENT = GaussianPair(0.0, 0.0, 1.0, 1.0, 0.0)
UNIT_HALF = GaussianPair(0.0, 0.0, 1.0, 1.0, 0.5)


@pytest.fixture(scope="module")
def independent_samples():
    return sample_pair(UNIT_INDEPENDENT, McConfig(sample_count=2_000_000, seed=7))


@pytest.fixture(scope="module")
def correlated_samples():
    return sample_pair(UNIT_HALF, McConfig(sample_count=2_000_000, seed=10))


class TestMcConfig:
    def test_defaults(self):
        config = McConfig()
        assert config.sample_count == 2_000_000
        assert config.bandwidth == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_count": 9_999},
            {"bandwidth": 0.0},
            {"bandwidth": 0.6},
            {"seed": -1},
            {"seed": 2**64},
            {"alpha": 0.5},
            {"alpha": 1.0},
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(DomainError):
            McConfig(**kwargs)


class TestSamplePair:
    def test_deterministic_given_seed(self):
        config = McConfig(sample_count=50_000, seed=42)
        first = sample_pair(UNIT_HALF, config)
        second = sample_pair(UNIT_HALF, config)
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        a = sample_pair(UNIT_HALF, McConfig(sample_count=50_000, seed=1))
        b = sample_pair(UNIT_HALF, McConfig(sample_count=50_000, seed=2))
        assert not np.array_equal(a, b)

    def test_block_structure_is_stable(self):
        # A longer run must extend, not reshuffle, a shorter one: block b of the
        # stream depends only on (seed, b).
        short = sample_pair(UNIT_HALF, McConfig(sample_count=600_000, seed=5))
        long = sample_pair(UNIT_HALF, McConfig(sample_count=1_200_000, seed=5))
        assert np.array_equal(short, long[:600_000])

    def test_moments_within_monte_carlo_bounds(self):
        n = 1_000_000
        samples = sample_pair(UNIT_INDEPENDENT, McConfig(sample_count=n, seed=3))
        bound = 4.0 / math.sqrt(n)
        assert abs(samples[:, 0].mean()) < bound
        assert abs(samples[:, 1].mean()) < bound
        rho = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        assert abs(rho) < bound

    def test_perfect_correlation_collapses_to_line(self):
        pair = GaussianPair(1.0, -2.0, 4.0, 1.0, 2.0)  # rho = 1, slope sd_a/sd_i = 0.5
        samples = sample_pair(pair, McConfig(sample_count=10_000, seed=9))
        predicted = -2.0 + 0.5 * (samples[:, 0] - 1.0)
        assert np.allclose(samples[:, 1], predicted, atol=1e-12)


class TestEmpiricalQuantile:
    def test_median_of_five(self):
        assert empirical_quantile([1, 2, 3, 4, 5], 0.5) == 3.0

    def test_order_statistic_convention(self):
        assert empirical_quantile([5, 4, 3, 2, 1], 0.2) == 1.0
        assert empirical_quantile([5, 4, 3, 2, 1], 0.21) == 2.0

    def test_constant_samples(self):
        assert empirical_quantile([7.0] * 100, 0.01) == 7.0
        assert empirical_quantile([7.0] * 100, 0.99) == 7.0

    def test_standard_normal_tail(self, independent_samples):
        value = empirical_quantile(independent_samples[:, 0], 0.001)
        assert value == pytest.approx(-3.09, abs=0.02)

    def test_rejects_empty_and_bad_p(self):
        with pytest.raises(DomainError):
            empirical_quantile([], 0.5)
        with pytest.raises(DomainError):
            empirical_quantile([1.0, 2.0], 0.0)
        with pytest.raises(DomainError):
            empirical_quantile([1.0, 2.0], 1.0)


class TestEmpiricalConditionalVar:
    def test_independence_matches_unconditional(self, independent_samples):
        params = RiskParams(0.99)
        conditional = empirical_conditional_var(independent_samples, 0.0, 0.05, params)
        unconditional = empirical_quantile(independent_samples[:, 1], 0.01)
        # conditioning is vacuous; allow two standard errors of each estimate
        band = _band_values(independent_samples[:, 0], independent_samples[:, 1], 0.0, 0.05)
        spread = 2.0 * math.hypot(
            _quantile_se(band, 0.01), _quantile_se(independent_samples[:, 1], 0.01)
        )
        assert abs(conditional - unconditional) <= max(spread, 0.05)

    def test_band_conditioning_matches_closed_form(self, correlated_samples):
        params = RiskParams(0.99)
        stress = empirical_quantile(correlated_samples[:, 0], 0.01)
        value = empirical_conditional_var(correlated_samples, stress, 0.05, params)
        assert value == pytest.approx(-3.178, abs=0.05)
        assert value == pytest.approx(covar_collateral(UNIT_HALF, params), abs=0.05)

    def test_unstressed_band_matches_covar_at_mean(self, correlated_samples):
        params = RiskParams(0.99)
        value = empirical_conditional_var(correlated_samples, 0.0, 0.05, params)
        assert value == pytest.approx(covar_at_mean(UNIT_HALF, params), abs=0.05)

    def test_thin_band_raises(self, correlated_samples):
        params = RiskParams(0.99)
        with pytest.raises(ThinBandError):
            empirical_conditional_var(correlated_samples[:20_000], -3.0, 0.01, params)


class TestEmpiricalEs:
    def test_standard_normal(self, independent_samples):
        value = empirical_es(independent_samples[:, 0], RiskParams(0.99))
        assert value == pytest.approx(-2.665, abs=0.02)

    def test_constant_samples(self):
        assert empirical_es([3.0] * 1000, RiskParams(0.6)) == 0.0

    def test_location_shift_invariance(self):
        rng = np.random.default_rng(17)
        values = rng.standard_normal(100_000)
        params = RiskParams(0.95)
        base = empirical_es(values, params)
        shifted = empirical_es(values + 42.0, params)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_thin_tail_raises(self):
        with pytest.raises(ThinTailError):
            empirical_es(np.arange(10_000.0), RiskParams(0.99))


class TestRegressionSlopeIdentity:
    def test_ols_slope_matches_beta(self, correlated_samples):
        n = correlated_samples.shape[0]
        slope = _slope(correlated_samples[:, 0], correlated_samples[:, 1])
        residual_sd = math.sqrt(0.75)
        assert abs(slope - 0.5) < 4.0 * residual_sd / math.sqrt(n)

    def test_stress_band_mean_shift(self, correlated_samples):
        # Average of the rest-of-system inside the stress band reproduces the
        # expected-value form of the spillover.
        params = RiskParams(0.99)
        xi, xa = correlated_samples[:, 0], correlated_samples[:, 1]
        stress = empirical_quantile(xi, 0.01)
        band = _band_values(xi, xa, stress, 0.05)
        predicted = 0.0 + delta_coll_var(UNIT_HALF, params)
        tolerance = 4.0 * float(band.std()) / math.sqrt(band.size) + 0.01
        assert abs(float(band.mean()) - predicted) <= tolerance


class TestValidateClosedForms:
    def test_determinism(self):
        config = McConfig(sample_count=100_000, seed=21, alpha=0.95)
        first = validate_closed_forms(UNIT_HALF, config)
        second = validate_closed_forms(UNIT_HALF, config)
        assert first == second

    def test_independence_pair_passes(self):
        config = McConfig(sample_count=500_000, seed=31)
        report = validate_closed_forms(UNIT_INDEPENDENT, config)
        assert report.all_passed
        spill = {check.name: check for check in report.checks}["delta_coll_var"]
        assert spill.passed
        assert abs(spill.empirical) <= spill.tolerance  # true value is 0

    def test_thin_settings_skip_but_do_not_fail(self):
        config = McConfig(sample_count=10_000, seed=5)
        report = validate_closed_forms(UNIT_HALF, config)
        skipped = [check for check in report.checks if check.passed is None]
        assert skipped, "expected thin-band/thin-tail statistics at N=10000"
        for check in skipped:
            assert check.note
            assert check.empirical is None
        assert report.all_passed  # skipped statistics are not failures
        evaluated = [check for check in report.checks if check.passed is not None]
        assert any(check.name == "var_i" for check in evaluated)

    def test_degenerate_system_rejected(self):
        with pytest.raises(DegenerateSystemError):
            validate_closed_forms(GaussianPair(0.0, 0.0, 1.0, 1.0, -1.0), McConfig(sample_count=10_000))

    def test_fault_injection_hook_fails_the_run(self, monkeypatch):
        bias_validated_closed_forms(monkeypatch, 0.5)
        config = McConfig(sample_count=100_000, seed=13)
        report = validate_closed_forms(UNIT_HALF, config)
        assert not report.all_passed

    def test_json_round_trip(self):
        config = McConfig(sample_count=50_000, seed=3, alpha=0.95)
        report = validate_closed_forms(UNIT_HALF, config)
        payload = json.loads(report.to_json())
        assert payload["rng_method"] == RNG_METHOD
        assert payload["config"]["seed"] == 3
        names = [record["name"] for record in payload["statistics"]]
        assert names == [
            "var_i", "covar_ai", "covare_ai", "delta_coll_var", "delta_coll_es",
            "delta_cond_var", "delta_contr_var", "var_contribution",
        ]
        for record in payload["statistics"]:
            assert set(record) == {
                "name", "closed_form", "empirical", "abs_error", "tolerance",
                "effective_tail_samples", "pass", "note",
            }
            if record["pass"] is not None:
                assert (record["abs_error"] <= record["tolerance"]) == record["pass"]
                assert record["effective_tail_samples"] > 0

    def test_table_has_one_line_per_statistic(self):
        config = McConfig(sample_count=50_000, seed=3, alpha=0.95)
        report = validate_closed_forms(UNIT_HALF, config)
        table = report.to_table()
        for check in report.checks:
            assert check.name in table
        assert "overall:" in table


class TestPropertySweep:
    @pytest.mark.parametrize("alpha", [0.95, 0.99])
    def test_spillover_agrees_across_models(self, alpha):
        params = RiskParams(alpha)
        p = 1.0 - alpha
        seed = 1000
        for rho in (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9):
            for var_a in (0.25, 1.0, 4.0):
                seed += 1
                pair = GaussianPair(0.0, 0.0, 1.0, var_a, rho * math.sqrt(var_a))
                samples = sample_pair(pair, McConfig(sample_count=500_000, seed=seed, alpha=alpha))
                xi, xa = samples[:, 0], samples[:, 1]
                stress = empirical_quantile(xi, p)
                stressed = empirical_conditional_var(samples, stress, 0.05, params)
                unstressed = empirical_conditional_var(samples, float(xi.mean()), 0.05, params)
                empirical = stressed - unstressed
                half = 0.05 * float(xi.std(ddof=1))
                se = math.hypot(
                    _quantile_se(_band_values(xi, xa, stress, half), p),
                    _quantile_se(_band_values(xi, xa, float(xi.mean()), half), p),
                )
                closed = delta_coll_var(pair, params)
                assert abs(closed - empirical) <= max(4.0 * se, 0.01 * math.sqrt(var_a)), (
                    f"rho={rho}, var_a={var_a}, alpha={alpha}"
                )
