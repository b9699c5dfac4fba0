import math
import tracemalloc

import numpy as np
import pytest

from gaussrisk.errors import DegenerateSystemError, DomainError, ThinBandError, ThinTailError
from gaussrisk.mc import (
    McConfig,
    _band_indices,
    _centred_dot,
    _quantile_and_se,
    empirical_conditional_var,
    empirical_es,
    empirical_quantile,
    sample_pair,
    standard_normals,
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


class TestQuantileAndSe:
    """One partition gives the same quantile and SE as three separate order statistics."""

    @staticmethod
    def three_partitions(values: np.ndarray, p: float) -> tuple[float, float]:
        lo = empirical_quantile(values, 0.5 * p)
        hi = empirical_quantile(values, 1.5 * p)
        se = math.sqrt(p * (1.0 - p) / values.size) * (float(hi - lo) / p)
        return empirical_quantile(values, p), se

    @pytest.mark.parametrize("p", [0.001, 0.01, 0.05, 0.6])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 1000, 500_000])
    def test_matches_three_partitions(self, n, p):
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal(n), np.round(rng.standard_normal(n), 1)):
            values.flags.writeable = False  # read, never written
            assert _quantile_and_se(values, p) == self.three_partitions(values, p)


class TestEmpiricalConditionalVar:
    def test_independence_matches_unconditional(self, independent_samples):
        params = RiskParams(0.99)
        conditional = empirical_conditional_var(independent_samples, 0.0, 0.05, params)
        unconditional = empirical_quantile(independent_samples[:, 1], 0.01)
        # conditioning is vacuous; allow two standard errors of each estimate
        band = independent_samples[:, 1][_band_indices(independent_samples[:, 0], 0.0, 0.05)]
        spread = 2.0 * math.hypot(
            _quantile_and_se(band, 0.01)[1], _quantile_and_se(independent_samples[:, 1], 0.01)[1]
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
        xi, xa = correlated_samples[:, 0], correlated_samples[:, 1]
        mean_i = float(xi.mean())
        slope = _centred_dot(xi, mean_i, xa) / _centred_dot(xi, mean_i)
        residual_sd = math.sqrt(0.75)
        assert abs(slope - 0.5) < 4.0 * residual_sd / math.sqrt(n)

    def test_stress_band_mean_shift(self, correlated_samples):
        # Average of the rest-of-system inside the stress band reproduces the
        # expected-value form of the spillover.
        params = RiskParams(0.99)
        xi, xa = correlated_samples[:, 0], correlated_samples[:, 1]
        stress = empirical_quantile(xi, 0.01)
        band = xa[_band_indices(xi, stress, 0.05)]
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
                    _quantile_and_se(xa[_band_indices(xi, stress, half)], p)[1],
                    _quantile_and_se(xa[_band_indices(xi, float(xi.mean()), half)], p)[1],
                )
                closed = delta_coll_var(pair, params)
                assert abs(closed - empirical) <= max(4.0 * se, 0.01 * math.sqrt(var_a)), (
                    f"rho={rho}, var_a={var_a}, alpha={alpha}"
                )


# The rest of the system of the first bank of scripts/make_demo_panel.py, in
# population moments: drifts of 0.1 %, vols of 2 % and 7.1 %, correlation 0.58.
DEMO_LIKE = GaussianPair(0.001, 0.0012, 0.0004, 0.00505, 0.00058)

# validate_closed_forms(...).checks as computed before the shared draw and the
# single pass over the bands, as exact floats: (name, closed_form, empirical,
# abs_error, tolerance, effective_tail_samples, passed, note).
GOLDEN_REPORTS = [
    (
        DEMO_LIKE, McConfig(sample_count=200_000, seed=0, alpha=0.95),
        [
            ("var_i", -0.03189707253902945, -0.03188958897135342, 7.483567676033753e-06, 0.0004093339893046626, 10001, True, ""),
            ("covar_ai", -0.15321360538384154, -0.152616502281802, 0.0005971031020395312, 0.011384229634715862, 2036, True, ""),
            ("covare_ai", -0.10551285020224883, -0.10472966776917178, 0.0007831824330770537, 0.006085166038216603, 7981, True, ""),
            ("delta_coll_var", -0.047700755181592704, -0.04788683451263023, 0.00018607933103752944, 0.01290852160739593, 2036, True, ""),
            ("delta_coll_es", -0.059818671417715304, -0.05931142954964874, 0.0005072418680665616, 0.002721099444264419, 10001, True, ""),
            ("delta_cond_var", -0.08059782772062216, -0.08042847867399357, 0.00016934904662858907, 0.01297453816400089, 2036, True, ""),
            ("delta_contr_var", -0.019826798950620502, -0.020751303151227283, 0.0009245042006067808, 0.004111411240675761, 2044, True, ""),
            ("var_contribution", -0.0188267989506205, -0.018741477184860376, 8.532176576012476e-05, 0.001477078492662987, 2044, True, ""),
        ],
    ),
    (
        # Thin bands and a thin tail: a difference reports its stressed band's note.
        UNIT_HALF, McConfig(sample_count=20_000, seed=3, bandwidth=0.02),
        [
            ("var_i", -2.326347874040841, -2.2635994197405593, 0.06274845430028186, 0.12202906387956838, 201, True, ""),
            ("covar_ai", -3.17785029397971, None, None, None, 19, None, "only 19 samples within 0.0198746 of -2.2636 (need >= 1000); raise the sample count or the bandwidth"),
            ("covare_ai", -2.01467635695929, None, None, None, 310, None, "only 310 samples within 0.0198746 of 0.00171524 (need >= 1000); raise the sample count or the bandwidth"),
            ("delta_coll_var", -1.1631739370204206, None, None, None, 19, None, "only 19 samples within 0.0198746 of -2.2636 (need >= 1000); raise the sample count or the bandwidth"),
            ("delta_coll_es", -1.3326071101729007, None, None, None, 201, None, "only 201 tail samples (need >= 500)"),
            ("delta_cond_var", -3.4895218110612616, None, None, None, 19, None, "only 19 samples within 0.0198746 of -2.2636 (need >= 1000); raise the sample count or the bandwidth"),
            ("delta_contr_var", -2.01467635695929, None, None, None, 25, None, "only 25 samples within 0.034491 of -3.98649 (need >= 1000); raise the sample count or the bandwidth"),
            ("var_contribution", -2.01467635695929, None, None, None, 25, None, "only 25 samples within 0.034491 of -3.98649 (need >= 1000); raise the sample count or the bandwidth"),
        ],
    ),
    (
        # Two blocks of the stream.
        DEMO_LIKE, McConfig(sample_count=600_000, seed=1),
        [
            ("var_i", -0.045526957480816824, -0.04554157640780007, 1.461892698324807e-05, 0.0004163164288272672, 6001, True, ""),
            ("covar_ai", -0.21719010883506357, -0.2241554408624125, 0.006965332027348947, 0.03290543864486849, 1616, True, ""),
            ("covare_ai", -0.14972602048787917, -0.14902523404995335, 0.0007007864379258155, 0.006374912172658265, 23876, True, ""),
            ("delta_coll_var", -0.0674640883471844, -0.07513020681245916, 0.007666118465274763, 0.03351727013974006, 1616, True, ""),
            ("delta_coll_es", -0.07729121239002824, -0.0771937629971216, 9.744939290663723e-05, 0.003438878219561365, 6001, True, ""),
            ("delta_cond_var", -0.11399104582800121, -0.12119155080784405, 0.007200504979842842, 0.032908968656270396, 1616, True, ""),
            ("delta_contr_var", -0.028041420119124045, -0.027658176510076342, 0.000383243609047703, 0.005262502176259049, 1687, True, ""),
            ("var_contribution", -0.027041420119124044, -0.02675303757300951, 0.0002883825461145323, 0.001604008476812196, 1687, True, ""),
        ],
    ),
]
_GOLDEN_FIELDS = (
    "name", "closed_form", "empirical", "abs_error", "tolerance",
    "effective_tail_samples", "passed", "note",
)


def statistic_rows(report) -> list[tuple]:
    return [tuple(getattr(check, field) for field in _GOLDEN_FIELDS) for check in report.checks]


class TestSharedDraw:
    @pytest.mark.parametrize("pair, config, expected", GOLDEN_REPORTS)
    def test_reports_match_golden_values(self, pair, config, expected):
        report = validate_closed_forms(pair, config)
        assert statistic_rows(report) == expected
        shared = validate_closed_forms(pair, config, standard_normals(config))
        assert shared.checks == report.checks

    @pytest.mark.parametrize("sample_count", [50_000, 600_000])
    def test_sample_pair_maps_the_shared_draw(self, sample_count):
        config = McConfig(sample_count=sample_count, seed=4)
        normals = standard_normals(config)
        for pair in (DEMO_LIKE, UNIT_HALF):
            samples = sample_pair(pair, config, normals)
            assert np.array_equal(samples, sample_pair(pair, config))
            assert samples.shape == (sample_count, 2)

    def test_draw_is_read_only(self):
        normals = standard_normals(McConfig(sample_count=10_000))
        assert not normals.flags.writeable
        with pytest.raises(ValueError):
            normals[0, 0] = 1.0

    @pytest.mark.parametrize("shape", [(10_001, 2), (10_000, 3), (2, 10_000), (20_000,)])
    def test_wrong_shape_rejected(self, shape):
        config = McConfig(sample_count=10_000)
        normals = np.zeros(shape)
        with pytest.raises(DomainError, match="normals must have shape"):
            sample_pair(UNIT_HALF, config, normals)
        with pytest.raises(DomainError, match="normals must have shape"):
            validate_closed_forms(UNIT_HALF, config, normals)

    def test_validate_leaves_a_writeable_draw_unchanged(self):
        config = McConfig(sample_count=50_000, seed=8)
        normals = standard_normals(config).copy()
        before = normals.copy()
        validate_closed_forms(UNIT_HALF, config, normals)
        validate_closed_forms(DEMO_LIKE, config, normals)
        assert np.array_equal(normals, before)


def traced_peak(compute) -> int:
    """Bytes allocated by ``compute()`` at its peak, beyond what was allocated before."""
    standard_normals(McConfig(sample_count=10_000))  # first use imports modules lazily
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        compute()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMemory:
    """Peak traced allocations, in arrays of N floats; no timing involved."""

    N = 200_000

    def test_draw_is_filled_in_place(self):
        config = McConfig(sample_count=self.N, seed=0)
        assert traced_peak(lambda: standard_normals(config)) <= 2.1 * 8 * self.N

    @pytest.mark.parametrize(
        "alpha, bandwidth, arrays",
        [(0.99, 0.05, 3.5), (0.95, 0.5, 3.75)],
        ids=["thin-bands", "wide-bands"],
    )
    def test_validation_reuses_its_buffers(self, alpha, bandwidth, arrays):
        config = McConfig(sample_count=self.N, seed=0, alpha=alpha, bandwidth=bandwidth)
        normals = standard_normals(config)
        peak = traced_peak(lambda: validate_closed_forms(DEMO_LIKE, config, normals))
        # 2 for the samples, 1 for one full-length temporary at a time, and
        # the band indices and gathered band values; a wide band's indices
        # take up to 3 bytes a sample
        assert peak <= arrays * 8 * self.N
