import dataclasses
import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gaussrisk.mc
import gaussrisk.measures
from gaussrisk.errors import DegenerateSystemError, DomainError
from gaussrisk.mc import (
    McConfig,
    SharedDraw,
    _SPAN,
    _Thin,
    _band,
    _band_mean,
    _band_quantile,
    _difference,
    _lowest,
    _quantile_and_se,
    _rank,
    _tail_shift,
    _window,
    _within,
    empirical_quantile,
    sample_pair,
    standard_normals,
    validate_closed_forms,
)
from gaussrisk.measures import BankRiskReport, GaussianPair, full_report
from gaussrisk.normal import RiskParams

from helpers import bias_validated_closed_forms

UNIT_INDEPENDENT = GaussianPair(0.0, 0.0, 1.0, 1.0, 0.0)
UNIT_HALF = GaussianPair(0.0, 0.0, 1.0, 1.0, 0.5)
# The rest of the system of the first bank of scripts/make_demo_panel.py, in
# population moments: drifts of 0.1 %, vols of 2 % and 7.1 %, correlation 0.58.
DEMO_LIKE = GaussianPair(0.001, 0.0012, 0.0004, 0.00505, 0.00058)


def band_var(samples, x: float, bandwidth: float, p: float) -> float:
    """The oracle's band-conditioned VaR of the second column given the first at ``x``.

    The ``p`` quantile of the second column inside the window
    ``|first - x| <= bandwidth * std(first)``.
    """
    cond, target = samples[:, 0], samples[:, 1]
    band = target[_window(cond, x, bandwidth * float(cond.std(ddof=1)))]
    return _quantile_and_se(band, p)[0]


def tail_es(values, p: float) -> float:
    """The oracle's mean-corrected ES: mean of the values at or below their ``p`` quantile, minus the mean."""
    values = np.asarray(values, dtype=float)
    tail = values[values <= empirical_quantile(values, p)]
    return _tail_shift(tail, float(values.mean()), 0.0)[0]


@pytest.fixture(scope="module")
def independent_samples():
    return sample_pair(UNIT_INDEPENDENT, SharedDraw(McConfig(sample_count=2_000_000, seed=7)))


@pytest.fixture(scope="module")
def correlated_samples():
    return sample_pair(UNIT_HALF, SharedDraw(McConfig(sample_count=2_000_000, seed=10)))


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
        first = sample_pair(UNIT_HALF, SharedDraw(config))
        second = sample_pair(UNIT_HALF, SharedDraw(config))
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        a = sample_pair(UNIT_HALF, SharedDraw(McConfig(sample_count=50_000, seed=1)))
        b = sample_pair(UNIT_HALF, SharedDraw(McConfig(sample_count=50_000, seed=2)))
        assert not np.array_equal(a, b)

    def test_block_structure_is_stable(self):
        # A longer run must extend, not reshuffle, a shorter one: block b of the
        # stream depends only on (seed, b).
        short = sample_pair(UNIT_HALF, SharedDraw(McConfig(sample_count=600_000, seed=5)))
        long = sample_pair(UNIT_HALF, SharedDraw(McConfig(sample_count=1_200_000, seed=5)))
        assert np.array_equal(short, long[:600_000])

    def test_moments_within_monte_carlo_bounds(self):
        n = 1_000_000
        samples = sample_pair(UNIT_INDEPENDENT, SharedDraw(McConfig(sample_count=n, seed=3)))
        bound = 4.0 / math.sqrt(n)
        assert abs(samples[:, 0].mean()) < bound
        assert abs(samples[:, 1].mean()) < bound
        rho = np.corrcoef(samples[:, 0], samples[:, 1])[0, 1]
        assert abs(rho) < bound

    MONOTONE_DRAW = SharedDraw(McConfig(sample_count=10_000, seed=12))

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-300.0, 300.0), st.floats(-3.0, 15.0), st.booleans())
    @example(-300.0, 15.0, True)
    @example(300.0, 15.0, False)
    def test_bank_is_non_decreasing_in_the_first_normal(self, log_var_i, log_ratio, negative):
        # The shared selection of the draw's low tail rests on this, ties
        # from rounding included (at |mu_i| / sd_i = 1e15 the grid is 1/8 sd).
        var_i = 10.0 ** log_var_i
        mu_i = math.copysign(10.0 ** log_ratio * math.sqrt(var_i), -1.0 if negative else 1.0)
        draw = self.MONOTONE_DRAW
        bank = sample_pair(GaussianPair(mu_i, 0.0, var_i, 1.0, 0.0), draw)[:, 0]
        ordered = bank[np.argsort(draw.normals[:, 0])]
        assert np.all(ordered[1:] >= ordered[:-1])

    def test_perfect_correlation_collapses_to_line(self):
        pair = GaussianPair(1.0, -2.0, 4.0, 1.0, 2.0)  # rho = 1, slope sd_a/sd_i = 0.5
        samples = sample_pair(pair, SharedDraw(McConfig(sample_count=10_000, seed=9)))
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

    @pytest.mark.parametrize("values", [["x", 1.0], [[1.0], [2.0, 3.0]]], ids=["str", "ragged"])
    def test_rejects_values_that_are_not_numbers(self, values):
        with pytest.raises(DomainError, match="^values must be numbers in a rectangular array$"):
            empirical_quantile(values, 0.5)


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

    @pytest.mark.parametrize("p", [0.01, 0.05])
    def test_lowest_values_suffice(self, p):
        rng = np.random.default_rng(6)
        values = np.round(rng.standard_normal(100_000), 2)
        keep = np.sort(values)[: _rank(1.5 * p, values.size) + 1 + 25]
        lowest = rng.permutation(keep)
        assert _quantile_and_se(lowest, p, values.size) == _quantile_and_se(values, p)


class TestLowest:
    @pytest.mark.parametrize("case", ["normal", "ties", "misleading-subsample", "small"])
    def test_selects_entries_no_other_is_below(self, case):
        rng = np.random.default_rng(2)
        n, count = 1 << 16, 10_000
        values = rng.standard_normal(n)
        if case == "ties":
            values = np.round(values, 1)
        elif case == "misleading-subsample":
            values[:: n >> 13] = -5.0  # the guessed cut selects only these 8192
        elif case == "small":
            values, count = values[:100], 7
        low = _lowest(values, count)
        rest = np.delete(values, low)
        assert low.size >= count and np.all(np.diff(low) > 0)
        assert values.take(low).max() <= rest.min()


def full_scan_lowest(values: np.ndarray, count: int) -> np.ndarray:
    """``_lowest`` as one full-length mask per cut: the reference for the spanned scans."""
    stride = max(values.size >> 13, 1)
    sample = values[::stride]
    rank = min(math.ceil(1.5 * count / stride), sample.size) - 1
    inside = np.flatnonzero(values <= float(np.partition(sample, rank)[rank]))
    if inside.size < count:
        inside = np.flatnonzero(values <= float(np.partition(values, count - 1)[count - 1]))
    return inside


class TestSpannedScans:
    """A scan ``_SPAN`` entries at a time selects what one full-length mask selects."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(
        size=st.sampled_from([0, 1, _SPAN - 1, _SPAN, _SPAN + 1, 2 * _SPAN + 3]),
        lo=st.one_of(st.just(-math.inf), st.floats(-2.0, 2.0)),
        hi=st.one_of(st.just(math.inf), st.floats(-2.0, 2.0)),
        ends=st.lists(st.integers(0, 4), min_size=6, max_size=6),
        count=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(size=0, lo=-1.0, hi=1.0, ends=[0] * 6, count=1, seed=0)  # an empty column
    @example(size=2 * _SPAN + 3, lo=-0.5, hi=0.5, ends=[0, 1, 0, 1, 0, 1], count=1, seed=0)
    @example(size=_SPAN + 1, lo=0.0, hi=0.0, ends=[2, 3, 4, 0, 1, 0], count=3000, seed=1)
    def test_matches_one_full_length_mask(self, size, lo, hi, ends, count, seed):
        rng = np.random.default_rng(seed)
        specials = np.array([lo, hi, math.nan, -math.inf, math.inf])
        values = rng.standard_normal(size)
        # ties at both ends of the window, NaN and infinities anywhere, and
        # at the first and last entry of every span
        planted = rng.random(size) < 0.05
        values[planted] = rng.choice(specials, int(planted.sum()))
        edges = [i for start in range(0, size, _SPAN) for i in (start, min(start + _SPAN, size) - 1)]
        values[edges] = specials[ends[:len(edges)]]

        within = _within(values, lo, hi)
        assert within.dtype == np.int64
        assert np.array_equal(within, np.flatnonzero((values >= lo) & (values <= hi)))
        if size:
            count = min(count, size)
            assert np.array_equal(_lowest(values, count), full_scan_lowest(values, count))


def distance_edges(center: float, half_width: float) -> tuple[float, float]:
    """The least and greatest doubles ``x`` with ``abs(x - center) <= half_width``.

    Found by bisection on the values of doubles, apart from the code under
    test; ``center`` and ``center -+ 2 half_width`` must be finite.
    """

    def inside(x: float) -> bool:
        return abs(x - center) <= half_width

    def edge(direction: float) -> float:
        good, bad = center, center + 2.0 * direction * half_width
        while inside(bad):
            bad = math.nextafter(bad, direction * math.inf)
        while math.nextafter(good, bad) != bad:
            mid = good + (bad - good) / 2
            if mid in (good, bad):
                mid = math.nextafter(good, bad)
            good, bad = (mid, bad) if inside(mid) else (good, mid)
        return good

    return edge(-1.0), edge(1.0)


def planted_near_edges(center: float, half_width: float) -> list[float]:
    """Values at the edges of the window ``abs(x - center) <= half_width`` and next to them.

    ``center -+ half_width`` and a few ulps of ``half_width`` around them;
    when both are finite, also the exact edges and their neighbours.
    """
    out = [center]
    step = math.ulp(half_width) if math.isfinite(half_width) else 0.0
    for sign in (-1.0, 1.0):
        out += [center + sign * (half_width + k * step) for k in range(-3, 4)]
    if math.isfinite(center) and math.isfinite(2.0 * half_width + abs(center)):
        for edge in distance_edges(center, half_width):
            out.append(edge)
            for direction in (-math.inf, math.inf):
                y = edge
                for _ in range(3):
                    y = math.nextafter(y, direction)
                    out.append(y)
        out += list(center + half_width * np.linspace(-1.5, 1.5, 61))
    return out


class TestWindow:
    """The band selects exactly what ``np.abs(x - c) <= h`` selects."""

    @staticmethod
    def distance_test(values: np.ndarray, center: float, half_width: float) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return np.flatnonzero(np.abs(values - center) <= half_width)

    @pytest.mark.parametrize(
        "center, half_width",
        [
            (0.0, 0.05),
            (-2.326, 0.049),
            (1e15, 0.01),  # below ulp(c) = 0.125: the window is c alone
            (-1e15, 0.01),
            (-1e15, 0.2),
            (0.0, 5e-324),  # subnormal
            (-3e-310, 7e-321),
            (-0.05, 0.05 + 1e-17),  # the upper edge is 2**51 doubles above the rounded c + h
            (1e-300, 1.0),
            (3.0, 0.0),
            (-7.5, 1e300),
            (2.0, math.inf),
            (math.inf, math.inf),
            (math.inf, 1.0),
            (math.nan, 1.0),
        ],
    )
    def test_matches_the_distance_test(self, center, half_width):
        values = np.array(planted_near_edges(center, half_width) + [0.0, -math.inf, math.inf])
        expected = self.distance_test(values, center, half_width)
        assert np.array_equal(_window(values, center, half_width), expected)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-1e300, 1e300), st.floats(5e-324, 1e300), st.floats(1.0, 3.0),
        st.integers(0, 2**32 - 1),
    )
    @example(-0.05, 0.05 + 1e-17, 1.5, 0)
    @example(1e15, 0.01, 1.5, 1)
    @example(-3e-310, 7e-321, 2.0, 2)
    @example(0.0, 5e-324, 1.0, 3)
    def test_exact_for_any_width(self, center, half_width, reach, seed):
        # Sorted values, so the entries up to any distance above the centre
        # are valid candidates; whether or not they decide, the result is exact.
        spread = np.random.default_rng(seed).uniform(-2.0, 2.0, 200)
        values = np.sort(np.concatenate([
            planted_near_edges(center, half_width), center + half_width * spread,
        ]))
        expected = self.distance_test(values, center, half_width)
        assert np.array_equal(_window(values, center, half_width), expected)
        low = np.flatnonzero(values <= center + reach * half_width)
        candidates = (low, values.take(low))
        assert np.array_equal(_window(values, center, half_width, candidates), expected)

    @pytest.mark.parametrize("decimals", [1, 3])
    def test_lowest_entries_give_the_full_scan(self, decimals):
        # Heavy ties: some windows end inside the tie at the lowest entries' top.
        values = np.round(np.random.default_rng(decimals).standard_normal(20_000), decimals)
        cut = float(np.partition(values, 299)[299])
        indices = np.flatnonzero(values <= cut)
        lowest = (indices, values.take(indices))
        for lo, hi in [
            (-math.inf, cut), (-math.inf, cut - 0.1), (-math.inf, cut + 0.1),
            (-3.0, -2.5), (cut - 0.05, cut + 0.05), (-1.0, 1.0), (5.0, 6.0),
        ]:
            expected = np.flatnonzero((values >= lo) & (values <= hi))
            assert np.array_equal(_within(values, lo, hi, lowest), expected)
            assert np.array_equal(_within(values, lo, hi), expected)


class TestEmpiricalConditionalVar:
    """The band-conditioned quantile the oracle compares conditional VaRs with."""

    def test_independence_matches_unconditional(self, independent_samples):
        conditional = band_var(independent_samples, 0.0, 0.05, 0.01)
        unconditional = empirical_quantile(independent_samples[:, 1], 0.01)
        # conditioning is vacuous; allow two standard errors of each estimate
        band = independent_samples[:, 1][_window(independent_samples[:, 0], 0.0, 0.05)]
        spread = 2.0 * math.hypot(
            _quantile_and_se(band, 0.01)[1], _quantile_and_se(independent_samples[:, 1], 0.01)[1]
        )
        assert abs(conditional - unconditional) <= max(spread, 0.05)

    def test_band_conditioning_matches_closed_form(self, correlated_samples):
        params = RiskParams(0.99)
        stress = empirical_quantile(correlated_samples[:, 0], 0.01)
        value = band_var(correlated_samples, stress, 0.05, 0.01)
        assert value == pytest.approx(-3.178, abs=0.05)
        assert value == pytest.approx(full_report(UNIT_HALF, params).covar_ai, abs=0.05)

    def test_unstressed_band_matches_covar_at_mean(self, correlated_samples):
        value = band_var(correlated_samples, 0.0, 0.05, 0.01)
        assert value == pytest.approx(full_report(UNIT_HALF, RiskParams(0.99)).covare_ai, abs=0.05)

    def test_thin_band_is_returned_with_its_note(self, correlated_samples):
        cond = correlated_samples[:20_000, 0]
        half_width = 0.01 * float(cond.std(ddof=1))
        thin = _band(_window(cond, -3.0, half_width), -3.0, half_width)
        assert isinstance(thin, _Thin) and thin.count < 1000
        assert thin.note == (
            f"only {thin.count} samples within 0.0101028 of -3 (need >= 1000); "
            "raise the sample count or the bandwidth"
        )

    def test_thin_band_is_returned_untouched_and_gathers_nothing(self):
        class Untakeable:
            def take(self, indices):
                raise AssertionError("a thin band was gathered")

        first, second = _Thin("only 19 samples", 19), _Thin("only 100 tail samples", 100)
        assert _band_quantile(Untakeable(), first, 0.01, 1.0, 1.0) is first
        assert _band_mean(Untakeable(), first, 1.0) is first
        assert _difference(first, second) is first
        assert _difference((1.0, 0.5, 2000), second) is second
        assert _difference((3.0, 0.3, 2000), (1.0, 0.4, 1500)) == (2.0, 0.5, 1500)


class TestEmpiricalEs:
    """The tail mean the oracle compares expected shortfalls with."""

    def test_standard_normal(self, independent_samples):
        assert tail_es(independent_samples[:, 0], 0.01) == pytest.approx(-2.665, abs=0.02)

    def test_constant_samples(self):
        assert tail_es([3.0] * 1000, 0.4) == 0.0

    def test_location_shift_invariance(self):
        rng = np.random.default_rng(17)
        values = rng.standard_normal(100_000)
        assert tail_es(values + 42.0, 0.05) == pytest.approx(tail_es(values, 0.05), abs=1e-9)

    def test_thin_tail_is_returned_with_its_note(self):
        values = np.arange(10_000.0)
        tail = values[values <= empirical_quantile(values, 0.01)]
        thin = _tail_shift(tail, float(values.mean()), 0.0)
        assert thin == _Thin("only 100 tail samples (need >= 500)", 100)


class TestRegressionSlopeIdentity:
    def test_ols_slope_matches_beta(self, correlated_samples):
        n = correlated_samples.shape[0]
        xi, xa = correlated_samples[:, 0], correlated_samples[:, 1]
        centred = xi - xi.mean()
        slope = float((centred * (xa - xa.mean())).sum() / (centred * centred).sum())
        residual_sd = math.sqrt(0.75)
        assert abs(slope - 0.5) < 4.0 * residual_sd / math.sqrt(n)

    def test_stress_band_mean_shift(self, correlated_samples):
        # Average of the rest-of-system inside the stress band reproduces the
        # expected-value form of the spillover.
        params = RiskParams(0.99)
        xi, xa = correlated_samples[:, 0], correlated_samples[:, 1]
        stress = empirical_quantile(xi, 0.01)
        band = xa[_window(xi, stress, 0.05)]
        predicted = 0.0 + full_report(UNIT_HALF, params).delta_coll_var
        tolerance = 4.0 * float(band.std()) / math.sqrt(band.size) + 0.01
        assert abs(float(band.mean()) - predicted) <= tolerance


class TestValidateClosedForms:
    def test_determinism(self):
        config = McConfig(sample_count=100_000, seed=21, alpha=0.95)
        first = validate_closed_forms(UNIT_HALF, SharedDraw(config))
        second = validate_closed_forms(UNIT_HALF, SharedDraw(config))
        assert first == second

    def test_independence_pair_passes(self):
        config = McConfig(sample_count=500_000, seed=31)
        report = validate_closed_forms(UNIT_INDEPENDENT, SharedDraw(config))
        assert report.all_passed
        spill = {check.name: check for check in report.checks}["delta_coll_var"]
        assert spill.passed
        assert abs(spill.empirical) <= spill.tolerance  # true value is 0

    def test_thin_settings_skip_but_do_not_fail(self):
        config = McConfig(sample_count=10_000, seed=5)
        report = validate_closed_forms(UNIT_HALF, SharedDraw(config))
        skipped = [check for check in report.checks if check.passed is None]
        assert skipped, "expected thin-band/thin-tail statistics at N=10000"
        for check in skipped:
            assert check.note
            assert check.empirical is None
        assert report.all_passed  # skipped statistics are not failures

    @pytest.mark.parametrize(
        "alpha, samples, tail",
        [(0.9999, 10_000, 1), (0.99, 49_899, 499), (0.99, 49_900, 500)],
    )
    def test_var_i_needs_the_minimum_tail(self, alpha, samples, tail):
        config = McConfig(sample_count=samples, seed=5, alpha=alpha)
        var_i = validate_closed_forms(UNIT_HALF, SharedDraw(config)).checks[0]
        assert (var_i.name, var_i.effective_tail_samples) == ("var_i", tail)
        if tail < 500:
            assert var_i.passed is None and var_i.empirical is None
            assert var_i.note == f"only {tail} tail samples (need >= 500)"
        else:
            assert var_i.passed and var_i.note == ""

    def test_degenerate_system_rejected(self):
        with pytest.raises(DegenerateSystemError):
            validate_closed_forms(
                GaussianPair(0.0, 0.0, 1.0, 1.0, -1.0), SharedDraw(McConfig(sample_count=10_000))
            )

    def test_fault_injection_hook_fails_the_run(self, monkeypatch):
        bias_validated_closed_forms(monkeypatch, 0.5)
        config = McConfig(sample_count=100_000, seed=13)
        report = validate_closed_forms(UNIT_HALF, SharedDraw(config))
        assert not report.all_passed

    @pytest.mark.parametrize(
        "pair",
        [DEMO_LIKE, UNIT_HALF, UNIT_INDEPENDENT, GaussianPair(1.0, -2.0, 4.0, 0.25, -0.6)],
    )
    def test_closed_forms_are_the_analyze_report(self, pair, monkeypatch):
        config = McConfig(sample_count=50_000, seed=2, alpha=0.95)
        report = full_report(pair, RiskParams(config.alpha))
        report_fields = {field.name for field in dataclasses.fields(BankRiskReport)}
        checks = validate_closed_forms(pair, SharedDraw(config)).checks
        assert len(checks) == 8
        for check in checks:
            assert check.name in report_fields
            assert check.closed_form == getattr(report, check.name)  # bit for bit
        # the one builder both read is the one seam a fault needs
        bias_validated_closed_forms(monkeypatch, 0.5)
        assert not validate_closed_forms(pair, SharedDraw(config)).all_passed

    def test_a_wrong_conditional_sd_in_the_report_fails(self, monkeypatch):
        # The oracle maps its draw through its own Cholesky factor, so a report
        # loading 5 % off is measured against the simulation, not against itself.
        loadings = gaussrisk.measures._loadings

        def widened(pair):
            s_i, b_ai, c_ai, b_is = loadings(pair)
            return s_i, b_ai, 1.05 * c_ai, b_is

        monkeypatch.setattr(gaussrisk.measures, "_loadings", widened)
        draw = SharedDraw(McConfig(500_000, seed=1))
        report = validate_closed_forms(GaussianPair(0, 0, 1, 4, 1), draw)
        assert {check.name: check.passed for check in report.checks}["covare_ai"] is False


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
                config = McConfig(sample_count=500_000, seed=seed, alpha=alpha)
                samples = sample_pair(pair, SharedDraw(config))
                xi, xa = samples[:, 0], samples[:, 1]
                stress = empirical_quantile(xi, p)
                stressed = band_var(samples, stress, 0.05, p)
                unstressed = band_var(samples, float(xi.mean()), 0.05, p)
                empirical = stressed - unstressed
                half = 0.05 * float(xi.std(ddof=1))
                se = math.hypot(
                    _quantile_and_se(xa[_window(xi, stress, half)], p)[1],
                    _quantile_and_se(xa[_window(xi, float(xi.mean()), half)], p)[1],
                )
                closed = full_report(pair, params).delta_coll_var
                assert abs(closed - empirical) <= max(4.0 * se, 0.01 * math.sqrt(var_a)), (
                    f"rho={rho}, var_a={var_a}, alpha={alpha}"
                )


# validate_closed_forms(...).checks as computed before the shared draw and the
# single pass over the bands, as exact floats: (name, closed_form, empirical,
# abs_error, tolerance, effective_tail_samples, passed, note).  The 600k row
# and the two 1e15 rows were re-recorded when the samples' moments came to be
# read from the draw's: one tolerance moved by an ulp, and at 1e15 the draw's
# moments leave out the rounding of the samples to their grid.  The 20k, 600k
# and bandwidth-0.5 rows were re-recorded when the report came to be built
# from the bank's loadings: 8 closed forms moved by an ulp, and 6 absolute
# errors by the same amount.  Every report was re-recorded when the quantile
# became the CDF's root: 37 closed forms moved, by 1 or 2 ulp (an ES by up to
# 10, its multiplier scaling q's error by q**2), 36 of them towards the
# 60-digit value, and the absolute errors by the same amounts.  In the two
# 1e15 rows, the 5 entries that read the bank's tail or its windows were
# re-recorded when those came to be the draw's, selected on its first column:
# before, they were the grid cells of the bank's tied samples.
GOLDEN_REPORTS = [
    (
        DEMO_LIKE, McConfig(sample_count=200_000, seed=0, alpha=0.95),
        [
            ("var_i", -0.031897072539029445, -0.03188958897135342, 7.483567676026814e-06, 0.0004093339893046626, 10001, True, ""),
            ("covar_ai", -0.15321360538384152, -0.152616502281802, 0.0005971031020395035, 0.011384229634715862, 2036, True, ""),
            ("covare_ai", -0.10551285020224882, -0.10472966776917178, 0.0007831824330770398, 0.006085166038216603, 7981, True, ""),
            ("delta_coll_var", -0.0477007551815927, -0.04788683451263023, 0.00018607933103753638, 0.01290852160739593, 2036, True, ""),
            ("delta_coll_es", -0.05981867141771533, -0.05931142954964874, 0.0005072418680665894, 0.002721099444264419, 10001, True, ""),
            ("delta_cond_var", -0.08059782772062216, -0.08042847867399357, 0.00016934904662858907, 0.01297453816400089, 2036, True, ""),
            ("delta_contr_var", -0.0198267989506205, -0.020751303151227283, 0.0009245042006067843, 0.004111411240675761, 2044, True, ""),
            ("var_contribution", -0.018826798950620498, -0.018741477184860376, 8.532176576012129e-05, 0.001477078492662987, 2044, True, ""),
        ],
    ),
    (
        # Thin bands and a thin tail: a difference reports its stressed band's note.
        UNIT_HALF, McConfig(sample_count=20_000, seed=3, bandwidth=0.02),
        [
            ("var_i", -2.3263478740408408, None, None, None, 201, None, "only 201 tail samples (need >= 500)"),
            ("covar_ai", -3.1778502939797098, None, None, None, 19, None, "only 19 samples within 0.0198746 of -2.2636 (need >= 1000); raise the sample count or the bandwidth"),
            ("covare_ai", -2.0146763569592894, None, None, None, 310, None, "only 310 samples within 0.0198746 of 0.00171524 (need >= 1000); raise the sample count or the bandwidth"),
            ("delta_coll_var", -1.1631739370204204, None, None, None, 19, None, "only 19 samples within 0.0198746 of -2.2636 (need >= 1000); raise the sample count or the bandwidth"),
            ("delta_coll_es", -1.332607110172903, None, None, None, 201, None, "only 201 tail samples (need >= 500)"),
            ("delta_cond_var", -3.489521811061261, None, None, None, 19, None, "only 19 samples within 0.0198746 of -2.2636 (need >= 1000); raise the sample count or the bandwidth"),
            ("delta_contr_var", -2.01467635695929, None, None, None, 25, None, "only 25 samples within 0.034491 of -3.98649 (need >= 1000); raise the sample count or the bandwidth"),
            ("var_contribution", -2.01467635695929, None, None, None, 25, None, "only 25 samples within 0.034491 of -3.98649 (need >= 1000); raise the sample count or the bandwidth"),
        ],
    ),
    (
        # Two blocks of the stream.
        DEMO_LIKE, McConfig(sample_count=600_000, seed=1),
        [
            ("var_i", -0.04552695748081682, -0.04554157640780007, 1.461892698325501e-05, 0.0004163164288272672, 6001, True, ""),
            ("covar_ai", -0.2171901088350635, -0.2241554408624125, 0.006965332027349003, 0.03290543864486849, 1616, True, ""),
            ("covare_ai", -0.14972602048787914, -0.14902523404995335, 0.0007007864379257878, 0.006374912172658265, 23876, True, ""),
            ("delta_coll_var", -0.06746408834718438, -0.07513020681245916, 0.007666118465274777, 0.03351727013974006, 1616, True, ""),
            ("delta_coll_es", -0.07729121239002837, -0.0771937629971216, 9.744939290676213e-05, 0.0034388782195613654, 6001, True, ""),
            ("delta_cond_var", -0.11399104582800121, -0.12119155080784405, 0.007200504979842842, 0.032908968656270396, 1616, True, ""),
            ("delta_contr_var", -0.02804142011912404, -0.027658176510076342, 0.00038324360904769955, 0.005262502176259049, 1687, True, ""),
            ("var_contribution", -0.02704142011912404, -0.02675303757300951, 0.0002883825461145288, 0.001604008476812196, 1687, True, ""),
        ],
    ),
    (
        # A stressed window wider than the bank's lowest 1.5 p N samples.
        DEMO_LIKE, McConfig(sample_count=200_000, seed=0, alpha=0.99, bandwidth=0.5),
        [
            ("var_i", -0.04552695748081682, -0.04547269427988235, 5.426320093446929e-05, 0.0007271893250198723, 2001, True, ""),
            ("covar_ai", -0.2171901088350635, -0.2130578415325459, 0.004132267302517617, 0.011262187158835866, 6403, True, ""),
            ("covare_ai", -0.14972602048787914, -0.1520995574705017, 0.0023735369826225483, 0.003972024893429089, 76408, True, ""),
            ("delta_coll_var", -0.06746408834718438, -0.060958284062044205, 0.006505804285140179, 0.011942103723995528, 6403, True, ""),
            ("delta_coll_es", -0.07729121239002837, -0.07517207052029694, 0.0021191418697314307, 0.005977870607303324, 2001, True, ""),
            ("delta_cond_var", -0.11399104582800121, -0.1032424846271339, 0.010748561200867313, 0.012313422545676208, 6403, True, ""),
            ("delta_contr_var", -0.02804142011912404, -0.02571343131382791, 0.0023279888052961314, 0.0034024192185394533, 6296, True, ""),
            ("var_contribution", -0.02704142011912404, -0.024790158225840117, 0.0022512618932839235, 0.000922097197214601, 6296, False, ""),
        ],
    ),
    (
        # |mu_i| / sd_i = 1e15: the bank's samples lie on a grid of 0.125, in
        # heavy ties; its tail and windows are the draw's, not grid cells.
        GaussianPair(1e15, 0.0, 1.0, 1.0, 0.0), McConfig(sample_count=200_000, seed=0),
        [
            ("var_i", 999999999999997.6, 999999999999997.6, 0.0, 0.04449719092257396, 2001, True, ""),
            ("covar_ai", -2.3263478740408408, None, None, None, 559, None, "only 559 samples within 0.0500837 of 1e+15 (need >= 1000); raise the sample count or the bandwidth"),
            ("covare_ai", -2.3263478740408408, -2.2762908064345515, 0.05005706760628925, 0.16327964022130037, 7981, True, ""),
            ("delta_coll_var", -0.0, None, None, None, 559, None, "only 559 samples within 0.0500837 of 1e+15 (need >= 1000); raise the sample count or the bandwidth"),
            ("delta_coll_es", -0.0, 0.0330388679868139, 0.0330388679868139, 0.09098073189205069, 2001, True, ""),
            ("delta_cond_var", -2.3263478740408408, None, None, None, 559, None, "only 559 samples within 0.0500837 of 1e+15 (need >= 1000); raise the sample count or the bandwidth"),
            ("delta_contr_var", -1.6449763571331866, None, None, None, 532, None, "only 532 samples within 0.07068 of 1e+15 (need >= 1000); raise the sample count or the bandwidth"),
            ("var_contribution", 999999999999998.4, None, None, None, 532, None, "only 532 samples within 0.07068 of 1e+15 (need >= 1000); raise the sample count or the bandwidth"),
        ],
    ),
    (
        # A grid of 0.25 sd: the tie at the bank's VaR reaches the top of its
        # lowest 1.5 p N samples, and its stressed window is one grid cell
        # wide; its tail and windows are the draw's, whatever the grid.
        GaussianPair(1e15, 0.0, 0.25, 1.0, 0.0), McConfig(sample_count=200_000, seed=0),
        [
            ("var_i", 999999999999998.9, 999999999999998.9, 0.0, 0.01112429773064349, 2001, True, ""),
            ("covar_ai", -2.3263478740408408, None, None, None, 559, None, "only 559 samples within 0.0250419 of 1e+15 (need >= 1000); raise the sample count or the bandwidth"),
            ("covare_ai", -2.3263478740408408, -2.2762908064345515, 0.05005706760628925, 0.16327964022130037, 7981, True, ""),
            ("delta_coll_var", -0.0, None, None, None, 559, None, "only 559 samples within 0.0250419 of 1e+15 (need >= 1000); raise the sample count or the bandwidth"),
            ("delta_coll_es", -0.0, 0.0330388679868139, 0.0330388679868139, 0.09098073189205069, 2001, True, ""),
            ("delta_cond_var", -1.1631739370204204, None, None, None, 559, None, "only 559 samples within 0.0250419 of 1e+15 (need >= 1000); raise the sample count or the bandwidth"),
            ("delta_contr_var", -0.5201871985667438, None, None, None, 595, None, "only 595 samples within 0.0558883 of 1e+15 (need >= 1000); raise the sample count or the bandwidth"),
            ("var_contribution", 999999999999999.5, None, None, None, 595, None, "only 595 samples within 0.0558883 of 1e+15 (need >= 1000); raise the sample count or the bandwidth"),
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
        report = validate_closed_forms(pair, SharedDraw(config))
        assert statistic_rows(report) == expected

    @pytest.mark.parametrize("sample_count", [50_000, 600_000])
    def test_sample_pair_maps_the_shared_draw(self, sample_count):
        draw = SharedDraw(McConfig(sample_count=sample_count, seed=4))
        for pair in (DEMO_LIKE, UNIT_HALF):
            samples = sample_pair(pair, draw)
            assert samples.shape == (sample_count, 2)
            own = pair.mu_i + math.sqrt(pair.var_i) * draw.normals[:, 0]
            assert np.array_equal(samples[:, 0], own)

    def test_draw_is_column_major_with_the_streams_values(self):
        config = McConfig(sample_count=600_000, seed=6)  # two blocks
        normals = standard_normals(config)
        assert normals.flags.f_contiguous
        blocks = [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence([6, block])))
            .standard_normal((rows, 2))
            for block, rows in ((0, 1 << 19), (1, 600_000 - (1 << 19)))
        ]
        assert np.array_equal(normals, np.concatenate(blocks))

    def test_lowest_positions_are_selected_once(self, monkeypatch):
        config = McConfig(sample_count=50_000, seed=4)
        draw = SharedDraw(config)
        low, first = draw.lowest, draw.normals[:, 0]
        assert draw.tail_count == math.ceil(1.5 * (1.0 - 0.99) * 50_000) == 751
        assert low.size >= 751 and np.all(np.diff(low) > 0)
        assert first.take(low).max() <= np.delete(first, low).min()
        # the banks cut only their own system's samples
        cuts = []

        def lowest(values, count):
            cuts.append((np.shares_memory(values, draw.normals), count))
            return _lowest(values, count)

        monkeypatch.setattr(gaussrisk.mc, "_lowest", lowest)
        for pair in (UNIT_HALF, DEMO_LIKE):
            validate_closed_forms(pair, draw)
        assert cuts == [(False, 751)] * 2
        assert draw.lowest is low

    def test_draw_is_read_only(self):
        normals = standard_normals(McConfig(sample_count=10_000))
        assert not normals.flags.writeable
        with pytest.raises(ValueError):
            normals[0, 0] = 1.0


class TestDrawMoments:
    """The draw's moments give the samples' own, centred on both factors."""

    # Chosen before the first run: at |mu| / sd <= 1e3 the samples' rounding
    # moves their moments by about 1e-13 of the scale each is compared at,
    # and a loading off by more than this bound is a wrong map.
    REL = 1e-9
    CONFIG = McConfig(sample_count=20_000, seed=14)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-0.99, 0.99),
        st.floats(-1e3, 1e3), st.floats(-1e3, 1e3),
    )
    @example(0.0, 0.0, -0.99, 1e3, -1e3)
    @example(-3.0, 3.0, 0.99, -1e3, 0.0)
    def test_match_the_two_sided_centred_sample_moments(
        self, log_sd_i, log_sd_a, rho, mean_ratio_i, mean_ratio_a
    ):
        sd_i, sd_a = 10.0 ** log_sd_i, 10.0 ** log_sd_a
        pair = GaussianPair(
            mean_ratio_i * sd_i, mean_ratio_a * sd_a, sd_i * sd_i, sd_a * sd_a, rho * sd_i * sd_a
        )
        draw = SharedDraw(self.CONFIG)
        m = draw.moments(pair)
        samples = sample_pair(pair, draw)
        xi, xa = samples[:, 0], samples[:, 1]
        xs = xi + xa
        di, da, ds = xi - xi.mean(), xa - xa.mean(), xs - xs.mean()
        ss = {"i": float((di * di).sum()), "a": float((da * da).sum()), "s": float((ds * ds).sum())}
        for got, x, mu, sd in [
            (m.mean_i, xi, pair.mu_i, pair.std_i),
            (m.mean_a, xa, pair.mu_a, pair.std_a),
            (m.mean_s, xs, pair.mu_s, pair.std_s),
        ]:
            assert abs(got - float(x.mean())) <= self.REL * (abs(mu) + sd)
        n = self.CONFIG.sample_count
        for var, key in [(m.var_i, "i"), (m.var_a, "a"), (m.var_s, "s")]:
            assert abs(var * (n - 1) - ss[key]) <= self.REL * ss[key]
        for slope, dy, y, dx, x in [
            (m.slope_ai, da, "a", di, "i"), (m.slope_si, ds, "s", di, "i"),
            (m.slope_is, di, "i", ds, "s"),
        ]:
            ols = float((dx * dy).sum()) / ss[x]
            assert abs(slope - ols) <= self.REL * math.sqrt(ss[y] / ss[x])

    def test_one_sided_centring_no_longer_swamps_a_tolerance(self):
        # |mu_i| / sd_i = 2e15: centring only xi let mean_s times the rounding
        # residue of sum(xi - mean_i) into slope_si (2.2e12, not 1), and the
        # delta_cond_var tolerance became 2.6e10, a check that could not fail.
        # At 200 000 samples the 0.05-sd stressed window holds only 559.
        pair = GaussianPair(1e15, 0.0, 0.25, 1.0, 0.0)
        config = McConfig(sample_count=400_000, seed=0)
        assert SharedDraw(config).moments(pair).slope_si == pytest.approx(1.0, abs=0.01)
        report = validate_closed_forms(pair, SharedDraw(config))
        checks = {check.name: check for check in report.checks}
        assert checks["delta_cond_var"].passed
        assert checks["delta_cond_var"].tolerance < 1.0

    def test_huge_variance_gives_finite_tolerances(self):
        # The samples' sum of squares overflowed at var_i = 1e306: inf and nan
        # tolerances, and false FAILs.  The draw's moments are O(1).
        draw = SharedDraw(McConfig(sample_count=100_000, seed=0))
        report = validate_closed_forms(GaussianPair(0.0, 0.0, 1e306, 1e-3, 0.0), draw)
        assert report.all_passed and report.evaluated
        assert all(math.isfinite(check.tolerance) for check in report.evaluated)


class TestNearMean:
    """The unstressed window: the draw's positions near its mean, and the full scan of a column."""

    CONFIG = McConfig(sample_count=50_000, seed=4)

    def test_positions_bracket_every_other_entry(self):
        draw = SharedDraw(self.CONFIG)
        z0, near = draw.normals[:, 0], draw.unstressed
        assert np.all(np.diff(near) > 0)
        taken, rest = z0.take(near), np.delete(z0, near)
        assert np.all((rest < taken.min()) | (rest > taken.max()))
        reach = self.CONFIG.bandwidth * float(z0.std(ddof=1))
        assert np.abs(taken - z0.mean()).max() == pytest.approx(reach, rel=0.01)

    @pytest.mark.parametrize("pair", [DEMO_LIKE, UNIT_HALF, GaussianPair(-3e3, 1.0, 1e-4, 1.0, 0.0)])
    def test_planted_window_edges_give_the_full_scan(self, pair):
        draw = SharedDraw(self.CONFIG)
        m = draw.moments(pair)
        xi = sample_pair(pair, draw)[:, 0]
        half_width = self.CONFIG.bandwidth * math.sqrt(m.var_i)
        lo, hi = distance_edges(m.mean_i, half_width)
        # Plant two entries at each end of the window and two just outside
        # it, keeping xi non-decreasing in the draw's first column, so the
        # draw's lowest positions stay valid candidates.
        order = np.argsort(draw.normals[:, 0])
        ranked = xi[order]
        first_in = int(np.searchsorted(ranked, lo))
        first_above = int(np.searchsorted(ranked, hi, side="right"))
        ranked[first_in - 2:first_in] = math.nextafter(lo, -math.inf)
        ranked[first_in:first_in + 2] = lo
        ranked[first_above - 2:first_above] = hi
        ranked[first_above:first_above + 2] = math.nextafter(hi, math.inf)
        xi[order] = ranked

        lowest = (draw.lowest, xi.take(draw.lowest))
        assert lowest[1].max() < lo  # the candidates cannot decide
        expected = np.flatnonzero(np.abs(xi - m.mean_i) <= half_width)
        assert np.array_equal(_within(xi, lo, hi), expected)
        assert np.array_equal(_within(xi, lo, hi, lowest), expected)
        assert np.array_equal(_window(xi, m.mean_i, half_width), expected)
        assert np.array_equal(_window(xi, m.mean_i, half_width, lowest), expected)
        assert np.count_nonzero(xi[expected] == lo) == 2 and np.count_nonzero(xi[expected] == hi) == 2


class TestSharedSelections:
    """Every bank's tail and windows are the draw's, selected once per run on its first column."""

    # xi = mu_i + l11 z0 rounds to a grid of about |mu_i| * 2**-52.  At
    # |mu_i| / sd_i <= 1e3 that is 2e-13 sd, far finer than a window and than
    # the gaps between samples at its edges, so the draw's positions are the
    # bank's own.  Coarser grids tie at the edges: see the test below.
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        log_sd_i=st.floats(-100.0, 100.0), mean_ratio=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.51, 0.9999),
        bandwidth=st.floats(0.01, 0.5), sample_count=st.integers(10_000, 50_000),
    )
    @example(log_sd_i=0.0, mean_ratio=1e3, seed=0, alpha=0.99, bandwidth=0.05, sample_count=50_000)
    @example(log_sd_i=-3.0, mean_ratio=-1e3, seed=1, alpha=0.9999, bandwidth=0.5, sample_count=10_000)
    def test_match_full_scans_of_the_banks_samples(
        self, log_sd_i, mean_ratio, seed, alpha, bandwidth, sample_count
    ):
        sd_i = 10.0 ** log_sd_i
        pair = GaussianPair(mean_ratio * sd_i, 0.0, sd_i * sd_i, 1.0, 0.0)
        config = McConfig(sample_count, bandwidth, seed, alpha)
        draw = SharedDraw(config)
        m = draw.moments(pair)
        xi = sample_pair(pair, draw)[:, 0]
        q_i = empirical_quantile(xi, 1.0 - alpha)
        half_i = bandwidth * math.sqrt(m.var_i)  # the oracle's half-width
        assert np.array_equal(draw.tail, np.flatnonzero(xi <= q_i))
        assert np.array_equal(draw.stressed, np.flatnonzero(np.abs(xi - q_i) <= half_i))
        assert np.array_equal(draw.unstressed, np.flatnonzero(np.abs(xi - m.mean_i) <= half_i))

    @pytest.mark.parametrize(
        "pair, sample_count",
        [
            (GaussianPair(1e15, 0.0, 0.25, 1.0, 0.0), 200_000),
            (GaussianPair(1e16, 0.0, 1.0, 1.0, 0.0), 500_000),
            (GaussianPair(1e300, 0.0, 1.0, 1.0, 0.0), 20_000),
        ],
        ids=["grid-0.25-sd", "grid-2-sd", "grid-1e284-sd"],
    )
    def test_a_location_far_from_zero_reads_windows_not_grid_cells(self, pair, sample_count):
        # The bank's samples lie on a grid of 0.25 sd, 2 sd or far coarser, so
        # a window or tail cut on them would be whole grid cells: at 1e16,
        # 78 421 samples in the 0.05-sd stressed window and 79 112 at or
        # below the VaR.  The FAILs on the system side stand (ROADMAP item 3).
        config = McConfig(sample_count, seed=0)
        report = validate_closed_forms(pair, SharedDraw(config))
        counts = {check.name: check.effective_tail_samples for check in report.checks}
        p, n = 1.0 - config.alpha, config.sample_count
        normal = statistics.NormalDist()
        for name, center in [("covar_ai", normal.inv_cdf(p)), ("covare_ai", 0.0)]:
            inside = 2.0 * config.bandwidth * normal.pdf(center)  # a window's probability
            assert abs(counts[name] - inside * n) <= 4.0 * math.sqrt(inside * (1.0 - inside) * n)
        assert counts["delta_coll_es"] == math.ceil(p * n)

    def test_only_the_system_is_scanned_per_bank(self, monkeypatch):
        draw = SharedDraw(McConfig(sample_count=50_000, seed=4))
        windows = []

        def window(values, center, half_width, candidates=None):
            windows.append(candidates is not None)
            return _window(values, center, half_width, candidates)

        monkeypatch.setattr(gaussrisk.mc, "_window", window)
        for pair in (UNIT_HALF, DEMO_LIKE):
            validate_closed_forms(pair, draw)
        # the system's stressed window, among its lowest samples, and its unstressed one
        assert windows == [True, False] * 2


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
        [(0.99, 0.05, 2.2), (0.95, 0.5, 3.75)],
        ids=["thin-bands", "wide-bands"],
    )
    def test_validation_reuses_its_buffers(self, alpha, bandwidth, arrays):
        config = McConfig(sample_count=self.N, seed=0, alpha=alpha, bandwidth=bandwidth)
        draw = SharedDraw(config)
        peak = traced_peak(lambda: validate_closed_forms(DEMO_LIKE, draw))
        # 2 for the samples, plus the indices and gathered values of the
        # bands and tails, and no full-length temporary; a wide band's
        # indices take up to 3 bytes a sample
        assert peak <= arrays * 8 * self.N
