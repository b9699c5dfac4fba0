import itertools
import math

import mpmath
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from gaussrisk.errors import DegenerateModelError, DomainError, InvalidCovarianceError
from gaussrisk.measures import GaussianPair, full_report
from gaussrisk.normal import (
    RiskParams,
    conditional_moments,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from helpers import bisect_std_normal_quantile


class TestPdf:
    def test_peak_value(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-15)

    def test_symmetry(self):
        assert std_normal_pdf(1.0) == std_normal_pdf(-1.0)

    @given(st.floats(-30.0, 30.0))
    def test_symmetric_and_positive(self, x):
        assert std_normal_pdf(x) == std_normal_pdf(-x)
        assert std_normal_pdf(x) > 0.0

    def test_matches_tail_first_moment(self):
        # The first moment of the tail below -c equals -pdf(c): integrating
        # x * pdf(x) is the independent check of the ES multiplier pdf(c)/(1-a).
        c = 3.0902
        integral, err = integrate.quad(lambda x: x * std_normal_pdf(x), -40.0, -c)
        assert err < 1e-10
        assert integral == pytest.approx(-std_normal_pdf(c), abs=1e-12)
        assert std_normal_pdf(c) / (1.0 - 0.999) == pytest.approx(-integral / 0.001, abs=1e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            std_normal_pdf(bad)


class TestCdf:
    def test_median(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_saturation(self):
        assert std_normal_cdf(40.0) == pytest.approx(1.0, abs=1e-15)

    def test_threshold_at_0999(self):
        assert std_normal_cdf(3.0902) == pytest.approx(0.999, abs=1e-6)

    @given(st.floats(-38.0, 38.0))
    def test_reflection(self, x):
        assert std_normal_cdf(-x) == pytest.approx(1.0 - std_normal_cdf(x), abs=1e-15)

    def test_monotone(self):
        grid = [-8.0 + 0.05 * k for k in range(321)]
        values = [std_normal_cdf(x) for x in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            std_normal_cdf(bad)


class TestQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_value_at_0999(self):
        assert std_normal_quantile(0.999) == pytest.approx(3.09, abs=0.005)

    def test_against_bisection_oracle(self):
        oracle = bisect_std_normal_quantile(0.99)
        assert oracle == pytest.approx(2.3263478740, abs=1e-6)
        assert std_normal_quantile(0.99) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize(
        "p",
        [0.9, 0.95, 0.99, 0.995, 0.999, 0.9999, 0.99999, 1.0 - 1e-10, 0.6]
        + [0.5 + 1e-12, 0.5 - 1e-12],
    )
    def test_within_an_ulp_of_a_60_digit_root(self, p):
        with mpmath.workdps(60):
            root = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1)
            assert abs(std_normal_quantile(p) - root) <= math.ulp(float(root))

    def test_subnormal_p_is_bracketed_by_the_cdf(self):
        # the CDF holds few digits here: the root is where it crosses p, not the exact quantile
        ps = [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308]
        roots = [std_normal_quantile(p) for p in ps]
        assert all(math.isfinite(x) for x in roots)
        assert roots == sorted(roots)
        for p, x in zip(ps, roots):
            below, above = (math.nextafter(x, -math.inf), x), (x, math.nextafter(x, math.inf))
            brackets = [std_normal_cdf(lo) <= p <= std_normal_cdf(hi) for lo, hi in (below, above)]
            assert any(brackets), (p, x)

    def test_roundtrip_grid(self):
        # 997 evenly spaced p in [0.001, 0.999]
        for i in range(997):
            p = 0.001 + i * (0.998 / 996.0)
            assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-9

    def test_strictly_increasing(self):
        grid = [1e-6 + k * (1.0 - 2e-6) / 4000 for k in range(4001)]
        values = [std_normal_quantile(p) for p in grid]
        assert all(a < b for a, b in zip(values, values[1:]))

    @given(st.floats(1e-12, 1.0 - 1e-12))
    def test_roundtrip_everywhere(self, p):
        assert abs(std_normal_cdf(std_normal_quantile(p)) - p) < 1e-9

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.7, float("nan")])
    def test_rejects_out_of_domain(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)


class TestRiskParams:
    @pytest.mark.parametrize("alpha", [0.51, 0.9, 0.95, 0.99, 0.999, 0.9999])
    def test_quantile_consistency(self, alpha):
        params = RiskParams(alpha)
        assert params.quantile > 0.0
        assert abs(std_normal_cdf(params.quantile) - alpha) < 1e-12

    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.3, 1.5, 0.0, float("nan")])
    def test_rejects_bad_alpha(self, bad):
        with pytest.raises(DomainError):
            RiskParams(bad)

    @pytest.mark.parametrize(
        "alpha", [0.6, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999, 0.99999, 1.0 - 1e-10]
    )
    def test_es_multiplier_against_60_digits(self, alpha):
        """``es_multiplier`` is within ``4 + q**2`` ulp of ``npdf(q) / (1 - alpha)`` at 60 digits.

        The reference takes the exact quantile of the double ``alpha``.  The
        quantile is within an ulp of it (``TestQuantile``), and a relative
        error ``e`` in ``q`` reaches ``pdf(q)`` as ``q**2 * e``; the pdf's
        exponential, the division and ``1 - alpha`` (exact above one half)
        add a few more roundings.
        """
        m = RiskParams(alpha).es_multiplier
        with mpmath.workdps(60):
            q = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(alpha) - 1)
            reference = mpmath.npdf(q) / (1 - mpmath.mpf(alpha))
            q_float = float(q)
            assert abs(m - reference) <= (4.0 + q_float * q_float) * math.ulp(float(reference))


# conditional_moments' arguments, in the order it checks them
ARGUMENTS = ("mu_a", "mu_i", "var_i", "var_a", "cov_ai", "x")


class TestConditionalMoments:
    def test_independence_leaves_target_unchanged(self):
        cm = conditional_moments(0.0, 0.0, 1.0, 1.0, 0.0, x=5.0)
        assert (cm.mean, cm.variance) == (0.0, 1.0)

    def test_perfect_correlation_removes_all_variance(self):
        cm = conditional_moments(0.0, 0.0, 1.0, 1.0, 1.0, x=2.0)
        assert (cm.mean, cm.variance) == (2.0, 0.0)

    def test_plain_arithmetic(self):
        cm = conditional_moments(1.0, 2.0, 4.0, 9.0, 3.0, x=0.0)
        assert cm.mean == pytest.approx(-0.5, abs=1e-15)
        assert cm.variance == pytest.approx(6.75, abs=1e-15)

    def test_variance_ignores_condition_value(self):
        kwargs = dict(mu_a=0.3, mu_i=-0.4, var_i=2.0, var_a=3.0, cov_ai=1.1)
        v1 = conditional_moments(**kwargs, x=-7.7).variance
        v2 = conditional_moments(**kwargs, x=13.9).variance
        assert v1 == v2  # bitwise: x never enters the variance

    @given(
        st.floats(0.1, 5.0), st.floats(0.1, 5.0), st.floats(-0.999, 0.999),
        st.floats(-10.0, 10.0),
    )
    def test_variance_reduction(self, sd_i, sd_a, rho, x):
        cm = conditional_moments(0.0, 0.0, sd_i**2, sd_a**2, rho * sd_i * sd_a, x)
        assert cm.variance <= sd_a**2 + 1e-15
        if rho == 0.0:
            assert cm.variance == sd_a**2

    def test_rejects_degenerate_conditioner(self):
        with pytest.raises(DegenerateModelError):
            conditional_moments(0.0, 0.0, 0.0, 1.0, 0.0, x=0.0)

    def test_rejects_impossible_covariance(self):
        # the one PSD rule GaussianPair applies too, with its wording
        message = r"^\|cov_ia\| / std_i = 1\.5 exceeds std_a = 1\.0: not a valid covariance matrix$"
        with pytest.raises(InvalidCovarianceError, match=message):
            conditional_moments(0.0, 0.0, 1.0, 1.0, 1.5, x=0.0)
        with pytest.raises(InvalidCovarianceError, match=message):
            GaussianPair(0.0, 0.0, 1.0, 1.0, 1.5)

    @pytest.mark.parametrize("name", ["mu_a", "mu_i", "cov_ai", "x", "var_i", "var_a"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_argument(self, name, value):
        kwargs = dict(mu_a=0.0, mu_i=0.0, var_i=1.0, var_a=1.0, cov_ai=0.0, x=0.0)
        kwargs[name] = value
        with pytest.raises(DomainError, match=f"^{name} must be finite, got {value!r}$"):
            conditional_moments(**kwargs)

    @pytest.mark.parametrize(
        "first, second", list(itertools.combinations(ARGUMENTS, 2)),
        ids="-".join,
    )
    def test_names_the_first_of_two_non_finite_arguments(self, first, second):
        kwargs = dict(mu_a=0.0, mu_i=0.0, var_i=1.0, var_a=1.0, cov_ai=0.0, x=0.0)
        kwargs[first], kwargs[second] = math.inf, math.nan
        with pytest.raises(DomainError, match=f"^{first} must be finite, got inf$"):
            conditional_moments(**kwargs)

    def test_finite_arguments_whose_sum_overflows_are_accepted(self):
        cm = conditional_moments(1e308, 1e308, 1.0, 1.0, 0.0, 0.0)
        assert (cm.mean, cm.variance) == (1e308, 1.0)

    @pytest.mark.parametrize("var_a", [0.0, -1.0])
    def test_rejects_a_non_positive_target_variance(self, var_a):
        with pytest.raises(DegenerateModelError, match=f"^var_a must be positive, got {var_a!r}$"):
            conditional_moments(0.0, 0.0, 1.0, var_a, 0.0, x=0.0)


class TestVarNormal:
    """The VaR of a normal variable, ``mu - q * sd``: the report's ``var_i`` of a bank."""

    @staticmethod
    def var_of(mu: float, var: float, params: RiskParams) -> float:
        return full_report(GaussianPair(mu, 0.0, var, 1.0, 0.0), params).var_i

    def test_threshold_0999(self):
        assert self.var_of(0.0, 1.0, RiskParams(0.999)) == pytest.approx(-3.09, abs=0.005)

    def test_scales_with_std(self):
        oracle = -2.0 * bisect_std_normal_quantile(0.99)
        assert self.var_of(0.0, 4.0, RiskParams(0.99)) == pytest.approx(oracle, abs=1e-9)
        assert self.var_of(0.0, 4.0, RiskParams(0.99)) == pytest.approx(-4.6527, abs=1e-3)

    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.floats(1e-6, 9.0))
    def test_monotone_in_mean(self, mu1, mu2, var):
        params = RiskParams(0.99)
        lo, hi = sorted((mu1, mu2))
        assert self.var_of(lo, var, params) <= self.var_of(hi, var, params)

    @given(st.floats(1e-6, 9.0), st.floats(1e-6, 9.0))
    def test_antitone_in_variance(self, v1, v2):
        params = RiskParams(0.99)
        lo, hi = sorted((v1, v2))
        assert self.var_of(0.0, hi, params) <= self.var_of(0.0, lo, params)


class TestEsMeanNormal:
    """The mean-corrected ES of a normal variable, ``-m * sd``, with ``m = es_multiplier``."""

    def test_tail_mean_oracle(self):
        # Oracle: E[X | X <= -q] for a standard normal by quadrature, with the
        # cut at the bisection quantile.
        cut = -bisect_std_normal_quantile(0.99)
        mass, _ = integrate.quad(std_normal_pdf, -40.0, cut)
        first, _ = integrate.quad(lambda x: x * std_normal_pdf(x), -40.0, cut)
        oracle = first / mass
        assert oracle == pytest.approx(-2.6652, abs=1e-3)
        assert -RiskParams(0.99).es_multiplier == pytest.approx(oracle, abs=1e-9)

    def test_deeper_than_var_at_0999(self):
        assert RiskParams(0.999).es_multiplier > 3.09

    @given(st.floats(0.55, 0.9995))
    def test_dominates_mean_corrected_var(self, alpha):
        params = RiskParams(alpha)
        assert params.es_multiplier > params.quantile
