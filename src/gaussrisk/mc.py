"""Monte Carlo verification of the closed-form statistics.

Nothing here reuses the conditional-moment algebra under test: the sampler
draws from the joint law via its Cholesky factor, conditioning is
approximated by a hard window ("band") around the conditioning value, and
quantiles and tail means are plain order statistics.  Every closed form is
then compared against its empirical counterpart at a per-statistic tolerance
of four estimated Monte Carlo standard errors (with a floor of 1% of the
target variable's sample standard deviation), so pass/fail flags are stable
across seeds.

Reproducibility: sampling uses numpy's PCG64 bit generator with normal
variates from its ziggurat ``standard_normal``; the stream is generated in
fixed-size blocks whose sub-seeds derive from (seed, block index), so any
partitioning of blocks across workers merges to the same sample.  The
generator identifier is recorded on every report.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateSystemError, DomainError, ThinBandError, ThinTailError
from .measures import (
    GaussianPair,
    covar_at_mean,
    covar_collateral,
    delta_coll_es,
    delta_coll_var,
    delta_cond_var,
    delta_contr_var,
    to_system_view,
    var_contribution,
)
from .normal import RiskParams, var_normal

_BLOCK_SIZE = 1 << 19  # fixed block length; partition-independent merging relies on it
_MIN_BAND = 1000
_MIN_TAIL = 500
_FLOOR_FRACTION = 0.01  # tolerance floor as a fraction of the target's sample std

RNG_METHOD = f"numpy-pcg64(seed,block)/ziggurat, block={_BLOCK_SIZE}"


@dataclass(frozen=True)
class McConfig:
    """Settings of one validation run.

    ``bandwidth`` is the half-width of the conditioning window in units of
    the conditioning variable's sample standard deviation.
    """

    sample_count: int = 2_000_000
    bandwidth: float = 0.05
    seed: int = 0
    alpha: float = 0.99

    def __post_init__(self) -> None:
        if not (isinstance(self.sample_count, int) and self.sample_count >= 10_000):
            raise DomainError(f"sample_count must be an int >= 10000, got {self.sample_count!r}")
        if not (isinstance(self.bandwidth, (int, float)) and 0.0 < self.bandwidth <= 0.5):
            raise DomainError(f"bandwidth must be in (0, 0.5], got {self.bandwidth!r}")
        if not (isinstance(self.seed, int) and 0 <= self.seed < 2**64):
            raise DomainError(f"seed must be a 64-bit unsigned int, got {self.seed!r}")
        if not (isinstance(self.alpha, (int, float)) and 0.5 < self.alpha < 1.0):
            raise DomainError(f"alpha must be in (0.5, 1), got {self.alpha!r}")


@dataclass(frozen=True)
class StatisticCheck:
    """One closed-form-vs-empirical comparison.

    ``passed`` is ``None`` when the statistic could not be evaluated (thin
    band or thin tail at the given sample count); ``note`` then says why.
    """

    name: str
    closed_form: float
    empirical: Optional[float]
    abs_error: Optional[float]
    tolerance: Optional[float]
    effective_tail_samples: int
    passed: Optional[bool]
    note: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one Monte Carlo validation run."""

    pair: GaussianPair
    config: McConfig
    rng_method: str
    checks: tuple[StatisticCheck, ...]

    @property
    def all_passed(self) -> bool:
        """True when no evaluated statistic failed (skipped ones don't count)."""
        return all(check.passed is not False for check in self.checks)

    @property
    def evaluated(self) -> tuple[StatisticCheck, ...]:
        return tuple(check for check in self.checks if check.passed is not None)

    def to_dict(self, digits: Optional[int] = None) -> dict:
        """Plain-data form of the report, one record per statistic."""

        def fmt(value: Optional[float]) -> Optional[float]:
            if value is None:
                return None
            return float(f"{value:.{digits}g}") if digits else value

        return {
            "model": {
                "mu_i": self.pair.mu_i,
                "mu_a": self.pair.mu_a,
                "var_i": self.pair.var_i,
                "var_a": self.pair.var_a,
                "cov_ia": self.pair.cov_ia,
            },
            "config": {
                "sample_count": self.config.sample_count,
                "bandwidth": self.config.bandwidth,
                "seed": self.config.seed,
                "alpha": self.config.alpha,
            },
            "rng_method": self.rng_method,
            "all_passed": self.all_passed,
            "statistics": [
                {
                    "name": check.name,
                    "closed_form": fmt(check.closed_form),
                    "empirical": fmt(check.empirical),
                    "abs_error": fmt(check.abs_error),
                    "tolerance": fmt(check.tolerance),
                    "effective_tail_samples": check.effective_tail_samples,
                    "pass": check.passed,
                    "note": check.note,
                }
                for check in self.checks
            ],
        }

    def to_json(self, digits: Optional[int] = None, indent: Optional[int] = 2) -> str:
        """Structured JSON document with one record per statistic."""
        return json.dumps(self.to_dict(digits=digits), indent=indent)

    def to_table(self) -> str:
        """Line-oriented text table, one row per statistic."""
        header = (
            f"{'statistic':<18} {'closed_form':>14} {'empirical':>14} "
            f"{'abs_error':>11} {'tolerance':>11} {'tail_n':>8}  status"
        )
        lines = [header, "-" * len(header)]
        for check in self.checks:
            if check.passed is None:
                lines.append(
                    f"{check.name:<18} {check.closed_form:>14.6f} {'n/a':>14} "
                    f"{'n/a':>11} {'n/a':>11} {check.effective_tail_samples:>8}  "
                    f"skipped ({check.note})"
                )
            else:
                status = "pass" if check.passed else "FAIL"
                lines.append(
                    f"{check.name:<18} {check.closed_form:>14.6f} {check.empirical:>14.6f} "
                    f"{check.abs_error:>11.6f} {check.tolerance:>11.6f} "
                    f"{check.effective_tail_samples:>8}  {status}"
                )
        lines.append(
            f"overall: {'pass' if self.all_passed else 'FAIL'} "
            f"({len(self.evaluated)}/{len(self.checks)} statistics evaluated)"
        )
        return "\n".join(lines)


def sample_pair(pair: GaussianPair, config: McConfig) -> np.ndarray:
    """Draw ``sample_count`` joint observations of (bank, rest-of-system).

    Standard-normal pairs are mapped through the 2x2 Cholesky factor of the
    covariance matrix.  The result is bitwise-deterministic given the seed:
    block ``b`` of the stream is seeded by ``SeedSequence([seed, b])`` with a
    fixed block length, so workers splitting the blocks would merge to the
    identical array.

    Returns an array of shape (sample_count, 2); column 0 is the bank.
    """
    l11 = math.sqrt(pair.var_i)
    l21 = pair.cov_ia / l11
    l22 = math.sqrt(max(pair.var_a - l21 * l21, 0.0))
    n = config.sample_count
    out = np.empty((n, 2))
    for block, start in enumerate(range(0, n, _BLOCK_SIZE)):
        count = min(_BLOCK_SIZE, n - start)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, block])))
        z = rng.standard_normal((count, 2))
        out[start:start + count, 0] = pair.mu_i + l11 * z[:, 0]
        out[start:start + count, 1] = pair.mu_a + l21 * z[:, 0] + l22 * z[:, 1]
    return out


def empirical_quantile(values, p: float) -> float:
    """Order-statistic quantile: the ``ceil(p * N)``-th smallest value.

    The lower-tail convention matches quantile-style VaR: the VaR at
    threshold ``alpha`` is the empirical quantile at ``p = 1 - alpha``.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError("empirical_quantile of an empty sample")
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p!r}")
    k = min(max(math.ceil(p * arr.size), 1), arr.size)
    return float(np.partition(arr, k - 1)[k - 1])


def empirical_conditional_var(samples, x: float, bandwidth: float, params: RiskParams) -> float:
    """Band-conditioned empirical VaR of the second column given the first.

    Conditioning on ``{first = x}`` is approximated by the window
    ``|first - x| <= bandwidth * std(first)``; the statistic is the
    ``1 - alpha`` lower quantile of the second column inside the window.
    As the bandwidth shrinks and the sample grows this converges to the
    conditional VaR.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise DomainError(f"samples must have shape (N, 2), got {arr.shape}")
    cond, target = arr[:, 0], arr[:, 1]
    half_width = bandwidth * float(cond.std(ddof=1))
    values = _band_values(cond, target, x, half_width)
    return empirical_quantile(values, 1.0 - params.alpha)


def empirical_es(values, params: RiskParams) -> float:
    """Mean-corrected empirical expected shortfall.

    Average of the values at or below the empirical ``1 - alpha`` quantile,
    minus the sample mean; location shifts therefore cancel.
    """
    arr = np.asarray(values, dtype=float).ravel()
    quantile = empirical_quantile(arr, 1.0 - params.alpha)
    tail = arr[arr <= quantile]
    if tail.size < _MIN_TAIL:
        raise ThinTailError(
            f"only {tail.size} tail samples (need >= {_MIN_TAIL}); raise the sample count",
            count=int(tail.size),
        )
    return float(tail.mean() - arr.mean())


def _band_values(cond: np.ndarray, target: np.ndarray, center: float, half_width: float) -> np.ndarray:
    mask = np.abs(cond - center) <= half_width
    count = int(np.count_nonzero(mask))
    if count < _MIN_BAND:
        raise ThinBandError(
            f"only {count} samples within {half_width:.6g} of {center:.6g} "
            f"(need >= {_MIN_BAND}); raise the sample count or the bandwidth",
            count=count,
        )
    return target[mask]


def _quantile_se(values: np.ndarray, p: float) -> float:
    # Binomial standard error of an order-statistic quantile; the density at
    # the quantile is estimated from the spacing of nearby order statistics,
    # keeping the estimate free of any Gaussian closed form.
    n = values.size
    lo = empirical_quantile(values, 0.5 * p)
    hi = empirical_quantile(values, 1.5 * p)
    spread = float(hi - lo)
    return math.sqrt(p * (1.0 - p) / n) * (spread / p)


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    # Ordinary least-squares slope of y on x; used only to propagate the
    # uncertainty of a band's center into the band statistic.
    x_centered = x - x.mean()
    return float((x_centered * y).sum() / (x_centered * x_centered).sum())


def validate_closed_forms(pair: GaussianPair, config: McConfig) -> ValidationReport:
    """Compare every closed-form statistic against an independent simulation.

    Covered statistics: VaR of the bank, the stressed and unstressed
    conditional VaR of the rest of the system, the three stressed-minus-
    unstressed differences, the ES spillover, and the Euler VaR
    contribution.  A statistic whose band or tail is too thin at this sample
    count is reported as skipped, not failed.
    """
    params = RiskParams(config.alpha)
    view = to_system_view(pair)
    if view.var_s <= 0.0:
        raise DegenerateSystemError("cannot validate a zero-variance system")

    samples = sample_pair(pair, config)
    xi = samples[:, 0]
    xa = samples[:, 1]
    xs = xi + xa
    n = xi.size
    p = 1.0 - config.alpha

    std_i = float(xi.std(ddof=1))
    std_a = float(xa.std(ddof=1))
    std_s = float(xs.std(ddof=1))
    mean_i = float(xi.mean())
    mean_a = float(xa.mean())
    mean_s = float(xs.mean())
    slope_ai = _slope(xi, xa)
    slope_si = _slope(xi, xs)
    slope_is = _slope(xs, xi)

    q_i = empirical_quantile(xi, p)
    se_q_i = _quantile_se(xi, p)
    q_s = empirical_quantile(xs, p)
    se_q_s = _quantile_se(xs, p)
    half_i = config.bandwidth * std_i
    half_s = config.bandwidth * std_s
    tail_count = math.ceil(p * n)

    def band_quantile(cond, target, center, half_width, center_se, slope):
        values = _band_values(cond, target, center, half_width)
        se = math.hypot(_quantile_se(values, p), slope * center_se)
        return empirical_quantile(values, p), se, values.size

    def covar_empirical():
        return band_quantile(xi, xa, q_i, half_i, se_q_i, slope_ai)

    def covare_empirical():
        return band_quantile(xi, xa, mean_i, half_i, std_i / math.sqrt(n), slope_ai)

    def coll_var_empirical():
        stressed, se1, n1 = covar_empirical()
        unstressed, se2, n2 = covare_empirical()
        return stressed - unstressed, math.hypot(se1, se2), min(n1, n2)

    def coll_es_empirical():
        # Tail-conditional mean: averaging the rest-of-system over the
        # bank's worst (1 - alpha) scenarios reproduces the ES spillover by
        # the tower property alone, with no Gaussian algebra involved.
        tail = xa[xi <= q_i]
        if tail.size < _MIN_TAIL:
            raise ThinTailError(
                f"only {tail.size} tail samples (need >= {_MIN_TAIL})", count=int(tail.size)
            )
        se = math.sqrt(tail.var(ddof=1) / tail.size + xa.var(ddof=1) / n)
        return float(tail.mean()) - mean_a, se, int(tail.size)

    def cond_var_empirical():
        stressed, se1, n1 = band_quantile(xi, xs, q_i, half_i, se_q_i, slope_si)
        unstressed, se2, n2 = band_quantile(xi, xs, mean_i, half_i, std_i / math.sqrt(n), slope_si)
        return stressed - unstressed, math.hypot(se1, se2), min(n1, n2)

    def contr_var_empirical():
        stressed, se1, n1 = band_quantile(xs, xi, q_s, half_s, se_q_s, slope_is)
        unstressed, se2, n2 = band_quantile(xs, xi, mean_s, half_s, std_s / math.sqrt(n), slope_is)
        return stressed - unstressed, math.hypot(se1, se2), min(n1, n2)

    def contribution_empirical():
        values = _band_values(xs, xi, q_s, half_s)
        se = math.hypot(
            float(values.std(ddof=1)) / math.sqrt(values.size), slope_is * se_q_s
        )
        return float(values.mean()), se, values.size

    plan: list[tuple[str, float, float, Callable]] = [
        ("var_i", var_normal(pair.mu_i, pair.var_i, params), std_i,
         lambda: (q_i, se_q_i, tail_count)),
        ("covar_ai", covar_collateral(pair, params), std_a, covar_empirical),
        ("covare_ai", covar_at_mean(pair, params), std_a, covare_empirical),
        ("delta_coll_var", delta_coll_var(pair, params), std_a, coll_var_empirical),
        ("delta_coll_es", delta_coll_es(pair, params), std_a, coll_es_empirical),
        ("delta_cond_var", delta_cond_var(pair, params), std_s, cond_var_empirical),
        ("delta_contr_var", delta_contr_var(pair, params), std_i, contr_var_empirical),
        ("var_contribution", var_contribution(pair, params), std_i, contribution_empirical),
    ]

    checks = []
    for name, closed, target_std, compute in plan:
        try:
            empirical, se, n_effective = compute()
        except (ThinBandError, ThinTailError) as exc:
            checks.append(
                StatisticCheck(
                    name=name, closed_form=closed, empirical=None, abs_error=None,
                    tolerance=None, effective_tail_samples=exc.count, passed=None,
                    note=str(exc),
                )
            )
            continue
        tolerance = max(4.0 * se, _FLOOR_FRACTION * target_std)
        abs_error = abs(closed - empirical)
        checks.append(
            StatisticCheck(
                name=name, closed_form=closed, empirical=float(empirical),
                abs_error=abs_error, tolerance=tolerance,
                effective_tail_samples=int(n_effective), passed=abs_error <= tolerance,
            )
        )
    return ValidationReport(pair=pair, config=config, rng_method=RNG_METHOD, checks=tuple(checks))
