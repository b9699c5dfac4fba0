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

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

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
        RiskParams(self.alpha)  # the one owner of the alpha rule


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
    """Outcome of one Monte Carlo validation run; the CLI renders it."""

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


def standard_normals(config: McConfig) -> np.ndarray:
    """The (sample_count, 2) standard-normal draw that every pair of a run maps.

    Block ``b`` of the stream is seeded by ``SeedSequence([seed, b])`` with a
    fixed block length, so workers splitting the blocks would merge to the
    identical array.  The draw depends on the seed and the sample count
    alone, so one draw serves every bank validated with ``config``; it is
    returned read-only because it is shared.
    """
    n = config.sample_count
    z = np.empty((n, 2))
    for block, start in enumerate(range(0, n, _BLOCK_SIZE)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([config.seed, block])))
        rng.standard_normal(out=z[start:start + _BLOCK_SIZE])
    z.flags.writeable = False
    return z


def sample_pair(
    pair: GaussianPair, config: McConfig, normals: Optional[np.ndarray] = None
) -> np.ndarray:
    """Draw ``sample_count`` joint observations of (bank, rest-of-system).

    Standard-normal pairs are mapped through the 2x2 Cholesky factor of the
    covariance matrix.  The result is bitwise-deterministic given the seed.
    ``normals`` is :func:`standard_normals` of ``config``, when the caller
    has already drawn it; by default it is drawn here.

    Returns an array of shape (sample_count, 2); column 0 is the bank.  Each
    column is contiguous in memory.
    """
    z = _checked_normals(normals, config)
    l11 = math.sqrt(pair.var_i)
    l21 = pair.cov_ia / l11
    l22 = math.sqrt(max(pair.var_a - l21 * l21, 0.0))
    out = np.empty((2, config.sample_count)).T
    xi, xa = out[:, 0], out[:, 1]
    # mu_a + l21 * z0 + l22 * z1, rounded step by step as that expression
    # rounds, with the bank's column as the scratch space for l22 * z1.
    np.multiply(z[:, 0], l21, out=xa)
    xa += pair.mu_a
    xa += np.multiply(z[:, 1], l22, out=xi)
    np.multiply(z[:, 0], l11, out=xi)
    xi += pair.mu_i
    return out


def _checked_normals(normals: Optional[np.ndarray], config: McConfig) -> np.ndarray:
    if normals is None:
        return standard_normals(config)
    z = np.asarray(normals, dtype=float)
    if z.shape != (config.sample_count, 2):
        raise DomainError(
            f"normals must have shape ({config.sample_count}, 2), got {z.shape}"
        )
    return z


def empirical_quantile(values, p: float) -> float:
    """Order-statistic quantile: the ``ceil(p * N)``-th smallest value.

    The lower-tail convention matches quantile-style VaR: the VaR at
    threshold ``alpha`` is the empirical quantile at ``p = 1 - alpha``.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise DomainError("empirical_quantile of an empty sample")
    k = _rank(p, arr.size)
    return float(np.partition(arr, k)[k])


def _rank(p: float, n: int) -> int:
    """0-based sorted position of the ``ceil(p * n)``-th smallest of ``n`` values, at least 0."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must be in (0, 1), got {p!r}")
    return min(max(math.ceil(p * n), 1), n) - 1


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
    values = target[_band_indices(cond, x, half_width)]
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


def _band_indices(cond: np.ndarray, center: float, half_width: float) -> np.ndarray:
    """Ascending indices of the window ``|cond - center| <= half_width``.

    Raises ThinBandError when too few samples fall inside.  Gathering a
    target through the indices reads only the band, not a full-length mask.
    """
    distance = cond - center
    inside = np.flatnonzero(np.abs(distance, out=distance) <= half_width)
    count = inside.size
    if count < _MIN_BAND:
        raise ThinBandError(
            f"only {count} samples within {half_width:.6g} of {center:.6g} "
            f"(need >= {_MIN_BAND}); raise the sample count or the bandwidth",
            count=count,
        )
    return inside


def _quantile_and_se(values: np.ndarray, p: float) -> tuple[float, float]:
    """:func:`empirical_quantile` of ``values`` at ``p`` and its standard error.

    Binomial standard error of an order-statistic quantile; the density at
    the quantile is estimated from the spacing of the order statistics at
    ``p/2`` and ``3p/2``, keeping the estimate free of any Gaussian closed
    form.  One partition at the ``3p/2`` rank leaves the ``p/2`` and ``p``
    order statistics in its head, which a second, in-place partition finds.
    """
    n = values.size
    k_lo, k, k_hi = _rank(0.5 * p, n), _rank(p, n), _rank(1.5 * p, n)
    head = np.partition(values, k_hi)[:k_hi + 1]
    hi = float(head[k_hi])
    head.partition((k_lo, k))
    spread = hi - float(head[k_lo])
    return float(head[k]), math.sqrt(p * (1.0 - p) / n) * (spread / p)


def _centred_dot(x: np.ndarray, mean: float, y: Optional[np.ndarray] = None) -> float:
    """``sum((x - mean) * y)``, or ``sum((x - mean) ** 2)`` without ``y``, in one temporary.

    The sum of squares is the one ``x.var()`` takes, and a ratio of two of
    these sums is the ordinary least-squares slope of ``y`` on ``x``.
    """
    product = x - mean
    return float(np.multiply(product, product if y is None else y, out=product).sum())


# The empirical value of a statistic, its standard error and its effective
# sample count; or the error of the thin band or tail that kept it from being
# evaluated.
_Outcome = Union[tuple[float, float, int], ThinBandError, ThinTailError]
_THIN = (ThinBandError, ThinTailError)


def _attempt(compute: Callable, *args):
    """``compute(*args)``, or the thin-band/thin-tail error it raised.

    The first such error among ``args`` is returned without calling
    ``compute``, so a thin band's error is the result of everything built on it.
    """
    for arg in args:
        if isinstance(arg, _THIN):
            return arg
    try:
        return compute(*args)
    except _THIN as exc:
        return exc.with_traceback(None)  # the traceback would keep the band's temporaries alive


def _band_quantile(
    values: np.ndarray, p: float, center_se: float, slope: float
) -> tuple[float, float, int]:
    # The slope carries the uncertainty of the band's center into the statistic.
    quantile, se = _quantile_and_se(values, p)
    return quantile, math.hypot(se, slope * center_se), values.size


def _band_mean(values: np.ndarray, center_error: float) -> tuple[float, float, int]:
    se = math.hypot(float(values.std(ddof=1)) / math.sqrt(values.size), center_error)
    return float(values.mean()), se, values.size


def _difference(stressed: tuple, unstressed: tuple) -> tuple[float, float, int]:
    return (
        stressed[0] - unstressed[0],
        math.hypot(stressed[1], unstressed[1]),
        min(stressed[2], unstressed[2]),
    )


def _tail_shift(tail: np.ndarray, mean: float, mean_variance: float) -> tuple[float, float, int]:
    # Tail-conditional mean: averaging the rest-of-system over the bank's
    # worst (1 - alpha) scenarios reproduces the ES spillover by the tower
    # property alone, with no Gaussian algebra involved.
    if tail.size < _MIN_TAIL:
        raise ThinTailError(
            f"only {tail.size} tail samples (need >= {_MIN_TAIL})", count=int(tail.size)
        )
    se = math.sqrt(tail.var(ddof=1) / tail.size + mean_variance)
    return float(tail.mean()) - mean, se, int(tail.size)


def validate_closed_forms(
    pair: GaussianPair, config: McConfig, normals: Optional[np.ndarray] = None
) -> ValidationReport:
    """Compare every closed-form statistic against an independent simulation.

    Covered statistics: VaR of the bank, the stressed and unstressed
    conditional VaR of the rest of the system, the three stressed-minus-
    unstressed differences, the ES spillover, and the Euler VaR
    contribution.  A statistic whose band or tail is too thin at this sample
    count is reported as skipped, not failed.  ``normals`` is passed on to
    :func:`sample_pair`; it is read, never written.
    """
    params = RiskParams(config.alpha)
    if pair.var_s <= 0.0:
        raise DegenerateSystemError("cannot validate a zero-variance system")

    samples = sample_pair(pair, config, normals)
    xi = samples[:, 0]
    xa = samples[:, 1]  # overwritten by xs = xi + xa after its last use
    n = xi.size
    p = 1.0 - config.alpha

    mean_i = float(xi.mean())
    ss_i = _centred_dot(xi, mean_i)
    std_i = math.sqrt(ss_i / (n - 1))  # as xi.std(ddof=1) computes it
    se_mean_i = std_i / math.sqrt(n)
    mean_a = float(xa.mean())
    var_a = _centred_dot(xa, mean_a) / (n - 1)
    std_a = math.sqrt(var_a)
    slope_ai = _centred_dot(xi, mean_i, xa) / ss_i
    q_i, se_q_i = _quantile_and_se(xi, p)
    half_i = config.bandwidth * std_i

    # The bank's stressed and unstressed windows, each conditioning xa and then xs.
    stressed_i = _attempt(_band_indices, xi, q_i, half_i)
    unstressed_i = _attempt(_band_indices, xi, mean_i, half_i)
    covar = _attempt(_band_quantile, _attempt(xa.take, stressed_i), p, se_q_i, slope_ai)
    covare = _attempt(
        _band_quantile, _attempt(xa.take, unstressed_i), p, se_mean_i, slope_ai
    )
    coll_es = _attempt(_tail_shift, xa[xi <= q_i], mean_a, var_a / n)

    xs = np.add(xi, xa, out=xa)
    slope_si = _centred_dot(xi, mean_i, xs) / ss_i
    cond_stressed = _attempt(
        _band_quantile, _attempt(xs.take, stressed_i), p, se_q_i, slope_si
    )
    cond_unstressed = _attempt(
        _band_quantile, _attempt(xs.take, unstressed_i), p, se_mean_i, slope_si
    )
    del stressed_i, unstressed_i  # a wide band's indices take memory

    mean_s = float(xs.mean())
    ss_s = _centred_dot(xs, mean_s)
    std_s = math.sqrt(ss_s / (n - 1))
    slope_is = _centred_dot(xs, mean_s, xi) / ss_s
    q_s, se_q_s = _quantile_and_se(xs, p)
    half_s = config.bandwidth * std_s
    # The system's stressed and unstressed windows, each conditioning xi.
    stressed_s = _attempt(xi.take, _attempt(_band_indices, xs, q_s, half_s))
    contr_stressed = _attempt(_band_quantile, stressed_s, p, se_q_s, slope_is)
    contr_unstressed = _attempt(
        _band_quantile, _attempt(xi.take, _attempt(_band_indices, xs, mean_s, half_s)),
        p, std_s / math.sqrt(n), slope_is,
    )

    plan: list[tuple[str, float, float, _Outcome]] = [
        ("var_i", var_normal(pair.mu_i, pair.var_i, params), std_i,
         (q_i, se_q_i, math.ceil(p * n))),
        ("covar_ai", covar_collateral(pair, params), std_a, covar),
        ("covare_ai", covar_at_mean(pair, params), std_a, covare),
        ("delta_coll_var", delta_coll_var(pair, params), std_a,
         _attempt(_difference, covar, covare)),
        ("delta_coll_es", delta_coll_es(pair, params), std_a, coll_es),
        ("delta_cond_var", delta_cond_var(pair, params), std_s,
         _attempt(_difference, cond_stressed, cond_unstressed)),
        ("delta_contr_var", delta_contr_var(pair, params), std_i,
         _attempt(_difference, contr_stressed, contr_unstressed)),
        ("var_contribution", var_contribution(pair, params), std_i,
         _attempt(_band_mean, stressed_s, slope_is * se_q_s)),
    ]

    checks = []
    for name, closed, target_std, outcome in plan:
        if isinstance(outcome, _THIN):
            checks.append(
                StatisticCheck(
                    name=name, closed_form=closed, empirical=None, abs_error=None,
                    tolerance=None, effective_tail_samples=outcome.count, passed=None,
                    note=str(outcome),
                )
            )
            continue
        empirical, se, n_effective = outcome
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
