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
partitioning of blocks across workers merges to the same sample.
``RNG_METHOD`` identifies the generator; the CLI records it with every report.

Every bank's samples are affine maps of the two columns ``z0`` and ``z1`` of
the shared draw: ``xi = mu_i + l11 z0`` and ``xa = mu_a + l21 z0 + l22 z1``.
So the draw's two column means and its 2x2 sample covariance, taken once per
run, give every bank's means, variances and regression slopes, which set the
oracle's band centres, band widths and standard errors.  And every bank's
own samples are a non-decreasing function of ``z0``: the low tail of that
column, selected once per run, indexes every bank's lowest samples, so its
VaR, its tail and, mostly, its stressed window are gathered from there
instead of scanned for; the entries of ``z0`` near its mean index every
bank's unstressed window the same way.  The system's VaR and stressed
window are read from its lowest samples, cut once per bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Union

import numpy as np

from .errors import DegenerateSystemError, DomainError, _ThinSampleError
from .measures import GaussianPair, _report
from .normal import RiskParams

_BLOCK_SIZE = 1 << 19  # fixed block length; partition-independent merging relies on it
_CHUNK = 1 << 12  # rows generated at a time; divides _BLOCK_SIZE
_SPAN = 1 << 16  # rows per step of the draw's centred sums; keeps their temporaries small
_NEAR_MARGIN = 1.0 / 32  # how much wider than a bank's unstressed window its candidates reach
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
    band or thin tail at the given sample count, or a tolerance that is not
    finite); ``note`` then says why.
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
    returned read-only because it is shared.  It is stored column-major, so
    each column is contiguous: the stream fills a small row-major buffer
    whose rows are copied into both columns.
    """
    n = config.sample_count
    z = _columns(n)
    rows = np.empty((min(n, _CHUNK), 2))
    for start in range(0, n, _CHUNK):
        if start % _BLOCK_SIZE == 0:
            seed = np.random.SeedSequence([config.seed, start // _BLOCK_SIZE])
            rng = np.random.Generator(np.random.PCG64(seed))
        chunk = rows[:n - start]
        rng.standard_normal(out=chunk)
        z[start:start + len(chunk)] = chunk
    z.flags.writeable = False
    return z


def _columns(n: int) -> np.ndarray:
    """An uninitialised (n, 2) array stored column-major, so each column is contiguous.

    A sample count too large for the machine is an input error, not a
    defect: it raises DomainError with the bytes it asked for.
    """
    try:
        return np.empty((2, n)).T
    except MemoryError:
        raise DomainError(
            f"{n} samples need {16 * n} bytes for each two-column array, more than "
            "can be allocated; lower the sample count"
        ) from None


class _Moments(NamedTuple):
    """Sample means, variances (ddof 1) and least-squares slopes of ``xi``, ``xa`` and ``xs``."""

    mean_i: float
    mean_a: float
    mean_s: float
    var_i: float
    var_a: float
    var_s: float
    slope_ai: float  # of xa on xi
    slope_si: float  # of xs on xi
    slope_is: float  # of xi on xs


class SharedDraw:
    """The :func:`standard_normals` draw of one run, with what every bank reads from it.

    A bank's samples ``xi = mu_i + l11 z0`` and ``xa = mu_a + l21 z0 + l22 z1``
    are affine in the draw's columns ``z0`` and ``z1``, so their sample
    means, variances and covariances follow from the draw's own, taken here
    once: see :meth:`moments`.  ``xi`` is non-decreasing in ``z0``, so
    ``lowest``, the ascending positions of at least the ``tail_count``
    lowest entries of that column, is where every bank's lowest samples
    are, and ``near_mean``, the ascending positions of ``z0`` within a
    little more than ``bandwidth`` sample standard deviations of its mean,
    holds every bank's unstressed window.  All of it is taken at
    construction; the CLI passes one ``SharedDraw`` to every bank of a run.
    """

    def __init__(self, config: McConfig) -> None:
        self.config = config
        self.normals = standard_normals(config)
        self._means, self._cov = _draw_moments(self.normals)
        z0, center = self.normals[:, 0], self._means[0]
        reach = (1.0 + _NEAR_MARGIN) * config.bandwidth * math.sqrt(self._cov[0])
        near = _within(z0, center - reach, center + reach)
        # 4-byte positions halve what this holds for the run and what each
        # bank's unstressed window gathers through it
        self.near_mean = near.astype(np.int32) if z0.size <= 2**31 else near
        # the lowest samples a VaR and its SE read
        self.tail_count = _rank(1.5 * (1.0 - config.alpha), config.sample_count) + 1
        self.lowest = _lowest(z0, self.tail_count)

    def moments(self, pair: GaussianPair) -> _Moments:
        """The sample moments of ``sample_pair(pair, self)`` and of its row sums.

        The bank, the rest of the system and the whole system load
        ``(l11, 0)``, ``(l21, l22)`` and ``(l11 + l21, l22)`` on ``(z0, z1)``,
        so each moment is a bilinear form in the draw's: O(1) per bank.
        """
        l11, l21, l22 = _loadings(pair)
        c_i, c_a, c_s = (l11, 0.0), (l21, l22), (l11 + l21, l22)
        (m0, m1), (c00, c01, c11) = self._means, self._cov

        def mean(c: tuple[float, float]) -> float:
            return c[0] * m0 + c[1] * m1

        def cov(u: tuple[float, float], v: tuple[float, float]) -> float:
            return u[0] * v[0] * c00 + (u[0] * v[1] + u[1] * v[0]) * c01 + u[1] * v[1] * c11

        var_i, var_s = cov(c_i, c_i), cov(c_s, c_s)
        return _Moments(
            mean_i=pair.mu_i + mean(c_i), mean_a=pair.mu_a + mean(c_a),
            mean_s=pair.mu_s + mean(c_s), var_i=var_i, var_a=cov(c_a, c_a), var_s=var_s,
            slope_ai=cov(c_i, c_a) / var_i, slope_si=cov(c_i, c_s) / var_i,
            slope_is=cov(c_s, c_i) / var_s,
        )


def _draw_moments(z: np.ndarray) -> tuple[tuple[float, float], tuple[float, float, float]]:
    """The column means ``(m0, m1)`` of ``z`` and its sample covariance ``(c00, c01, c11)``.

    Each sum of products is centred on both columns' means and summed by
    numpy's own ``sum``, span by span: a BLAS dot would sum in an order set by
    the build and the thread count.
    """
    n = z.shape[0]
    m0, m1 = float(z[:, 0].mean()), float(z[:, 1].mean())
    s00 = s01 = s11 = 0.0
    for start in range(0, n, _SPAN):
        d0 = z[start:start + _SPAN, 0] - m0
        d1 = z[start:start + _SPAN, 1] - m1
        s01 += float((d0 * d1).sum())
        s00 += float(np.square(d0, out=d0).sum())
        s11 += float(np.square(d1, out=d1).sum())
    return (m0, m1), (s00 / (n - 1), s01 / (n - 1), s11 / (n - 1))


# The oracle keeps its own factor rather than the report's loadings of the same
# moments: a shared factor would let a wrong loading pass its own simulation.
def _loadings(pair: GaussianPair) -> tuple[float, float, float]:
    """``(l11, l21, l22)``: the Cholesky factor that maps the draw to ``(xi, xa)``."""
    l11 = math.sqrt(pair.var_i)
    l21 = pair.cov_ia / l11
    return l11, l21, math.sqrt(max(pair.var_a - l21 * l21, 0.0))


def sample_pair(pair: GaussianPair, draw: SharedDraw) -> np.ndarray:
    """The run's draw as ``sample_count`` joint observations of (bank, rest-of-system).

    The draw's standard-normal pairs are mapped through the 2x2 Cholesky
    factor of the covariance matrix, so the result is bitwise-deterministic
    given the seed.  Returns an array of shape (sample_count, 2); column 0 is
    the bank.  Each column is contiguous in memory.  Column 0 is
    ``mu_i + sqrt(var_i) * z0``, rounded, which is non-decreasing in the
    draw's first column ``z0``.
    """
    z = draw.normals
    l11, l21, l22 = _loadings(pair)
    out = _columns(draw.config.sample_count)
    xi, xa = out[:, 0], out[:, 1]
    # mu_a + l21 * z0 + l22 * z1, rounded step by step as that expression
    # rounds, with the bank's column as the scratch space for l22 * z1.
    np.multiply(z[:, 0], l21, out=xa)
    xa += pair.mu_a
    xa += np.multiply(z[:, 1], l22, out=xi)
    np.multiply(z[:, 0], l11, out=xi)
    xi += pair.mu_i
    return out


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


def _lowest(values: np.ndarray, count: int) -> np.ndarray:
    """Ascending indices of at least the ``count`` lowest entries of ``values``.

    No entry left out is lower than any entry selected.  The cut is guessed
    at the quantile of an evenly spaced subsample that holds about
    ``1.5 * count`` entries below it, which keeps a full-length partition
    off the common path; a guess that selects too few gives way to it.
    """
    stride = max(values.size >> 13, 1)  # a subsample of about 8192 entries
    sample = values[::stride]
    rank = min(math.ceil(1.5 * count / stride), sample.size) - 1
    inside = np.flatnonzero(values <= float(np.partition(sample, rank)[rank]))
    if inside.size < count:
        inside = np.flatnonzero(values <= float(np.partition(values, count - 1)[count - 1]))
    return inside


def _within(
    values: np.ndarray, lo: float, hi: float, candidates: Optional[tuple] = None
) -> np.ndarray:
    """Ascending indices of the entries of ``values`` in ``[lo, hi]``.

    ``candidates`` is ``(indices, values.take(indices), lowest)`` for
    ascending ``indices`` such that every other entry is at least the
    greatest candidate or, unless ``lowest``, at most the least.  When the
    greatest exceeds ``hi`` and, unless ``lowest``, the least is below
    ``lo``, no other entry is inside, and only the candidates are scanned.
    """
    if candidates is not None:
        indices, taken, lowest = candidates
        if taken.size and taken.max() > hi and (lowest or taken.min() < lo):
            return indices[(taken >= lo) & (taken <= hi)]
    inside = values >= lo
    return np.flatnonzero(np.logical_and(inside, values <= hi, out=inside))


def _window(
    values: np.ndarray, center: float, half_width: float, candidates: Optional[tuple] = None
) -> np.ndarray:
    """Ascending indices of the entries ``x`` of ``values`` with ``abs(x - center) <= half_width``.

    ``x - center`` rounds monotonically in ``x``, so those entries fill an
    interval of doubles.  :func:`_within` cuts one a few ulps wider, which
    the rounding of ``x - center`` and of its ends cannot reach past, and
    the distance test, read only on that cut, keeps exactly the entries
    inside.  An end that is not finite cuts everything.  ``candidates`` is
    as for :func:`_within`.
    """
    slack = 2.0**-48 * (abs(center) + half_width) + 2.0**-1070
    lo, hi = center - half_width - slack, center + half_width + slack
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = -math.inf, math.inf
    cut = _within(values, lo, hi, candidates)
    with np.errstate(invalid="ignore"):  # inf - inf: no entry is inside
        return cut[np.abs(values.take(cut) - center) <= half_width]


def _band_indices(
    cond: np.ndarray, center: float, half_width: float, candidates: Optional[tuple] = None
) -> np.ndarray:
    """Ascending indices of the window ``|cond - center| <= half_width``.

    Raises _ThinSampleError when too few samples fall inside.  Gathering a
    target through the indices reads only the band, not a full-length mask.
    ``candidates`` is as for :func:`_within`.
    """
    inside = _window(cond, center, half_width, candidates)
    count = inside.size
    if count < _MIN_BAND:
        raise _ThinSampleError(
            f"only {count} samples within {half_width:.6g} of {center:.6g} "
            f"(need >= {_MIN_BAND}); raise the sample count or the bandwidth",
            count=count,
        )
    return inside


def _quantile_and_se(
    values: np.ndarray, p: float, n: Optional[int] = None
) -> tuple[float, float]:
    """:func:`empirical_quantile` at ``p`` of ``n`` values and its standard error.

    ``values`` holds all ``n`` values (the default), or any subset holding
    their ``ceil(1.5 p n)`` smallest, the only ones read.  Binomial standard
    error of an order-statistic quantile; the density at the quantile is
    estimated from the spacing of the order statistics at ``p/2`` and
    ``3p/2``, keeping the estimate free of any Gaussian closed form.  One
    partition at the ``3p/2`` rank leaves the ``p/2`` and ``p`` order
    statistics in its head, which a second, in-place partition finds.
    """
    n = values.size if n is None else n
    k_lo, k, k_hi = _rank(0.5 * p, n), _rank(p, n), _rank(1.5 * p, n)
    head = np.partition(values, k_hi)[:k_hi + 1]
    hi = float(head[k_hi])
    head.partition((k_lo, k))
    spread = hi - float(head[k_lo])
    return float(head[k]), math.sqrt(p * (1.0 - p) / n) * (spread / p)


# The empirical value of a statistic, its standard error and its effective
# sample count; or the error of the thin band or tail that kept it from being
# evaluated.
_Outcome = Union[tuple[float, float, int], _ThinSampleError]


def _attempt(compute: Callable, *args):
    """``compute(*args)``, or the thin-band/thin-tail error it raised.

    The first such error among ``args`` is returned without calling
    ``compute``, so a thin band's error is the result of everything built on it.
    """
    for arg in args:
        if isinstance(arg, _ThinSampleError):
            return arg
    try:
        return compute(*args)
    except _ThinSampleError as exc:
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


def _tail_quantile(quantile: float, se: float, count: int) -> tuple[float, float, int]:
    # The quantile is read from ``count`` tail samples; below the minimum
    # its comparison is as noisy as the thin tails the other statistics skip.
    if count < _MIN_TAIL:
        raise _ThinSampleError(f"only {count} tail samples (need >= {_MIN_TAIL})", count=count)
    return quantile, se, count


def _tail_shift(tail: np.ndarray, mean: float, mean_variance: float) -> tuple[float, float, int]:
    # Tail-conditional mean: averaging the rest-of-system over the bank's
    # worst (1 - alpha) scenarios reproduces the ES spillover by the tower
    # property alone, with no Gaussian algebra involved.
    if tail.size < _MIN_TAIL:
        raise _ThinSampleError(
            f"only {tail.size} tail samples (need >= {_MIN_TAIL})", count=int(tail.size)
        )
    se = math.sqrt(tail.var(ddof=1) / tail.size + mean_variance)
    return float(tail.mean()) - mean, se, int(tail.size)


def validate_closed_forms(pair: GaussianPair, draw: SharedDraw) -> ValidationReport:
    """Compare every closed-form statistic against an independent simulation.

    Covered statistics: VaR of the bank, the stressed and unstressed
    conditional VaR of the rest of the system, the three stressed-minus-
    unstressed differences, the ES spillover, and the Euler VaR
    contribution.  A statistic whose band or tail is too thin at this sample
    count, or whose tolerance is not finite, is reported as skipped, not
    failed or passed.  ``draw`` is the run's :class:`SharedDraw`, which every
    bank of a run reads; the run's settings are its ``config``.
    """
    config = draw.config
    params = RiskParams(config.alpha)
    if pair.var_s <= 0.0:
        raise DegenerateSystemError("cannot validate a zero-variance system")
    report = _report(pair, params)

    n = config.sample_count
    p = 1.0 - config.alpha
    m = draw.moments(pair)  # the samples' means, variances and slopes
    std_i, std_a, std_s = math.sqrt(m.var_i), math.sqrt(m.var_a), math.sqrt(m.var_s)
    se_mean_i = std_i / math.sqrt(n)

    samples = sample_pair(pair, draw)
    xi = samples[:, 0]
    xa = samples[:, 1]  # overwritten by xs = xi + xa after its last use
    # Where the draw's first column is lowest, so is xi.
    lowest_i = (draw.lowest, xi.take(draw.lowest), True)
    q_i, se_q_i = _quantile_and_se(lowest_i[1], p, n)
    half_i = config.bandwidth * std_i

    # The bank's tail, and its stressed and unstressed windows, each
    # conditioning xa and then xs; the tail and the stressed window are
    # mostly among its lowest samples, the unstressed window among the
    # samples where the draw's first column is near its mean.
    tail_i = xa.take(_within(xi, -math.inf, q_i, lowest_i))
    coll_es = _attempt(_tail_shift, tail_i, m.mean_a, m.var_a / n)
    stressed_i = _attempt(_band_indices, xi, q_i, half_i, lowest_i)
    del lowest_i, tail_i  # freed before the bands' indices and gathered values grow
    near_i = (draw.near_mean, xi.take(draw.near_mean), False)
    unstressed_i = _attempt(_band_indices, xi, m.mean_i, half_i, near_i)
    del near_i
    covar = _attempt(_band_quantile, _attempt(xa.take, stressed_i), p, se_q_i, m.slope_ai)
    covare = _attempt(
        _band_quantile, _attempt(xa.take, unstressed_i), p, se_mean_i, m.slope_ai
    )

    xs = np.add(xi, xa, out=xa)
    cond_stressed = _attempt(
        _band_quantile, _attempt(xs.take, stressed_i), p, se_q_i, m.slope_si
    )
    cond_unstressed = _attempt(
        _band_quantile, _attempt(xs.take, unstressed_i), p, se_mean_i, m.slope_si
    )
    del stressed_i, unstressed_i  # a wide band's indices take memory

    low_s = _lowest(xs, draw.tail_count)
    lowest_s = (low_s, xs.take(low_s), True)
    q_s, se_q_s = _quantile_and_se(lowest_s[1], p, n)
    half_s = config.bandwidth * std_s
    # The system's stressed and unstressed windows, each conditioning xi.
    stressed_s = _attempt(xi.take, _attempt(_band_indices, xs, q_s, half_s, lowest_s))
    del low_s, lowest_s
    contr_stressed = _attempt(_band_quantile, stressed_s, p, se_q_s, m.slope_is)
    contr_unstressed = _attempt(
        _band_quantile, _attempt(xi.take, _attempt(_band_indices, xs, m.mean_s, half_s)),
        p, std_s / math.sqrt(n), m.slope_is,
    )

    # (report field, target's sample std, outcome): each closed form is read
    # from the report analyze prints, by its field name.
    plan: list[tuple[str, float, _Outcome]] = [
        ("var_i", std_i, _attempt(_tail_quantile, q_i, se_q_i, math.ceil(p * n))),
        ("covar_ai", std_a, covar),
        ("covare_ai", std_a, covare),
        ("delta_coll_var", std_a, _attempt(_difference, covar, covare)),
        ("delta_coll_es", std_a, coll_es),
        ("delta_cond_var", std_s, _attempt(_difference, cond_stressed, cond_unstressed)),
        ("delta_contr_var", std_i, _attempt(_difference, contr_stressed, contr_unstressed)),
        ("var_contribution", std_i, _attempt(_band_mean, stressed_s, m.slope_is * se_q_s)),
    ]

    checks = []
    for name, target_std, outcome in plan:
        closed = getattr(report, name)
        if isinstance(outcome, _ThinSampleError):
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
        evaluated = math.isfinite(tolerance)  # an infinite tolerance would pass any value
        checks.append(
            StatisticCheck(
                name=name, closed_form=closed, empirical=float(empirical),
                abs_error=abs_error, tolerance=tolerance if evaluated else None,
                effective_tail_samples=int(n_effective),
                passed=abs_error <= tolerance if evaluated else None,
                note="" if evaluated else f"tolerance {tolerance!r} is not finite",
            )
        )
    return ValidationReport(pair=pair, config=config, checks=tuple(checks))
