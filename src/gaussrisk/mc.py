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
own samples are a non-decreasing function of ``z0`` whose sample standard
deviation is ``l11`` times that column's, so the bank's lowest samples, its
tail and its two windows are, up to rounding at their edges, the same
positions for every bank: the draw's, selected once per run on ``z0``.  The
system's VaR and windows are read from its own samples, cut once per bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .errors import DegenerateSystemError, DomainError
from .measures import GaussianPair, _report
from .normal import RiskParams

_BLOCK_SIZE = 1 << 19  # fixed block length; partition-independent merging relies on it
_CHUNK = 1 << 12  # rows generated at a time; divides _BLOCK_SIZE
_SPAN = 1 << 16  # rows per step of the centred sums and of the scans; keeps temporaries small
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

    A sample count too large for the machine, or for numpy to size, is an
    input error, not a defect: it raises DomainError with the bytes it asked for.
    """
    try:
        return np.empty((2, n)).T
    except (MemoryError, ValueError):
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
    once: see :meth:`moments`.  ``xi`` is non-decreasing in ``z0``, with
    ``l11`` times its sample sd, so each bank's selections are, up to
    rounding at their edges, the ascending positions taken here on ``z0``:
    ``lowest``, of at least its ``tail_count`` lowest entries; ``tail``, of
    those at or below its ``1 - alpha`` quantile; and ``stressed`` and
    ``unstressed``, of those within ``bandwidth`` sample sds of that
    quantile and of its mean.  Where ``xi`` ties at an edge (``|mu_i|``
    vast beside ``sd_i``), these hold the true tail and windows, not a grid
    cell.  The CLI passes one ``SharedDraw`` to every bank of a run.
    """

    def __init__(self, config: McConfig) -> None:
        self.config = config
        self.normals = standard_normals(config)
        self._means, self._cov = _draw_moments(self.normals)
        z0 = self.normals[:, 0]
        self.tail_count = _rank(1.5 * (1.0 - config.alpha), config.sample_count) + 1
        self.lowest = _lowest(z0, self.tail_count)
        lowest = (self.lowest, z0.take(self.lowest))
        quantile = _quantile_and_se(lowest[1], 1.0 - config.alpha, config.sample_count)[0]
        half_width = config.bandwidth * math.sqrt(self._cov[0])
        self.tail = _within(z0, -math.inf, quantile, lowest)
        self.stressed = _window(z0, quantile, half_width, lowest)
        self.unstressed = _window(z0, self._means[0], half_width)

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
    try:
        arr = np.asarray(values, dtype=float).ravel()
    except (TypeError, ValueError):  # an entry such as "x", or ragged rows
        raise DomainError("values must be numbers in a rectangular array") from None
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
    inside = _within(values, -math.inf, float(np.partition(sample, rank)[rank]))
    if inside.size < count:
        cut = float(np.partition(values, count - 1)[count - 1])
        inside = _within(values, -math.inf, cut)
    return inside


def _within(
    values: np.ndarray, lo: float, hi: float, candidates: Optional[tuple] = None
) -> np.ndarray:
    """Ascending indices of the entries of ``values`` in ``[lo, hi]``.

    ``candidates`` is ``(indices, values.take(indices))`` for ascending
    ``indices`` such that every other entry is at least the greatest
    candidate.  When the greatest exceeds ``hi``, no other entry is inside,
    and only the candidates are scanned.  Otherwise ``values`` is scanned
    ``_SPAN`` entries at a time into two span-length masks, so no mask is
    as long as ``values``.
    """
    if candidates is not None:
        indices, taken = candidates
        if taken.size and taken.max() > hi:
            return indices[(taken >= lo) & (taken <= hi)]
    inside = np.empty(min(values.size, _SPAN), dtype=bool)
    below = np.empty_like(inside)
    found = [np.empty(0, dtype=np.intp)]
    for start in range(0, values.size, _SPAN):
        span = values[start:start + _SPAN]
        mask = np.greater_equal(span, lo, out=inside[:span.size])
        mask &= np.less_equal(span, hi, out=below[:span.size])
        positions = np.flatnonzero(mask)
        positions += start
        found.append(positions)
    return np.concatenate(found)


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
    distance = values.take(cut)
    with np.errstate(invalid="ignore"):  # inf - inf: no entry is inside
        distance -= center
        return cut[np.abs(distance, out=distance) <= half_width]


class _Thin(NamedTuple):
    """Too few (``count``) samples in a band or tail: the oracle skips its check, with ``note``."""

    note: str
    count: int


def _band(inside: np.ndarray, center: float, half_width: float) -> _Band:
    """``inside``, the ascending indices of a window ``|x - center| <= half_width``.

    A :class:`_Thin` when too few samples fall inside.
    """
    if inside.size < _MIN_BAND:
        return _Thin(
            f"only {inside.size} samples within {half_width:.6g} of {center:.6g} "
            f"(need >= {_MIN_BAND}); raise the sample count or the bandwidth",
            inside.size,
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


# _Band: a band's ascending indices, or the _Thin of a band too thin to read.
# _Outcome: the empirical value of a statistic, its standard error and its
# effective sample count; or the _Thin of the band or tail that kept it from
# being evaluated.  Each helper below returns a _Thin it is given untouched,
# so that _Thin is the outcome of everything built on its band or tail.
_Band = Union[np.ndarray, _Thin]
_Outcome = Union[tuple[float, float, int], _Thin]


def _band_quantile(
    target: np.ndarray, band: _Band, p: float, center_se: float, slope: float
) -> _Outcome:
    if isinstance(band, _Thin):
        return band
    values = target.take(band)
    # The slope carries the uncertainty of the band's center into the statistic.
    quantile, se = _quantile_and_se(values, p)
    return quantile, math.hypot(se, slope * center_se), values.size


def _band_mean(target: np.ndarray, band: _Band, center_error: float) -> _Outcome:
    if isinstance(band, _Thin):
        return band
    values = target.take(band)
    with np.errstate(over="ignore"):  # levels near the double range: an infinite SE
        se = math.hypot(float(values.std(ddof=1)) / math.sqrt(values.size), center_error)
    return float(values.mean()), se, values.size


def _difference(stressed: _Outcome, unstressed: _Outcome) -> _Outcome:
    for outcome in (stressed, unstressed):
        if isinstance(outcome, _Thin):
            return outcome
    (value, se, count), (base, base_se, base_count) = stressed, unstressed
    return value - base, math.hypot(se, base_se), min(count, base_count)


def _thin_tail(count: int) -> Optional[_Thin]:
    # A statistic read from ``count`` tail samples: below the minimum its
    # comparison is as noisy as the thin bands the other statistics skip.
    if count < _MIN_TAIL:
        return _Thin(f"only {count} tail samples (need >= {_MIN_TAIL})", count)
    return None


def _tail_shift(tail: np.ndarray, mean: float, mean_variance: float) -> _Outcome:
    # Tail-conditional mean: averaging the rest-of-system over the bank's
    # worst (1 - alpha) scenarios reproduces the ES spillover by the tower
    # property alone, with no Gaussian algebra involved.
    if (thin := _thin_tail(tail.size)) is not None:
        return thin
    with np.errstate(over="ignore"):  # levels near the double range: an infinite SE
        se = math.sqrt(tail.var(ddof=1) / tail.size + mean_variance)
    return float(tail.mean()) - mean, se, tail.size


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
    q_i, se_q_i = _quantile_and_se(xi.take(draw.lowest), p, n)
    half_i = config.bandwidth * std_i

    # The bank's tail and windows are the draw's (see SharedDraw).
    coll_es = _tail_shift(xa.take(draw.tail), m.mean_a, m.var_a / n)
    stressed_i = _band(draw.stressed, q_i, half_i)
    unstressed_i = _band(draw.unstressed, m.mean_i, half_i)
    covar = _band_quantile(xa, stressed_i, p, se_q_i, m.slope_ai)
    covare = _band_quantile(xa, unstressed_i, p, se_mean_i, m.slope_ai)

    xs = np.add(xi, xa, out=xa)
    cond_stressed = _band_quantile(xs, stressed_i, p, se_q_i, m.slope_si)
    cond_unstressed = _band_quantile(xs, unstressed_i, p, se_mean_i, m.slope_si)

    low_s = _lowest(xs, draw.tail_count)
    lowest_s = (low_s, xs.take(low_s))
    q_s, se_q_s = _quantile_and_se(lowest_s[1], p, n)
    half_s = config.bandwidth * std_s
    # The system's stressed and unstressed windows, each conditioning xi.
    stressed_s = _band(_window(xs, q_s, half_s, lowest_s), q_s, half_s)
    del low_s, lowest_s
    contr_stressed = _band_quantile(xi, stressed_s, p, se_q_s, m.slope_is)
    unstressed_s = _band(_window(xs, m.mean_s, half_s), m.mean_s, half_s)
    contr_unstressed = _band_quantile(xi, unstressed_s, p, std_s / math.sqrt(n), m.slope_is)

    tail_n = math.ceil(p * n)  # the samples at or below the bank's VaR
    # (report field, target's sample std, outcome): each closed form is read
    # from the report analyze prints, by its field name.
    plan: list[tuple[str, float, _Outcome]] = [
        ("var_i", std_i, _thin_tail(tail_n) or (q_i, se_q_i, tail_n)),
        ("covar_ai", std_a, covar),
        ("covare_ai", std_a, covare),
        ("delta_coll_var", std_a, _difference(covar, covare)),
        ("delta_coll_es", std_a, coll_es),
        ("delta_cond_var", std_s, _difference(cond_stressed, cond_unstressed)),
        ("delta_contr_var", std_i, _difference(contr_stressed, contr_unstressed)),
        ("var_contribution", std_i, _band_mean(xi, stressed_s, m.slope_is * se_q_s)),
    ]

    checks = []
    for name, target_std, outcome in plan:
        closed = getattr(report, name)
        empirical = abs_error = tolerance = passed = None
        if isinstance(outcome, _Thin):
            note, count = outcome
        else:
            empirical, se, count = outcome
            abs_error = abs(closed - empirical)
            tolerance = max(4.0 * se, _FLOOR_FRACTION * target_std)
            note = ""
            if math.isfinite(tolerance):
                passed = abs_error <= tolerance
            else:  # an infinite tolerance would pass any value
                note, tolerance = f"tolerance {tolerance!r} is not finite", None
        checks.append(
            StatisticCheck(name, closed, empirical, abs_error, tolerance, count, passed, note)
        )
    return ValidationReport(pair=pair, config=config, checks=tuple(checks))
