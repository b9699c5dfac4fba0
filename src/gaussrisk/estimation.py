"""Panel ingestion and moment estimation.

A panel is a T x n matrix of per-bank observations of one statistic (return,
P/L, asset change -- the caller's choice, recorded only as free-text
metadata).  From it we estimate the joint mean vector and covariance matrix,
and for any bank ``i`` build the :class:`~gaussrisk.measures.GaussianPair`
against ``a`` = the plain sum of all the other banks.

CSV contract (see :func:`load_panel`): UTF-8 text (a leading byte-order mark
is dropped), first row a header of unique bank labels, optionally led by a
``date`` column (detected by its header, case-insensitive) which is skipped;
every other cell must parse as a finite decimal float written in ASCII
without digit-group underscores; at least three data rows.  Missing or
non-finite data is rejected outright -- imputation is a supervisory choice
this package does not make.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Optional, Union

import numpy as np

from .errors import (
    DegenerateBankError,
    DegenerateModelError,
    DegenerateSeriesWarning,
    InvalidCovarianceError,
    PanelFormatError,
    UnknownBankError,
)
from .measures import GaussianPair

_MIN_ROWS = 3  # fewer rows cannot support an unbiased covariance estimate

# pair_for_bank gets var_a as a difference of totals, which loses about
# (sum of the magnitudes of its terms) / var_a ulps.  Above this ratio it sums
# the other banks' covariance block directly instead.
_CANCELLATION_LIMIT = 1e3

# Characters of panel text that the fast parse checks at a time.
_CHUNK_CHARS = 1 << 16

PanelSource = Union[str, Path, IO[str]]


def _freeze(array: np.ndarray, argument: object) -> np.ndarray:
    """``array``, converted from the caller's ``argument``, as a read-only float array.

    A read-only array is kept as it is.  A writeable one is copied first when
    it is the caller's own memory, so that the caller's array stays writeable
    and later writes to it cannot reach the frozen copy.
    """
    array = np.ascontiguousarray(array, dtype=float)
    if array.flags.writeable:
        if array is argument or array.base is not None:
            array = array.copy()
        array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ReturnPanel:
    """Labeled T x n matrix of per-bank observations."""

    labels: tuple[str, ...]
    observations: np.ndarray

    def __post_init__(self) -> None:
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 2:
            raise PanelFormatError(f"observations must be 2-d, got shape {obs.shape}")
        t, n = obs.shape
        if n != len(self.labels):
            raise PanelFormatError(
                f"{len(self.labels)} labels but {n} observation columns"
            )
        if t < _MIN_ROWS:
            raise PanelFormatError(f"need at least {_MIN_ROWS} rows, got {t}")
        if any(not label for label in self.labels):
            raise PanelFormatError("bank labels must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise PanelFormatError("bank labels must be distinct")
        if not np.isfinite(obs).all():
            bad = np.argwhere(~np.isfinite(obs))[0]
            raise PanelFormatError(
                f"non-finite observation at row {bad[0] + 1}, "
                f"column {self.labels[bad[1]]!r}"
            )
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "observations", _freeze(obs, self.observations))

    @property
    def sample_size(self) -> int:
        return self.observations.shape[0]


@dataclass(frozen=True)
class MomentEstimate:
    """Estimated mean vector and covariance matrix of a panel."""

    labels: tuple[str, ...]
    means: np.ndarray
    covariance: np.ndarray
    sample_size: int

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covariance, dtype=float)
        n = len(self.labels)
        if means.shape != (n,) or cov.shape != (n, n):
            raise InvalidCovarianceError(
                f"shape mismatch: {n} labels, means {means.shape}, covariance {cov.shape}"
            )
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
            raise InvalidCovarianceError("covariance matrix is not symmetric")
        if np.any(np.diag(cov) < 0.0):
            raise InvalidCovarianceError("covariance matrix has a negative diagonal entry")
        # PSD up to rounding noise: smallest eigenvalue may only be a hair below zero.
        trace = float(np.trace(cov))
        min_eig = float(np.linalg.eigvalsh(cov)[0])
        if min_eig < -1e-10 * max(trace, 1e-300):
            raise InvalidCovarianceError(
                f"covariance matrix is not positive semidefinite "
                f"(min eigenvalue {min_eig!r}, trace {trace!r})"
            )
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "means", _freeze(means, self.means))
        object.__setattr__(self, "covariance", _freeze(cov, self.covariance))
        # 1'.cov.1, the variance of the whole system: pair_for_bank gets each
        # bank's rest-of-system variance from it without an (n-1)^2 sum.
        object.__setattr__(self, "_total", float(cov.sum()))

    def index_of(self, bank: str) -> int:
        try:
            return self.labels.index(bank)
        except ValueError:
            raise UnknownBankError(f"unknown bank label {bank!r}") from None


def _parse_cell(text: str, row: int, label: str) -> float:
    """``float(text)`` (which ignores surrounding whitespace), finite or rejected."""
    try:
        value = float(text)
    except ValueError:
        raise PanelFormatError(
            f"non-numeric cell {text.strip()!r} at row {row}, column {label!r}"
        ) from None
    if not math.isfinite(value):
        raise PanelFormatError(
            f"non-finite cell {text.strip()!r} at row {row}, column {label!r}"
        )
    return value


def load_panel(source: PanelSource) -> ReturnPanel:
    """Parse a CSV panel of per-bank observations.

    Parameters
    ----------
    source : path or open text stream
        First row is the header of bank labels.  A leading ``date`` column
        (header compared case-insensitively) is skipped.  A UTF-8
        byte-order mark before the header is dropped.  A stream that cannot
        tell its position, such as piped stdin, is read into memory first.

    Raises
    ------
    PanelFormatError
        On ragged rows, non-numeric or non-finite cells (including Python-only
        float syntax such as ``1_0``), duplicate or empty labels, or fewer
        than three data rows; messages name the offending row and column.

    Notes
    -----
    A plain body (see :func:`_parse_plain`) is parsed by one ``np.loadtxt``
    pass.  Any other body, and any body that pass rejects, is read again
    from the start by :func:`_parse_exact`, which alone decides what is
    accepted and words every error.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return load_panel(handle)

    try:
        start = source.tell()
    except OSError:  # a pipe, or a file already read with next(): keep what is left
        source = io.StringIO(source.read())
        start = 0
    width, skip_first, labels = _read_header(_csv_rows(source))
    observations = _parse_plain(source, width, skip_first)
    if observations is None:
        source.seek(start)
        labels, observations = _parse_exact(source)
    observations.flags.writeable = False  # fresh: ReturnPanel need not copy it
    return ReturnPanel(labels=labels, observations=observations)


def _csv_rows(source: IO[str]) -> Iterator[list[str]]:
    """The ``csv`` rows of ``source``, read one at a time as they are asked for.

    A row that ``csv`` cannot split (a cell over the csv field limit, for
    one) raises PanelFormatError naming the row, counted from 1 like every
    other row number in a panel error.
    """
    row_no = 1
    try:
        for row in csv.reader(source):
            yield row
            row_no += 1
    except csv.Error as exc:
        raise PanelFormatError(f"unreadable row {row_no}: {exc}") from None


def _read_header(reader: Iterator[list[str]]) -> tuple[int, bool, tuple[str, ...]]:
    """Cell count of the header row, whether it leads with ``date``, and the bank labels."""
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input: no header row") from None
    if header:
        header[0] = header[0].removeprefix("\ufeff")  # byte-order mark of a stream
    header = [cell.strip() for cell in header]
    skip_first = bool(header) and header[0].lower() == "date"
    labels = header[1:] if skip_first else header
    if not labels:
        raise PanelFormatError("header row contains no bank labels")
    if any(not label for label in labels):
        raise PanelFormatError("header row contains an empty bank label")
    duplicates = {label for label in labels if labels.count(label) > 1}
    if duplicates:
        raise PanelFormatError(f"duplicate bank labels: {sorted(duplicates)}")
    return len(header), skip_first, tuple(labels)


def _parse_plain(source: IO[str], width: int, skip_first: bool) -> Optional[np.ndarray]:
    """The rest of ``source`` as a T x n array in one ``np.loadtxt`` pass, or None.

    ``np.loadtxt`` reads the lines through a guard that checks them a chunk
    at a time and raises ValueError at a chunk that is not plain: one that
    holds a non-ASCII character, a ``"``, NUL or U+001C..U+001F (which
    ``np.loadtxt`` strips around a number and ``float()`` does not), a line
    longer than the csv field limit, or other than ``width - 1`` commas per
    non-empty line.  In such a body ``csv`` splits every line at its commas
    alone, and ``np.loadtxt`` reads each cell to the same double as
    ``float()`` or rejects it.  ``np.loadtxt`` also rejects a ``\\r`` inside
    a line and a line with fewer cells than the header; as every counted line
    must give one row, no line has more.

    None means the body is not plain, holds a cell that is not a finite
    number, or has fewer than three rows: the exact loop must decide and word
    the error.
    """
    commas = width - 1
    limit = csv.field_size_limit()
    data_lines = 0

    def plain_lines() -> Iterator[str]:
        nonlocal data_lines
        while lines := source.readlines(_CHUNK_CHARS):
            chunk = "".join(lines)
            count = len(lines) - lines.count("\n") - lines.count("\r\n")
            if (
                not chunk.isascii() or '"' in chunk
                or any(char in chunk for char in "\x00\x1c\x1d\x1e\x1f")
                or chunk.count(",") != commas * count
                or (len(chunk) > limit and max(map(len, lines)) > limit)
            ):
                raise ValueError("not a plain body")
            data_lines += count
            yield from lines

    try:
        with warnings.catch_warnings():
            # a header-only body: the exact loop reports it as too few rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            observations = np.loadtxt(
                plain_lines(),
                delimiter=",",
                comments=None,
                usecols=range(1, width) if skip_first else None,
                ndmin=2,
            )
    except ValueError:
        return None
    rows = observations.shape[0]
    if rows != data_lines or rows < _MIN_ROWS or not np.isfinite(observations).all():
        return None
    return observations


def _parse_exact(source: IO[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """Labels and observations of a panel by one ``csv`` row and one ``float()`` per cell.

    The reference parse: it defines which panels are accepted and the
    message of every :class:`PanelFormatError`.
    """
    reader = _csv_rows(source)
    width, skip_first, labels = _read_header(reader)
    rows: list[list[float]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != width:
            raise PanelFormatError(
                f"ragged row {line_no}: expected {width} cells, got {len(row)}"
            )
        cells = row[1:] if skip_first else row
        # float() also reads digit-group underscores and non-ASCII digits, which
        # a panel cell may not hold; one test per row keeps the parse cheap.
        joined = "".join(cells)
        if "_" in joined or not joined.isascii():
            cell, label = next(
                (cell, label) for cell, label in zip(cells, labels)
                if "_" in cell or not cell.isascii()
            )
            raise PanelFormatError(
                f"non-numeric cell {cell.strip()!r} at row {line_no}, column {label!r}"
            )
        rows.append([_parse_cell(cell, line_no, label) for cell, label in zip(cells, labels)])
    if len(rows) < _MIN_ROWS:
        raise PanelFormatError(f"need at least {_MIN_ROWS} data rows, got {len(rows)}")
    return labels, np.array(rows)


def estimate_moments(panel: ReturnPanel) -> MomentEstimate:
    """Column means and the unbiased (divisor T-1) sample covariance matrix.

    A zero-variance column is legal here and only triggers a
    :class:`DegenerateSeriesWarning`; :func:`pair_for_bank` rejects such a
    bank if it is actually singled out.  A column whose observations are all
    equal has zero variance and zero covariances, exactly: the rounding noise
    of its mean does not make it a bank.
    """
    obs = panel.observations
    means = obs.mean(axis=0)
    cov = np.atleast_2d(np.cov(obs, rowvar=False, ddof=1))
    cov = 0.5 * (cov + cov.T)  # enforce exact symmetry; rounding only
    # A constant column's sample variance is rounding noise of its mean, far
    # below (T * mean * 1e-10)^2; only such columns are compared value by value.
    suspect = np.flatnonzero(np.diag(cov) <= (1e-10 * obs.shape[0] * means) ** 2)
    constant = suspect[(obs[:, suspect] == obs[0, suspect]).all(axis=0)]
    cov[constant, :] = 0.0
    cov[:, constant] = 0.0
    zero_variance = [label for label, v in zip(panel.labels, np.diag(cov)) if v == 0.0]
    for label in zero_variance:
        warnings.warn(
            f"bank {label!r} has zero sample variance", DegenerateSeriesWarning, stacklevel=2
        )
    means.flags.writeable = False  # fresh: MomentEstimate need not copy them
    cov.flags.writeable = False
    return MomentEstimate(
        labels=panel.labels,
        means=means,
        covariance=cov,
        sample_size=panel.sample_size,
    )


def pair_for_bank(est: MomentEstimate, bank: str) -> GaussianPair:
    """Build the (bank, rest-of-system) Gaussian pair for one bank.

    The rest of the system is the equally-weighted *sum* of all other bank
    series, so its moments aggregate additively: ``mu_a`` is the sum of the
    other means, ``var_a`` the full quadratic form of the other rows and
    columns, ``cov_ia`` the sum of the bank's covariances with each other
    bank.

    ``var_a`` is ``1'.cov.1 - 2 cov_ia - var_i`` with the total cached on
    ``est``, so a panel of n banks costs O(n^2) after the covariance, not
    O(n^3).  That difference cancels when the bank carries most of the system
    variance; then ``var_a`` is summed over the other banks' block instead.
    """
    idx = est.index_of(bank)
    n = len(est.labels)
    if n < 2:
        raise DegenerateModelError(
            "panel has a single bank: there is no rest-of-system to aggregate"
        )
    cov = est.covariance
    var_i = float(cov[idx, idx])
    if var_i <= 0.0:
        raise DegenerateBankError(f"bank {bank!r} has zero sample variance")
    others = np.ones(n, dtype=bool)
    others[idx] = False
    mu_i = float(est.means[idx])
    mu_a = float(est.means[others].sum())
    cov_ia = float(cov[idx][others].sum())
    var_a = est._total - 2.0 * cov_ia - var_i
    if abs(est._total) + 2.0 * abs(cov_ia) + var_i > _CANCELLATION_LIMIT * var_a:
        var_a = float(cov[np.ix_(others, others)].sum())
    return GaussianPair(mu_i=mu_i, mu_a=mu_a, var_i=var_i, var_a=var_a, cov_ia=cov_ia)
