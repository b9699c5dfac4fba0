"""Panel ingestion and moment estimation.

A panel is a T x n matrix of per-bank observations of one statistic (return,
P/L, asset change -- the caller's choice, not recorded on the panel).  From
it we estimate the joint mean vector and covariance matrix, and for any bank
``i`` build the :class:`~gaussrisk.measures.GaussianPair` against ``a`` = the
plain sum of all the other banks.

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
import os
import stat
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator, Optional, Union

import numpy as np

from .errors import (
    DegenerateBankError,
    DegenerateModelError,
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

# estimate_moments centres a panel of at least this many rows plus 2n in
# blocks; each block holds _BLOCK_BYTES, or n rows if that is more.
_SPLIT_ROWS = 4096
_BLOCK_BYTES = 1 << 14

# When an estimate is built, every bank's sums over the other banks are taken
# in blocks of this many bytes of covariance rows, or of one row if that is more.
_REST_BYTES = 1 << 17

# Characters of panel text that the fast parse checks at a time.
_CHUNK_CHARS = 1 << 16

# np.loadtxt opens a file whose name ends so through a decompressor.
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")

PanelSource = Union[str, Path, IO[str]]


def _all_finite(array: np.ndarray) -> bool:
    """Whether every entry of ``array`` is finite; NaN, like inf, reaches its min or max.

    Unlike ``np.isfinite(array).all()``, it makes no array of ``array``'s size.
    """
    return array.size == 0 or (math.isfinite(array.min()) and math.isfinite(array.max()))


def _as_floats(value: object, error: type[Exception], name: str) -> np.ndarray:
    """``value`` as a float array, or ``error`` where numpy cannot read it as one."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):  # a cell such as "x", or ragged rows
        raise error(f"{name} must be numbers in a rectangular array") from None


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
        obs = _as_floats(self.observations, PanelFormatError, "observations")
        if obs.ndim != 2:
            raise PanelFormatError(f"observations must be 2-d, got shape {obs.shape}")
        t, n = obs.shape
        if n != len(self.labels):
            raise PanelFormatError(
                f"{len(self.labels)} labels but {n} observation columns"
            )
        if n == 0:
            raise PanelFormatError("panel has no banks")
        if t < _MIN_ROWS:
            raise PanelFormatError(f"need at least {_MIN_ROWS} rows, got {t}")
        if any(not label for label in self.labels):
            raise PanelFormatError("bank labels must be non-empty")
        if len(set(self.labels)) != len(self.labels):
            raise PanelFormatError("bank labels must be distinct")
        if not _all_finite(obs):
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
    """Estimated mean vector and covariance matrix of a panel.

    One built by a caller is gated: the covariance must be finite,
    symmetric, free of negative variances, of finite trace and PSD to within
    1e-10 of its trace, by one ``eigvalsh``.  :func:`estimate_moments` checks
    only finiteness and the trace of its own, a sample covariance, which is
    PSD by construction.
    """

    labels: tuple[str, ...]
    means: np.ndarray
    covariance: np.ndarray
    sample_size: int

    def __post_init__(self) -> None:
        means = _as_floats(self.means, InvalidCovarianceError, "means")
        cov = _as_floats(self.covariance, InvalidCovarianceError, "covariance")
        n = len(self.labels)
        if means.shape != (n,) or cov.shape != (n, n):
            raise InvalidCovarianceError(
                f"shape mismatch: {n} labels, means {means.shape}, covariance {cov.shape}"
            )
        if n == 0:
            raise InvalidCovarianceError("estimate has no banks")
        if len(set(self.labels)) != n:  # index_of could not single out a repeated bank
            raise InvalidCovarianceError("bank labels must be distinct")
        self._admit(means, cov, gated=True)

    def _admit(self, means: np.ndarray, cov: np.ndarray, gated: bool) -> None:
        """Check ``means`` and ``cov``, freeze them and store what :func:`pair_for_bank` reads.

        Without ``gated`` only finiteness and the trace are checked.
        """
        # before the other checks: allclose and LAPACK would let NaN and inf through
        if not (_all_finite(means) and _all_finite(cov)):
            raise InvalidCovarianceError("non-finite entry in the means or the covariance matrix")
        if gated and not np.allclose(
            cov, cov.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(cov).max()))
        ):
            raise InvalidCovarianceError("covariance matrix is not symmetric")
        if gated and np.any(np.diag(cov) < 0.0):
            raise InvalidCovarianceError("covariance matrix has a negative diagonal entry")
        with np.errstate(over="ignore"):
            trace = float(np.trace(cov))
        if not math.isfinite(trace):  # the bound below would be -inf and accept anything
            raise InvalidCovarianceError("covariance matrix trace overflows to inf")
        if gated:
            # PSD up to rounding noise: the smallest eigenvalue may be a hair below zero
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
        # bank's rest-of-system variance from it without an (n-1)^2 sum.  It
        # may overflow where a bank's rest of the system does not.
        with np.errstate(over="ignore"):
            object.__setattr__(self, "_total", float(cov.sum()))
        object.__setattr__(self, "_index", {label: i for i, label in enumerate(self.labels)})
        object.__setattr__(self, "_moments", _bank_moments(self.means, self.covariance))

    def index_of(self, bank: str) -> int:
        try:
            return self._index[bank]
        except KeyError:
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
        tell its position, such as piped stdin, is read into memory first;
        so is a path that cannot seek, such as a FIFO.

    Raises
    ------
    PanelFormatError
        On text that is not UTF-8, ragged rows, non-numeric or non-finite
        cells (including Python-only float syntax such as ``1_0``), duplicate
        or empty labels, or fewer than three data rows; messages name the
        offending row and column.

    Notes
    -----
    A plain body (see :func:`_parse_plain`) is parsed by one ``np.loadtxt``
    call, which reads a regular file by its name.  Any other body, and any
    body that call rejects, is read again from the start by
    :func:`_parse_exact`, which alone decides what is accepted and words
    every error.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            opened = os.fstat(handle.fileno())
            by_name = (
                stat.S_ISREG(opened.st_mode)
                and Path(source).suffix.lower() not in _COMPRESSED_SUFFIXES
            )
            return _load(handle, (os.path.abspath(source), _identity(opened)) if by_name else None)
    return _load(source, None)


def _identity(status: os.stat_result) -> tuple[int, int, int, int]:
    """What tells one version of a file from another: device, inode, size, mtime."""
    return status.st_dev, status.st_ino, status.st_size, status.st_mtime_ns


def _load(source: IO[str], name: Optional[tuple[str, tuple[int, ...]]]) -> ReturnPanel:
    """The panel of ``source``; ``name`` is the path and identity of the file it reads, if any."""
    try:
        start = source.tell()
    except OSError:  # a pipe, a FIFO, or a file already read with next(): keep what is left
        try:
            source = io.StringIO(source.read())
        except UnicodeDecodeError as exc:
            raise PanelFormatError(f"input is not UTF-8 text: {exc}") from None
        start, name = 0, None
    width, skip_first, labels = _read_header(_csv_rows(source))
    observations = _parse_plain(source, start, name, width, skip_first)
    if observations is None:
        source.seek(start)
        labels, observations = _parse_exact(source)
    observations.flags.writeable = False  # fresh: ReturnPanel need not copy it
    return ReturnPanel(labels=labels, observations=observations)


def _csv_rows(source: IO[str]) -> Iterator[list[str]]:
    """The ``csv`` rows of ``source``, read one at a time as they are asked for.

    A row that ``csv`` cannot split (a cell over the csv field limit, for
    one) raises PanelFormatError naming the row, counted from 1 like every
    other row number in a panel error.  So does text that is not UTF-8; a
    stream decodes a block of text ahead, so the bad byte may be in a later
    row than the one named.
    """
    row_no = 1
    try:
        for row in csv.reader(source):
            yield row
            row_no += 1
    except csv.Error as exc:
        raise PanelFormatError(f"unreadable row {row_no}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise PanelFormatError(f"input is not UTF-8 text at row {row_no} or later: {exc}") from None


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
    if len(set(labels)) != len(labels):
        duplicates = {label for label in labels if labels.count(label) > 1}
        raise PanelFormatError(f"duplicate bank labels: {sorted(duplicates)}")
    return len(header), skip_first, tuple(labels)


def _plain_commas(source: IO[str]) -> Optional[int]:
    """The number of commas in the rest of ``source`` if that text is plain, else None.

    Plain text is ASCII and holds no ``"``, no NUL or U+001C..U+001F (which
    ``np.loadtxt`` strips around a number and ``float()`` does not), no
    ``\\r`` outside a ``\\r\\n`` and no line longer than the csv field limit.
    The text is read to its end a chunk at a time, never whole.
    """
    limit = csv.field_size_limit()
    commas = 0
    line = 0  # characters of the current line read so far
    try:
        while chunk := source.read(_CHUNK_CHARS):
            if chunk[-1] == "\r":
                chunk += source.read(1)  # a "\r\n" is checked in one chunk
            if (
                not chunk.isascii() or '"' in chunk
                or any(char in chunk for char in "\x00\x1c\x1d\x1e\x1f")
            ):
                return None
            codes = np.frombuffer(chunk.encode("ascii"), np.uint8)
            if "\r" in chunk:
                returns = codes == ord("\r")
                if returns[-1] or (returns[:-1] & (codes[1:] != ord("\n"))).any():
                    return None
            # csv rejects a cell over its field limit: no line may be that long
            first, last = chunk.find("\n"), chunk.rfind("\n")
            if line + (len(chunk) if first < 0 else first) > limit or (
                len(chunk) > limit and max(map(len, chunk.split("\n"))) > limit
            ):
                return None
            line = line + len(chunk) if last < 0 else len(chunk) - last - 1
            commas += int(np.count_nonzero(codes == ord(",")))
    except UnicodeDecodeError:
        return None
    return commas


def _parse_plain(
    source: IO[str],
    start: int,
    name: Optional[tuple[str, tuple[int, ...]]],
    width: int,
    skip_first: bool,
) -> Optional[np.ndarray]:
    """The body of ``source`` as a T x n array from one ``np.loadtxt`` call, or None.

    The body must be plain (see :func:`_plain_commas`) and the header line
    free of ``"``, since ``csv`` may join lines into a quoted header and
    ``np.loadtxt`` skips one line.  In such text ``csv`` splits every line at
    its commas alone, and ``np.loadtxt`` reads each cell to the same double
    as ``float()`` or rejects it.  It also rejects a row with fewer cells than
    the header, so a body with ``(width - 1) * rows`` commas has no row with
    more.

    ``np.loadtxt`` gets ``max_rows = commas // (width - 1) + 1``.  Had it
    stopped there, its rows would need more commas than the body holds and
    that comma count would reject them, so the bound cuts no row off a body
    that is accepted.  It lets ``np.loadtxt`` allocate its result once, at
    the panel's size, instead of growing it as it reads.  A one-column body
    has no commas and gets no bound.

    A regular file named by ``name`` is read by ``np.loadtxt`` from its path,
    in numpy's C reader; its identity must still be the one it had when
    ``source`` opened it, so that numpy reads the text the guard read.  Any
    other source is read from the line after its header.

    None means the text is not plain, holds a cell that is not a finite
    number, or has fewer than three rows: the exact loop must decide and word
    the error.
    """
    commas = _plain_commas(source)
    if commas is None:
        return None
    source.seek(start)
    if '"' in source.readline():
        return None
    if name is not None:
        path, identity = name
        if _identity(os.stat(path)) != identity:
            return None
    try:
        with warnings.catch_warnings():
            # a header-only body: the exact loop reports it as too few rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # a blank line, which max_rows does not count
            warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
            observations = np.loadtxt(
                source if name is None else path,
                delimiter=",",
                comments=None,
                skiprows=0 if name is None else 1,
                max_rows=commas // (width - 1) + 1 if width > 1 else None,
                usecols=range(1, width) if skip_first else None,
                ndmin=2,
                encoding="latin-1",  # the header may be any UTF-8; the body is ASCII
            )
    except ValueError:
        return None
    rows = observations.shape[0]
    if commas != (width - 1) * rows or rows < _MIN_ROWS or not _all_finite(observations):
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

    A zero-variance column is legal here, with no Python warning:
    :func:`pair_for_bank` rejects such a bank, by name, with
    :class:`DegenerateBankError` if it is singled out.  A column whose
    observations are all equal has zero variance and zero covariances,
    exactly: the rounding noise of its mean does not make it a bank.

    The covariance skips :class:`MomentEstimate`'s symmetry, diagonal and
    PSD gates: ``X'X / (T-1)`` of the centred panel, with constant columns
    zeroed, is PSD by construction and exactly symmetric, since numpy
    computes each block's ``X'X`` as one triangle (BLAS ``syrk``) and mirrors
    it.  A non-finite entry or trace is still rejected.

    Only a panel with T >= 4096 + 2n, where that costs less than a centred
    copy, is split into blocks; any other is one block, and its covariance is
    ``np.cov``'s to the bit.  ``X'X`` of a split panel is summed over blocks
    of 16 KiB of centred rows, or of n rows where that is more:
    analyze holds the panel, the covariance and about 16 KiB more.
    """
    obs = panel.observations
    t, n = obs.shape
    split = t >= _SPLIT_ROWS + 2 * n
    block = np.empty((max(_BLOCK_BYTES // (8 * n), n) if split else t, n))
    # an overflow (or the inf - inf of two blocks' sums): a huge constant
    # column's squared noise, zeroed below, or what _admit rejects
    with np.errstate(over="ignore", invalid="ignore"):
        means = obs.mean(axis=0)
        for start in range(0, t, len(block)):
            part = np.subtract(obs[start:start + len(block)], means, out=block[:t - start])
            gram = np.dot(part.T, part)  # syrk: one triangle, mirrored, so exactly symmetric
            if start:
                cov += gram
            else:
                cov = gram
    del block, part, gram  # the covariance alone is needed past here
    cov *= np.true_divide(1, t - 1)
    # A constant column's sample sd is rounding noise of its mean, far below
    # T * |mean| * 1e-10, or inf; only such columns are compared value by value.
    diag = np.diag(cov)
    suspect = np.flatnonzero((np.sqrt(diag) <= 1e-10 * t * np.abs(means)) | np.isinf(diag))
    constant = suspect[(obs[:, suspect] == obs[0, suspect]).all(axis=0)]
    cov[constant, :] = 0.0
    cov[:, constant] = 0.0
    means.flags.writeable = False  # fresh: MomentEstimate need not copy them
    cov.flags.writeable = False
    est = object.__new__(MomentEstimate)
    vars(est).update(labels=panel.labels, means=means, covariance=cov, sample_size=panel.sample_size)
    est._admit(means, cov, gated=False)
    return est


def _bank_moments(means: np.ndarray, cov: np.ndarray) -> list[tuple[float, float, float, float]]:
    """``(mu_i, mu_a, var_i, cov_ia)`` of every bank, as Python floats.

    ``mu_a`` and ``cov_ia`` are the bank's sums over the other banks, of the
    means and of its covariance row, taken in one pass over the covariance in
    blocks of ``_REST_BYTES`` of rows.  Each row, its diagonal entry dropped,
    is summed along a contiguous axis, which numpy does pairwise as it sums a
    1-d array: the double ``np.concatenate((row[:i], row[i + 1:])).sum()``
    gives.  An overflowing sum is left to GaussianPair to reject when its bank
    is asked for, without a numpy warning.
    """
    n = len(means)
    rows = max(_REST_BYTES // (8 * n), 1)
    mu_a, cov_ia = np.empty(n), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, rows):
            block = cov[start:start + rows]
            k = len(block)
            keep = ~np.eye(k, n, start, dtype=bool)  # each row but its diagonal entry
            mu_a[start:start + k] = np.broadcast_to(means, (k, n))[keep].reshape(k, -1).sum(axis=1)
            cov_ia[start:start + k] = block[keep].reshape(k, -1).sum(axis=1)
    return list(zip(means.tolist(), mu_a.tolist(), cov.diagonal().tolist(), cov_ia.tolist()))


def pair_for_bank(est: MomentEstimate, bank: str) -> GaussianPair:
    """Build the (bank, rest-of-system) Gaussian pair for one bank.

    The rest of the system is the equally-weighted *sum* of all other bank
    series, so its moments aggregate additively: ``mu_a`` is the sum of the
    other means, ``var_a`` the full quadratic form of the other rows and
    columns, ``cov_ia`` the sum of the bank's covariances with each other
    bank.

    The sums over the other banks, of the means and of the bank's covariance
    row, and the total ``1'.cov.1`` were taken when ``est`` was built (see
    :func:`_bank_moments`), so each bank is scalar arithmetic on Python
    floats: ``var_a = 1'.cov.1 - 2 cov_ia - var_i``.  That difference cancels
    when the bank carries most of the system variance, and is not finite when
    the total overflows; then ``var_a`` is summed over the other banks' block
    instead, at O(n^2) for that bank.
    """
    idx = est.index_of(bank)
    if len(est.labels) < 2:
        raise DegenerateModelError(
            "panel has a single bank: there is no rest-of-system to aggregate"
        )
    mu_i, mu_a, var_i, cov_ia = est._moments[idx]
    if var_i <= 0.0:
        raise DegenerateBankError(f"bank {bank!r} has zero sample variance")
    var_a = est._total - 2.0 * cov_ia - var_i
    if not math.isfinite(var_a) or (
        abs(est._total) + 2.0 * abs(cov_ia) + var_i > _CANCELLATION_LIMIT * var_a
    ):
        with np.errstate(over="ignore"):  # an inf var_a is the pair's error
            var_a = float(np.delete(np.delete(est.covariance, idx, axis=0), idx, axis=1).sum())
    return GaussianPair(mu_i=mu_i, mu_a=mu_a, var_i=var_i, var_a=var_a, cov_ia=cov_ia)
