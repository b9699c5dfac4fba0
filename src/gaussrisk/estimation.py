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
import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

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

PanelSource = Union[str, Path, IO[str]]


def _freeze(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array, dtype=float)
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class ReturnPanel:
    """Labeled T x n matrix of per-bank observations."""

    labels: tuple[str, ...]
    observations: np.ndarray
    frequency: str = ""

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
        object.__setattr__(self, "observations", _freeze(obs))

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
        object.__setattr__(self, "means", _freeze(means))
        object.__setattr__(self, "covariance", _freeze(cov))
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


def load_panel(source: PanelSource, frequency: str = "") -> ReturnPanel:
    """Parse a CSV panel of per-bank observations.

    Parameters
    ----------
    source : path or open text stream
        First row is the header of bank labels.  A leading ``date`` column
        (header compared case-insensitively) is skipped.  A UTF-8
        byte-order mark before the header is dropped.
    frequency : str
        Free-text metadata recorded on the panel, e.g. ``"weekly"``.

    Raises
    ------
    PanelFormatError
        On ragged rows, non-numeric or non-finite cells (including Python-only
        float syntax such as ``1_0``), duplicate or empty labels, or fewer
        than three data rows; messages name the offending row and column.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8-sig", newline="") as handle:
            return load_panel(handle, frequency=frequency)

    reader = csv.reader(source)
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

    rows: list[list[float]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != len(header):
            raise PanelFormatError(
                f"ragged row {line_no}: expected {len(header)} cells, got {len(row)}"
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
    return ReturnPanel(labels=tuple(labels), observations=np.array(rows), frequency=frequency)


def estimate_moments(panel: ReturnPanel) -> MomentEstimate:
    """Column means and the unbiased (divisor T-1) sample covariance matrix.

    A zero-variance column is legal here and only triggers a
    :class:`DegenerateSeriesWarning`; :func:`pair_for_bank` rejects such a
    bank if it is actually singled out.
    """
    obs = panel.observations
    means = obs.mean(axis=0)
    cov = np.atleast_2d(np.cov(obs, rowvar=False, ddof=1))
    cov = 0.5 * (cov + cov.T)  # enforce exact symmetry; rounding only
    zero_variance = [label for label, v in zip(panel.labels, np.diag(cov)) if v == 0.0]
    for label in zero_variance:
        warnings.warn(
            f"bank {label!r} has zero sample variance", DegenerateSeriesWarning, stacklevel=2
        )
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
