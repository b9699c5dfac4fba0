"""Exception hierarchy for gaussrisk.

Errors are split by failure mode so callers can react precisely: a numeric
argument outside its domain, a degenerate model (zero variance where a
positive one is required), a covariance that is not positive semidefinite,
malformed panel input, and a violated internal cross-check.  Too few Monte
Carlo samples in a conditioning band or a tail is not an error to callers:
the oracle reports that statistic as skipped, with a note.
"""


class GaussRiskError(Exception):
    """Base class for every error raised by this package."""


class DomainError(GaussRiskError, ValueError):
    """A numeric argument is outside its mathematical domain."""


class DegenerateModelError(GaussRiskError, ValueError):
    """A variance that must be positive is zero or negative."""


class DegenerateSystemError(DegenerateModelError):
    """The aggregate system has zero variance (e.g. a perfect hedge)."""


class DegenerateBankError(DegenerateModelError):
    """A bank series has zero variance and cannot be singled out."""


class InvalidCovarianceError(GaussRiskError, ValueError):
    """A covariance matrix violates positive semidefiniteness."""


class UnknownBankError(GaussRiskError, KeyError):
    """A requested bank label does not exist in the panel."""


class PanelFormatError(GaussRiskError, ValueError):
    """Panel CSV input is malformed; the message names row and column."""


class ConsistencyError(GaussRiskError, RuntimeError):
    """Two independent derivations of the same statistic disagree."""


class _ThinSampleError(GaussRiskError, RuntimeError):
    """Too few (``count``) Monte Carlo samples in a band or tail: the oracle skips that check."""

    def __init__(self, message: str, count: int):
        super().__init__(message)
        self.count = count


class DegenerateSeriesWarning(UserWarning):
    """A panel column has zero sample variance; analyzing that bank will fail."""
