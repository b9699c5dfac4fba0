"""Exception hierarchy for gaussrisk.

Errors are split by failure mode so callers can react precisely: a numeric
argument outside its domain, a degenerate model (zero variance where a
positive one is required), a covariance that is not positive semidefinite,
malformed panel input, a violated internal cross-check, and Monte Carlo
preconditions (too few samples in a conditioning band or in a tail).
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
    """Too few Monte Carlo samples for a statistic; ``count`` is how many there were."""

    def __init__(self, message: str, count: int = 0):
        super().__init__(message)
        self.count = count


class ThinBandError(_ThinSampleError):
    """Too few Monte Carlo samples fall inside a conditioning band.

    Raise the sample count or the bandwidth to fix it.
    """


class ThinTailError(_ThinSampleError):
    """Too few Monte Carlo samples fall beyond the tail quantile."""


class DegenerateSeriesWarning(UserWarning):
    """A panel column has zero sample variance; analyzing that bank will fail."""
