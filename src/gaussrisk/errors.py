"""Exception hierarchy for gaussrisk.

Errors are split by failure mode so callers can react precisely: a numeric
argument outside its domain, a degenerate model (zero variance where a
positive one is required), a covariance that is not positive semidefinite,
malformed panel input, and a violated internal cross-check.  A Monte Carlo
band or tail too thin to check is no error: the oracle skips that statistic.
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
