"""Closed-form systemic-risk statistics for a Gaussian bank-vs-system model.

A bivariate Gaussian model of one bank against the rest of the banking
system yields closed forms for CoVaR-style conditional VaR statistics, the
stressed-minus-unstressed differences built from them, the expected-
shortfall spillover, and the Euler VaR contribution.  The package bundles
the closed forms (:mod:`gaussrisk.measures`), moment estimation from return
panels (:mod:`gaussrisk.estimation`), a seeded Monte Carlo oracle that
verifies every formula by simulation (:mod:`gaussrisk.mc`), and a reporting
CLI (:mod:`gaussrisk.cli`).
"""

from .errors import (
    ConsistencyError,
    DegenerateBankError,
    DegenerateModelError,
    DegenerateSystemError,
    DomainError,
    GaussRiskError,
    InvalidCovarianceError,
    PanelFormatError,
    UnknownBankError,
)
from .estimation import (
    MomentEstimate,
    ReturnPanel,
    estimate_moments,
    load_panel,
    pair_for_bank,
)
from .measures import BankRiskReport, GaussianPair, full_report
from .mc import (
    McConfig,
    StatisticCheck,
    ValidationReport,
    empirical_quantile,
    sample_pair,
    validate_closed_forms,
)
from .normal import (
    ConditionalMoments,
    RiskParams,
    conditional_moments,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)

__version__ = "0.1.0"
