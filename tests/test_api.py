"""The public names of the package: a new or removed name is a deliberate edit here."""

from types import ModuleType

import gaussrisk
import gaussrisk.errors

PUBLIC_NAMES = [
    "BankRiskReport",
    "ConditionalMoments",
    "ConsistencyError",
    "DegenerateBankError",
    "DegenerateModelError",
    "DegenerateSystemError",
    "DomainError",
    "GaussRiskError",
    "GaussianPair",
    "InvalidCovarianceError",
    "McConfig",
    "MomentEstimate",
    "PanelFormatError",
    "ReturnPanel",
    "RiskParams",
    "StatisticCheck",
    "UnknownBankError",
    "ValidationReport",
    "conditional_moments",
    # empirical_quantile has no production caller (validate reads its quantiles
    # through mc._quantile_and_se), and sample_pair has one only until the
    # oracle gathers rows (ROADMAP item 13). Both stay public because
    # perfbench/tracing.py wraps each by name as a traced layer, and that file
    # changes only with the benchmark itself (ROADMAP item 12).
    "empirical_quantile",
    "estimate_moments",
    "full_report",
    "load_panel",
    "pair_for_bank",
    "sample_pair",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "validate_closed_forms",
]


def test_public_names_are_pinned():
    # submodules become package attributes as they are imported, so they are not counted
    exported = sorted(
        name for name, value in vars(gaussrisk).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert exported == PUBLIC_NAMES


def test_errors_module_defines_only_public_names():
    # a class the package raises and catches itself does not belong in the hierarchy callers see
    defined = [
        name for name, value in vars(gaussrisk.errors).items()
        if isinstance(value, type) and value.__module__ == gaussrisk.errors.__name__
    ]
    assert defined and set(defined) <= set(PUBLIC_NAMES)
