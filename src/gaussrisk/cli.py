"""Command-line front end: per-bank risk reports and Monte Carlo validation.

Two subcommands:

``gaussrisk analyze``   turn a CSV panel or an inline model spec into one
                        risk-report row per bank (table, CSV, or JSON).
``gaussrisk validate``  run the Monte Carlo oracle against the closed forms.

Exit codes: 0 success, 1 validation failure, 2 usage or input error, or
stdout closed by its reader (no message), 3 internal error (a defect of the
program; one ``internal error:`` line).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import warnings
from typing import Iterator, Optional

from .errors import (
    DegenerateModelError,
    DegenerateSeriesWarning,
    DomainError,
    GaussRiskError,
    UnknownBankError,
)
from .estimation import MomentEstimate, estimate_moments, load_panel, pair_for_bank
from .measures import BankRiskReport, GaussianPair, full_report
from .mc import McConfig, standard_normals, validate_closed_forms
from .normal import RiskParams

# Column order of every analyze rendering; names are the stable JSON schema.
_REPORT_FIELDS = (
    "var_i", "var_mean_i", "covar_ai", "covare_ai",
    "delta_coll_var", "delta_coll_es", "delta_cond_var", "delta_contr_var",
    "var_contribution", "beta_ai", "beta_si", "beta_is", "rho",
)
_TABLE_HEADERS = (
    "VaR", "VaR_mean", "CoVaR", "CoVaRe",
    "dCollVaR", "dCollES", "dCondVaR", "dContrVaR",
    "VaRContrib", "beta_Ai", "beta_Si", "beta_iS", "rho",
)
_MODEL_FIELDS = ("mu_i", "mu_a", "var_i", "var_a", "cov_ia")


def _fmt(value: Optional[float], digits: int) -> str:
    if value is None:
        return "n/a"
    return f"{value + 0.0:.{digits}g}"  # + 0.0 folds -0.0 into 0.0


def _fixed(value: Optional[float], width: int) -> str:
    if value is None:
        return f"{'n/a':>{width}}"
    return f"{value + 0.0:>{width}.6f}"


def _json_value(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(f"{value + 0.0:.12g}")


def _parse_model(spec: str) -> GaussianPair:
    parts = [part.strip() for part in spec.split(",")]
    if len(parts) != 5:
        raise DomainError(
            f"--model expects MU_I,MU_A,VAR_I,VAR_A,COV (5 numbers), got {len(parts)} fields"
        )
    values = {}
    for name, part in zip(_MODEL_FIELDS, parts):
        try:
            values[name] = float(part)
        except ValueError:
            raise DomainError(f"--model field {name} is not a number: {part!r}") from None
    return GaussianPair(**values)


def _load_estimate(path: str) -> MomentEstimate:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # a selected zero-variance bank gets its own "skipped" warning line
        warnings.simplefilter("ignore", DegenerateSeriesWarning)
        if path == "-":
            panel = load_panel(sys.stdin)
        else:
            panel = load_panel(path)
        est = estimate_moments(panel)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return est


def _select_banks(labels: tuple[str, ...], banks: Optional[str]) -> list[str]:
    if banks is None:
        return list(labels)
    selected = [bank.strip() for bank in banks.split(",") if bank.strip()]
    if not selected:
        raise DomainError("--banks given but no labels listed")
    for bank in selected:
        if bank not in labels:
            raise UnknownBankError(f"unknown bank label {bank!r}")
    return selected


def _bank_pairs(args) -> Iterator[tuple[str, Optional[GaussianPair], str]]:
    """(bank, pair, "") per selected bank, or (bank, None, reason) for a skipped one."""
    if args.model is not None:
        yield "model", _parse_model(args.model), ""
        return
    est = _load_estimate(args.input)
    for bank in _select_banks(est.labels, args.banks):
        try:
            yield bank, pair_for_bank(est, bank), ""
        except DegenerateModelError as exc:
            print(f"warning: bank {bank!r} skipped: {exc}", file=sys.stderr)
            yield bank, None, str(exc)


def _report_values(report: Optional[BankRiskReport]) -> list[Optional[float]]:
    if report is None:
        return [None] * len(_REPORT_FIELDS)
    return [getattr(report, field) for field in _REPORT_FIELDS]


def _render_analyze_table(rows) -> str:
    width = max([4] + [len(bank) for bank, _, _ in rows])
    header = f"{'bank':<{width}} " + " ".join(f"{h:>12}" for h in _TABLE_HEADERS)
    lines = [header, "-" * len(header)]
    notes = []
    for bank, report, reason in rows:
        cells = " ".join(f"{_fmt(v, 6):>12}" for v in _report_values(report))
        lines.append(f"{bank:<{width}} {cells}")
        if reason:
            notes.append(f"note: {bank} skipped: {reason}")
    return "\n".join(lines + notes)


def _render_analyze_csv(rows) -> str:
    lines = ["bank," + ",".join(_REPORT_FIELDS)]
    for bank, report, _ in rows:
        lines.append(bank + "," + ",".join(_fmt(v, 12) for v in _report_values(report)))
    return "\n".join(lines)


def _render_analyze_json(rows, alpha: float) -> str:
    reports = []
    for bank, report, reason in rows:
        if report is None:
            reports.append({"bank": bank, "available": False, "reason": reason})
        else:
            statistics = {
                field: _json_value(value)
                for field, value in zip(_REPORT_FIELDS, _report_values(report))
            }
            reports.append({"bank": bank, "available": True, "statistics": statistics})
    return json.dumps({"alpha": alpha, "reports": reports}, indent=2)


def _cmd_analyze(args) -> int:
    params = RiskParams(args.alpha)
    rows = [
        (bank, None if pair is None else full_report(pair, params), reason)
        for bank, pair, reason in _bank_pairs(args)
    ]
    if args.format == "table":
        print(_render_analyze_table(rows))
    elif args.format == "csv":
        print(_render_analyze_csv(rows))
    else:
        print(_render_analyze_json(rows, args.alpha))
    return 0


def _render_validate_table(labeled_reports) -> str:
    header = (
        f"{'statistic':<18} {'closed_form':>14} {'empirical':>14} "
        f"{'abs_error':>11} {'tolerance':>11} {'tail_n':>8}  status"
    )
    lines = []
    for bank, report in labeled_reports:
        config = report.config
        lines += [
            f"== {bank} (alpha={config.alpha}, N={config.sample_count}, seed={config.seed})",
            header, "-" * len(header),
        ]
        for check in report.checks:
            if check.passed is None:
                status = f"skipped ({check.note})"
            else:
                status = "pass" if check.passed else "FAIL"
            lines.append(
                f"{check.name:<18} {_fixed(check.closed_form, 14)} "
                f"{_fixed(check.empirical, 14)} {_fixed(check.abs_error, 11)} "
                f"{_fixed(check.tolerance, 11)} {check.effective_tail_samples:>8}  {status}"
            )
        lines.append(
            f"overall: {'pass' if report.all_passed else 'FAIL'} "
            f"({len(report.evaluated)}/{len(report.checks)} statistics evaluated)"
        )
    return "\n".join(lines)


def _render_validate_csv(labeled_reports) -> str:
    lines = [
        "bank,statistic,closed_form,empirical,abs_error,tolerance,"
        "effective_tail_samples,pass,note"
    ]
    for bank, report in labeled_reports:
        for check in report.checks:
            status = "" if check.passed is None else str(check.passed).lower()
            lines.append(
                f"{bank},{check.name},{_fmt(check.closed_form, 12)},"
                f"{_fmt(check.empirical, 12)},{_fmt(check.abs_error, 12)},"
                f"{_fmt(check.tolerance, 12)},{check.effective_tail_samples},"
                f"{status},{check.note}"
            )
    return "\n".join(lines)


def _render_validate_json(labeled_reports) -> str:
    reports = []
    for bank, report in labeled_reports:
        statistics = [
            {
                "name": check.name,
                "closed_form": _json_value(check.closed_form),
                "empirical": _json_value(check.empirical),
                "abs_error": _json_value(check.abs_error),
                "tolerance": _json_value(check.tolerance),
                "effective_tail_samples": check.effective_tail_samples,
                "pass": check.passed,
                "note": check.note,
            }
            for check in report.checks
        ]
        reports.append({
            "bank": bank,
            "model": {name: getattr(report.pair, name) + 0.0 for name in _MODEL_FIELDS},
            "config": dict(vars(report.config)),  # McConfig's fields, in their order
            "rng_method": report.rng_method,
            "all_passed": report.all_passed,
            "statistics": statistics,
        })
    return json.dumps({"reports": reports}, indent=2)


def _cmd_validate(args) -> int:
    config = McConfig(
        sample_count=args.samples, bandwidth=args.bandwidth, seed=args.seed, alpha=args.alpha
    )
    pairs = [(bank, pair) for bank, pair, _ in _bank_pairs(args) if pair is not None]
    if not pairs:
        raise DegenerateModelError("no analyzable banks in the panel")
    normals = standard_normals(config)  # every bank maps the same draw
    labeled_reports = [
        (bank, validate_closed_forms(pair, config, normals)) for bank, pair in pairs
    ]
    if args.format == "table":
        print(_render_validate_table(labeled_reports))
    elif args.format == "csv":
        print(_render_validate_csv(labeled_reports))
    else:
        print(_render_validate_json(labeled_reports))
    return 0 if all(report.all_passed for _, report in labeled_reports) else 1


def _add_common_arguments(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input", metavar="PATH",
        help="CSV panel of per-bank observations ('-' reads stdin)",
    )
    source.add_argument(
        "--model", metavar="MU_I,MU_A,VAR_I,VAR_A,COV",
        help="inline bank-vs-system model instead of a panel",
    )
    sub.add_argument("--alpha", type=float, default=0.99, help="VaR threshold (default 0.99)")
    sub.add_argument(
        "--format", choices=("table", "csv", "json"), default="table",
        help="output format (default table)",
    )
    sub.add_argument("--banks", metavar="A,B,...", help="restrict panel analysis to these banks")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussrisk",
        description="Systemic-risk statistics of a Gaussian bank-vs-system model.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="per-bank risk report")
    _add_common_arguments(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    validate = subparsers.add_parser(
        "validate", help="Monte Carlo check of every closed form"
    )
    _add_common_arguments(validate)
    validate.add_argument(
        "--samples", type=int, default=2_000_000, help="Monte Carlo sample count"
    )
    validate.add_argument(
        "--bandwidth", type=float, default=0.05,
        help="conditioning band half-width in stds (default 0.05)",
    )
    validate.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # `| head` closed stdout: not a defect.  Closing the stream drops the
        # unwritten rest, which the interpreter would otherwise fail to flush.
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
        return 2
    except GaussRiskError as exc:
        # args[0], not str(exc): str() of a KeyError subclass adds quotes
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect, not bad input: keep it apart from exits 1 and 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
