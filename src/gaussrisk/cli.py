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
import csv
import dataclasses
import json
import re
import sys
import unicodedata
from typing import Iterator, Optional

from .errors import DegenerateModelError, DomainError, GaussRiskError, PanelFormatError
from .estimation import MomentEstimate, estimate_moments, load_panel, pair_for_bank
from .measures import BankRiskReport, GaussianPair, full_report
from .mc import RNG_METHOD, McConfig, SharedDraw, validate_closed_forms
from .normal import RiskParams

# Column order of every analyze rendering; names are the stable JSON schema.
_REPORT_FIELDS = tuple(field.name for field in dataclasses.fields(BankRiskReport))
_TABLE_HEADERS = {
    "var_i": "VaR", "var_mean_i": "VaR_mean", "covar_ai": "CoVaR", "covare_ai": "CoVaRe",
    "delta_coll_var": "dCollVaR", "delta_coll_es": "dCollES", "delta_cond_var": "dCondVaR",
    "delta_contr_var": "dContrVaR", "var_contribution": "VaRContrib",
    "beta_ai": "beta_Ai", "beta_si": "beta_Si", "beta_is": "beta_iS", "rho": "rho",
}
_MODEL_FIELDS = tuple(field.name for field in dataclasses.fields(GaussianPair))
# One "%" call writes a whole analyze row (csv cells, json numbers); "%.12g"
# writes a float as format(value, ".12g") does.
_ROW_FORMAT = ",".join(["%.12g"] * len(_REPORT_FIELDS))
# An available analyze row as json.dumps(..., indent=2) lays it out; "%" fills
# its 14 slots in a third of the time str.format takes.
_JSON_ROW = (
    '    {\n      "bank": %s,\n      "available": true,\n      "statistics": {\n'
    + ",\n".join(f'        "{field}": %s' for field in _REPORT_FIELDS)
    + "\n      }\n    }"
)


def _fmt(value: Optional[float], spec: str) -> str:
    """``value`` in format ``spec``, or "n/a" for None; an exact -0.0 prints unsigned."""
    return "n/a" if value is None else format(value + 0.0, spec)


def _csv_cell(text: str) -> str:
    """``text`` as one RFC 4180 cell: quoted, its quotes doubled, if it holds ``,``, ``"``, CR or LF."""
    if any(char in text for char in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_value(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(_fmt(value, ".12g"))


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


def _select_banks(est: MomentEstimate, banks: Optional[str]) -> list[str]:
    if banks is None:
        return list(est.labels)
    try:  # one csv row, as the panel's header is read: a quoted label may hold a comma
        listed = next(csv.reader([banks]))
    except csv.Error as exc:
        raise DomainError(f"--banks is not one csv row: {exc}") from None
    selected = [bank.strip() for bank in listed if bank.strip()]
    if not selected:
        raise DomainError("--banks given but no labels listed")
    for bank in selected:
        est.index_of(bank)  # an unknown label raises UnknownBankError
    if len(set(selected)) < len(selected):
        repeated = next(bank for i, bank in enumerate(selected) if bank in selected[:i])
        raise DomainError(f"--banks lists bank {repeated!r} more than once")
    return selected


def _bank_pairs(args) -> Iterator[tuple[str, Optional[GaussianPair], str]]:
    """(bank, pair, "") per selected bank, or (bank, None, reason) for a skipped one."""
    if args.model is not None:
        if args.banks is not None:
            raise DomainError("--banks selects panel banks and cannot be used with --model")
        yield "model", _parse_model(args.model), ""
        return
    try:
        panel = load_panel(sys.stdin if args.input == "-" else args.input)
    except OSError as exc:  # a missing, unreadable or directory input, not a defect
        reason = exc.strerror or exc
        raise PanelFormatError(f"cannot read input {args.input!r}: {reason}") from None
    est = estimate_moments(panel)
    for bank in _select_banks(est, args.banks):
        try:
            yield bank, pair_for_bank(est, bank), ""
        except DegenerateModelError as exc:
            print(f"warning: bank {bank!r} skipped: {exc}", file=sys.stderr)
            yield bank, None, str(exc)


def _report_values(report: Optional[BankRiskReport]) -> list[Optional[float]]:
    if report is None:
        return [None] * len(_REPORT_FIELDS)
    return list(vars(report).values())  # the fields, set in _REPORT_FIELDS' order


def _table_label(bank: str) -> str:
    """``bank`` as the tables write it: its repr if it holds a character that does not print."""
    return bank if bank.isprintable() else repr(bank)


def _display_width(text: str) -> int:
    """Terminal columns of ``text``: 2 for a wide or fullwidth character, 0 for a combining mark."""
    return sum(
        0 if unicodedata.combining(c) else 1 + (unicodedata.east_asian_width(c) in ("W", "F"))
        for c in text
    )


def _render_analyze_table(rows) -> str:
    labels = [_table_label(bank) for bank, _, _ in rows]
    width = max([4] + [_display_width(label) for label in labels])
    cells = [[_fmt(v, ".6g") for v in _report_values(report)] for _, report, _ in rows]
    # each number column as wide as its longest cell, and at least 12
    widths = [max([12] + [len(row[k]) for row in cells]) for k in range(len(_REPORT_FIELDS))]
    headers = " ".join(f"{_TABLE_HEADERS[f]:>{w}}" for f, w in zip(_REPORT_FIELDS, widths))
    header = f"{'bank':<{width}} {headers}"
    lines = [header, "-" * len(header)]
    for label, row in zip(labels, cells):
        padding = " " * (width - _display_width(label))
        lines.append(f"{label}{padding} " + " ".join(f"{c:>{w}}" for c, w in zip(row, widths)))
    notes = [f"note: {label} skipped: {reason}"
             for label, (_, _, reason) in zip(labels, rows) if reason]
    return "\n".join(lines + notes)


def _row_cells(report: Optional[BankRiskReport]) -> str:
    """The report's fields as ``_fmt(value, ".12g")`` writes them, comma-separated."""
    values = _report_values(report)
    if None in values:
        return ",".join(_fmt(v, ".12g") for v in values)
    return _ROW_FORMAT % tuple([v + 0.0 for v in values])


def _json_numbers(cells: str) -> list[str]:
    """What ``json.dumps`` writes for each number of a ``_row_cells`` row."""
    numbers = cells.split(",")
    # a token with a "." and no exponent is already a json number ("n/a",
    # "inf" and "nan" hold no "."): a row of only such tokens is ready
    if cells.count(".") < len(numbers) or "e" in cells:
        return ["null" if token == "n/a" else json.dumps(float(token)) for token in numbers]
    return numbers


def _render_analyze_csv(rows) -> str:
    lines = ["bank," + ",".join(_REPORT_FIELDS)]
    for bank, report, _ in rows:
        lines.append(_csv_cell(bank) + "," + _row_cells(report))
    return "\n".join(lines)


def _render_analyze_json(rows, alpha: float) -> str:
    """``json.dumps({"alpha": alpha, "reports": [...]}, indent=2)``, written row by row."""
    reports = []
    for bank, report, reason in rows:
        if report is None:
            reports.append(
                f'    {{\n      "bank": {json.dumps(bank)},\n      "available": false,\n'
                f'      "reason": {json.dumps(reason)}\n    }}'
            )
        else:
            numbers = _json_numbers(_row_cells(report))
            reports.append(_JSON_ROW % (json.dumps(bank), *numbers))
    body = "[\n" + ",\n".join(reports) + "\n  ]" if reports else "[]"
    return f'{{\n  "alpha": {json.dumps(alpha)},\n  "reports": {body}\n}}'


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
            f"== {_table_label(bank)} "
            f"(alpha={config.alpha}, N={config.sample_count}, seed={config.seed})",
            header, "-" * len(header),
        ]
        for check in report.checks:
            if check.passed is None:
                status = f"skipped ({check.note})"
            else:
                status = "pass" if check.passed else "FAIL"
            lines.append(
                f"{check.name:<18} {_fmt(check.closed_form, '.6g'):>14} "
                f"{_fmt(check.empirical, '.6g'):>14} {_fmt(check.abs_error, '.6g'):>11} "
                f"{_fmt(check.tolerance, '.6g'):>11} {check.effective_tail_samples:>8}  {status}"
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
                f"{_csv_cell(bank)},{check.name},{_fmt(check.closed_form, '.12g')},"
                f"{_fmt(check.empirical, '.12g')},{_fmt(check.abs_error, '.12g')},"
                f"{_fmt(check.tolerance, '.12g')},{check.effective_tail_samples},"
                f"{status},{_csv_cell(check.note)}"
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
            "rng_method": RNG_METHOD,
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
    draw = SharedDraw(config)  # every bank maps the same draw
    labeled_reports = [(bank, validate_closed_forms(pair, draw)) for bank, pair in pairs]
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
        help="inline bank-vs-system model instead of a panel; a negative MU_I may "
        "follow a space or an '='",
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
        "--samples", type=int, default=McConfig.sample_count,
        help="Monte Carlo sample count (default %(default)s)",
    )
    validate.add_argument(
        "--bandwidth", type=float, default=McConfig.bandwidth,
        help="conditioning band half-width in stds (default %(default)s)",
    )
    validate.add_argument(
        "--seed", type=int, default=McConfig.seed, help="RNG seed (default %(default)s)"
    )
    validate.set_defaults(func=_cmd_validate)
    return parser


def _attach_negative_model(argv: list[str]) -> list[str]:
    """``argv`` with ``--model SPEC`` as ``--model=SPEC`` when SPEC starts with a negative number.

    argparse takes ``-0.01,0,1,1,0`` for an option, so ``--model`` would lose its value.
    The option may be any prefix argparse accepts for it, ``--m`` to ``--model``.
    """
    for i in reversed(range(1, len(argv))):
        option = argv[i - 1]
        if len(option) > 2 and "--model".startswith(option) and re.match(r"-\.?\d", argv[i]):
            argv = argv[:i - 1] + [f"--model={argv[i]}"] + argv[i + 1:]
    return argv


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_negative_model(argv))
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
