import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import unicodedata
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gaussrisk.cli
from gaussrisk.cli import main
from gaussrisk.estimation import _SPLIT_ROWS, estimate_moments, load_panel, pair_for_bank
from gaussrisk.mc import RNG_METHOD, McConfig, SharedDraw, validate_closed_forms
from gaussrisk.measures import BankRiskReport, GaussianPair, full_report
from gaussrisk.normal import RiskParams

from helpers import bias_validated_closed_forms

SRC = str(Path(gaussrisk.cli.__file__).parents[1])  # where the package under test lives


@pytest.fixture
def panel_path(tmp_path):
    rows = ["date,A,B,C"]
    values = [
        (0.01, 0.02, -0.005),
        (-0.02, 0.01, 0.015),
        (0.03, -0.01, 0.002),
        (0.00, 0.02, -0.011),
        (0.015, -0.004, 0.007),
        (-0.007, 0.013, 0.004),
    ]
    for day, (a, b, c) in enumerate(values, start=1):
        rows.append(f"2020-01-{day:02d},{a},{b},{c}")
    path = tmp_path / "panel.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_piped(argv, text=""):
    """``main(argv)`` in process with ``text`` on stdin: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


class TestAnalyzeModel:
    def test_independent_unit_model_at_0999(self, capsys):
        code, out, _ = run(capsys, ["analyze", "--model", "0,0,1,1,0", "--alpha", "0.999"])
        assert code == 0
        row = [line for line in out.splitlines() if line.startswith("model")][0]
        assert "-3.09023" in row  # VaR at the 0.999 threshold
        cells = row.split()
        assert cells[5] == "0"  # spillover vanishes under independence

    def test_json_round_trips_library_values(self, capsys):
        code, out, _ = run(
            capsys, ["analyze", "--model", "0.1,0.2,1,4,1", "--alpha", "0.99", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == 0.99
        (entry,) = payload["reports"]
        assert entry["bank"] == "model"
        assert entry["available"] is True
        report = full_report(GaussianPair(0.1, 0.2, 1.0, 4.0, 1.0), RiskParams(0.99))
        for field, value in entry["statistics"].items():
            expected = getattr(report, field)
            assert value == pytest.approx(expected, rel=1e-11), field

    def test_csv_and_json_agree_to_printed_precision(self, capsys):
        args = ["analyze", "--model", "0.1,0.2,1,4,1"]
        code, csv_out, _ = run(capsys, args + ["--format", "csv"])
        assert code == 0
        code, json_out, _ = run(capsys, args + ["--format", "json"])
        assert code == 0
        header, data = csv_out.strip().splitlines()
        csv_values = dict(zip(header.split(","), data.split(",")))
        statistics = json.loads(json_out)["reports"][0]["statistics"]
        for field, value in statistics.items():
            assert float(csv_values[field]) == pytest.approx(value, rel=1e-11), field

    def test_json_output_deterministic(self, capsys):
        args = ["analyze", "--model", "0.1,0.2,1,4,1", "--format", "json"]
        _, first, _ = run(capsys, args)
        _, second, _ = run(capsys, args)
        assert first == second

    def test_csv_identity_to_printed_precision(self, capsys):
        code, out, _ = run(capsys, ["analyze", "--model", "0,0,1,4,1", "--format", "csv"])
        assert code == 0
        header, data = out.strip().splitlines()
        row = dict(zip(header.split(","), data.split(",")))
        # dCondVaR = dCollVaR + VaR_mean on the printed 12-digit values
        assert float(row["delta_cond_var"]) == pytest.approx(
            float(row["delta_coll_var"]) + float(row["var_mean_i"]), abs=1e-9
        )

    def test_table_identity_to_displayed_precision(self, capsys):
        code, out, _ = run(capsys, ["analyze", "--model", "0.1,0.2,1,4,1"])
        assert code == 0
        header_cells = out.splitlines()[0].split()
        data_cells = out.splitlines()[2].split()
        row = dict(zip(header_cells, data_cells))
        var_mean = float(row["VaR_mean"])
        d_coll = float(row["dCollVaR"])
        d_cond = float(row["dCondVaR"])
        # identity holds on the 6-significant-digit table values up to their rounding
        assert abs(d_cond - (d_coll + var_mean)) <= 5e-6 * (abs(d_cond) + abs(d_coll) + abs(var_mean))

    def test_tiny_variances_give_finite_rho(self, capsys):
        # var_i * var_a underflows to 0; rho must not divide by it
        code, out, err = run(capsys, ["analyze", "--model", "0,0,1e-300,1e-300,0", "--format", "json"])
        assert code == 0, err
        rho = json.loads(out)["reports"][0]["statistics"]["rho"]
        assert rho == 0.0

    def test_rho_minus_one_within_the_slack_is_reported(self, capsys):
        # cov_ia**2 exceeds var_i * var_a by 2.5e-15 relative, inside the PSD slack
        code, out, err = run(
            capsys, ["analyze", "--model", "0,0,1,1.0000001,-1.00000005", "--format", "json"]
        )
        assert (code, err) == (0, "")
        statistics = json.loads(out)["reports"][0]["statistics"]
        assert statistics["rho"] == -1.0
        # the rho = -1 limit: the system is -5e-8 times the bank, so its stress lifts the bank by q sds
        assert statistics["delta_contr_var"] == pytest.approx(RiskParams(0.99).quantile, rel=1e-9)

    def test_tiny_invalid_covariance_is_rejected(self, capsys):
        # rho = 5: cov_ia**2 and var_i * var_a both underflow to 0, sds do not
        code, out, err = run(capsys, ["analyze", "--model=0,0,1e-200,1e-200,5e-200"])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: .* not a valid covariance matrix\n", err)

    def test_tiny_rho_minus_one_model_reports_its_conditional_sd(self, capsys):
        # rho = -1 at variances near 1e-270: the rest of the system is a fixed
        # multiple of the bank, so it has no sd left given the bank
        model = "0,0,1.814717748474295e-273,1.3023192742846255e-270,-4.861421501191265e-272"
        code, out, err = run(capsys, ["analyze", f"--model={model}", "--format", "csv"])
        assert (code, err) == (0, "")
        row = dict(zip(*(line.split(",") for line in out.splitlines())))
        assert (row["covar_ai"], row["covare_ai"]) == ("2.65480967829e-135", "0")

    def test_subnormal_model_reports_without_a_false_cross_check(self, capsys):
        # std_i * std_a is subnormal; rho divides by each sd in turn
        code, out, err = run(capsys, ["analyze", "--model=0,0,5.02363e-318,5e-324,-3.656e-321"])
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "model, row",
        [
            ("0,0,5e-324,1e300,0",
             "model,-5.17091009137e-162,-5.17091009137e-162,-2.32634787404e+150,"
             "-2.32634787404e+150,0,0,-5.17091009137e-162,0,0,0,1,0,0"),
            ("0,0,1e-320,1e300,1e-160",
             "model,-2.3263349246e-160,-2.3263349246e-160,-2.32634787404e+150,"
             "-2.32634787404e+150,-2.32636082355,-2.66522905614,-2.32636082355,"
             "-2.32634787404e-310,-2.32634787404e-310,1.00001113294e+160,1.00001113294e+160,"
             "0,1.00000556646e-150"),
        ],
        ids=["subnormal-bank", "overflowing-route"],
    )
    def test_sd_ratio_past_the_double_range_reports(self, capsys, model, row):
        # sd_s / sd_i is 1e310 or more: no cross-check route may pass through it
        code, out, err = run(capsys, ["analyze", f"--model={model}", "--format", "csv"])
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == row

    def test_subnormal_invalid_covariance_is_rejected(self, capsys):
        # |cov_ia| / sd_i exceeds sd_a by 0.05 %
        code, out, err = run(capsys, ["analyze", "--model=0,0,1.443e-320,8.4e-322,-3.483e-321"])
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: [^\n]* not a valid covariance matrix\n", err)

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_model_whose_variance_product_overflows_reports(self, capsys, command):
        # var_i * var_a is 1e400, but no statistic nor sample overflows
        extra = ["--samples", "200000"] if command == "validate" else []
        code, out, err = run(capsys, [command, "--model=0,0,1e200,1e200,5e199"] + extra)
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "model", ["1,2,3", "a,b,c,d,e", "0,0,0,1,0", "0,0,1,1,5"]
    )
    def test_bad_model_specs_exit_2(self, capsys, model):
        code, _, err = run(capsys, ["analyze", "--model", model])
        assert code == 2
        assert "error:" in err


    def test_csv_header_is_the_report_field_order(self, capsys):
        code, out, _ = run(capsys, ["analyze", "--model", "0.1,0.2,1,4,1", "--format", "csv"])
        assert code == 0
        fields = [field.name for field in dataclasses.fields(BankRiskReport)]
        assert out.splitlines()[0].split(",") == ["bank"] + fields

    def test_every_report_field_has_one_table_header(self):
        assert set(gaussrisk.cli._TABLE_HEADERS) == set(gaussrisk.cli._REPORT_FIELDS)

    def test_a_report_holds_its_fields_and_nothing_else_in_order(self):
        # the renderers read a report's values from its __dict__, in field order
        report = full_report(GaussianPair(0.1, 0.2, 1.0, 4.0, 1.0), RiskParams(0.99))
        assert list(vars(report)) == list(gaussrisk.cli._REPORT_FIELDS)

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_negative_first_field_reads_the_same_after_a_space(self, capsys, command):
        # argparse would take "-0.01,..." for an option; it must read as --model=-0.01,...
        extra = ["--samples", "20000", "--seed", "3"] if command == "validate" else []
        spaced = run(capsys, [command, "--model", "-0.01,0,1,1,0.5", "--format", "json"] + extra)
        joined = run(capsys, [command, "--model=-0.01,0,1,1,0.5", "--format", "json"] + extra)
        assert spaced == joined
        assert spaced[0] == 0
        assert json.loads(spaced[1])["reports"][0]["bank"] == "model"

    def test_option_after_model_stays_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--model", "--alpha", "0.9"])
        assert excinfo.value.code == 2
        assert "argument --model: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--mod", "--m"])
    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_abbreviated_option_reads_a_negative_model(self, capsys, command, option):
        extra = ["--samples", "20000", "--seed", "3"] if command == "validate" else []
        abbreviated = run(capsys, [command, option, "-0.01,0,1,1,0.5", "--format", "json"] + extra)
        joined = run(capsys, [command, "--model=-0.01,0,1,1,0.5", "--format", "json"] + extra)
        assert abbreviated == joined
        assert abbreviated[0] == 0

    def test_option_after_abbreviated_model_stays_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--mod", "--alpha", "0.9"])
        assert excinfo.value.code == 2
        assert "argument --model: expected one argument" in capsys.readouterr().err

    def test_stdin_dash_is_not_an_abbreviation(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--input", "-", "-0.5"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: -0.5" in capsys.readouterr().err


class TestAnalyzePanel:
    def test_reports_every_bank(self, capsys, panel_path):
        code, out, _ = run(capsys, ["analyze", "--input", panel_path, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert [entry["bank"] for entry in payload["reports"]] == ["A", "B", "C"]
        assert all(entry["available"] for entry in payload["reports"])

    def test_bank_filter_and_order(self, capsys, panel_path):
        code, out, _ = run(
            capsys, ["analyze", "--input", panel_path, "--banks", "C,A", "--format", "csv"]
        )
        assert code == 0
        banks = [line.split(",")[0] for line in out.strip().splitlines()[1:]]
        assert banks == ["C", "A"]

    def test_unknown_bank_exits_2(self, capsys, panel_path):
        code, _, err = run(capsys, ["analyze", "--input", panel_path, "--banks", "A,Z"])
        assert code == 2
        assert "Z" in err

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_repeated_bank_exits_2(self, capsys, panel_path, command):
        extra = ["--samples", "10000"] if command == "validate" else []
        code, out, err = run(
            capsys, [command, "--input", panel_path, "--banks", "A,B,A", "--format", "csv"] + extra
        )
        assert (code, out) == (2, "")
        assert err == "error: --banks lists bank 'A' more than once\n"

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_a_bank_list_without_labels_exits_2(self, capsys, panel_path, command):
        code, out, err = run(capsys, [command, "--input", panel_path, "--banks", ","])
        assert (code, out) == (2, "")
        assert err == "error: --banks given but no labels listed\n"

    def test_one_column_panel(self, capsys, tmp_path):
        # analyze reports the bank unavailable; validate has nothing to run
        path = tmp_path / "one.csv"
        path.write_text("date,A\n1,0.1\n2,0.3\n3,-0.2\n4,0.05\n")
        reason = "panel has a single bank: there is no rest-of-system to aggregate"
        warning = f"warning: bank 'A' skipped: {reason}"
        code, out, err = run(capsys, ["analyze", "--input", str(path), "--format", "csv"])
        assert code == 0
        assert out.splitlines()[1] == "A" + ",n/a" * 13
        assert err.splitlines() == [warning]
        code, out, err = run(capsys, ["validate", "--input", str(path), "--samples", "10000"])
        assert (code, out) == (2, "")
        assert err.splitlines() == [warning, "error: no analyzable banks in the panel"]

    def test_unknown_bank_is_reported_before_a_repeated_one(self, capsys, panel_path):
        code, _, err = run(capsys, ["analyze", "--input", panel_path, "--banks", "A,A,Z"])
        assert code == 2
        assert err == "error: unknown bank label 'Z'\n"

    def test_header_only_panel_gives_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("date,A,B\n")
        code, out, err = run(capsys, ["analyze", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err == "error: need at least 3 data rows, got 0\n"

    @pytest.mark.parametrize(
        "lines, row",
        [(["A,{long}", "1,2", "3,4", "5,6"], 1), (["A,B", "1,2", "3,{long}", "5,6"], 3)],
        ids=["header", "body"],
    )
    def test_cell_over_the_csv_field_limit_gives_one_error_line(
        self, capsys, tmp_path, lines, row
    ):
        path = tmp_path / "long.csv"
        path.write_text("\n".join(lines).format(long="7" * (csv.field_size_limit() + 1)) + "\n")
        code, out, err = run(capsys, ["analyze", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err == (
            f"error: unreadable row {row}: field larger than field limit "
            f"({csv.field_size_limit()})\n"
        )

    def test_text_that_is_not_utf8_gives_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"date,A,B\nd1,1,2\nd2,3,\xff4\nd3,5,6\n")
        code, out, err = run(capsys, ["analyze", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: input is not UTF-8 text at row 1 or later: ")
        assert len(err.splitlines()) == 1

    def test_piped_text_that_is_not_utf8_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "gaussrisk.cli", "analyze", "--input", "-"],
            input=b"date,A,B\nd1,1,2\nd2,3,\xff4\nd3,5,6\n", capture_output=True, timeout=60,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONIOENCODING": "utf-8"},
        )
        assert (result.returncode, result.stdout) == (2, b"")
        assert result.stderr.startswith(b"error: input is not UTF-8 text: ")

    def test_stdin_input(self, capsys, panel_path, monkeypatch):
        text = Path(panel_path).read_text(encoding="utf-8")
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(capsys, ["analyze", "--input", "-", "--format", "csv"])
        assert code == 0
        assert out.startswith("bank,")

    def test_identical_series_give_unit_correlation(self, capsys, tmp_path):
        path = tmp_path / "twin.csv"
        path.write_text("A,B\n0.01,0.01\n-0.03,-0.03\n0.02,0.02\n0.005,0.005\n")
        code, out, _ = run(capsys, ["analyze", "--input", str(path), "--format", "json"])
        assert code == 0
        reports = json.loads(out)["reports"]
        stats = {entry["bank"]: entry["statistics"] for entry in reports}
        assert stats["A"]["rho"] == 1.0
        assert stats["A"] == stats["B"]  # symmetric roles

    def test_degenerate_bank_marked_but_exit_zero(self, capsys, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("A,B,C\n0.01,7,0.02\n-0.03,7,0.01\n0.02,7,-0.01\n0.01,7,0.005\n")
        code, out, err = run(capsys, ["analyze", "--input", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        by_bank = {entry["bank"]: entry for entry in payload["reports"]}
        assert by_bank["B"]["available"] is False
        assert "variance" in by_bank["B"]["reason"]
        assert by_bank["A"]["available"] is True
        # one warning line for the bank, not one from estimation and one for the skip
        assert err.splitlines() == ["warning: bank 'B' skipped: bank 'B' has zero sample variance"]

    def test_degenerate_rest_of_system_marked(self, capsys, tmp_path):
        # B and C hedge each other exactly, so bank A faces a zero-variance
        # rest-of-system: that row is marked, the others still report
        path = tmp_path / "hedged.csv"
        path.write_text(
            "A,B,C\n0.01,0.5,-0.5\n-0.03,-0.2,0.2\n0.02,0.1,-0.1\n0.01,0.3,-0.3\n"
        )
        code, out, err = run(capsys, ["analyze", "--input", str(path), "--format", "json"])
        assert code == 0
        by_bank = {entry["bank"]: entry for entry in json.loads(out)["reports"]}
        assert by_bank["A"]["available"] is False
        assert by_bank["B"]["available"] is True
        assert "warning" in err

    def test_overflowing_system_variance_gives_one_error_line(self, capsys, tmp_path):
        # the covariance is finite, the whole system's variance is not
        path = tmp_path / "overflow.csv"
        path.write_text("A,B\n8.9e153,8.9e153\n-8.9e153,-8.9e153\n0,0\n")
        code, out, err = run(capsys, ["analyze", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: model magnitudes overflow double precision\n"

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_overflowing_slope_gives_one_error_line(self, capsys, command):
        # beta_ai = cov_ia / var_i is about 1.7e312; every input number is finite
        code, out, err = run(capsys, [command, "--model=0,0,5e-321,1.38e304,-8.3e-09"])
        assert (code, out) == (2, "")
        assert err == "error: model magnitudes overflow double precision\n"

    def test_overflowing_covariance_gives_one_error_line(self, capsys, tmp_path):
        path = tmp_path / "overflow.csv"
        path.write_text("A,B,C\n1e200,2e200,-1e200\n-1e200,1e200,2e200\n2e200,-1e200,1e200\n")
        code, out, err = run(capsys, ["analyze", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: non-finite entry in the means or the covariance matrix\n"

    def test_overflowing_covariance_summed_in_blocks_gives_one_error_line(self, capsys, tmp_path):
        # inf and -inf products from different blocks of rows add up to nan
        rows = 2 * _SPLIT_ROWS + 3
        signs = np.random.default_rng(5).choice([-1.0, 1.0], size=(rows, 3))
        path = tmp_path / "overflow.csv"
        np.savetxt(path, 1e160 * signs, fmt="%.0e", delimiter=",", header="A,B,C", comments="")
        code, out, err = run(capsys, ["analyze", "--input", str(path)])
        assert (code, out) == (2, "")
        assert err == "error: non-finite entry in the means or the covariance matrix\n"

    @pytest.mark.parametrize(
        "text, code, err",
        [
            # C's squared rounding noise overflows in the Gram matrix
            (
                "A,B,C\n" + "".join(f"{r},{r * r % 7},1e200\n" for r in range(1, 8)),
                0, "warning: bank 'C' skipped: bank 'C' has zero sample variance\n",
            ),
            # (1e-10 * T * mean) ** 2 would overflow; E's rest-of-system mean does
            (
                "A,B,C,D,E\n" + "".join(f"5e307,5e307,5e307,5e307,{v}\n" for v in (1, 2, 4)),
                2, "".join(
                    f"warning: bank '{bank}' skipped: bank '{bank}' has zero sample variance\n"
                    for bank in "ABCD"
                ) + "error: mu_a must be a finite number, got inf\n",
            ),
        ],
        ids=["residue-overflows", "square-overflows"],
    )
    def test_huge_constant_columns_give_only_their_skip_lines(self, text, code, err):
        result = run_piped(["analyze", "--input", "-", "--format", "csv"], text)
        assert result[::2] == (code, err)

    def test_parse_error_names_coordinates(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A,B\n0.01,0.02\n0.03,oops\n0.01,0.00\n")
        code, _, err = run(capsys, ["analyze", "--input", str(path)])
        assert code == 2
        assert "row 3" in err and "'B'" in err

    def test_bad_alpha_exits_2(self, capsys, panel_path):
        code, _, err = run(capsys, ["analyze", "--input", panel_path, "--alpha", "0.4"])
        assert code == 2
        assert "alpha" in err


def json_dumps_rendering(rows, alpha):
    """The analyze JSON as ``json.dumps(..., indent=2)`` writes it: the renderer's oracle."""
    reports = []
    for bank, report, reason in rows:
        if report is None:
            reports.append({"bank": bank, "available": False, "reason": reason})
        else:
            statistics = {
                field.name: gaussrisk.cli._json_value(getattr(report, field.name))
                for field in dataclasses.fields(BankRiskReport)
            }
            reports.append({"bank": bank, "available": True, "statistics": statistics})
    return json.dumps({"alpha": alpha, "reports": reports}, indent=2)


# Values whose ".12g" token sits on an edge of a json spelling rule: it rounds
# up to 1e+12 or to 0.0001, it is near either end of the exponents 12-15 that
# json writes positionally, it is the smallest normal, or it is the smallest
# subnormal, which json writes in fewer digits.
SPELLING_EDGES = [
    999999999999.5, 9.999999999996e-05, -1e15, 9.99999999999e15, 2.2250738585072009e-308,
    -5e-324,
]
# Values whose text differs between ".12g", repr and json, or that are absent.
report_values = st.one_of(
    st.sampled_from(
        [None, -0.0, 0.0, 1e12, 1e16, 5e-324, 1e-5, np.inf, -np.inf, np.nan, *SPELLING_EDGES]
    ),
    st.integers(-10**17, 10**17).map(float),
    st.floats(1e12, 1e16).flatmap(lambda v: st.sampled_from([v, -v])),
    st.floats(-2.3e-308, 2.3e-308),
    st.floats(-1e-4, 1e-4),
    st.floats(allow_nan=False),
)
bank_labels = st.text(alphabet=st.sampled_from('AZ"\\\x00\x1f\x7f é€😀,'), min_size=1, max_size=6)
bank_reports = st.builds(
    BankRiskReport, **{field.name: report_values for field in dataclasses.fields(BankRiskReport)}
)
report_rows = st.lists(
    st.tuples(bank_labels, st.none(), bank_labels)
    | st.tuples(bank_labels, bank_reports, st.just("")),
    max_size=4,
)


def display_width(text):
    """Terminal columns of ``text``: 2 for an East Asian wide or fullwidth character, 0 for a
    combining mark, 1 for any other."""
    return sum(
        0 if unicodedata.combining(char)
        else 2 if unicodedata.east_asian_width(char) in ("W", "F")
        else 1
        for char in text
    )


# labels that a CSV cell must quote: a comma, and quotes
QUOTED_LABELS_PANEL = "\n".join([
    '"A,B",C,"D ""q"""',
    "0.01,0.02,-0.005", "-0.02,0.01,0.015", "0.03,-0.01,0.002",
    "0.00,0.02,-0.011", "0.015,-0.004,0.007", "-0.007,0.013,0.004",
]) + "\n"
# a label that holds a line break, quoted in the header as csv requires
NEWLINE_LABEL_PANEL = QUOTED_LABELS_PANEL.replace('"A,B",C,"D ""q"""', '"A\nB",C,D', 1)


class TestAnalyzeRenderers:
    @settings(max_examples=300, deadline=None)
    @given(rows=report_rows, alpha=st.sampled_from([0.9, 0.95, 0.99, 0.999]))
    # every edge on every run, beside a whole number, each word json spells and null
    @example(rows=[
        ("A", BankRiskReport(
            *SPELLING_EDGES, 123456789012.0, 1e12, 1e16, 0.0, np.inf, -np.inf, np.nan,
        ), ""),
        ("B", BankRiskReport(*[None] * 3, *SPELLING_EDGES, *[0.5] * 4), ""),
    ], alpha=0.99)
    def test_json_equals_json_dumps(self, rows, alpha):
        assert gaussrisk.cli._render_analyze_json(rows, alpha) == json_dumps_rendering(rows, alpha)
        # csv: the row format call gives what one format call per cell gives,
        # and the bank cell is quoted as csv.writer quotes it
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerows([
            ["bank"] + [field.name for field in dataclasses.fields(BankRiskReport)],
            *([bank] + [
                gaussrisk.cli._fmt(getattr(report, field.name, None), ".12g")
                for field in dataclasses.fields(BankRiskReport)
            ] for bank, report, _ in rows),
        ])
        assert gaussrisk.cli._render_analyze_csv(rows) + "\n" == expected.getvalue()

    @pytest.mark.parametrize("command, width", [("analyze", 14), ("validate", 9)])
    def test_csv_quotes_a_label_that_needs_it(self, capsys, tmp_path, command, width):
        path = tmp_path / "quoted.csv"
        path.write_text(QUOTED_LABELS_PANEL, encoding="utf-8")
        extra = ["--samples", "10000"] if command == "validate" else []
        code, out, _ = run(capsys, [command, "--input", str(path), "--format", "csv"] + extra)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert {len(row) for row in rows} == {width}
        assert {row[0] for row in rows[1:]} == {"A,B", "C", 'D "q"'}

    def test_banks_reads_quoted_labels_as_csv(self, capsys, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text(QUOTED_LABELS_PANEL, encoding="utf-8")
        code, out, err = run(capsys, [
            "analyze", "--input", str(path), "--banks", '"A,B",D "q"', "--format", "csv",
        ])
        assert (code, err) == (0, "")
        assert [row[0] for row in csv.reader(io.StringIO(out))] == ["bank", "A,B", 'D "q"']

    def test_banks_label_with_an_unquoted_line_break_exits_2(self, capsys, tmp_path):
        path = tmp_path / "newline.csv"
        path.write_text(NEWLINE_LABEL_PANEL, encoding="utf-8")
        code, out, err = run(capsys, ["analyze", "--input", str(path), "--banks", "A\nB,C"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: --banks is not one csv row: ")
        code, out, err = run(capsys, [
            "analyze", "--input", str(path), "--banks", '"A\nB",C', "--format", "csv",
        ])
        assert (code, err) == (0, "")
        assert [row[0] for row in csv.reader(io.StringIO(out))] == ["bank", "A\nB", "C"]

    def test_tables_write_a_label_that_does_not_print_as_its_repr(self, capsys, tmp_path):
        path = tmp_path / "newline.csv"
        path.write_text(NEWLINE_LABEL_PANEL, encoding="utf-8")
        code, out, _ = run(capsys, ["analyze", "--input", str(path), "--format", "table"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2 + 3
        assert [line.split()[0] for line in lines[2:]] == ["'A\\nB'", "C", "D"]
        # the bank column is as wide as the rendered label: every row is the header's width
        assert {len(line) for line in lines} == {len(lines[0])}
        code, out, _ = run(capsys, [
            "validate", "--input", str(path), "--format", "table", "--samples", "10000",
        ])
        headings = [line for line in out.splitlines() if line.startswith("==")]
        assert [heading.split(" (")[0] for heading in headings] == ["== 'A\\nB'", "== C", "== D"]

    @settings(max_examples=300, deadline=None)
    @given(rows=report_rows)
    @example(rows=[("銀行", None, "")])
    @example(rows=[("e\u0301", None, "")])  # a combining accent takes no column
    @example(rows=[  # .6g writes this 13 wide, past the 12 of a number column
        ("model", BankRiskReport(*[-9.91013e-137] * len(dataclasses.fields(BankRiskReport))), ""),
    ])
    def test_table_lines_have_one_display_width(self, rows):
        # the header, the rule and every bank row, whatever the labels and the cells' lengths
        lines = gaussrisk.cli._render_analyze_table(rows).splitlines()[:2 + len(rows)]
        assert {display_width(line) for line in lines} == {display_width(lines[0])}

    def test_table_note_writes_a_skipped_label_as_its_repr(self):
        note = gaussrisk.cli._render_analyze_table([("A\tB", None, "why")]).splitlines()[-1]
        assert note == "note: 'A\\tB' skipped: why"

    def test_wide_one_factor_panel(self, capsys, tmp_path):
        rng = np.random.default_rng(400)
        factor = rng.standard_normal((300, 1))
        returns = 0.01 * (factor @ rng.uniform(0.2, 1.5, (1, 400)) + rng.standard_normal((300, 400)))
        path = tmp_path / "wide.csv"
        np.savetxt(path, returns, delimiter=",", header=",".join(f"B{i}" for i in range(400)),
                   comments="")
        code, out, _ = run(capsys, ["analyze", "--input", str(path), "--format", "json"])
        assert code == 0
        est = estimate_moments(load_panel(path))
        rows = [(bank, full_report(pair_for_bank(est, bank), RiskParams(0.99)), "")
                for bank in est.labels]
        assert out == json_dumps_rendering(rows, 0.99) + "\n"


class TestValidateCommand:
    ARGS = [
        "validate", "--model", "0,0,1,1,0", "--samples", "100000",
        "--seed", "7", "--alpha", "0.99",
    ]

    def test_defaults_are_mc_configs(self):
        args = gaussrisk.cli._build_parser().parse_args(["validate", "--model", "0,0,1,1,0"])
        defaults = McConfig()
        assert (args.samples, args.bandwidth, args.seed) == (
            defaults.sample_count, defaults.bandwidth, defaults.seed,
        )

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 3: the oracle averages raw levels near 1e15, so the tail "
        "mean delta_coll_es reads is quantized (-1.25 against -1.3326)",
    )
    def test_a_location_far_from_zero_passes(self, capsys):
        code, _, err = run(capsys, ["validate", "--model", "0,1e15,1,1,0.5", "--samples", "500000"])
        assert (code, err) == (0, "")

    # the sample variance of levels near 1e300 overflows (ROADMAP item 3)
    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
    def test_a_tolerance_that_is_not_finite_is_skipped_not_passed(self, capsys):
        _, out, _ = run(capsys, [
            "validate", "--model", "1e300,0,1,1,0", "--samples", "20000", "--format", "json",
        ])
        (entry,) = json.loads(out)["reports"]
        for check in entry["statistics"]:
            assert check["pass"] is None or np.isfinite(check["tolerance"]), check["name"]
        skipped = entry["statistics"][-1]
        assert (skipped["name"], skipped["pass"], skipped["tolerance"], skipped["note"]) == (
            "var_contribution", None, None, "tolerance inf is not finite",
        )

    def test_passing_run_exits_zero(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        assert "overall: pass" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        (entry,) = payload["reports"]
        assert entry["bank"] == "model"
        assert entry["all_passed"] is True

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, self.ARGS + ["--format", "csv"])
        assert code == 0
        assert out.startswith("bank,statistic,closed_form")

    def test_thin_settings_still_exit_zero(self, capsys):
        code, out, _ = run(
            capsys,
            ["validate", "--model", "0,0,1,1,0.5", "--samples", "10000",
             "--bandwidth", "0.01", "--seed", "3"],
        )
        assert code == 0
        assert "skipped" in out

    def test_fault_injection_exits_one(self, capsys, monkeypatch):
        bias_validated_closed_forms(monkeypatch, 0.5)
        code, out, _ = run(capsys, self.ARGS)
        assert code == 1
        assert "FAIL" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys,
            ["validate", "--model", "0,0,1,1,0.5", "--samples", "50000", "--seed", "3",
             "--alpha", "0.95", "--format", "json"],
        )
        assert code == 0
        (entry,) = json.loads(out)["reports"]
        assert list(entry) == ["bank", "model", "config", "rng_method", "all_passed", "statistics"]
        assert entry["model"] == {
            "mu_i": 0.0, "mu_a": 0.0, "var_i": 1.0, "var_a": 1.0, "cov_ia": 0.5,
        }
        assert entry["config"] == {
            "sample_count": 50000, "bandwidth": 0.05, "seed": 3, "alpha": 0.95,
        }
        assert entry["rng_method"] == RNG_METHOD
        report = validate_closed_forms(
            GaussianPair(0.0, 0.0, 1.0, 1.0, 0.5),
            SharedDraw(McConfig(sample_count=50_000, seed=3, alpha=0.95)),
        )
        assert entry["all_passed"] is report.all_passed
        names = [record["name"] for record in entry["statistics"]]
        assert names == [
            "var_i", "covar_ai", "covare_ai", "delta_coll_var", "delta_coll_es",
            "delta_cond_var", "delta_contr_var", "var_contribution",
        ]
        for record, check in zip(entry["statistics"], report.checks):
            assert list(record) == [
                "name", "closed_form", "empirical", "abs_error", "tolerance",
                "effective_tail_samples", "pass", "note",
            ]
            assert record["closed_form"] == pytest.approx(check.closed_form, rel=1e-11)
            assert record["effective_tail_samples"] == check.effective_tail_samples
            assert record["pass"] is check.passed
            assert record["note"] == check.note
            if record["pass"] is not None:
                assert record["empirical"] == pytest.approx(check.empirical, rel=1e-11)
                assert (record["abs_error"] <= record["tolerance"]) == record["pass"]
                assert record["effective_tail_samples"] > 0

    def test_table_has_one_line_per_statistic(self, capsys):
        code, out, _ = run(
            capsys,
            ["validate", "--model", "0,0,1,1,0.5", "--samples", "50000", "--seed", "3",
             "--alpha", "0.95"],
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "== model (alpha=0.95, N=50000, seed=3)"
        assert lines[1].split()[0] == "statistic"
        names = [line.split()[0] for line in lines[3:-1]]
        assert names == [
            "var_i", "covar_ai", "covare_ai", "delta_coll_var", "delta_coll_es",
            "delta_cond_var", "delta_contr_var", "var_contribution",
        ]
        assert lines[-1].startswith("overall:")

    @pytest.mark.parametrize("output_format", ["json", "csv", "table"])
    def test_exact_zero_prints_unsigned(self, capsys, output_format):
        # delta_coll_var of an independent pair is -q * 0.0 / std_i, an exact -0.0
        code, out, _ = run(capsys, self.ARGS + ["--format", output_format])
        assert code == 0
        assert "delta_coll_var" in out
        assert re.search(r"-0(\.0+)?(?![\d.e])", out) is None
        if output_format == "table":  # significant digits: the zero reads "0"
            line = next(line for line in out.splitlines() if line.startswith("delta_coll_var"))
            assert line.split()[1] == "0"

    def test_degenerate_model_exits_2(self, capsys):
        code, _, err = run(capsys, ["validate", "--model", "0,0,1,1,-1", "--samples", "10000"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("samples", [10**13, 2**62, 2**70])
    def test_a_draw_too_large_to_allocate_exits_2(self, capsys, samples):
        # 16 bytes a sample put 10**13 past the 47-bit address space, so its
        # allocation fails before any page is touched, whatever the overcommit
        # setting; numpy cannot size 2**62 or 2**70 at all.  Never a count a
        # malloc could accept: touching its pages would exhaust the machine.
        code, out, err = run(
            capsys, ["validate", "--model", "0,0,1,1,0", "--samples", str(samples)]
        )
        assert code == 2
        assert out == ""
        assert err == (
            f"error: {samples} samples need {16 * samples} bytes for each two-column "
            "array, more than can be allocated; lower the sample count\n"
        )

    def test_default_config_on_reference_pair(self, capsys):
        # default sample count (2,000,000), the model exercised by the
        # acceptance suite
        code, out, _ = run(
            capsys, ["validate", "--model", "0,0,1,4,1", "--seed", "11"]
        )
        assert code == 0
        assert "overall: pass (8/8" in out

    def test_panel_validation(self, capsys, tmp_path):
        path = tmp_path / "pair.csv"
        rows = ["A,B"]
        rng = np.random.default_rng(5)
        for a, b in rng.standard_normal((50, 2)):
            rows.append(f"{a},{b}")
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys,
            ["validate", "--input", str(path), "--banks", "A", "--samples", "50000",
             "--seed", "2", "--alpha", "0.95"],
        )
        assert code == 0
        assert out.startswith("== A")


class TestUsageErrors:
    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_internal_error_exits_3_with_one_line(self, capsys, monkeypatch, command):
        def broken(*args):
            raise RuntimeError("step broke")

        monkeypatch.setattr(gaussrisk.cli, "full_report", broken)
        monkeypatch.setattr(gaussrisk.cli, "validate_closed_forms", broken)
        code, out, err = run(
            capsys, [command, "--model", "0,0,1,1,0.5"] + (
                ["--samples", "10000"] if command == "validate" else []
            ),
        )
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: step broke\n"

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_closed_stdout_exits_2_without_a_message(self, capsys, monkeypatch, command):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        code = main([command, "--model", "0,0,1,1,0.5"] + (
            ["--samples", "10000"] if command == "validate" else []
        ))
        assert code == 2
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_gone_before_the_output_is_written(self, unbuffered):
        # `gaussrisk analyze ... | head -1`, with head already gone.  Block
        # buffered, the output fits the buffer and the pipe breaks only when
        # it is flushed; unbuffered, it breaks inside print.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "gaussrisk.cli", "analyze", "--model", "0,0,1,1,0.5"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered},
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (2, "")

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    @pytest.mark.parametrize(
        "name, reason", [("no-such-file.csv", "No such file or directory"), ("", "Is a directory")]
    )
    def test_unreadable_input_exits_2_naming_the_path(self, capsys, tmp_path, command, name, reason):
        path = str(tmp_path / name)
        code, out, err = run(capsys, [command, "--input", path])
        assert (code, out) == (2, "")
        assert err == f"error: cannot read input {path!r}: {reason}\n"

    def test_missing_source_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze"])
        assert excinfo.value.code == 2

    def test_both_sources_exit_2(self, capsys, panel_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--input", panel_path, "--model", "0,0,1,1,0"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["analyze", "validate"])
    def test_banks_with_a_model_exits_2(self, capsys, command):
        code, out, err = run(capsys, [command, "--model", "0,0,1,1,0.5", "--banks", "X"])
        assert (code, out) == (2, "")
        assert err == "error: --banks selects panel banks and cannot be used with --model\n"


def magnitudes(lo, hi, signed=True):
    """0, 1 or 10^U(lo, hi), of either sign where ``signed``."""
    signs = st.sampled_from([-1.0, 1.0] if signed else [1.0])
    return st.sampled_from([0.0, 1.0]) | st.builds(
        lambda sign, exponent: sign * 10.0 ** exponent, signs, st.floats(lo, hi)
    )


@st.composite
def model_specs(draw):
    """``MU_I,MU_A,VAR_I,VAR_A,COV`` at any magnitude; COV is a number or rho sd_i sd_a.

    A negative variance is rejected before any arithmetic, so none is drawn.
    """
    mu_i, mu_a = draw(magnitudes(-320, 308)), draw(magnitudes(-320, 308))
    var_i, var_a = (draw(magnitudes(-320, 308, signed=False)) for _ in range(2))
    rho = draw(st.floats(-1.0, 1.0) | st.sampled_from([-1.0, 1.0]))
    cov = draw(magnitudes(-320, 308) | st.just(rho * math.sqrt(var_i) * math.sqrt(var_a)))
    return ",".join(map(repr, (mu_i, mu_a, var_i, var_a, cov)))


@st.composite
def panel_texts(draw):
    """A CSV panel of 3-40 rows and 1-6 one-factor banks of scales 10^U(-150, 300).

    Some columns are constant, some sit far from zero, and one bank may
    dominate the system.
    """
    rows, banks = draw(st.integers(3, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = np.array(draw(st.lists(st.floats(-150.0, 300.0), min_size=banks, max_size=banks)))
    dominant = draw(st.none() | st.integers(0, banks - 1))
    if dominant is not None:
        scales[dominant] = min(scales[dominant] + draw(st.floats(3.0, 8.0)), 300.0)
    factor = rng.standard_normal((rows, 1))
    obs = factor * rng.standard_normal(banks) + rng.standard_normal((rows, banks))
    obs *= 10.0 ** scales
    for j in range(banks):
        location = draw(st.none() | magnitudes(-150.0, 300.0))
        if location is not None:
            obs[:, j] += location
        if draw(st.integers(0, 3)) == 0:
            obs[:, j] = obs[0, j]
    header = ",".join(f"B{j}" for j in range(banks))
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in obs.tolist())


class TestNoNumpyWarningReachesTheUser:
    """analyze at any magnitude: exit 0 or 2, and only the CLI's own stderr lines.

    The suite turns a warning outside the estimate into an exception, which
    ``main`` reports as exit 3; the estimate's own warnings are printed as
    ``warning:`` lines, so a numpy warning there shows on stderr.
    """

    STDERR_LINE = re.compile(r"^(warning: bank '.+' skipped: |error: )")

    def assert_clean(self, code, err):
        assert code in (0, 2), err
        assert all(self.STDERR_LINE.match(line) for line in err.splitlines()), err

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(model=model_specs(), form=st.sampled_from(["table", "csv", "json"]))
    def test_models(self, model, form):
        self.assert_clean(*run_piped(["analyze", f"--model={model}", "--format", form])[::2])

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(text=panel_texts(), form=st.sampled_from(["table", "csv", "json"]))
    def test_panels(self, text, form):
        self.assert_clean(*run_piped(["analyze", "--input", "-", "--format", form], text)[::2])


GOLDEN = Path(__file__).parent / "golden"


class TestGoldenOutput:
    """Exact stdout on a fixed panel with a zero-variance bank (FLAT).

    A refactoring keeps every byte of ``tests/golden``; only a deliberate
    change of the output may rewrite those files.
    """

    @pytest.mark.parametrize(
        "output_format, expected", [("json", "analyze.json"), ("csv", "analyze.csv"),
                                    ("table", "analyze.txt")],
    )
    def test_analyze_selection(self, capsys, output_format, expected):
        code, out, err = run(
            capsys,
            ["analyze", "--input", str(GOLDEN / "panel.csv"), "--banks", "GAMMA,FLAT,ALPHA",
             "--format", output_format],
        )
        assert code == 0
        assert out == (GOLDEN / expected).read_text()
        assert err == "warning: bank 'FLAT' skipped: bank 'FLAT' has zero sample variance\n"

    def test_analyze_all_banks(self, capsys):
        # no --banks: every bank in panel order, FLAT skipped with its warning
        code, out, err = run(
            capsys, ["analyze", "--input", str(GOLDEN / "panel.csv"), "--format", "json"]
        )
        assert code == 0
        assert out == (GOLDEN / "analyze_all.json").read_text()
        assert err == "warning: bank 'FLAT' skipped: bank 'FLAT' has zero sample variance\n"

    def test_validate_csv(self, capsys):
        code, out, _ = run(
            capsys,
            ["validate", "--input", str(GOLDEN / "panel.csv"), "--samples", "200000",
             "--seed", "0", "--alpha", "0.95", "--format", "csv"],
        )
        assert code == 0
        assert out == (GOLDEN / "validate.csv").read_text()

    @pytest.mark.parametrize(
        "output_format, expected", [("json", "validate.json"), ("table", "validate.txt")],
    )
    def test_validate_selection(self, capsys, output_format, expected):
        code, out, _ = run(
            capsys,
            ["validate", "--input", str(GOLDEN / "panel.csv"), "--samples", "200000",
             "--seed", "0", "--alpha", "0.95", "--format", output_format],
        )
        assert code == 0
        assert out == (GOLDEN / expected).read_text()

    def test_validate_without_an_analyzable_bank_exits_2(self, capsys):
        code, out, err = run(
            capsys,
            ["validate", "--input", str(GOLDEN / "panel.csv"), "--banks", "FLAT",
             "--samples", "10000"],
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "warning: bank 'FLAT' skipped: bank 'FLAT' has zero sample variance",
            "error: no analyzable banks in the panel",
        ]
