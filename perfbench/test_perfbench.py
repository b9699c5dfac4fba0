"""The benchmark's own tests; none depends on timing.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from pathlib import Path

import pytest

import gaussrisk.cli
import run
from reference import Reference, check_op
from tracing import TARGETS, Tracer
from workloads import ALPHA, VALIDATE_SAMPLES, WORKLOADS, Workload, one_factor_panel, write_panel

SMALL = Workload(
    name="small",
    make_panel=lambda seed: one_factor_panel(seed, rows=60, banks=5),
    command="analyze",
    output_format="json",
)


def cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gaussrisk.cli.main(argv)
    return code, out.getvalue()


@pytest.fixture
def panel(tmp_path):
    panel = write_panel(SMALL, 3, tmp_path / "panel.csv")
    return panel, Reference.from_file(panel.path, ALPHA)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_input(tmp_path, name):
    workload = WORKLOADS[name]
    first = write_panel(workload, 7, tmp_path / "a.csv")
    again = write_panel(workload, 7, tmp_path / "b.csv")
    other = write_panel(workload, 8, tmp_path / "c.csv")
    assert first.record() == again.record()
    assert first.sha256 != other.sha256


def test_workload_shapes(tmp_path):
    shapes = {
        name: (panel.rows, len(panel.labels))
        for name, panel in (
            (name, write_panel(w, 1, tmp_path / f"{name}.csv")) for name, w in WORKLOADS.items()
        )
    }
    assert shapes == {
        "analyze-wide": (500, 400),
        "analyze-tall": (40000, 8),
        "validate-panel": (1500, 4),
    }


@pytest.mark.parametrize("output_format", ["json", "csv"])
def test_checker_accepts_analyze_output_and_rejects_one_perturbed_statistic(panel, output_format):
    panel, ref = panel
    argv = ["analyze", "--input", str(panel.path), "--alpha", str(ALPHA), "--format", output_format]
    code, stdout = cli(argv)
    assert check_op(argv, code, stdout, ref) == []

    if output_format == "json":
        payload = json.loads(stdout)
        stats = payload["reports"][2]["statistics"]
        stats["covar_ai"] *= 1 + 1e-6
        perturbed = json.dumps(payload)
    else:
        lines = stdout.splitlines()
        cells = lines[3].split(",")
        cells[4] = repr(float(cells[4]) * (1 + 1e-6))  # covare_ai of the third bank
        lines[3] = ",".join(cells)
        perturbed = "\n".join(lines)
    problems = check_op(argv, code, perturbed, ref)
    assert len(problems) == 1 and panel.labels[2] in problems[0]


def test_checker_rejects_nonzero_exit(panel):
    panel, ref = panel
    argv = ["analyze", "--input", str(panel.path), "--alpha", str(ALPHA), "--format", "json"]
    _, stdout = cli(argv)
    assert check_op(argv, 1, stdout, ref) == ["exit code 1"]
    assert check_op(argv, "raised ValueError()", stdout, ref)


@pytest.mark.parametrize("stdout", ["", "[]", '{"alpha": 0.99, "reports": [1]}'])
def test_checker_reports_malformed_output_without_raising(panel, stdout):
    panel, ref = panel
    argv = ["analyze", "--input", str(panel.path), "--alpha", str(ALPHA), "--format", "json"]
    assert check_op(argv, 0, stdout, ref)


def test_checker_validate_output(panel):
    panel, ref = panel
    argv = [
        "validate", "--input", str(panel.path), "--alpha", str(ALPHA), "--format", "json",
        "--samples", str(VALIDATE_SAMPLES), "--seed", "5",
    ]
    code, stdout = cli(argv)
    assert code == 0
    assert check_op(argv, code, stdout, ref) == []

    payload = json.loads(stdout)
    payload["reports"][1]["statistics"][3]["closed_form"] *= 1 + 1e-6
    assert len(check_op(argv, code, json.dumps(payload), ref)) == 1

    payload = json.loads(stdout)
    payload["reports"][0]["statistics"][0]["pass"] = False
    assert check_op(argv, code, json.dumps(payload), ref)

    wrong_seed = argv[:-1] + ["6"]
    assert check_op(wrong_seed, code, stdout, ref)

    tracer = Tracer()
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        assert tracer.run(gaussrisk.cli.main, argv) == 0
    metrics = tracer.metrics(ops=1)
    banks = len(panel.labels)
    assert metrics["mc.validate_closed_forms.calls"] == banks
    assert metrics["mc.sample_pair.samples"] == banks * VALIDATE_SAMPLES
    assert metrics["mc.validate_closed_forms.evaluated_ratio"] == 1.0
    assert metrics["measures.full_report.calls"] == 0


def _attributes():
    return {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in TARGETS}


def test_tracer_restores_module_attributes(panel):
    panel, _ = panel
    before = _attributes()
    tracer = Tracer()
    with tracer.installed():
        assert all(_attributes()[key] is not fn for key, fn in before.items())
        argv = ["analyze", "--input", str(panel.path), "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert tracer.run(gaussrisk.cli.main, argv) == 0
    assert all(_attributes()[key] is fn for key, fn in before.items())

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert all(_attributes()[key] is fn for key, fn in before.items())


def test_tracer_counts_calls_per_op(panel):
    panel, _ = panel
    tracer = Tracer()
    argv = ["analyze", "--input", str(panel.path), "--format", "json"]
    with tracer.installed(), contextlib.redirect_stdout(io.StringIO()):
        tracer.run(gaussrisk.cli.main, argv)
        tracer.run(gaussrisk.cli.main, argv)
    metrics = tracer.metrics(ops=2)
    banks = len(panel.labels)
    assert metrics["estimation.load_panel.calls"] == 1
    assert metrics["estimation.pair_for_bank.calls"] == banks
    assert metrics["measures.full_report.calls"] == banks
    assert metrics["normal.conditional_moments.calls"] == 4 * banks
    assert metrics["mc.sample_pair.calls"] == 0
    assert all(value >= 0.0 for value in metrics.values())


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    tracer_names = set(Tracer().metrics(ops=1)) | {"trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == tracer_names
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])


def test_missing_sources_exit_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "analyze-tall", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
