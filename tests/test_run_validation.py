"""scripts/run_validation.py: the Monte Carlo sweep over correlations, variance ratios and seeds."""

import importlib.util
from pathlib import Path

import gaussrisk.mc

SCRIPT = Path(__file__).parents[1] / "scripts" / "run_validation.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_validation", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_pair_sweep_prints_its_lines(capsys):
    argv = ["--samples", "100000", "--alpha", "0.95", "--seeds", "3", "--rhos", "0.5",
            "--ratios", "1", "4"]
    assert load_script().main(argv) == 0
    assert capsys.readouterr().out == (
        "  rho  var_a  seed evaluated  worst_err  status\n"
        " 0.50   1.00     3    8/8       0.03787    pass\n"
        " 0.50   4.00     3    8/8       0.07965    pass\n"
        "sweep: all passed\n"
    )


def test_one_draw_per_seed_serves_every_pair(capsys, monkeypatch):
    script = load_script()
    draws, seen = [], []

    class CountedDraw(gaussrisk.mc.SharedDraw):
        def __init__(self, config):
            super().__init__(config)
            draws.append(self)

    def validate(pair, draw):
        seen.append((draw.config.seed, draw))
        return gaussrisk.mc.validate_closed_forms(pair, draw)

    monkeypatch.setattr(script, "SharedDraw", CountedDraw)
    monkeypatch.setattr(script, "validate_closed_forms", validate)
    argv = ["--samples", "10000", "--seeds", "5", "6", "--rhos", "0", "--ratios", "1", "4"]
    assert script.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4 + 1
    assert len(draws) == 2
    assert seen == [(5, draws[0])] * 2 + [(6, draws[1])] * 2
