"""The benchmark's workloads: seeded input panels and the CLI argv of each op.

Every workload is one `gaussrisk` CLI invocation repeated in a closed loop
with one client.  The program sees only the CSV file written here; the
panel's shape, byte size and sha256 go into the run record so that two
machines can confirm they measured the same input.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ALPHA = 0.99
VALIDATE_SAMPLES = 500_000

# Moments of scripts/make_demo_panel.py: weekly-return-flavoured drifts,
# vols of 2-4 % and moderate comovement.
DEMO_BANKS = ("ALPHA", "BETA", "GAMMA", "DELTA")
DEMO_MEANS = np.array([0.001, -0.0005, 0.0015, 0.0002])
DEMO_CORRELATION = np.array(
    [
        [1.00, 0.45, 0.30, 0.20],
        [0.45, 1.00, 0.35, 0.25],
        [0.30, 0.35, 1.00, 0.40],
        [0.20, 0.25, 0.40, 1.00],
    ]
)
DEMO_VOLS = np.array([0.02, 0.03, 0.025, 0.04])


def one_factor_panel(seed: int, rows: int, banks: int) -> tuple[tuple[str, ...], np.ndarray]:
    """Returns ``mu_j + beta_j * f_t + sd_j * e_tj`` of a common market factor.

    Every bank loads positively on the factor, so every bank-vs-rest pair is
    well conditioned and no statistic sits near zero.
    """
    rng = np.random.default_rng([seed, rows, banks])
    means = rng.normal(0.0005, 0.0005, banks)
    betas = rng.uniform(0.5, 1.5, banks)
    idio = rng.uniform(0.01, 0.03, banks)
    factor = 0.02 * rng.standard_normal((rows, 1))
    observations = means + factor * betas + idio * rng.standard_normal((rows, banks))
    labels = tuple(f"B{j:04d}" for j in range(banks))
    return labels, observations


def demo_panel(seed: int, rows: int = 1500) -> tuple[tuple[str, ...], np.ndarray]:
    """Same draws as ``scripts/make_demo_panel.py --rows ROWS --seed SEED``."""
    covariance = DEMO_CORRELATION * np.outer(DEMO_VOLS, DEMO_VOLS)
    rng = np.random.default_rng(seed)
    observations = rng.standard_normal((rows, len(DEMO_BANKS))) @ np.linalg.cholesky(covariance).T
    return DEMO_BANKS, observations + DEMO_MEANS


def panel_csv(labels: tuple[str, ...], observations: np.ndarray) -> str:
    """CSV text with a leading date column and 8 decimals per cell."""
    lines = ["date," + ",".join(labels)]
    for day, row in enumerate(observations):
        lines.append(f"t{day:05d}," + ",".join(f"{x:.8f}" for x in row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    make_panel: Callable[[int], tuple[tuple[str, ...], np.ndarray]]
    command: str  # "analyze" or "validate"
    output_format: str

    def argv(self, input_path: str, seed: int) -> list[str]:
        """CLI arguments of every op of a run.

        validate uses the workload seed as its Monte Carlo seed, so all ops
        of a run repeat one simulation.  A fresh MC seed per op would expose
        each run to the oracle's false-FAIL rate on correct closed forms
        (about 1 in 600 four-bank ops at this sample count) dozens of times.
        """
        argv = [
            self.command, "--input", input_path,
            "--alpha", str(ALPHA), "--format", self.output_format,
        ]
        if self.command == "validate":
            argv += ["--samples", str(VALIDATE_SAMPLES), "--seed", str(seed)]
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analyze-wide",
            make_panel=lambda seed: one_factor_panel(seed, rows=500, banks=400),
            command="analyze",
            output_format="json",
        ),
        Workload(
            name="analyze-tall",
            make_panel=lambda seed: one_factor_panel(seed, rows=40000, banks=8),
            command="analyze",
            output_format="csv",
        ),
        Workload(
            name="validate-panel",
            make_panel=demo_panel,
            command="validate",
            output_format="json",
        ),
    )
}


@dataclass(frozen=True)
class PanelFile:
    path: Path
    labels: tuple[str, ...]
    rows: int
    bytes: int
    sha256: str

    def record(self) -> dict:
        return {
            "rows": self.rows,
            "banks": len(self.labels),
            "bytes": self.bytes,
            "sha256": self.sha256,
        }


def write_panel(workload: Workload, seed: int, path: Path) -> PanelFile:
    """Generate the workload's panel for ``seed`` and write it to ``path``."""
    labels, observations = workload.make_panel(seed)
    data = panel_csv(labels, observations).encode("utf-8")
    path.write_bytes(data)
    return PanelFile(
        path=path,
        labels=labels,
        rows=observations.shape[0],
        bytes=len(data),
        sha256=hashlib.sha256(data).hexdigest(),
    )
