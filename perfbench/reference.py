"""Independent reference values and the per-op output checker.

The reference reads the generated CSV with ``numpy.loadtxt`` and computes
every statistic of every bank at once from the sample moments: with
r = Sigma 1, t = 1' Sigma 1 and d = diag Sigma, bank i's rest of system has
cov_ia = r - d, var_a = t - 2r + d and var_s = t.  It shares no code with
gaussrisk, which builds each bank's pair from an (n-1)^2 submatrix and
derives the statistics through conditional moments.

A checker returns a list of problems; an empty list means the op's output
is correct.  Checkers never raise on bad output, so a mismatch counts as a
failed op and the run goes on.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

ANALYZE_FIELDS = (
    "var_i", "var_mean_i", "covar_ai", "covare_ai",
    "delta_coll_var", "delta_coll_es", "delta_cond_var", "delta_contr_var",
    "var_contribution", "beta_ai", "beta_si", "beta_is", "rho",
)
VALIDATE_FIELDS = (
    "var_i", "covar_ai", "covare_ai", "delta_coll_var",
    "delta_coll_es", "delta_cond_var", "delta_contr_var", "var_contribution",
)
_DIMENSIONLESS = {"beta_ai", "beta_si", "beta_is", "rho"}
# The CLI prints 12 significant digits; the two derivations differ by a few
# ulps times the system's scale.  1e-9 leaves room for both and still
# catches any change to a printed statistic beyond rounding.
_RTOL = 1e-9


def read_panel(path: Path) -> tuple[tuple[str, ...], np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    labels = tuple(header[1:])
    observations = np.loadtxt(
        path, delimiter=",", skiprows=1, usecols=range(1, len(header)), ndmin=2
    )
    return labels, observations


class Reference:
    """Expected statistics of every bank, as arrays indexed like ``labels``."""

    def __init__(self, labels: tuple[str, ...], observations: np.ndarray, alpha: float):
        self.labels = labels
        self.alpha = alpha
        rows = observations.shape[0]
        mu = observations.mean(axis=0)
        centred = observations - mu
        cov = centred.T @ centred / (rows - 1)
        r = cov.sum(axis=1)
        t = r.sum()
        d = np.diag(cov).copy()

        q = NormalDist().inv_cdf(alpha)
        es_multiplier = NormalDist().pdf(q) / (1.0 - alpha)
        mu_a = mu.sum() - mu
        cov_ia = r - d
        var_a = t - 2.0 * r + d
        sd_i = np.sqrt(d)
        sd_a = np.sqrt(var_a)
        sd_s = math.sqrt(t)
        sd_cond = np.sqrt(np.maximum(var_a - cov_ia**2 / d, 0.0))

        self.stats = {
            "var_i": mu - q * sd_i,
            "var_mean_i": -q * sd_i,
            "covar_ai": mu_a - q * cov_ia / sd_i - q * sd_cond,
            "covare_ai": mu_a - q * sd_cond,
            "delta_coll_var": -q * cov_ia / sd_i,
            "delta_coll_es": -es_multiplier * cov_ia / sd_i,
            "delta_cond_var": -q * r / sd_i,
            "delta_contr_var": -q * r / sd_s,
            "var_contribution": mu - q * r / sd_s,
            "beta_ai": cov_ia / d,
            "beta_si": r / d,
            "beta_is": r / t,
            "rho": np.clip(cov_ia / (sd_i * sd_a), -1.0, 1.0),
        }
        # Size of the bank's model in its own units, as gaussrisk's
        # cross-checks use it; the floor of the tolerance for money values.
        self.scale = np.abs(mu) + np.abs(mu_a) + q * (sd_i + sd_a + sd_s)

    @classmethod
    def from_file(cls, path: Path, alpha: float) -> "Reference":
        labels, observations = read_panel(path)
        return cls(labels, observations, alpha)

    def mismatch(self, bank: int, field: str, value) -> str:
        """Empty when ``value`` matches the reference, else why not."""
        expected = float(self.stats[field][bank])
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return f"{self.labels[bank]}.{field}: got {value!r}, expected {expected!r}"
        floor = 1.0 if field in _DIMENSIONLESS else float(self.scale[bank])
        tolerance = _RTOL * max(abs(expected), abs(value), floor)
        if not abs(value - expected) <= tolerance:
            return f"{self.labels[bank]}.{field}: got {value!r}, expected {expected!r}"
        return ""


def _parse_float(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def check_analyze_json(stdout: str, ref: Reference) -> list[str]:
    try:
        payload = json.loads(stdout)
        reports = payload["reports"]
        alpha = payload["alpha"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable analyze JSON: {exc!r}"]
    problems = []
    if alpha != ref.alpha:
        problems.append(f"alpha {alpha!r} != {ref.alpha!r}")
    if [r.get("bank") for r in reports] != list(ref.labels):
        return problems + ["banks differ from the panel's labels"]
    for bank, report in enumerate(reports):
        stats = report.get("statistics")
        if report.get("available") is not True or not isinstance(stats, dict):
            problems.append(f"{ref.labels[bank]}: report not available")
            continue
        if set(stats) != set(ANALYZE_FIELDS):
            problems.append(f"{ref.labels[bank]}: fields {sorted(stats)}")
            continue
        problems += filter(None, (ref.mismatch(bank, f, stats[f]) for f in ANALYZE_FIELDS))
    return problems


def check_analyze_csv(stdout: str, ref: Reference) -> list[str]:
    lines = stdout.splitlines()
    if not lines or lines[0] != "bank," + ",".join(ANALYZE_FIELDS):
        return ["unexpected analyze CSV header"]
    rows = [line.split(",") for line in lines[1:]]
    if [row[0] for row in rows] != list(ref.labels):
        return ["banks differ from the panel's labels"]
    problems = []
    for bank, row in enumerate(rows):
        if len(row) != 1 + len(ANALYZE_FIELDS):
            problems.append(f"{ref.labels[bank]}: {len(row)} cells")
            continue
        problems += filter(
            None,
            (ref.mismatch(bank, f, _parse_float(cell)) for f, cell in zip(ANALYZE_FIELDS, row[1:])),
        )
    return problems


def check_validate_json(stdout: str, ref: Reference, seed: int, samples: int) -> list[str]:
    """Every statistic of every bank evaluated and passed, closed forms as referenced."""
    try:
        reports = json.loads(stdout)["reports"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable validate JSON: {exc!r}"]
    if [r.get("bank") for r in reports] != list(ref.labels):
        return ["banks differ from the panel's labels"]
    problems = []
    for bank, report in enumerate(reports):
        label = ref.labels[bank]
        config = report.get("config", {})
        if config.get("seed") != seed or config.get("sample_count") != samples:
            problems.append(f"{label}: config {config!r}")
        if report.get("all_passed") is not True:
            problems.append(f"{label}: all_passed is {report.get('all_passed')!r}")
        checks = {c.get("name"): c for c in report.get("statistics", [])}
        if set(checks) != set(VALIDATE_FIELDS):
            problems.append(f"{label}: statistics {sorted(checks)}")
            continue
        for field in VALIDATE_FIELDS:
            check = checks[field]
            if check.get("pass") is not True or check.get("empirical") is None:
                problems.append(
                    f"{label}.{field}: pass={check.get('pass')!r} ({check.get('note')})"
                )
            mismatch = ref.mismatch(bank, field, check.get("closed_form"))
            if mismatch:
                problems.append(mismatch)
    return problems


def check_op(argv: list[str], exit_code, stdout: str, ref: Reference) -> list[str]:
    """Problems with one op's exit code and output; empty when correct."""
    if exit_code != 0:
        return [f"exit code {exit_code!r}"]
    option = dict(zip(argv[1::2], argv[2::2]))
    try:
        if argv[0] == "validate":
            return check_validate_json(
                stdout, ref, int(option["--seed"]), int(option["--samples"])
            )
        if option["--format"] == "json":
            return check_analyze_json(stdout, ref)
        return check_analyze_csv(stdout, ref)
    except (AttributeError, KeyError, TypeError) as exc:  # output of the wrong shape
        return [f"malformed output: {exc!r}"]
