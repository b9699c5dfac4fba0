"""Per-layer spans around the calls into gaussrisk's public functions.

The tracer replaces module attributes with timing wrappers for the duration
of a ``with tracer.installed():`` block and restores the originals on exit.
Spans nest: a span's self time is its duration minus the durations of the
spans it directly contains, so the self times of one op add up to the op's
traced duration.  Spans are folded into per-layer totals as they close;
nothing per call is kept.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

ROOT = "cli.main"

# (module, attribute, layer): the attribute is looked up at call time by the
# caller's module, so the wrapper sits on the module that makes the call.
TARGETS = (
    ("gaussrisk.cli", "load_panel", "estimation.load_panel"),
    ("gaussrisk.cli", "estimate_moments", "estimation.estimate_moments"),
    ("gaussrisk.cli", "pair_for_bank", "estimation.pair_for_bank"),
    ("gaussrisk.cli", "full_report", "measures.full_report"),
    ("gaussrisk.cli", "validate_closed_forms", "mc.validate_closed_forms"),
    ("gaussrisk.mc", "sample_pair", "mc.sample_pair"),
    ("gaussrisk.mc", "empirical_quantile", "mc.empirical_quantile"),
    ("gaussrisk.measures", "conditional_moments", "normal.conditional_moments"),
)
LAYERS = (ROOT,) + tuple(layer for _, _, layer in TARGETS)


class Tracer:
    """Accumulates self time and call counts per layer over traced ops."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.samples = 0            # Monte Carlo draws returned by sample_pair
        self.evaluated = 0          # MC statistics evaluated (not skipped as thin)
        self.attempted = 0          # MC statistics attempted
        self._children: list[float] = []  # per open span: time spent in child spans

    def _span(self, layer: str, fn, args, kwargs):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            self.self_s[layer] += duration - self._children.pop()
            self.calls[layer] += 1
            if self._children:
                self._children[-1] += duration

    def _wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self._span(layer, fn, args, kwargs)
            if layer == "mc.sample_pair":
                self.samples += len(result)
            elif layer == "mc.validate_closed_forms":
                self.evaluated += len(result.evaluated)
                self.attempted += len(result.checks)
            return result

        return traced

    def run(self, main, argv):
        """Call ``main(argv)`` as the root span of one op."""
        return self._span(ROOT, main, (argv,), {})

    @contextmanager
    def installed(self):
        """Wrap every target for the block's duration, then put the originals back."""
        originals = []
        try:
            for module_name, attribute, layer in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                originals.append((module, attribute, original))
                setattr(module, attribute, self._wrap(layer, original))
            yield self
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-op averages of every layer's self time and call count."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer] / ops
            if layer != ROOT:
                out[f"{layer}.calls"] = self.calls[layer] / ops
        out["mc.sample_pair.samples"] = self.samples / ops
        # 0 when no statistic was attempted, i.e. the workload never validates.
        out["mc.validate_closed_forms.evaluated_ratio"] = (
            self.evaluated / self.attempted if self.attempted else 0.0
        )
        return out
