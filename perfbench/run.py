"""Benchmark of the gaussrisk CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload analyze-wide --seed 1 --seconds 30 --trace 0

Each op is one in-process call of ``gaussrisk.cli.main(argv)`` with stdout
captured, repeated in a closed loop with one client for ``--seconds``.
Every op's output is checked against an independent reference outside the
timed interval; a mismatch counts as a failed op and the run goes on.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced ops and reports the per-layer metrics of the traced ones
plus the tracing overhead.  The last line of stdout is the result object;
the line before it is the run record: input digests, machine facts and a
host-speed probe taken before and after the run, which is a diagnostic and
is not gated.

The program under test is imported from ``src/`` next to this directory;
without it the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy

from reference import Reference, check_op
from tracing import Tracer
from workloads import ALPHA, WORKLOADS, write_panel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_inputs"

SETUP_REPEATS = 9  # fresh interpreters per run; the median is setup_s
TAIL_BEYOND = 10  # op_tail_s has exactly this many slower ops above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_mem_mb": "MB",
}

# numpy is imported untimed first: its import is a fixed cost gaussrisk
# cannot change, and it is file-system bound, the part of start-up that
# swings most with the host (up to 60 % between 10-run sets).
_IMPORT_PROBE = (
    "import time, numpy; start = time.perf_counter(); import gaussrisk.cli; "
    "print(time.perf_counter() - start, gaussrisk.cli.__file__)"
)


def layer_unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def import_seconds() -> float:
    """Time ``import gaussrisk.cli`` in a fresh interpreter, as every CLI run pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, module_file = done.stdout.split()
    if not Path(module_file).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported gaussrisk from {module_file}, not from {SRC}")
    return float(seconds)


def host_probe_seconds() -> float:
    """Median time of a fixed pure-Python loop; tracks the host's current speed."""
    def spin() -> int:
        total = 0
        for i in range(200_000):
            total += i * i % 7
        return total

    times = []
    for _ in range(5):
        start = time.perf_counter()
        spin()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libraries = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libraries):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                getter = getattr(library, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def machine_facts() -> dict:
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        blas_threads = _blas_threads()
    except OSError:
        blas_threads = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads,
        "threads": _process_threads(),
    }


def _process_threads():
    with open("/proc/self/status", encoding="utf-8") as status:
        for line in status:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


@contextlib.contextmanager
def traced_memory(peaks: list):
    """Append the peak of memory allocated inside the block, in bytes."""
    tracemalloc.start()
    try:
        yield
    finally:
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


class Runner:
    """Runs ops of one workload and tallies their checked outcomes."""

    def __init__(self, argv: list[str], reference: Reference, main):
        self.argv = argv
        self.reference = reference
        self.main = main
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, main=None, around=None) -> float:
        """Run one op, check its output and return its duration."""
        stdout = io.StringIO()
        gc.collect()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()), \
                (around or contextlib.nullcontext()):
            start = time.perf_counter()
            try:
                code = (main or self.main)(self.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed op, not the end of the run
                code = f"raised {exc!r}"
            elapsed = time.perf_counter() - start
        problems = check_op(self.argv, code, stdout.getvalue(), self.reference)
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"op {self.attempted}: {problems[0]}")
        return elapsed

    def loop(self, seconds: float, step) -> None:
        """Call ``step()`` until ``seconds`` have passed."""
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            step()


def end_to_end(runner: Runner, seconds: float, record: dict) -> dict:
    times: list[float] = []
    imports: list[float] = []
    import_seconds()  # untimed: compiles bytecode and warms the page cache
    start = time.perf_counter()

    def step() -> None:
        # Import samples are spread evenly over the run, between ops, so that
        # their median spans the host's speed drift as the op times do.
        if len(imports) < SETUP_REPEATS and (
            time.perf_counter() - start >= len(imports) * seconds / SETUP_REPEATS
        ):
            imports.append(import_seconds())
        times.append(runner.op())

    runner.loop(seconds, step)

    peaks: list[int] = []
    runner.op(around=traced_memory(peaks))

    ordered = sorted(times)
    beyond = min(TAIL_BEYOND, len(ordered) // 2)
    # The op-time median is reported but not gated: the host's speed drifts
    # by up to 2x, and the share of slow ops moved the median by up to 30 %
    # between runs, while the slow end of the distribution stayed put.
    record.update(
        ops_timed=len(times),
        op_p50_s=statistics.median(times),
        tail_percentile=round(100.0 * (len(ordered) - beyond) / len(ordered), 1),
    )
    return {
        "setup_s": statistics.median(imports),
        "op_tail_s": ordered[len(ordered) - 1 - beyond],
        "ops_per_s": len(times) / sum(times),
        "peak_mem_mb": peaks[0] / 2**20,
    }


def per_layer(runner: Runner, seconds: float, record: dict) -> dict:
    tracer = Tracer()
    traced: list[float] = []
    untraced: list[float] = []

    def step() -> None:
        if len(traced) <= len(untraced):
            traced.append(runner.op(main=functools.partial(tracer.run, runner.main),
                                    around=tracer.installed()))
        else:
            untraced.append(runner.op())

    runner.loop(seconds, step)
    if not untraced:  # a run too short to alternate still measures the overhead
        untraced.append(runner.op())
    record.update(ops_traced=len(traced), ops_untraced=len(untraced))
    metrics = tracer.metrics(len(traced))
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gaussrisk" / "cli.py").is_file():
        print(f"error: no gaussrisk sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    WORK_DIR.mkdir(exist_ok=True)
    panel_path = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}.csv"
    try:
        panel = write_panel(workload, args.seed, panel_path)
        reference = Reference.from_file(panel_path, ALPHA)

        import gaussrisk.cli

        record = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "input": panel.record(),
            "machine": machine_facts(),
            "host_probe_before_s": host_probe_seconds(),
        }
        argv = workload.argv(str(panel_path), args.seed)
        runner = Runner(argv, reference, gaussrisk.cli.main)
        runner.op()  # warm-up: first BLAS/LAPACK calls and lazy imports; checked, not timed
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, args.seconds, record)
        record.update(
            host_probe_after_s=host_probe_seconds(),
            max_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            problems=runner.problems,
        )
    finally:
        panel_path.unlink(missing_ok=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()

    units = END_TO_END_UNITS if not args.trace else {name: layer_unit(name) for name in metrics}
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
