"""lendmech benchmark: one workload per process, driven through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). The program is
imported from `src/` next to this directory; nothing is installed. Each
CLI call goes through `lendmech.cli.main([...])` in this process, single
threaded, and every output is checked. A pass runs each of the workload's
calls once (see workloads.py); passes repeat until `--seconds` have gone
by (at least MIN_PASSES of them) and times are medians over passes.

With `--trace 0` the result carries the end-to-end metrics: set-up time
(interpreter plus `import lendmech`, median of SETUP_REPEATS fresh
processes), wall and CPU seconds per pass, and the process's peak RSS.
With `--trace 1` untraced and traced passes alternate; the traced ones run
with lendmech's public functions wrapped from outside (see tracer.py) and
give the per-layer metrics. Traced and untraced calls must give identical
outputs, and every wrapper must be gone afterwards.

Attempted operations are the CLI calls plus, for campaigns, one replay
check per run; `failed` counts those that raised, exited non-zero or
failed a check, and `failed_frac` is printed with the metrics. The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The line before it is a `# context`
record with the machine facts the numbers depend on and the per-pass times.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up subprocesses, so
# the numbers measure the program and not the thread scheduler.
THREAD_PINNING = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_PASSES = 3
SETUP_REPEATS = 9

# (name, unit) for --trace 0; peak_rss_mb is ru_maxrss in MiB.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics for --trace 1: name -> (unit, source). A source is
# ("s" | "self_s" | "calls", span name), ("count", counter name),
# ("ms", span name, percentile) over all traced calls of that span,
# ("call", call name) for the traced wall time of one CLI call, or
# ("overhead",).
PER_LAYER = {
    "priors.sample_others.s": ("s", ("s", "priors.sample_others")),
    "priors.sample_others.cells": ("count", ("count", "priors.sample_others.cells")),
    "scenario.load.s": ("s", ("s", "scenario.load")),
    "audit.generate_misreports.s": ("s", ("s", "audit.generate_misreports")),
    "audit.candidates": ("count", ("count", "audit.candidates")),
    "audit.best_response_search.self_s": ("s", ("self_s", "audit.best_response_search")),
    "winkler.ColumnEngine.build_s": ("s", ("s", "winkler.ColumnEngine.build")),
    "winkler.ColumnEngine.column_contribution.s": (
        "s", ("s", "winkler.ColumnEngine.column_contribution")),
    "winkler.ColumnEngine.column_contribution.calls": (
        "count", ("calls", "winkler.ColumnEngine.column_contribution")),
    "winkler.allocate.s": ("s", ("s", "winkler.allocate")),
    "winkler.settle.s": ("s", ("s", "winkler.settle")),
    "vcg.InterimEngine.build_s": ("s", ("s", "vcg.InterimEngine.build")),
    "vcg.InterimEngine.utilities.s": ("s", ("s", "vcg.InterimEngine.utilities")),
    "vcg.InterimEngine.utilities.calls": ("count", ("calls", "vcg.InterimEngine.utilities")),
    "vcg.select_batch.s": ("s", ("s", "vcg.select_batch")),
    "vcg.select_batch.calls": ("count", ("calls", "vcg.select_batch")),
    "vcg.select_batch.rows": ("count", ("count", "vcg.select_batch.rows")),
    "vcg.allocate.s": ("s", ("s", "vcg.allocate")),
    "vcg.settle.s": ("s", ("s", "vcg.settle")),
    "vcg.tcomp.s": ("s", ("s", "vcg.tcomp")),
    "vcg.tcomp.calls": ("count", ("calls", "vcg.tcomp")),
    "aggregation.budescu_weights.s": ("s", ("s", "aggregation.budescu_weights")),
    "aggregation.budescu_weights.calls": ("count", ("calls", "aggregation.budescu_weights")),
    "aggregation.loans_scanned": ("count", ("count", "aggregation.loans_scanned")),
    "rounds.run_round.s": ("s", ("s", "rounds.run_round")),
    "rounds.run_round.ms.p50": ("ms", ("ms", "rounds.run_round", 50)),
    "rounds.run_round.ms.p95": ("ms", ("ms", "rounds.run_round", 95)),
    "rounds.evolve_weights.s": ("s", ("s", "rounds.evolve_weights")),
    "rounds.evolve_weights.ms.p95": ("ms", ("ms", "rounds.evolve_weights", 95)),
    "rounds.RoundLedger.write_jsonl.s": ("s", ("s", "rounds.RoundLedger.write_jsonl")),
    "rounds.ledger_bytes": ("B", ("count", "rounds.ledger_bytes")),
    "cli.main.self_s": ("s", ("self_s", "cli.main")),
    "call.audit-vcg-mc.s": ("s", ("call", "audit-vcg-mc")),
    "call.audit-winkler-mc.s": ("s", ("call", "audit-winkler-mc")),
    "call.campaign-budescu.s": ("s", ("call", "campaign-budescu")),
    "call.campaign-vcg-tcomp.s": ("s", ("call", "campaign-vcg-tcomp")),
    "trace.overhead_frac": ("frac", ("overhead",)),
}

# Layers each CLI call is predicted not to reach; the traced run records
# whether the prediction held.
BYPASSES = {
    "audit-vcg-mc": ("winkler.ColumnEngine.column_contribution",),
    "audit-winkler-mc": ("vcg.InterimEngine.utilities",),
    "campaign-budescu": ("vcg.tcomp", "vcg.select_batch"),
    "campaign-vcg-tcomp": ("aggregation.budescu_weights",),
}


def _import_program():
    """Import lendmech from this checkout's src/, never from elsewhere."""
    if not (SRC / "lendmech" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lendmech sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lendmech

    if Path(lendmech.__file__).resolve().parent != (SRC / "lendmech").resolve():
        sys.exit(f"perfbench: imported lendmech from {lendmech.__file__}, not {SRC}")


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _median(values: list[float]) -> float:
    """Median, or 0.0 when every pass failed (the run then reports
    correct: false and its metrics carry no information)."""
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def measure_setup() -> list[float]:
    """Wall seconds for a fresh interpreter to import lendmech."""
    env = {**os.environ, **THREAD_PINNING, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import lendmech"], env=env, cwd=ROOT, check=True,
        )
        times.append(time.perf_counter() - start)
    return times


def machine_facts(seed: int) -> dict:
    import numpy

    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_pinning": THREAD_PINNING,
        "seed": seed,
    }


class Runner:
    """Runs passes over one workload's CLI calls and checks every result."""

    def __init__(self, calls) -> None:
        from lendmech import cli

        self.cli = cli
        self.calls = calls
        self.attempted = 0
        self.failed = 0

    def call(self, call) -> tuple[float, float] | None:
        """One checked CLI call: (wall seconds, CPU seconds), or None when
        the call raised or its outputs failed a check."""
        self.attempted += 1
        out = io.StringIO()
        try:
            cpu = _cpu_seconds()
            start = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(call.argv())
            wall = time.perf_counter() - start
            cpu = _cpu_seconds() - cpu
            call.check_call(code, out.getvalue())
        except Exception:  # any raise is a failed operation, reported below
            self.failed += 1
            traceback.print_exc()
            return None
        return wall, cpu

    def run_pass(self, before_call=None) -> tuple[float, float] | None:
        """Each call once: summed (wall, CPU) seconds, or None if one failed."""
        results = []
        for call in self.calls:
            if before_call is not None:
                before_call(call)
            results.append(self.call(call))
        if None in results:
            return None
        return sum(r[0] for r in results), sum(r[1] for r in results)

    def finish(self) -> None:
        """Each call's run-level check, if it has one."""
        for call in self.calls:
            if call.check_run is None:
                continue
            self.attempted += 1
            try:
                call.check_run()
            except Exception:
                self.failed += 1
                traceback.print_exc()


def run_plain(runner: Runner, seconds: float, context: dict) -> dict:
    setup = measure_setup()
    passes = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(passes) < MIN_PASSES:
        passes.append(runner.run_pass())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.finish()
    walls = [p[0] for p in passes if p is not None]
    cpus = [p[1] for p in passes if p is not None]
    context["setup_s_runs"] = setup
    context["wall_s_passes"] = walls
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": _median(walls),
        "cpu_s": _median(cpus),
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _layer_values(tracer, passes: list[int], call_names: list[str]) -> dict:
    """Span totals per traced pass, medians over passes.

    `passes[k]` and `call_names[k]` are the pass and CLI call that tracer
    invocation k belongs to.
    """
    own = tracer.self_times()
    per_pass: dict[int, dict] = {p: {} for p in passes}
    durations: dict[str, list[float]] = {}
    for k, (name, start, end, _, inv) in enumerate(tracer.spans):
        stats = per_pass[passes[inv]]
        stats[("s", name)] = stats.get(("s", name), 0.0) + (end - start)
        stats[("self_s", name)] = stats.get(("self_s", name), 0.0) + own[k]
        stats[("calls", name)] = stats.get(("calls", name), 0) + 1
        if name == "cli.main":
            stats[("call", call_names[inv])] = end - start
        durations.setdefault(name, []).append((end - start) * 1e3)
    for inv, counts in tracer.counts.items():
        stats = per_pass[passes[inv]]
        for key, value in counts.items():
            stats[("count", key)] = stats.get(("count", key), 0) + value
    values = {}
    for metric, (_, source) in PER_LAYER.items():
        if source[0] == "ms":
            values[metric] = _percentile(durations.get(source[1], []), source[2])
        elif source[0] != "overhead":
            values[metric] = statistics.median(
                float(stats.get(source, 0)) for stats in per_pass.values()
            )
    return values


def run_traced(runner: Runner, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    untraced, traced = [], []
    passes, call_names = [], []  # per tracer invocation (one traced CLI call)

    def next_invocation(call):
        tracer.invocation = len(passes)
        passes.append(len(traced))
        call_names.append(call.name)

    deadline = time.perf_counter() + seconds
    # The first pass is untraced, and check_call requires every later call
    # to repeat its outputs exactly, so traced calls must match untraced ones.
    while time.perf_counter() < deadline or len(traced) < MIN_PASSES:
        untraced.append(runner.run_pass())
        tracer.install()
        try:
            traced.append(runner.run_pass(before_call=next_invocation))
        finally:
            tracer.uninstall()
        if not tracer.restored():
            raise RuntimeError("a traced function is still wrapped after the traced pass")
    runner.finish()

    values = _layer_values(tracer, passes, call_names)
    traced_wall = _median([p[0] for p in traced if p is not None])
    untraced_wall = _median([p[0] for p in untraced if p is not None])
    values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
    reached = {(call_names[s[4]], s[0]) for s in tracer.spans}
    bypass = {
        f"{call.name} skips {span}": (call.name, span) not in reached
        for call in runner.calls
        for span in BYPASSES[call.name]
    }
    trace_path.write_text(json.dumps({
        "bypass_held": bypass,
        "invocations": [{"pass": p, "call": c} for p, c in zip(passes, call_names)],
        "spans": tracer.to_json(),
    }))
    return metrics, bypass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    why, call_types = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    context = {"workload": args.workload, "why": why, **machine_facts(args.seed)}
    try:
        runner = Runner([c(args.seed, workdir / c.name) for c in call_types])
        context["calls"] = {c.name: c.why for c in runner.calls}
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, context["bypass_held"] = run_traced(runner, args.seconds, trace_path)
            context["spans"] = str(trace_path.relative_to(ROOT))
        else:
            metrics = run_plain(runner, args.seconds, context)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']!r} {metric['unit']}")
    print(f"{args.workload} failed_frac = {runner.failed / runner.attempted!r} "
          f"({runner.failed} of {runner.attempted} operations)")
    correct = runner.failed == 0
    print("# context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
