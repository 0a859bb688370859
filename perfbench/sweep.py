"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py [--workload NAME ...] [--seeds 1-10]
                               [--seconds N] [--trace 0|1] [--out FILE]

`--seconds` defaults to `run_seconds` in BENCHMARK.json.

Each (workload, seed) is one `run.py` process, run one after another. For
every metric the summary gives the median of the per-run values, their
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
distance between the quartiles as a share of the median. With `--out` the
summary, the per-run values and each run's context record go to a JSON
file; `perfbench/baseline.json` (`--seeds 1-10`) and
`perfbench/baseline_trace.json` (`--seeds 1-3 --trace 1`) were written
this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})")
    context = next(
        (json.loads(line[len("# context "):]) for line in lines if line.startswith("# context ")),
        {},
    )
    return json.loads(lines[-1]), context


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary as JSON to this file")
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in _seeds(args.seeds):
            result, context = run_once(name, seed, args.seconds, args.trace)
            runs.append({"seed": seed, **result, "context": context})
            ok &= result["correct"]
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for metric in runs[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in runs]
            metrics[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], **summarise(values), "values": values,
            }
            m = metrics[metric]
            print(f"  {name} {metric}: median {m['median']:.6g} {m['unit']} "
                  f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, spread {m['spread']:.2%})", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  {name} failed_frac: {failed / attempted!r} ({failed} of {attempted} operations)")
        report["workloads"][name] = {
            "failed_frac": failed / attempted, "metrics": metrics, "runs": runs,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
