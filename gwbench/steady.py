"""Steadiness runner: how much each metric moves from run to run.

Run from the repository root::

    python3 gwbench/steady.py --runs 10

Each round runs every workload in ``BENCHMARK.json`` once, untraced, for
its ``run_seconds``, with the round's seed (1, 2, …), rotating the
workload order from round to round so that slow drift of the host is
spread over all workloads instead of landing on one.  At the end it
prints the host (CPU count, platform, Python) and, per workload and
metric, the median, the quartiles (``statistics.quantiles(n=4)``), the
min–max range, and the quartile spread as a share of the median — the
figure the bounds in ``BENCHMARK.json`` are set from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int) -> dict:
    """One benchmark run; returns its result line plus wall time and exit code."""
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else {}
    except ValueError:
        result = {}
    result["exit_code"] = proc.returncode
    result["wall_s"] = time.perf_counter() - begin
    # the comment lines after the run's own header: load, outcomes, warnings
    result["notes"] = [line for line in lines if line.startswith("# ")][1:]
    if proc.returncode:
        result["stderr_tail"] = proc.stderr.strip().splitlines()[-5:]
    return result


def spread(values: list[float]) -> dict:
    """Median, quartiles, range, and the quartile spread over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_share": (q3 - q1) / median if median else float("nan"),
        "range_share": (max(values) - min(values)) / median if median else float("nan"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in SPEC["workloads"]]
    host = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }
    print(f"# host {json.dumps(host)}", flush=True)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    failures = 0
    for round_ in range(args.runs):
        shift = round_ % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            seed = round_ + 1
            result = run_once(workload, seed)
            runs[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result.get("metrics", {}).items()}
            print(f"{workload} seed={seed} exit={result['exit_code']} "
                  f"wall={result['wall_s']:.1f}s failed={result.get('failed')}/"
                  f"{result.get('attempted')} {values}", flush=True)
            for line in result["notes"]:
                print(f"  {line}", flush=True)
            if result["exit_code"] or not result.get("correct"):
                failures += 1
                print(f"#   run failed: {result.get('stderr_tail')}", flush=True)
    for workload, results in runs.items():
        names = sorted({k for r in results for k in r.get("metrics", {})})
        for name in names:
            values = [r["metrics"][name]["value"] for r in results if name in r.get("metrics", {})]
            stats = spread(values)
            print(f"{workload:14} {name:28} median={stats['median']:.5g} "
                  f"q1={stats['q1']:.5g} q3={stats['q3']:.5g} "
                  f"min={stats['min']:.5g} max={stats['max']:.5g} "
                  f"iqr/median={stats['iqr_share']:.3f} range/median={stats['range_share']:.3f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
