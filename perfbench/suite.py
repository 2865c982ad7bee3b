#!/usr/bin/env python3
"""Run the benchmark over several workloads and seeds and summarise it.

Usage (from the repository root)::

    python3 perfbench/suite.py                          # every workload, seeds 1..10
    python3 perfbench/suite.py --workloads query_graph --seeds 1-5 --trace 1
    python3 perfbench/suite.py --json perfbench-summary.json

Each run is one ``run.py`` invocation (itself fresh interpreters), one at a
time. For every workload and metric the summary gives the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median ("spread"), next to the metric's
bound from ``BENCHMARK.json``. It records the workload, the seeds, the run
count, the git commit, the Python version and the CPU count.

Seed 0 is held out: use it only to confirm a claim made on other seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: The seed kept back from tuning and claims (see README.md).
HELD_OUT_SEED = 0


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    if HELD_OUT_SEED in seeds:
        print(f"note: seed {HELD_OUT_SEED} is the held-out seed", file=sys.stderr)
    return seeds


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(lines[-1])


def summarise(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in declared["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", type=int, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, help="also write the summary here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    section = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in declared[section]}
    summary = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [one_run(workload, seed, args.seconds, args.trace) for seed in seeds]
        metrics = {}
        print(f"{workload}: {len(runs)} runs, seeds {args.seeds}")
        for name, bound in bounds.items():
            unit = runs[0]["metrics"][name]["unit"]
            stats = summarise([run["metrics"][name]["value"] for run in runs])
            metrics[name] = dict(stats, unit=unit, bound=bound)
            flag = ""
            if bound is not None and stats["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
            print(
                f"  {name:36s} {stats['median']:12.6g} {unit:9s} "
                f"q1 {stats['q1']:.6g} q3 {stats['q3']:.6g} spread {stats['spread']:.3f}"
                + (f" (bound {bound})" if bound is not None else "") + flag
            )
        summary["workloads"][workload] = {
            "runs": len(runs),
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
        }
        print(f"  correct {summary['workloads'][workload]['correct']}, "
              f"failed {summary['workloads'][workload]['failed']} of "
              f"{summary['workloads'][workload]['attempted']}")
    if args.json:
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0 if all(w["correct"] for w in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
