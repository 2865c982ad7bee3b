#!/usr/bin/env python3
"""Run one workload of the end-to-end ``MediatorService`` benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query_graph --seed 1 --seconds 35 --trace 0

Every measurement happens in a fresh interpreter (``child.py``), one after
another, because the program's memo, cache registry, symbol table and plan
cache are process-wide: a second run in the same process would start warm.

``--trace 0`` runs the workload once untraced and starts
:data:`SETUP_PROBES` more interpreters that stop at their first response,
and reports the end-to-end metrics; ``setup_s`` is the median set-up time
of all of them. ``--trace 1`` runs the workload untraced and then traced,
and reports the per-layer metrics, including the tracing overhead (the
traced run's throughput against the untraced one's).

The metric names and units are those of ``BENCHMARK.json``. Human-readable
``name value unit`` lines come first; the last line of standard output is
the JSON result. A response that disagrees with the oracles, or any
request that does not end OK, fails the command (exit code 1, no result
line). The program is taken from ``src/`` next to this directory; without
it the command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Extra fresh interpreters per ``--trace 0`` run, timed to the first response.
SETUP_PROBES = 2
#: Hard limit on all child interpreters of one invocation together, in
#: seconds; the command must finish within 180 s.
RUN_BUDGET = 170


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child(args, seed: int, deadline: float) -> dict:
    """Run ``child.py`` in a fresh interpreter; its last stdout line is JSON.

    The child is killed (and waited for) if it is still running at
    *deadline*, a ``time.monotonic()`` value.
    """
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # String hashing follows the seed: one seed replays the same run.
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    spawned_at = time.monotonic()
    timeout = deadline - spawned_at
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args, "--spawned-at", repr(spawned_at)],
            env=env, cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {args} exceeded {timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"child {args} exited with {proc.returncode}")
    return json.loads(lines[-1])


def declared_units(section: str) -> dict:
    """``{name: unit}`` of one metric section of BENCHMARK.json."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in declared[section]}


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the workload in fresh interpreters; returns values and tallies."""
    deadline = time.monotonic() + RUN_BUDGET
    base = ["--workload", workload, "--seed", str(seed)]
    # A traced invocation splits its time between the untraced reference
    # run and the traced run, so both kinds of invocation take as long.
    window = seconds / 2 if trace else seconds
    base += ["--seconds", repr(window)]
    untraced = child(base + ["--trace", "0"], seed, deadline)
    runs = [untraced]
    if trace:
        traced = child(base + ["--trace", "1"], seed, deadline)
        runs.append(traced)
        values = dict(traced["layers"])
        for stage in ("import_s", "build_s", "first_response_s"):
            values[f"setup.{stage}"] = statistics.median(r["setup"][stage] for r in runs)
        values["trace.overhead"] = (
            1 - traced["e2e"]["throughput_rps"] / untraced["e2e"]["throughput_rps"]
        )
    else:
        setups = [untraced["setup"]["setup_s"]]
        for _ in range(SETUP_PROBES):
            probe = child(base + ["--mode", "setup"], seed, deadline)
            setups.append(probe["setup"]["setup_s"])
        e2e = untraced["e2e"]
        values = {
            "throughput_rps": e2e["throughput_rps"],
            "latency_p50_ms": e2e["latency_p50_ms"],
            "latency_p95_ms": e2e["latency_p95_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": untraced["peak_rss_mb"],
        }
    return {
        "values": values,
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "mismatches": [m for run in runs for m in run["mismatches"]],
        "statuses": sum((Counter(run["statuses"]) for run in runs), Counter()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        units = declared_units("per_layer" if args.trace else "end_to_end")
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not result["correct"] or result["failed"]:
        # A run with a wrong or failed response measures nothing worth
        # keeping: report why and give no result line.
        for mismatch in result["mismatches"]:
            print(f"perfbench: oracle mismatch: {mismatch}", file=sys.stderr)
        if result["failed"]:
            print(
                f"perfbench: {result['failed']} of {result['attempted']} requests failed: "
                f"{dict(result['statuses'])}", file=sys.stderr,
            )
        return 1
    values = result["values"]
    if set(values) != set(units):
        print(
            f"perfbench: measured {sorted(set(values) ^ set(units))} "
            "differ from BENCHMARK.json", file=sys.stderr,
        )
        return 1
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
