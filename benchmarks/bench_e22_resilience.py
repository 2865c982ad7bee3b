#!/usr/bin/env python3
"""E22 — availability and answer quality under per-source outages.

The resilience acceptance experiment: scripted chaos schedules take
individual sources down (crash, partition, flap) while an open-loop
request burst runs against the mediator service, and the harness measures
what the breakers + semantic degradation buy:

* **availability** — fraction of requests ending OK. The default
  all-or-nothing preset (``STRICT``) turns one crashed source into a
  blanket ``ERROR`` for everyone; a degrading config answers from the
  remaining sources instead.
* **answer quality** — what the degraded answers still guarantee: certain
  answers retained vs downgraded-to-possible, per the paper's semantics
  over the demoted (⟨c=0, s=0⟩) annotations.
* **containment** — zero unhandled exceptions anywhere, breakers open
  within their configured thresholds, half-open after cooldown, and
  re-open on a flapping source (the transition log is checked in the
  emitted JSON by ``tools/check_chaos.py``).

Usage::

    PYTHONPATH=src python benchmarks/bench_e22_resilience.py            # full
    PYTHONPATH=src python benchmarks/bench_e22_resilience.py --quick   # CI
    PYTHONPATH=src python benchmarks/bench_e22_resilience.py --json out.json

Writes ``benchmarks/results/e22_resilience.txt`` and a JSON trajectory
entry (default ``BENCH_resilience.json`` at the repo root). Exits non-zero
when a crashed request is observed, when resilient availability under the
hard-down scenario falls below the floor, or when the flap scenario's
breaker never re-opens.
"""

from __future__ import annotations

import argparse
import asyncio
import datetime
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
for _p in (REPO_ROOT, REPO_ROOT / "src"):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

from repro.confidence.answers import answer_query
from repro.model import fact
from repro.queries import identity_view, parse_rule
from dataclasses import replace

from repro.resilience import (
    STRICT,
    ChaosRunner,
    ChaosSchedule,
    ResilienceConfig,
    demote,
)
from repro.service import (
    MediatorService,
    PerSourceGateway,
    SchedulerConfig,
)
from repro.sources import SourceCollection, SourceDescriptor

from benchmarks.conftest import write_table

#: Resilient availability under one hard-down source must stay above this.
AVAILABILITY_FLOOR = 0.95

QUERY = parse_rule("ans(x) <- R(x)")


def sound_chain(n: int) -> SourceCollection:
    """n sound-only sources; S_i alone certifies R(e_i).

    Soundness 1 makes each claimed fact certain; completeness 0 leaves the
    rest of the domain open — so losing S_i downgrades exactly ans(e_i)
    from certain to possible, a clean per-source answer-quality signal.
    """
    return SourceCollection(
        [
            SourceDescriptor(
                identity_view(f"V{i}", "R", 1),
                [fact(f"V{i}", f"e{i}")], 0, 1, name=f"S{i}",
            )
            for i in range(1, n + 1)
        ]
    )


def domain_for(n: int):
    return [f"e{i}" for i in range(1, n + 2)]


#: Retry knobs shared by both arms.
RETRY = dict(max_attempts=2, backoff_base=0.001)


def resilience_config(resilient: bool) -> ResilienceConfig:
    if not resilient:
        return replace(STRICT, **RETRY)
    return ResilienceConfig(
        source_timeout=0.02,
        min_samples=1,
        consecutive_limit=2,
        cooldown=0.04,
        **RETRY,
    )


async def _drive(collection, domain, chaos: str, requests: int, pace: float,
                 resilient: bool, seed: int):
    """One scenario: a paced request burst under a chaos schedule."""
    gateway = PerSourceGateway(seed=seed)
    runner = ChaosRunner(gateway, ChaosSchedule.parse(chaos))
    service = MediatorService(
        collection, domain,
        config=SchedulerConfig(
            batch_window=0.0, resilience=resilience_config(resilient)
        ),
        gateway=gateway,
    )
    probes = [fact("R", f"e{i + 1}") for i in range(len(tuple(collection)))]
    outcome = {
        "requests": requests,
        "ok": 0, "error": 0, "timeout": 0, "rejected": 0,
        "degraded": 0, "crashed_requests": 0,
    }
    degraded_answer_sets = []
    async with service:
        loop = asyncio.get_running_loop()
        start = loop.time()
        runner.advance(0.0)
        for i in range(requests):
            runner.advance(loop.time() - start)
            try:
                response = await service.answer(QUERY, timeout=2.0)
                outcome[response.status.value] += 1
                if response.degraded:
                    outcome["degraded"] += 1
                    degraded_answer_sets.append(
                        (response.excluded_sources,
                         frozenset(response.answers),
                         frozenset(response.downgraded_answers))
                    )
            except Exception:  # the containment claim: this never happens
                outcome["crashed_requests"] += 1
            if pace:
                await asyncio.sleep(pace)
        stats = service.stats()
    outcome["availability"] = outcome["ok"] / requests
    outcome["probed_facts"] = len(probes)
    return outcome, stats, degraded_answer_sets


def check_degraded_semantics(collection, domain, degraded_sets) -> int:
    """Every degraded answer set must equal the statically-demoted
    semantics for its exclusion set. Returns the number of distinct
    exclusion sets differentially checked."""
    checked = {}
    for excluded, answers, downgraded in degraded_sets:
        key = tuple(excluded)
        if key not in checked:
            weak = answer_query(QUERY, demote(collection, set(excluded)), domain)
            full = answer_query(QUERY, collection, domain)
            checked[key] = (frozenset(weak.certain),
                            frozenset(full.certain - weak.certain))
        want_certain, want_downgraded = checked[key]
        if answers != want_certain or downgraded != want_downgraded:
            raise AssertionError(
                f"E22: degraded answers diverge from demoted semantics "
                f"(excluded={excluded})"
            )
    return len(checked)


def transition_counts(stats) -> dict:
    edges = {}
    for t in stats.get("resilience", {}).get("transitions", ()):
        edges[(t["from"], t["to"])] = edges.get((t["from"], t["to"]), 0) + 1
    return {
        "opened": edges.get(("closed", "open"), 0)
        + edges.get(("half_open", "open"), 0),
        "reopened": edges.get(("half_open", "open"), 0),
        "half_opened": edges.get(("open", "half_open"), 0),
        "closed": edges.get(("half_open", "closed"), 0),
        "edges": {f"{a}->{b}": n for (a, b), n in sorted(edges.items())},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer sources/requests (CI smoke mode)",
    )
    parser.add_argument(
        "--json", type=Path, default=REPO_ROOT / "BENCH_resilience.json",
        help="where to write the JSON trajectory entry",
    )
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    mode = "quick" if args.quick else "full"
    n = 4 if args.quick else 6
    requests = 30 if args.quick else 90
    pace = 0.012 if args.quick else 0.006

    collection = sound_chain(n)
    domain = domain_for(n)
    # The flap window: S2 crashes at t=0, heals at 40% of the run (long
    # enough past the 40ms cooldown for a half-open probe to close the
    # breaker), then crashes again at 70%.
    span_ms = int(requests * pace * 1000)
    flap = (
        f"0:S2:crash, {int(span_ms * 0.4)}:S2:ok, "
        f"{int(span_ms * 0.7)}:S2:crash"
    )
    scenarios = {
        "healthy": ("", True),
        "hard_down": ("0:S2:crash", True),
        "hard_down_legacy": ("0:S2:crash", False),
        "partition": ("0:S2:partition", True),
        "flap_recover_flap": (flap, True),
    }

    results = {}
    rows = []
    wall = time.perf_counter()
    for name, (chaos, resilient) in scenarios.items():
        outcome, stats, degraded_sets = asyncio.run(
            _drive(collection, domain, chaos, requests, pace,
                   resilient, args.seed)
        )
        outcome["differential_checks"] = check_degraded_semantics(
            collection, domain, degraded_sets
        )
        outcome["transitions"] = transition_counts(stats)
        counters = stats["metrics"]["counters"]
        outcome["counters"] = {
            k: counters[k] for k in sorted(counters)
            if k.startswith(("breaker", "source_", "retry", "responses_",
                             "degraded"))
        }
        results[name] = outcome
        rows.append([
            name,
            "on" if resilient else "off",
            f"{100 * outcome['availability']:6.1f}%",
            outcome["degraded"],
            outcome["error"],
            outcome["crashed_requests"],
            outcome["transitions"]["opened"],
            outcome["transitions"]["half_opened"],
        ])
    elapsed = time.perf_counter() - wall

    resilient_avail = results["hard_down"]["availability"]
    legacy_avail = results["hard_down_legacy"]["availability"]
    crashed = sum(r["crashed_requests"] for r in results.values())
    flap_t = results["flap_recover_flap"]["transitions"]
    failures = []
    if crashed:
        failures.append(f"{crashed} unhandled request exceptions")
    if resilient_avail < AVAILABILITY_FLOOR:
        failures.append(
            f"hard-down availability {resilient_avail:.2f} < floor "
            f"{AVAILABILITY_FLOOR}"
        )
    if resilient_avail <= legacy_avail:
        failures.append(
            "resilience bought no availability over the legacy path"
        )
    if not (flap_t["reopened"] >= 1 and flap_t["half_opened"] >= 1
            and flap_t["closed"] >= 1):
        failures.append(f"flap scenario transitions incomplete: {flap_t}")

    notes = [
        f"mode={mode}; {n} sound-only sources, {requests} paced requests "
        f"per scenario, seed={args.seed}; wall {elapsed:.1f}s",
        f"headline: hard-down availability {100 * resilient_avail:.0f}% "
        f"resilient vs {100 * legacy_avail:.0f}% legacy "
        f"(floor {100 * AVAILABILITY_FLOOR:.0f}%) -> "
        f"{'PASS' if not failures else 'FAIL'}",
        "degraded answers differentially checked against the statically "
        "demoted collection (paper semantics) every scenario",
        "legacy = the default STRICT preset (degrade off, breakers never "
        "trip): one crashed source fails the entire batch",
    ]
    table = write_table(
        "e22_resilience",
        "E22: availability and answer quality under per-source outages",
        ["scenario", "resilience", "avail", "degraded", "error",
         "crashed", "opens", "half-opens"],
        rows,
        notes=notes,
    )
    print(table)

    payload = {
        "bench": "e22_resilience",
        "date": datetime.date.today().isoformat(),
        "mode": mode,
        "sources": n,
        "requests": requests,
        "seed": args.seed,
        "scenarios": results,
        "acceptance": {
            "availability_floor": AVAILABILITY_FLOOR,
            "hard_down_availability": resilient_avail,
            "legacy_availability": legacy_avail,
            "crashed_requests": crashed,
            "flap_transitions": flap_t,
            "passed": not failures,
            "failures": failures,
        },
    }
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
