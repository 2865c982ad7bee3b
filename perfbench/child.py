#!/usr/bin/env python3
"""One benchmark run in a fresh interpreter (started by ``run.py``).

Drives ``MediatorService`` in-process through its public API with a closed
loop of :data:`CALLERS` coroutines on the service's own event loop: each
caller awaits its reply before sending the next request. Nothing runs in
threads or child processes (``engine_workers=0``, ``shard_workers=0``).

Modes:

* ``--mode setup`` stops at the first OK response and reports set-up time
  only (``run.py`` repeats it to report a median);
* ``--mode run`` then warms up, measures a window of ``--seconds``, and
  checks every OK response against the oracles (``oracle.py``); with
  ``--trace 1`` the layer timers of ``tracing.py`` are installed after
  set-up and the per-layer breakdown is reported as well.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

STARTED = time.monotonic()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402

# The program is imported here, inside the set-up time measured from
# the parent's spawn.
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.service import FaultPolicy, MediatorService  # noqa: E402

#: In-flight callers of the closed loop.
CALLERS = 16
#: Per-request deadline, far above any latency the workloads produce.
TIMEOUT = 5.0
#: Closed-loop warm-up before the timed window.
WARMUP_SECONDS = 1.0
#: Fewest OK responses in one slice of the timed window (see end_to_end).
SLICE_SAMPLES = 1000

perf_counter = time.perf_counter


def percentile(ordered, q: float) -> float:
    """Nearest-rank q-quantile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


class Run:
    """State of one closed-loop run: callers, tallies and the window."""

    def __init__(self, workload, seconds: float, clock=None, selector=None):
        self.workload = workload
        self.seconds = seconds
        self.clock = clock
        self.selector = selector
        self.outcomes = oracle.Outcomes()
        self.snapshots = {}
        self._distinct_snapshots = {}
        self.index = 0
        self.writes = 0
        self.stopping = False
        self.window = False
        self.attempted = 0
        self.failed = 0
        self.statuses: Counter = Counter()
        # Arrays, not lists: the run's own bookkeeping stays out of peak_rss_mb.
        self.latencies = array("d")
        self.completed = array("d")
        self.window_requests = 0
        self.window_queries = 0
        self.window_writes = 0
        self.service = None
        self.gateway = None

    # -- the closed loop ---------------------------------------------------------

    def _write(self) -> None:
        workload = self.workload
        self.service.update_source(workload.writes[self.writes % len(workload.writes)])
        self.writes += 1
        self._keep(self.service.registry.snapshot())
        if self.window:
            self.window_writes += 1

    def _keep(self, snapshot) -> None:
        """Remember *snapshot* for the oracle; versions with equal sources
        and domain share the first snapshot object seen with them."""
        content = (
            tuple(
                (s.name, s.completeness_bound, s.soundness_bound, s.extension)
                for s in snapshot.collection
            ),
            snapshot.domain,
        )
        kept = self._distinct_snapshots.setdefault(content, snapshot)
        self.snapshots[snapshot.version] = kept

    def _chaos(self, index: int) -> None:
        chaos = self.workload.chaos
        phase = index % chaos.cycle
        if phase == chaos.start:
            self.gateway.set_policy(chaos.source, FaultPolicy(crash=True))
        elif phase == chaos.start + chaos.length:
            self.gateway.heal(chaos.source)

    def _record(self, kind: str, key, response, start: float, elapsed: float) -> None:
        self.attempted += 1
        if response.ok:
            excluded = response.excluded_sources
            # Tally under the first version with the same sources, so the
            # tally stays bounded however many writes the run makes.
            version = response.snapshot_version
            kept = self.snapshots.get(version)
            if kept is not None:
                version = kept.version
            if kind == workloads.CONF:
                self.outcomes.confidence(version, excluded, key, response.confidences)
            else:
                self.outcomes.answer(
                    version, excluded, key, response.answers, response.downgraded_answers,
                )
        else:
            self.failed += 1
            self.statuses[response.status.value] += 1
        if self.window:
            self.window_requests += 1
            if kind != workloads.CONF:
                self.window_queries += 1
            if response.ok:
                self.latencies.append(elapsed)
                self.completed.append(start + elapsed)

    async def one(self) -> None:
        """Send the next request of the stream and record its reply."""
        clock, workload = self.clock, self.workload
        if clock is not None:
            clock.enter("driver")
        index = self.index
        self.index += 1
        if workload.write_every and index % workload.write_every == workload.write_every - 1:
            self._write()
        if workload.chaos is not None:
            self._chaos(index)
        kind, key, payload = workload.requests[index % len(workload.requests)]
        if clock is not None:
            clock.exit()
        start = perf_counter()
        if kind == workloads.CONF:
            response = await self.service.confidence(payload, timeout=TIMEOUT)
        else:
            response = await self.service.answer(payload, timeout=TIMEOUT)
        elapsed = perf_counter() - start
        if clock is not None:
            clock.enter("driver")
        self._record(kind, key, response, start, elapsed)
        if clock is not None:
            clock.exit()

    async def caller(self) -> None:
        while not self.stopping:
            await self.one()

    # -- phases ------------------------------------------------------------------

    def counters(self) -> dict:
        """The program's own counts, read through public APIs."""
        stats = self.service.stats()
        return {
            "metrics": stats["metrics"],
            "cache": stats["cache"],
            "plan": stats["plan"],
            "shard": stats["shard"]["counters"],
            "gateway_reads": stats["gateway"]["reads"],
        }

    async def main(self, setup_only: bool, on_first_response) -> dict:
        workload = self.workload
        self.gateway = workload.make_gateway()
        self.service = MediatorService(
            workload.collection, workload.domain,
            config=workload.config, gateway=self.gateway,
        )
        async with self.service:
            self._keep(self.service.registry.snapshot())
            await self.one()
            if self.failed:
                raise RuntimeError(f"first request failed: {dict(self.statuses)}")
            on_first_response()
            if setup_only:
                return {}
            uninstall = None
            if self.clock is not None:
                uninstall = tracing.install(self.clock)
            loop = asyncio.get_running_loop()
            callers = [loop.create_task(self.caller()) for _ in range(CALLERS)]
            try:
                await asyncio.sleep(WARMUP_SECONDS)
                before = self.counters()
                if self.clock is not None:
                    self.clock.reset()
                    idle_before = self.selector.idle
                start = perf_counter()
                self.window = True
                await asyncio.sleep(self.seconds)
                self.window = False
                wall = perf_counter() - start
                window = {"start": start, "wall": wall, "before": before}
                if self.clock is not None:
                    window["idle"] = self.selector.idle - idle_before
                    window["clock"] = self.clock.snapshot()
                window["after"] = self.counters()
            finally:
                self.stopping = True
                await asyncio.gather(*callers)
                if uninstall is not None:
                    uninstall()
        return window


def end_to_end(run: Run, window: dict) -> dict:
    """Throughput and latency of the timed window, robust to short stalls.

    The window is cut into equal slices of at least :data:`SLICE_SAMPLES`
    OK responses each (so fifty or more lie beyond each slice's p95), at
    most one per second; every metric is the median over the slices.
    """
    wall, start = window["wall"], window["start"]
    samples = len(run.latencies)
    count = max(1, min(int(wall), samples // SLICE_SAMPLES))
    width = wall / count
    slices = [[] for _ in range(count)]
    for done, latency in zip(run.completed, run.latencies):
        slices[min(count - 1, int((done - start) / width))].append(latency)
    ordered = [sorted(s) for s in slices if s]
    return {
        "throughput_rps": statistics.median(len(s) / width for s in slices),
        "latency_p50_ms": 1000 * statistics.median(percentile(s, 0.50) for s in ordered),
        "latency_p95_ms": 1000 * statistics.median(percentile(s, 0.95) for s in ordered),
        "latency_samples": samples,
        "slices": count,
        "window_requests": run.window_requests,
        "window_s": wall,
    }


def _delta(before: dict, after: dict, *path) -> float:
    def get(tree):
        for part in path:
            tree = tree.get(part) if isinstance(tree, dict) else None
        return tree or 0

    return get(after) - get(before)


def per_layer(run: Run, window: dict) -> dict:
    """The traced window's per-layer breakdown (see README.md)."""
    wall, clock = window["wall"], window["clock"]
    before, after = window["before"], window["after"]
    self_time, inclusive, calls = clock["self_time"], clock["inclusive"], clock["calls"]
    requests = run.window_requests
    queries = run.window_queries
    writes = run.window_writes
    batches = _delta(before, after, "metrics", "histograms", "batch_size", "count")
    batched = _delta(before, after, "metrics", "histograms", "batch_size", "sum")
    counters = lambda name: _delta(before, after, "metrics", "counters", name)  # noqa: E731

    times = {layer: self_time.get(layer, 0.0) for layer in tracing.LAYERS}
    times["idle"] = window["idle"]
    times["service"] = wall - sum(t for layer, t in times.items() if layer != "service")

    def cache_ratio(name):
        hits = _delta(before, after, "cache", "caches", name, "hits")
        misses = _delta(before, after, "cache", "caches", name, "misses")
        return _ratio(hits, hits + misses)

    def busy(*entries):
        return 1000 * sum(inclusive.get(e, 0.0) for e in entries)

    engine_entries = ("engine.confidences", "engine.confidence")
    resilience_entries = ("resilience.resolve", "resilience.probe", "resilience.gateway_probe")
    plan_entries = ("plan.evaluate", "plan.evaluate_fragment")
    shard_queries = _delta(before, after, "shard", "queries")
    fragments = _delta(before, after, "shard", "fragments_executed")
    pruned = _delta(before, after, "shard", "shards_pruned")
    short_circuits = counters("breaker_short_circuits")
    probes = _delta(before, after, "gateway_reads")
    cache_hits = _delta(before, after, "cache", "hits")
    cache_misses = _delta(before, after, "cache", "misses")
    write_ms = sorted(1000 * d for d in clock["durations"].get("registry.update_source", []))
    solves = calls.get("kernel.solve", 0)

    metrics = {
        "service.self_ms_per_req": _ratio(1000 * times["service"], requests),
        "service.batch_size_mean": _ratio(batched, batches),
        "service.batches_per_s": batches / wall,
        "engine.busy_ms_per_req": _ratio(busy(*engine_entries), requests),
        "engine.memo_key_ms_per_req": _ratio(busy("engine.canonical_key"), requests),
        "engine.keys_per_batch": _ratio(calls.get("engine.canonical_key", 0), batches),
        "engine.memo_hit_ratio": cache_ratio("engine.memo"),
        "engine.count_ms_per_req": _ratio(busy("kernel.solve"), requests),
        "engine.counts_per_write": _ratio(solves, writes),
        "engine.dp_states_per_count": _ratio(clock["dp_states"], solves),
        "plan.busy_ms_per_query": _ratio(busy(*plan_entries), queries),
        "plan.cache_hit_ratio": cache_ratio("plan.plans"),
        "plan.data_source_hit_ratio": cache_ratio("plan.data_sources"),
        "plan.reoptimizations_per_kq": _ratio(
            1000 * _delta(before, after, "plan", "optimizer", "reoptimizations"), queries
        ),
        "shard.busy_ms_per_query": _ratio(busy("shard.answer_ordered"), queries),
        "shard.fragments_per_query": _ratio(fragments, shard_queries),
        "shard.pruned_ratio": _ratio(pruned, pruned + fragments),
        "resilience.busy_ms_per_batch": _ratio(busy(*resilience_entries), batches),
        "resilience.probes_per_batch": _ratio(probes, batches) if run.gateway else 0.0,
        "resilience.short_circuit_ratio": _ratio(short_circuits, short_circuits + probes)
        if run.gateway else 0.0,
        "resilience.degraded_ratio": _ratio(counters("degraded_batches"), batches),
        "resilience.breaker_transitions": sum(
            counters(f"breaker_{verb}") for verb in ("opened", "half_opened", "closed")
        ),
        "registry.write_ms_p50": statistics.median(write_ms) if write_ms else 0.0,
        "registry.writes_per_s": writes / wall,
        "registry.instance_ms_per_write": _ratio(busy("registry.instance"), writes),
        "cache.invalidate_ms_per_write": _ratio(busy("cache.invalidate_tags"), writes),
        "cache.entries_invalidated_per_write": _ratio(counters("cache_entries_invalidated"), writes),
        "cache.hit_ratio": _ratio(cache_hits, cache_hits + cache_misses),
        "cache.bytes_end": after["cache"]["bytes"],
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.share"] = times[layer] / wall
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="one benchmark run (see run.py)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument(
        "--spawned-at", type=float, default=None,
        help="time.monotonic() of the parent just before it started this process",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else STARTED
    imported_at = time.monotonic()
    workload = workloads.build(args.workload, args.seed)
    built_at = time.monotonic()

    clock = selector = None
    if args.trace:
        clock, selector = tracing.LayerClock(), tracing.IdleSelector()
        loop = asyncio.SelectorEventLoop(selector)
    else:
        loop = asyncio.SelectorEventLoop()
    run = Run(workload, args.seconds, clock, selector)
    marks = {}
    try:
        window = loop.run_until_complete(
            run.main(args.mode == "setup", lambda: marks.setdefault("first", time.monotonic()))
        )
    finally:
        loop.close()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup": {
            "import_s": imported_at - spawned_at,
            "build_s": built_at - imported_at,
            "first_response_s": marks["first"] - built_at,
            "setup_s": marks["first"] - spawned_at,
        },
    }
    if args.mode == "run":
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["e2e"] = end_to_end(run, window)
        if clock is not None:
            result["layers"] = per_layer(run, window)
        checked, mismatches = oracle.verify(run.outcomes, run.snapshots, workload.queries)
        result.update(
            correct=not mismatches,
            checked=checked,
            mismatches=mismatches[:5],
            attempted=run.attempted,
            failed=run.failed,
            statuses=dict(run.statuses),
            snapshots=len(run.snapshots),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
