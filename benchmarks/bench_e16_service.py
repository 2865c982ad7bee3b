"""E16 — the mediator service under open-loop load.

Two tables:

1. **Micro-batching** — the same request burst served per-request
   (``max_batch=1``) and micro-batched. Every batch looks its facts up in
   the snapshot's confidence table, counted once per version, so batching
   amortizes the per-batch work (the availability pass, bookkeeping) and
   throughput rises with the batch cap; the memo-off ablation shows that
   the margin does not rest on the engine cache.
2. **Fault injection** — the burst under injected source latency,
   transient errors, and tight deadlines, set as the gateway's default
   policy (every source's lane). Degradation must be *graceful*: every
   request ends in an explicit terminal status (OK / TIMEOUT / REJECTED /
   ERROR), never a crash or a silently wrong confidence.
"""

import asyncio
import time

from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceCollection, SourceDescriptor
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    RequestStatus,
    SchedulerConfig,
)

from benchmarks.conftest import write_table


def _chain_collection(n_sources: int) -> SourceCollection:
    """Example 5.1 generalized: S_i claims {e_i, e_{i+1}}, completeness
    1/4 and soundness 1/2 (a 1/2 completeness floor on every overlapping
    pair admits no database once the chain outgrows Example 5.1)."""
    sources = []
    for i in range(1, n_sources + 1):
        sources.append(
            SourceDescriptor(
                identity_view(f"V{i}", "R", 1),
                [fact(f"V{i}", f"e{i}"), fact(f"V{i}", f"e{i + 1}")],
                "1/4",
                "1/2",
                name=f"S{i}",
            )
        )
    return SourceCollection(sources)


def _domain(n_sources: int, anonymous: int = 2):
    claimed = [f"e{i}" for i in range(1, n_sources + 2)]
    return claimed + [f"x{i}" for i in range(anonymous)]


async def _burst(service: MediatorService, requests: int, timeout=None):
    """Open-loop: admit everything, then await everything."""
    facts = service.registry.snapshot().covered_facts()
    async with service:
        futures = []
        for i in range(requests):
            wanted = [facts[i % len(facts)], facts[(i + 1) % len(facts)]]
            futures.append(await service.submit(wanted, timeout=timeout))
        return [await f for f in futures]


def _run_config(collection, domain, requests, batch, cache_size, policy=None,
                timeout=None, seed=0):
    service = MediatorService(
        collection,
        domain,
        config=SchedulerConfig(
            max_queue=max(256, requests),
            max_batch=batch,
            engine_cache_size=cache_size,
        ),
        gateway=PerSourceGateway(default=policy, seed=seed),
    )
    start = time.perf_counter()
    responses = asyncio.run(_burst(service, requests, timeout=timeout))
    elapsed = time.perf_counter() - start
    return service, responses, elapsed


def test_e16_batching(benchmark, results_dir):
    """Throughput per-request vs micro-batched, memo on and off."""
    collection = _chain_collection(8)
    domain = _domain(8)
    requests = 160

    def sweep():
        rows = []
        for cache_size, cache_label in ((0, "off"), (None, "shared")):
            baseline = None
            for batch in (1, 4, 16, 32):
                service, responses, elapsed = _run_config(
                    collection, domain, requests, batch, cache_size
                )
                assert all(r.ok for r in responses)
                counters = service.metrics.snapshot()["counters"]
                latency = service.metrics.histogram("latency").snapshot()
                throughput = requests / elapsed
                if batch == 1:
                    baseline = throughput
                rows.append(
                    (
                        cache_label,
                        batch,
                        counters["engine_calls"],
                        f"{throughput:8.0f}",
                        f"{throughput / baseline:5.2f}x",
                        f"{1000 * latency['p50']:7.2f}",
                        f"{1000 * latency['p95']:7.2f}",
                    )
                )
            # The acceptance claim: batching beats per-request dispatch.
            per_request = float(rows[-4][3])
            batched = float(rows[-1][3])
            assert batched > per_request, (
                f"batched throughput {batched} <= per-request {per_request} "
                f"(memo {cache_label})"
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table(
        "e16_batching",
        "E16: micro-batching vs per-request dispatch "
        f"(8-source chain, {requests} requests, open loop)",
        ["memo", "max_batch", "engine calls", "req/s", "speedup",
         "p50 ms", "p95 ms"],
        rows,
        notes=[
            "speedup is against max_batch=1 within the same memo setting",
            "the confidence table is counted once per snapshot version; "
            "engine calls count batches that looked facts up in it",
        ],
    )


def test_e16_fault_injection(benchmark, results_dir):
    """Graceful degradation: explicit statuses under injected faults."""
    collection = _chain_collection(6)
    domain = _domain(6)
    requests = 80

    def sweep():
        rows = []
        scenarios = [
            ("healthy", None, None, 0),
            ("latency 2ms", FaultPolicy(latency=0.002), None, 11),
            ("errors 50%", FaultPolicy(error_rate=0.5), None, 7),
            ("latency + 5ms deadline", FaultPolicy(latency=0.01), 0.005, 11),
        ]
        for label, policy, timeout, seed in scenarios:
            service, responses, elapsed = _run_config(
                collection, domain, requests, 8, None,
                policy=policy, timeout=timeout, seed=seed,
            )
            by_status = {status: 0 for status in RequestStatus}
            for response in responses:
                by_status[response.status] += 1
            # Graceful: every request reached exactly one terminal status.
            assert sum(by_status.values()) == requests
            counters = service.metrics.snapshot()["counters"]
            latency = service.metrics.histogram("latency").snapshot()
            rows.append(
                (
                    label,
                    by_status[RequestStatus.OK],
                    by_status[RequestStatus.TIMEOUT],
                    by_status[RequestStatus.ERROR],
                    counters.get("source_read_retries", 0),
                    f"{1000 * latency['p95']:7.2f}",
                )
            )
        healthy, latency_row, errors, deadline = rows
        assert healthy[1] == requests            # all OK when healthy
        assert latency_row[1] == requests        # latency alone only slows
        assert errors[1] + errors[3] == requests  # errors: OK or explicit ERROR
        assert errors[4] > 0                      # ...after real retries
        assert deadline[2] > 0                    # deadlines expire explicitly
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    write_table(
        "e16_faults",
        f"E16: fault injection over a {requests}-request burst "
        "(6-source chain, faults on every source, batch 8, 3 attempts "
        "per probe)",
        ["scenario", "ok", "timeout", "error", "retries", "p95 ms"],
        rows,
        notes=[
            "every request ends in an explicit terminal status — the "
            "service never crashes or answers from a wrong snapshot",
            "default all-or-nothing preset: a source that fails all its "
            "attempts fails its batch (ERROR); retries counts failed "
            "attempts over all probes",
            "TIMEOUT responses carry no confidences (no silently late or "
            "partial answers)",
        ],
    )
