""":class:`MediatorService`: the long-running mediator, assembled.

Where :class:`~repro.integration.mediator.Mediator` is a one-shot facade —
build it, ask it, drop it — the service is the deployment shape the paper's
§1.1 motivates: sources register, update, and fail *while queries are in
flight*. It owns:

* a :class:`~repro.service.registry.SourceRegistry` (versioned, COW
  snapshots; mutations incrementally invalidate the engine memo),
* a :class:`~repro.service.scheduler.RequestScheduler` (bounded admission,
  deadlines, micro-batching, the per-source availability pass),
* a :class:`~repro.service.faults.PerSourceGateway` (healthy unless told
  otherwise) as the source-read seam,
* a :class:`~repro.service.metrics.MetricsRegistry` and
  :class:`~repro.service.tracing.Tracer`, merged into one :meth:`stats`
  snapshot (the scrape surface of ``python -m repro serve``).

Use it as an async context manager::

    async with MediatorService(collection, domain) as service:
        response = await service.confidence([fact("R", "a")], timeout=0.5)
        assert response.ok

Mutations are thread-safe and may be called from outside the loop; queries
run on the loop the service was started on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cache import cache_registry
from repro.sources.collection import SourceCollection
from repro.sources.descriptor import SourceDescriptor
from repro.confidence.engine.memo import LRUMemo, shared_memo
from repro.service.faults import PerSourceGateway
from repro.service.metrics import MetricsRegistry
from repro.service.registry import (
    RegistryDiff,
    SourceRegistry,
    invalidation_tags,
)
from repro.service.requests import ServiceResponse
from repro.service.scheduler import RequestScheduler, SchedulerConfig
from repro.service.tracing import Tracer


class MediatorService:
    """A concurrent, observable query-answering service over sources."""

    def __init__(
        self,
        collection: Optional[SourceCollection] = None,
        domain: Sequence = (),
        *,
        config: Optional[SchedulerConfig] = None,
        memo: Optional[LRUMemo] = None,
        gateway: Optional[PerSourceGateway] = None,
    ):
        sources = tuple(collection) if collection is not None else ()
        self.registry = SourceRegistry(sources, domain)
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.memo = memo if memo is not None else shared_memo()
        self.gateway = gateway if gateway is not None else PerSourceGateway()
        self.scheduler = RequestScheduler(
            self.registry,
            gateway=self.gateway,
            metrics=self.metrics,
            tracer=self.tracer,
            config=config,
            memo=self.memo,
        )

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> "MediatorService":
        await self.scheduler.start()
        return self

    async def stop(self) -> None:
        await self.scheduler.stop()

    async def __aenter__(self) -> "MediatorService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- querying ----------------------------------------------------------------

    async def confidence(
        self, facts, timeout: Optional[float] = None
    ) -> ServiceResponse:
        """Exact confidences of *facts*, answered against one snapshot."""
        return await self.scheduler.request(facts, timeout=timeout)

    async def answer(
        self, query, timeout: Optional[float] = None
    ) -> ServiceResponse:
        """A conjunctive query's certain-answer lower bound, one snapshot.

        The query is compiled through ``repro.plan`` and evaluated over the
        snapshot's confidence-1 facts; ``response.answers`` carries the
        (sound, under-approximate) certain answers. Queries ride the same
        admission queue, deadlines, and batching as confidence requests.
        """
        return await self.scheduler.request((), timeout=timeout, query=query)

    async def submit(self, facts, timeout: Optional[float] = None, query=None):
        """Admit without awaiting (returns the response future)."""
        return await self.scheduler.submit(facts, timeout=timeout, query=query)

    # -- registry mutations (thread-safe; invalidate the memo incrementally) -----

    def register_source(self, source: SourceDescriptor) -> RegistryDiff:
        old = self.registry.snapshot()
        _snapshot, diff = self.registry.register(source)
        self._after_mutation(old, diff)
        return diff

    def update_source(self, source: SourceDescriptor) -> RegistryDiff:
        old = self.registry.snapshot()
        _snapshot, diff = self.registry.update(source)
        self._after_mutation(old, diff)
        return diff

    def deregister_source(self, name: str) -> RegistryDiff:
        old = self.registry.snapshot()
        _snapshot, diff = self.registry.deregister(name)
        self._after_mutation(old, diff)
        return diff

    def set_domain(self, domain: Sequence) -> RegistryDiff:
        old = self.registry.snapshot()
        _snapshot, diff = self.registry.set_domain(domain)
        self._after_mutation(old, diff)
        return diff

    def _after_mutation(self, old, diff: RegistryDiff) -> None:
        """Drive the whole invalidation bus from one registry diff.

        One tag set — the memo keys the diff retired plus the fact sets of
        every per-version store the scheduler gave up — pushed through one
        ``invalidate_tags`` call retires every derived artifact of the old
        version across every enrolled cache (memo, statistics, data
        sources, partitions, fragment tokens). A private (un-enrolled)
        memo handed to the service is invalidated directly with the same
        keys, so its behavior matches the shared one.
        """
        registry = cache_registry()
        memo_tags = invalidation_tags(old, diff)
        tags = set(memo_tags)
        tags.update(self.scheduler.retire_version_tags(diff.new_version))
        per_cache = registry.invalidate_tags(tags)
        if registry.is_enrolled(self.memo):
            removed = per_cache.get("engine.memo", 0)
        else:
            removed = sum(1 for key in memo_tags if self.memo.discard(key))
        dropped = per_cache.get("plan.statistics", 0)
        self.metrics.counter("registry_mutations").inc()
        self.metrics.counter("memo_entries_invalidated").inc(removed)
        self.metrics.counter("plan_statistics_discarded").inc(dropped)
        self.metrics.counter("cache_entries_invalidated").inc(
            sum(per_cache.values())
        )
        self.metrics.gauge("registry_version").set(diff.new_version)
        self.metrics.histogram("touched_blocks").observe(
            len(diff.touched_blocks)
        )

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """One JSON-serializable snapshot of everything observable.

        Shape (validated by ``tools/check_service_snapshot.py``)::

            {"registry": {...}, "metrics": {counters, gauges, histograms},
             "gateway": {...}, "tracing": {...}, "plan": {cache, data_sources},
             "shard": {shards, workers, counters},
             "cache": {budget_bytes, bytes, hits, misses, evictions,
                       invalidations, caches: {name: {...}}},
             "resilience": {sources, transitions, config}}
        """
        from repro.plan import plan_stats
        from repro.shard import shard_stats

        snapshot = self.registry.snapshot()
        return {
            "registry": {
                "version": snapshot.version,
                "sources": len(snapshot.collection),
                "domain_size": len(snapshot.domain),
                "retained_versions": self.registry.history_versions(),
            },
            "metrics": self.metrics.snapshot(),
            "gateway": {
                "reads": self.gateway.reads,
                "stale_served": self.gateway.stale_served,
                "lanes": self.gateway.stats(),
            },
            "tracing": {
                "spans_started": self.tracer.spans_started,
                "spans_dropped": self.tracer.spans_dropped,
                "recent_spans": len(self.tracer.export()),
            },
            "plan": plan_stats(),
            "shard": {
                "shards": self.scheduler.config.shards,
                "workers": self.scheduler.config.shard_workers,
                "counters": shard_stats(),
            },
            "cache": cache_registry().stats(),
            "resilience": self.scheduler.resilience.stats(),
        }

    def recent_spans(self) -> List[Dict[str, object]]:
        return self.tracer.export()
