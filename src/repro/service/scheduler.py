"""Admission, batching, deadlines, source reads: the service's event loop.

One asyncio worker drains a bounded admission queue. The control flow per
iteration:

1. **admit** — :meth:`RequestScheduler.submit` pins the current registry
   snapshot, stamps the deadline, and enqueues; a full queue rejects
   *immediately* with an explicit reason (load shedding at the door beats
   queueing work that will only time out).
2. **batch** — the worker takes the oldest request, then lingers up to
   ``batch_window`` collecting more requests pinned to the *same* snapshot
   version (compatibility criterion), up to ``max_batch``; the batch pays
   one source read and one pass of the per-batch bookkeeping.
3. **expire** — requests whose deadline passed while queued are answered
   ``TIMEOUT`` before any work is spent on them; deadlines are re-checked
   after compute so a slow read never converts into a silently late answer.
4. **read** — the batch's sources are read through the availability pass
   of :class:`~repro.resilience.manager.ResilienceManager`, the one
   source-read path: circuit breakers, one probe deadline (never past the
   batch's earliest request deadline), retries with seeded-jitter backoff
   on :class:`~repro.service.faults.TransientSourceError`, hedged probes.
   The config's ``resilience`` decides what a lost source costs: under the
   default :data:`~repro.resilience.manager.STRICT` preset the batch fails
   with explicit ``ERROR`` responses naming it; a degrading config
   *excludes* it instead.
5. **compute & resolve** — exact confidences are looked up in the
   pinned snapshot's confidence table, counted at most once per
   (version, exclusion set) and shared by every batch pinned there;
   query-only batches never touch the engine. When sources were
   excluded, the table belongs to the snapshot with those annotations
   demoted (``repro.resilience.degrade``) and responses carry
   ``degraded`` / ``excluded_sources`` / per-answer guarantee metadata;
   every future resolves with a :class:`ServiceResponse`, never an
   exception.

Everything observable lands in the shared :class:`MetricsRegistry` (queue
depth, batch sizes, per-status latency histograms, retry counts, breaker
transitions) and the :class:`Tracer` (per-batch ``source_read`` /
``engine`` spans).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.model.atoms import Atom
from repro.model.database import GlobalDatabase
from repro.confidence.engine import ConfidenceEngine
from repro.confidence.engine.memo import LRUMemo
from repro.resilience.manager import STRICT, ResilienceConfig, ResilienceManager
from repro.service.faults import PerSourceGateway
from repro.service.metrics import MetricsRegistry
from repro.service.registry import RegistrySnapshot, SourceRegistry
from repro.service.requests import (
    ConfidenceRequest,
    RequestStatus,
    ServiceResponse,
)
from repro.service.tracing import Tracer

#: No sources excluded: the well-known key suffix of healthy stores.
NO_EXCLUSIONS: FrozenSet[str] = frozenset()

#: Per-version stores kept before the oldest is evicted.
MAX_STORES = 8


def _store_key_order(key: Tuple[int, FrozenSet[str]]):
    """Total order for (version, excluded) store keys — frozensets are not
    orderable, so eviction sorts by (version, size, sorted names)."""
    return (key[0], len(key[1]), tuple(sorted(key[1])))


class VersionStore:
    """Everything one pinned snapshot derives under one exclusion set.

    ``snapshot`` is the working snapshot: the pinned one, or its twin with
    the excluded sources' bounds demoted to ⟨0, 0⟩ (same version,
    re-interned collection). The rest is built lazily, at most once, by
    :class:`RequestScheduler`: the ``engine`` over it, the engine's
    confidence ``table`` (never mutated once built), the ``certain_db`` of
    its confidence-1 facts and the sharded ``executor`` over that.
    """

    __slots__ = ("snapshot", "engine", "table", "certain_db", "executor")

    def __init__(self, snapshot: RegistrySnapshot):
        self.snapshot = snapshot
        self.engine: Optional[ConfidenceEngine] = None
        self.table: Optional[Dict[Atom, Fraction]] = None
        self.certain_db: Optional[GlobalDatabase] = None
        self.executor = None

    def close(self) -> None:
        """Release the engine's and the executor's worker pools."""
        if self.engine is not None:
            self.engine.close()
        if self.executor is not None:
            self.executor.close()


@dataclass(frozen=True)
class SchedulerConfig:
    """Tuning knobs of the request path.

    ``max_batch = 1`` disables micro-batching (per-request dispatch, the
    E16 baseline); ``batch_window`` is how long the worker lingers for
    batch-mates once it holds a request — zero means "batch only what is
    already queued". ``resilience`` configures the availability pass every
    batch reads its sources through (attempt budget, backoff, timeouts,
    breakers, and whether a lost source fails or degrades the batch).
    """

    max_queue: int = 256
    max_batch: int = 16
    batch_window: float = 0.002
    engine_workers: int = 0
    #: memo capacity per engine when the scheduler has no explicit memo
    #: (None = process-wide shared memo, 0 = memoization off — E16's ablation)
    engine_cache_size: Optional[int] = None
    #: shards for the query path's certain database (1 = single store)
    shards: int = 1
    #: worker processes for scatter-gather fragments (0/1 = serial)
    shard_workers: int = 0
    resilience: ResilienceConfig = STRICT

    def __post_init__(self):
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")


class RequestScheduler:
    """The admission queue and its single batching worker."""

    def __init__(
        self,
        registry: SourceRegistry,
        gateway: Optional[PerSourceGateway] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        config: Optional[SchedulerConfig] = None,
        memo: Optional[LRUMemo] = None,
    ):
        self.registry = registry
        self.gateway = gateway if gateway is not None else PerSourceGateway()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        self.config = config if config is not None else SchedulerConfig()
        self.memo = memo
        self._queue: Optional[asyncio.Queue] = None
        self._carry: Optional[Tuple[ConfidenceRequest, RegistrySnapshot,
                                    "asyncio.Future"]] = None
        self._inflight: List = []
        self._worker: Optional[asyncio.Task] = None
        # Keyed (version, excluded-source frozenset): a degraded batch
        # computes over the *demoted* snapshot, which is a different
        # instance than the healthy one at the same version.
        self._stores: Dict[Tuple[int, FrozenSet[str]], VersionStore] = {}
        self.resilience = ResilienceManager(
            self.config.resilience, metrics=self.metrics,
            registry=registry, seed=self.gateway.seed,
        )
        self._running = False

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        if self._running:
            return
        self._queue = asyncio.Queue(maxsize=self.config.max_queue)
        self._carry = None
        self._running = True
        self._worker = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Stop the worker; queued-but-unanswered requests are rejected."""
        if not self._running:
            return
        self._running = False
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            except Exception:  # worker bug: still reject its in-flight batch
                pass
            self._worker = None
        leftovers = [
            item for item in self._inflight if not item[2].done()
        ]
        self._inflight = []
        if self._carry is not None:
            leftovers.append(self._carry)
            self._carry = None
        while self._queue is not None and not self._queue.empty():
            leftovers.append(self._queue.get_nowait())
        for request, _snapshot, future in leftovers:
            self._resolve(
                request, future,
                ServiceResponse(
                    request.request_id, RequestStatus.REJECTED,
                    reason="service stopped before the request was served",
                    snapshot_version=request.snapshot_version,
                ),
            )
        for store in self._stores.values():
            store.close()
        self._stores.clear()

    # -- admission ---------------------------------------------------------------

    async def submit(
        self, facts, timeout: Optional[float] = None, query=None
    ) -> "asyncio.Future[ServiceResponse]":
        """Admit one request; returns a future resolving to its response.

        The registry snapshot is pinned *here*: mutations landing after
        admission are invisible to this request (snapshot isolation).
        A request may ask for fact confidences, a conjunctive query's
        certain-answer lower bound, or both — but not neither.
        """
        if self._queue is None:
            raise ReproError("scheduler is not started")
        loop = asyncio.get_running_loop()
        now = loop.time()
        snapshot = self.registry.snapshot()
        request = ConfidenceRequest(
            facts=tuple(facts),
            deadline=None if timeout is None else now + timeout,
            snapshot_version=snapshot.version,
            submitted_at=now,
            query=query,
        )
        future: "asyncio.Future[ServiceResponse]" = loop.create_future()
        self.metrics.counter("requests_submitted").inc()
        if not request.facts and request.query is None:
            self._resolve(
                request, future,
                ServiceResponse(
                    request.request_id, RequestStatus.REJECTED,
                    reason="empty fact list",
                    snapshot_version=snapshot.version,
                ),
            )
            return future
        try:
            self._queue.put_nowait((request, snapshot, future))
        except asyncio.QueueFull:
            self._resolve(
                request, future,
                ServiceResponse(
                    request.request_id, RequestStatus.REJECTED,
                    reason=(
                        f"admission queue full "
                        f"({self.config.max_queue} requests waiting)"
                    ),
                    snapshot_version=snapshot.version,
                ),
            )
            return future
        self.metrics.gauge("queue_depth").set(self._queue.qsize())
        return future

    async def request(
        self, facts, timeout: Optional[float] = None, query=None
    ) -> ServiceResponse:
        """Submit and await in one call."""
        return await (await self.submit(facts, timeout=timeout, query=query))

    # -- the worker --------------------------------------------------------------

    async def _run(self) -> None:
        while True:
            batch = await self._collect_batch()
            if batch:
                await self._serve_batch(batch)

    async def _collect_batch(self):
        """The oldest request plus same-version batch-mates."""
        queue = self._queue
        if self._carry is not None:
            first, self._carry = self._carry, None
        else:
            first = await queue.get()
        batch = [first]
        version = first[0].snapshot_version
        window = self.config.batch_window
        loop = asyncio.get_running_loop()
        linger_until = loop.time() + window
        while len(batch) < self.config.max_batch:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                remaining = linger_until - loop.time()
                if remaining <= 0 or window <= 0:
                    break
                try:
                    item = await asyncio.wait_for(queue.get(), remaining)
                except asyncio.TimeoutError:
                    break
            if item[0].snapshot_version != version:
                # Incompatible: becomes the seed of the next batch.
                self._carry = item
                break
            batch.append(item)
        self.metrics.gauge("queue_depth").set(queue.qsize())
        return batch

    async def _serve_batch(self, batch) -> None:
        # Cleared only on normal completion: if the worker is cancelled
        # mid-batch, stop() finds the batch here and rejects its futures.
        self._inflight = batch
        await self._serve_batch_inner(batch)
        self._inflight = []

    async def _serve_batch_inner(self, batch) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live = []
        for request, snapshot, future in batch:
            if request.expired(now):
                self._resolve(
                    request, future,
                    ServiceResponse(
                        request.request_id, RequestStatus.TIMEOUT,
                        reason="deadline expired while queued",
                        snapshot_version=request.snapshot_version,
                        latency=now - request.submitted_at,
                    ),
                )
            else:
                live.append((request, snapshot, future))
        if not live:
            return
        self.metrics.histogram("batch_size").observe(len(live))
        snapshot = live[0][1]
        with self.tracer.span(
            "batch", version=snapshot.version, size=len(live)
        ) as span:
            try:
                with span.child(
                    "source_read", version=snapshot.version
                ) as read_span:
                    report = await self.resilience.resolve(
                        snapshot, self.gateway, self._batch_deadline(live)
                    )
                    read_span.attributes.update(
                        probed=report.probed,
                        excluded=sorted(report.lost),
                        retries=report.retries,
                    )
                if report.lost and not self.config.resilience.degrade:
                    self._fail(live, report.reason(), "source read")
                    return
                resolved = report.snapshot
                excluded = frozenset(report.lost)
                if excluded:
                    self.metrics.counter("degraded_batches").inc()
                    span.attributes["excluded_sources"] = sorted(excluded)
                confidences = self._compute(resolved, live, span, excluded)
                answers, downgraded = self._answer_queries(
                    resolved, live, span, excluded
                )
            except Exception as exc:  # answer the batch, keep the worker
                reason = str(exc)
                if not isinstance(exc, ReproError):
                    reason = f"internal error ({type(exc).__name__}): {exc}"
                self._fail(live, reason, "computation")
                return
            now = loop.time()
            for request, _snapshot, future in live:
                if request.expired(now):
                    response = ServiceResponse(
                        request.request_id, RequestStatus.TIMEOUT,
                        reason="deadline expired during computation",
                        snapshot_version=resolved.version,
                        latency=now - request.submitted_at,
                        batch_size=len(live),
                        attempts=report.attempts,
                    )
                else:
                    response = ServiceResponse(
                        request.request_id, RequestStatus.OK,
                        confidences={
                            f: confidences[f] for f in request.facts
                        },
                        snapshot_version=resolved.version,
                        latency=now - request.submitted_at,
                        batch_size=len(live),
                        attempts=report.attempts,
                        answers=answers.get(request.request_id, ()),
                        degraded=bool(excluded),
                        excluded_sources=tuple(sorted(excluded)),
                        guarantee="degraded" if excluded else "certain",
                        downgraded_answers=downgraded.get(
                            request.request_id, ()
                        ),
                    )
                self._resolve(request, future, response)

    def _fail(self, live, reason: str, stage: str) -> None:
        """Answer a batch that cannot be served: ``TIMEOUT`` for requests
        whose deadline passed during *stage*, ``ERROR`` with *reason* for
        the rest."""
        now = asyncio.get_running_loop().time()
        for request, snapshot, future in live:
            if request.expired(now):
                status = RequestStatus.TIMEOUT
                why = f"deadline expired during {stage}"
            else:
                status, why = RequestStatus.ERROR, reason
            self._resolve(
                request, future,
                ServiceResponse(
                    request.request_id, status,
                    reason=why,
                    snapshot_version=snapshot.version,
                    latency=now - request.submitted_at,
                    batch_size=len(live),
                ),
            )

    @staticmethod
    def _batch_deadline(live) -> Optional[float]:
        """The batch's earliest absolute deadline (None = unbounded)."""
        deadlines = [
            request.deadline for request, _s, _f in live
            if request.deadline is not None
        ]
        return min(deadlines) if deadlines else None

    def _compute(
        self, snapshot: RegistrySnapshot, live, span,
        excluded: FrozenSet[str] = NO_EXCLUSIONS,
    ) -> Dict[Atom, Fraction]:
        """Exact confidences for every fact the batch asks about.

        Facts are looked up in the snapshot's confidence table, renamed to
        the instance relation; only anonymous or out-of-space facts cost an
        engine call (one memoized task each). A batch asking for no fact
        returns ``{}`` without building an engine. With *excluded*
        non-empty the table is the one of the snapshot with those sources'
        annotations demoted to ⟨c=0, s=0⟩: their extensions stay in the
        fact space (confidences of their facts remain well-defined) but
        their bounds no longer constrain the possible worlds.
        """
        wanted = {f for request, _s, _f in live for f in request.facts}
        if not wanted:
            return {}
        store = self._store(snapshot, excluded)
        version = snapshot.version
        with span.child("engine", version=version, facts=len(wanted)):
            self.metrics.counter("engine_calls").inc()
            table = self._table(store)
            relation = store.engine.instance.relation
            confidences = {}
            for f in wanted:
                confidence = table.get(Atom(relation, f.args))
                if confidence is None:
                    confidence = store.engine.confidence(f)
                confidences[f] = confidence
        return confidences

    def _answer_queries(
        self, snapshot: RegistrySnapshot, live, span,
        excluded: FrozenSet[str] = NO_EXCLUSIONS,
    ) -> Tuple[Dict[int, Tuple[Atom, ...]], Dict[int, Tuple[Atom, ...]]]:
        """Certain-answer lower bounds for the batch's query requests.

        The snapshot's confidence-1 facts form a database contained in every
        possible world, so by monotonicity any conjunctive answer over it is
        certain (cf. ``repro.confidence.answers.certain_answer_lower_bound``).
        The query runs through the compiled-plan pipeline; the certain
        database is kept per (version, exclusion set), so batch-mates and
        repeat queries share its scan rows and join indexes. With
        ``config.shards > 1`` execution scatter-gathers over the version's
        sharded store.

        Returns ``(answers, downgraded)`` keyed by request id. With
        *excluded* sources the answers come from the *demoted* snapshot —
        poss(S') ⊇ poss(S), so they stay a sound (certain) subset of the
        healthy answers — and ``downgraded`` holds the healthy-minus-
        degraded difference: answers the lost sources' annotations were
        needed to certify, now merely possible. Both render in the
        canonical total order (:func:`repro.shard.merge.canonical_order`)
        — ``key=str`` is not total over heterogeneous constants, so equal
        answer sets could serialize differently across runs.
        """
        queried = [
            request for request, _snapshot, _future in live
            if request.query is not None
        ]
        out: Dict[int, Tuple[Atom, ...]] = {}
        downgraded_out: Dict[int, Tuple[Atom, ...]] = {}
        if not queried:
            return out, downgraded_out
        from repro.plan import evaluate as plan_evaluate, optimizer_stats
        from repro.resilience.degrade import downgraded as grade_downgraded
        from repro.shard import canonical_order, shard_stats

        sharded = self.config.shards > 1
        store = self._store(snapshot, excluded)
        executor = self._shard_executor(store) if sharded else None
        database = None if sharded else self._certain_database(store)
        # The healthy-baseline certain DB, to grade what the demotion cost.
        full_database = (
            self._certain_database(self._store(snapshot, NO_EXCLUSIONS))
            if excluded else None
        )
        with span.child(
            "query_answers", version=snapshot.version, queries=len(queried)
        ):
            self.metrics.counter("query_requests").inc(len(queried))
            before = optimizer_stats()
            shard_before = shard_stats() if sharded else {}
            for request in queried:
                if executor is not None:
                    answers = executor.answer_ordered(request.query)
                else:
                    answers = canonical_order(
                        plan_evaluate(request.query, database)
                    )
                out[request.request_id] = answers
                if full_database is not None:
                    full = plan_evaluate(request.query, full_database)
                    downgraded_out[request.request_id] = grade_downgraded(
                        full, answers
                    )
            self._record_optimizer_metrics(before, optimizer_stats())
            if sharded:
                self._record_shard_metrics(shard_before, shard_stats())
        return out, downgraded_out

    def _record_shard_metrics(self, before: Dict, after: Dict) -> None:
        """Fold this batch's shard-execution deltas into the metrics."""
        for name in (
            "queries",
            "fragments_executed",
            "shards_pruned",
            "worker_misses",
            "pool_respawns",
            "pool_serial_fallbacks",
        ):
            delta = (after.get(name) or 0) - (before.get(name) or 0)
            if delta:
                self.metrics.counter(f"shard_{name}").inc(delta)

    def _record_optimizer_metrics(self, before: Dict, after: Dict) -> None:
        """Fold this batch's optimizer activity into the metrics registry.

        The optimizer's counters are process-wide; the per-batch *delta* is
        what this service instance actually caused, so that is what lands in
        its :class:`MetricsRegistry` (``plan_misestimates``,
        ``plan_reoptimizations``, ...).
        """
        for name in (
            "plans_optimized",
            "feedback_checks",
            "misestimates",
            "reoptimizations",
        ):
            delta = (after.get(name) or 0) - (before.get(name) or 0)
            if delta:
                self.metrics.counter(f"plan_{name}").inc(delta)
        max_q = after.get("max_q_error")
        if max_q and max_q != before.get("max_q_error"):
            self.metrics.histogram("plan_q_error").observe(max_q)

    def _store(
        self, snapshot: RegistrySnapshot,
        excluded: FrozenSet[str] = NO_EXCLUSIONS,
    ) -> VersionStore:
        """The (version, excluded) store, made on first use.

        With *excluded* non-empty its working snapshot is the demoted twin:
        it shares the version (callers still see the snapshot they pinned)
        but carries the collection with excluded sources' bounds weakened
        to ⟨0, 0⟩. Beyond :data:`MAX_STORES` the oldest store is evicted
        and closed.
        """
        key = (snapshot.version, excluded)
        store = self._stores.get(key)
        if store is None:
            if excluded:
                from repro.resilience.degrade import demote

                snapshot = RegistrySnapshot(
                    version=snapshot.version,
                    collection=demote(snapshot.collection, excluded),
                    domain=snapshot.domain,
                )
            store = self._stores[key] = VersionStore(snapshot)
            while len(self._stores) > MAX_STORES:
                oldest = min(self._stores, key=_store_key_order)
                if oldest == key:
                    break
                self._stores.pop(oldest).close()
        return store

    def _table(self, store: VersionStore) -> Dict[Atom, Fraction]:
        """*store*'s confidence table: one ``confidences()`` call, ever."""
        if store.table is None:
            if store.engine is None:
                store.engine = ConfidenceEngine(
                    store.snapshot.instance(),
                    workers=self.config.engine_workers,
                    memo=self.memo,
                    cache_size=self.config.engine_cache_size,
                )
            store.table = store.engine.confidences()
        return store.table

    def _certain_database(self, store: VersionStore) -> GlobalDatabase:
        """*store*'s confidence-1 facts as one database, from its table."""
        if store.certain_db is None:
            store.certain_db = GlobalDatabase(
                f for f, confidence in self._table(store).items()
                if confidence == 1
            )
        return store.certain_db

    def _shard_executor(self, store: VersionStore):
        """*store*'s scatter-gather executor.

        The sharded store partitions the same certain database the
        single-store path queries, under a spec built from the config's
        shard count; fragments and their plan-layer caches are shared by
        every batch pinned to this version (and exclusion set).
        """
        from repro.shard import PartitionSpec, ShardedDatabase, ShardExecutor

        if store.executor is None:
            store.executor = ShardExecutor(
                ShardedDatabase(
                    self._certain_database(store),
                    PartitionSpec(self.config.shards),
                ),
                workers=self.config.shard_workers,
            )
        return store.executor

    def retire_version_tags(self, before_version: int) -> set:
        """Close and pop stores pre-dating *before_version*; return tags.

        Stores of superseded versions will never serve another request,
        so they are closed (engine and shard worker pools included) and
        dropped here — but the *derived artifacts* they seeded
        (statistics, data sources, partition layouts, fragment tokens) live
        in the enrolled caches, keyed or tagged by fact set. The returned
        tag set — each retired certain core plus every fragment a retired
        sharded store materialized — is what the invalidation bus needs to
        clear all of them in one
        :meth:`~repro.cache.CacheRegistry.invalidate_tags` call. Retired
        sharded stores are counted under ``shard_stores_discarded``.
        """
        tags: set = set()
        retired = 0
        for key in [k for k in self._stores if k[0] < before_version]:
            store = self._stores.pop(key)
            if store.certain_db is not None:
                tags.add(store.certain_db.core())
            if store.executor is not None:
                tags.update(store.executor.sharded.built_fragments())
                retired += 1
            store.close()
        if retired:
            self.metrics.counter("shard_stores_discarded").inc(retired)
        return tags

    def discard_plan_statistics(self, before_version: int) -> int:
        """Retire superseded versions' derived entries through the bus.

        The pre-bus entry point, kept for callers that retire versions
        outside a registry mutation (the sharded-service tests drive it
        directly): collects this scheduler's retirement tags and pushes
        them through the process cache registry. Returns how many
        statistics-catalog entries the bus dropped. Entries are
        content-addressed, so all of this is hygiene, never correctness.
        """
        from repro.cache import cache_registry

        per_cache = cache_registry().invalidate_tags(
            self.retire_version_tags(before_version)
        )
        return per_cache.get("plan.statistics", 0)

    # -- resolution --------------------------------------------------------------

    def _resolve(self, request, future, response: ServiceResponse) -> None:
        self.metrics.counter(f"responses_{response.status.value}").inc()
        if response.degraded:
            self.metrics.counter("responses_degraded").inc()
        self.metrics.histogram("latency").observe(response.latency)
        self.metrics.histogram(
            f"latency_{response.status.value}"
        ).observe(response.latency)
        if not future.done():
            future.set_result(response)
