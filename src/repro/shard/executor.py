"""Scatter-gather execution of compiled plans over shard fragments.

The :class:`ShardExecutor` takes a :class:`~repro.shard.store.ShardedDatabase`,
asks the planner (:func:`repro.shard.planner.plan_shards`) which fragments a
query must touch, runs the compiled plan against each fragment, and merges
the per-fragment answers through :mod:`repro.shard.merge`. Answers stay
interned — rows of constant IDs — through the merge and the ordering; only
the final distinct answers are boxed.

Two execution paths:

* **serial** (the default, ``workers <= 1``): the compiled plan is looked
  up once per query and run in-process over each fragment. Fragments are
  plain :class:`~repro.core.factset.IFactSet` values, so scan rows, join
  indexes, and statistics are cached per fragment by the plan-layer LRUs —
  the pruning win (touch ``1/N`` of the store) needs no parallelism at all.
* **process pool** (``workers >= 2``): fragments are shipped to PR 1's
  :class:`~repro.confidence.engine.executors.ProcessExecutor`. Interned IDs
  are process-local (:mod:`repro.core.symbols`), so fragments cross the
  boundary as *value-level payloads* — ``(relation name, argument values)``
  tuples — and queries as their parsed-back text. Workers cache each
  fragment under a coordinator-issued token; a worker seeing an unknown
  token without a payload answers a *miss* and the coordinator re-sends
  with the payload, so steady state ships only tokens. Answers come back
  as values and are interned on arrival into the serial path's row merge.
  Queries that do not round-trip through the parser (builtin registries
  are closures) fall back to the serial path; pool-creation failure
  degrades the same way the engine's executors do.

Process-wide counters (queries, fragments, pruned shards, strategy mix,
misses) feed the service's ``stats()`` surface via :func:`shard_stats`.
"""

from __future__ import annotations

import threading
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.cache import cache_registry
from repro.cache.runtime import LRUMemo
from repro.model.atoms import Atom
from repro.model.terms import Constant
from repro.plan.compiler import plan_for
from repro.plan.executor import data_source_for, execute_plan
from repro.queries.conjunctive import ConjunctiveQuery
from repro.shard.merge import Row, decode_rows, merge_rows
from repro.shard.planner import ShardPlan, explain_shards, plan_shards
from repro.shard.store import ShardedDatabase

#: One shipped fragment: ``(relation name, argument values)`` per fact.
FragmentPayload = Tuple[Tuple[str, Tuple[Any, ...]], ...]

#: One shipped answer: ``(relation name, argument values)``.
EncodedAnswer = Tuple[str, Tuple[Any, ...]]

#: What a dying worker pool surfaces as: ``BrokenProcessPool`` from
#: ``concurrent.futures``-style pools, ``OSError``/``EOFError`` from a
#: ``multiprocessing.Pool`` whose pipe to a killed worker collapsed.
BROKEN_POOL_ERRORS = (BrokenProcessPool, OSError, EOFError)


# -- process-wide counters -----------------------------------------------------

_COUNTERS_LOCK = threading.Lock()
_COUNTERS: Dict[str, int] = {}  # adhoc-cache-ok: monotone counters, not a cache


def _bump(name: str, delta: int = 1) -> None:
    with _COUNTERS_LOCK:
        _COUNTERS[name] = _COUNTERS.get(name, 0) + delta


def shard_stats() -> Dict[str, int]:
    """Process-wide shard-execution counters (service ``stats()`` surface)."""
    with _COUNTERS_LOCK:
        return dict(_COUNTERS)


def reset_shard_stats() -> None:
    """Zero the counters (tests and benchmarks reset with it)."""
    with _COUNTERS_LOCK:
        _COUNTERS.clear()


# -- fragment tokens and payloads ----------------------------------------------

#: Bound on remembered fragment tokens. Evicting one merely forgets the
#: token; the counter never reuses a name, so a worker's stale cache entry
#: for an evicted token can never be addressed again (no aliasing).
MAX_FRAGMENT_TOKENS = 512

_TOKEN_SEQUENCE = iter(range(1, 1 << 62))


def _token_sizeof(facts, entry) -> int:
    """Price a token entry by its fragment: the payload (filled lazily
    after store) decodes one value tuple per fact."""
    return 160 + 120 * len(facts)


_FRAGMENT_TOKENS = cache_registry().enroll(
    LRUMemo(
        maxsize=MAX_FRAGMENT_TOKENS,
        name="shard.fragment_tokens",
        sizeof=_token_sizeof,
    )
)


def _token_entry(facts) -> List:
    """``[token, payload-or-None]`` for a fragment, LRU-cached by value.

    Minted atomically (the runtime's get-or-create runs the factory under
    the cache lock), so one fragment never gets two tokens — the invariant
    the worker-side payload cache depends on. Keyed by the fragment, so
    the invalidation bus retires tokens of retired worlds by key match.
    """
    return _FRAGMENT_TOKENS.get_or_create(
        facts, lambda: [f"fragment-{next(_TOKEN_SEQUENCE)}", None]
    )


def _encode_fragment(facts) -> FragmentPayload:
    """Decode a fragment to value-level facts (the wire representation)."""
    table = facts.table
    fact_tuple = table.fact_tuple
    relation_name = table.relation_name
    constant_value = table.constant_value
    out = []
    for fid in facts.sorted_ids():
        t = fact_tuple(fid)
        out.append(
            (relation_name(t[0]), tuple(constant_value(c) for c in t[1:]))
        )
    return tuple(out)


def _payload_for(facts) -> FragmentPayload:
    entry = _token_entry(facts)
    if entry[1] is None:
        entry[1] = _encode_fragment(facts)
    return entry[1]


# -- the worker side -----------------------------------------------------------

#: Per-worker fragment stores, keyed by coordinator token. Lives in the
#: worker process (each process enrolls its own instance in its own
#: registry); in degraded (serial-fallback) mode it lives in the
#: coordinator, which is harmless duplication. Evicting a store is always
#: safe: the worker answers the next use of its token with a miss and the
#: coordinator re-sends the payload. Token keys are value-level strings,
#: so the cache survives symbol-table rollbacks untouched.
_WORKER_STORES = cache_registry().enroll(
    LRUMemo(
        maxsize=MAX_FRAGMENT_TOKENS,
        name="shard.worker_stores",
        sizeof=lambda token, db: 300 + 200 * len(db),
    ),
    id_sensitive=False,
)


def _worker_answer(
    task: Tuple[str, Optional[FragmentPayload], str]
) -> Optional[Tuple[EncodedAnswer, ...]]:
    """Evaluate one query text against one cached fragment store.

    ``None`` signals a cache miss (unknown token, no payload shipped); the
    coordinator re-sends the task with the payload attached. Must stay
    module-level and value-only: it crosses the pickle boundary.
    """
    token, payload, query_text = task
    hit, database = _WORKER_STORES.lookup(token)
    if not hit:
        if payload is None:
            return None
        from repro.model.database import GlobalDatabase

        database = GlobalDatabase(
            Atom(relation, tuple(Constant(v) for v in values))
            for relation, values in payload
        )
        _WORKER_STORES.store(token, database)
    from repro.plan import evaluate as plan_evaluate
    from repro.queries.parser import parse_rule

    answers = plan_evaluate(parse_rule(query_text), database)
    return tuple(
        (a.relation, tuple(c.value for c in a.args)) for a in answers
    )


def worker_store_count() -> int:
    """How many fragment stores this process caches (tests/diagnostics)."""
    return len(_WORKER_STORES)


def clear_worker_stores() -> None:
    """Drop the worker-side fragment cache (tests reset with it)."""
    _WORKER_STORES.clear()


# -- serial fragment evaluation ------------------------------------------------

def evaluate_fragment(plan, facts) -> FrozenSet[Row]:
    """One fragment's answer rows: the compiled *plan* run over *facts*.

    Rows are :func:`repro.plan.executor.execute_plan`'s tuples of constant
    IDs; the executor merges and decodes them once per query.
    """
    return execute_plan(plan, data_source_for(facts))


def _compiled_plan(query, shard_plan: ShardPlan):
    """The cached compiled plan for *query*, looked up once per query.

    Cost-based compilation (first sight, or re-optimization of a stale
    plan) profiles the first fragment, the one a per-fragment lookup would
    have compiled against.
    """
    return plan_for(query, facts=shard_plan.fragments[0][1])


# -- query portability ---------------------------------------------------------

#: Bound on remembered portability verdicts (queries are tiny; the bound
#: caps pathological query-generation loops).
MAX_PORTABLE_VERDICTS = 256

_PORTABLE_CACHE = cache_registry().enroll(
    LRUMemo(maxsize=MAX_PORTABLE_VERDICTS, name="shard.portable"),
    id_sensitive=False,
)


def _portable_query(query) -> bool:
    """Can *query* cross the process boundary as its own text?

    Builtin registries hold closures (unpicklable, and a worker's freshly
    parsed default registry would not be *this* registry), so only
    builtin-free queries whose text parses back to an identical head and
    body qualify. Everything else runs on the serial path — same answers,
    no pool. Verdicts are world-independent (boxed query keys, boolean
    values), so entries carry no tags and survive registry churn and
    symbol rollbacks alike.
    """
    if not isinstance(query, ConjunctiveQuery) or query.builtin_body():
        return False
    hit, cached = _PORTABLE_CACHE.lookup(query)
    if hit:
        return cached
    from repro.queries.parser import parse_rule

    try:
        reparsed = parse_rule(str(query))
        portable = (
            reparsed.head == query.head and reparsed.body == query.body
        )
    except Exception:
        portable = False
    _PORTABLE_CACHE.store(query, portable)
    return portable


# -- the executor --------------------------------------------------------------

class ShardExecutor:
    """Scatter-gather query answering over one sharded database.

    *pool* lets many executors share one worker pool (per-world loops build
    an executor per world; the pool and its workers' fragment caches must
    outlive them all). A shared pool is never closed by the executor, and
    the sent-token bookkeeping rides on the pool object itself, so a warm
    worker is never re-sent a payload it already caches.
    """

    def __init__(
        self, sharded: ShardedDatabase, workers: int = 0, pool=None
    ):
        self.sharded = sharded
        self.workers = workers
        self._pool = pool
        self._owns_pool = pool is None
        self.counters: Dict[str, int] = {}

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        """Release the worker pool if this executor owns it (idempotent)."""
        if self._pool is not None and self._owns_pool:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self):
        if self._pool is None:
            from repro.confidence.engine.executors import make_executor

            self._pool = make_executor(self.workers, mode="process")
        return self._pool

    # -- answering ---------------------------------------------------------------

    def answer(self, query) -> FrozenSet:
        """``Q(D)`` via scatter-gather: identical to the single-store path.

        Conjunctive queries answer head atoms; algebra trees (planned onto
        the one global fragment) answer rows of constants, as
        :func:`repro.plan.evaluate_rows` does.
        """
        return frozenset(self._gather(query, ordered=False))

    def answer_ordered(self, query) -> Tuple:
        """:meth:`answer` in the canonical total order (service rendering)."""
        return self._gather(query, ordered=True)

    def explain(self, query) -> str:
        """The shard section of EXPLAIN for *query* over this store."""
        return explain_shards(query, self.sharded)

    def _gather(self, query, ordered: bool) -> Tuple:
        """Scatter *query*, union the fragments' ID rows, decode once."""
        shard_plan = plan_shards(query, self.sharded)
        self._count_plan(shard_plan)
        table = shard_plan.fragments[0][1].table
        if (
            self.workers >= 2
            and len(shard_plan.fragments) > 1
            and _portable_query(query)
        ):
            head_relation = query.head.relation
            parts = self._execute_process(query, shard_plan)
        else:
            plan = _compiled_plan(query, shard_plan)
            head_relation = plan.head_relation
            parts = (
                evaluate_fragment(plan, facts)
                for _index, facts in shard_plan.fragments
            )
        return decode_rows(merge_rows(parts), table, head_relation, ordered)

    def _respawn_pool(self, pool):
        """Replace or reset a broken pool; returns the pool to use next.

        A pool that can respawn itself (:class:`ProcessExecutor`) keeps
        its identity — important for shared pools, whose other executors
        hold the same reference. Anything else is torn down and rebuilt,
        and this executor takes ownership of the replacement. Either way
        the sent-token set resets: the new workers' fragment caches are
        empty, so every payload must ship again.
        """
        self._count("pool_respawns")
        respawn = getattr(pool, "respawn", None)
        if respawn is not None:
            respawn()
        else:
            try:
                pool.close()
            except Exception:
                pass  # broken pools may refuse even teardown
            from repro.confidence.engine.executors import make_executor

            pool = make_executor(self.workers, mode="process")
            self._pool = pool
            self._owns_pool = True
        pool.shard_sent_tokens = set()
        return pool

    def _execute_process(self, query, plan: ShardPlan) -> List[Iterable[Row]]:
        pool = self._ensure_pool()
        if getattr(pool, "degraded", False):
            self._count("process_degraded")
        sent = getattr(pool, "shard_sent_tokens", None)
        if sent is None:
            sent = pool.shard_sent_tokens = set()
        query_text = str(query)
        tasks = []
        for _index, facts in plan.fragments:
            token = _token_entry(facts)[0]
            if token in sent:
                tasks.append((token, None, query_text))
            else:
                tasks.append((token, _payload_for(facts), query_text))
        try:
            results = pool.map(_worker_answer, tasks)
        except BROKEN_POOL_ERRORS:
            # Workers died mid-batch. Respawn the pool and replay the
            # whole batch with full payloads out of the fragment-token
            # store — the fresh workers cache nothing yet. Only if the
            # replacement pool *also* breaks does this query fall back
            # to serial; the pool stays eligible for the next one.
            pool = self._respawn_pool(pool)
            sent = pool.shard_sent_tokens
            tasks = [
                (task[0], _payload_for(plan.fragments[i][1]), query_text)
                for i, task in enumerate(tasks)
            ]
            try:
                results = pool.map(_worker_answer, tasks)
            except BROKEN_POOL_ERRORS:
                self._count("pool_serial_fallbacks")
                compiled = _compiled_plan(query, plan)
                return [
                    evaluate_fragment(compiled, facts)
                    for _index, facts in plan.fragments
                ]
        missed = [i for i, result in enumerate(results) if result is None]
        if missed:
            self._count("worker_misses", len(missed))
            retries = [
                (tasks[i][0], _payload_for(plan.fragments[i][1]), query_text)
                for i in missed
            ]
            for i, result in zip(missed, pool.map(_worker_answer, retries)):
                results[i] = result
        sent.update(token for token, _payload, _text in tasks)
        self._count("process_queries")
        constant = plan.fragments[0][1].table.constant
        return [
            [tuple(map(constant, values)) for _relation, values in part]
            for part in results
        ]

    # -- accounting --------------------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta
        _bump(name, delta)

    def _count_plan(self, plan: ShardPlan) -> None:
        self._count("queries")
        self._count("fragments_executed", plan.shards_executed)
        if plan.shards_pruned:
            self._count("shards_pruned", plan.shards_pruned)
        self._count(f"strategy_{plan.strategy}")

    def stats(self) -> Dict[str, object]:
        """This executor's counters plus the store's layout counters."""
        out: Dict[str, object] = dict(self.counters)
        out["layout"] = self.sharded.layout_counters()
        out["workers"] = self.workers
        return out


def evaluate_sharded(
    query, database, spec, workers: int = 0, pool=None
) -> FrozenSet:
    """One-shot sharded evaluation of *query* over a boxed database.

    Convenience for per-world loops: the partition itself is cached by
    ``(facts, spec)`` value, so re-enumerated equal worlds reuse their
    shard layout the same way they reuse scan rows. Pass a shared *pool*
    (from :func:`repro.confidence.engine.executors.make_executor`) when
    calling in a loop with ``workers >= 2`` — otherwise each call would
    spawn and tear down its own process pool.
    """
    store = ShardedDatabase(database, spec)
    with ShardExecutor(store, workers=workers, pool=pool) as ex:
        return ex.answer(query)
