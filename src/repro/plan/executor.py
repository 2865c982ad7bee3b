"""Plan execution over interned fact sets, with per-database operator caches.

A :class:`PlanDataSource` wraps one :class:`~repro.core.factset.IFactSet`
and memoizes the two expensive physical artifacts:

* **scan row sets** — the pushdown-filtered, projected rows of each distinct
  :class:`~repro.plan.ir.ScanNode`, keyed by the scan's shape;
* **hash-join indexes** — the build-side hash tables, keyed by scan shape ×
  key columns.

Data sources themselves are cached process-wide keyed by the fact set's
*value* (an ``IFactSet`` hashes by its frozenset of fact IDs), so evaluating
many queries over one database — or re-evaluating a workload over the same
possible worlds — reuses every index instead of rebuilding it per call.
This is the structural win ``benchmarks/bench_e18_plan.py`` measures: the
backtracking evaluator re-derives candidate sets per query per world, while
the plan path amortizes them across the whole workload.

The decode back to boxed answers (:class:`~repro.model.atoms.Atom` facts for
conjunctive queries, rows of :class:`~repro.model.terms.Constant` for the
algebra) happens once per *distinct answer*, not per derivation.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cache import cache_registry
from repro.cache.runtime import LRUMemo
from repro.core.factset import IFactSet
from repro.plan.ir import (
    CompiledPlan,
    FilterNode,
    HashJoinNode,
    Lit,
    PlanError,
    PlanNode,
    ProjectNode,
    ScanNode,
    UnionPlanNode,
    UnitNode,
)

Rows = Tuple[Tuple[int, ...], ...]

#: Per-plan-node actual row counts, keyed by node identity (``id(node)``).
Actuals = Dict[int, int]

_EMPTY_ROWS: Rows = ()


class PlanDataSource:
    """Cached scans and join indexes over one immutable fact set."""

    __slots__ = ("facts", "table", "_scans", "_indexes")

    def __init__(self, facts: IFactSet):
        self.facts = facts
        self.table = facts.table
        self._scans: Dict[Tuple, Rows] = {}
        self._indexes: Dict[Tuple, Dict[Tuple[int, ...], Rows]] = {}

    def scan_rows(self, node: ScanNode) -> Rows:
        """The scan's output rows (computed once per scan shape)."""
        key = node.cache_key()
        rows = self._scans.get(key)
        if rows is None:
            rows = self._build_scan(node)
            self._scans[key] = rows
        return rows

    def _build_scan(self, node: ScanNode) -> Rows:
        grouped = self.facts.grouped().get(node.rid)
        if not grouped:
            return _EMPTY_ROWS
        arity = node.arity
        const_eq = node.const_eq
        dup_eq = node.dup_eq
        output = node.output
        seen: "OrderedDict[Tuple[int, ...], None]" = OrderedDict()
        for args in grouped:
            if len(args) != arity:
                continue
            ok = True
            for pos, cid in const_eq:
                if args[pos] != cid:
                    ok = False
                    break
            if ok:
                for first, later in dup_eq:
                    if args[first] != args[later]:
                        ok = False
                        break
            if ok:
                seen.setdefault(tuple(args[p] for p in output))
        return tuple(seen)

    def peek_scan_rows(self, node: ScanNode) -> Optional[Rows]:
        """The scan's rows if this source already built them, else ``None``.

        The runtime-feedback pass reads actual scan cardinalities through
        this so recording observations never triggers work the plan's own
        execution did not already pay for.
        """
        return self._scans.get(node.cache_key())

    def join_index(
        self, node: ScanNode, key_cols: Tuple[int, ...]
    ) -> Dict[Tuple[int, ...], Rows]:
        """Hash index of a scan's rows on *key_cols* (cached)."""
        cache_key = (node.cache_key(), key_cols)
        index = self._indexes.get(cache_key)
        if index is None:
            index = _build_index(self.scan_rows(node), key_cols)
            self._indexes[cache_key] = index
        return index

    def cached_index(
        self, node: ScanNode, key_cols: Tuple[int, ...]
    ) -> Optional[Dict[Tuple[int, ...], Rows]]:
        """An already-built hash index, or ``None`` (never builds one)."""
        return self._indexes.get((node.cache_key(), key_cols))

    def cached_artifacts(self) -> Tuple[int, int]:
        """``(scan_count, index_count)`` currently memoized."""
        return len(self._scans), len(self._indexes)


def _build_index(
    rows: Sequence[Tuple[int, ...]], key_cols: Tuple[int, ...]
) -> Dict[Tuple[int, ...], Rows]:
    building: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for row in rows:
        building.setdefault(tuple(row[c] for c in key_cols), []).append(row)
    return {key: tuple(group) for key, group in building.items()}


# -- the process-wide data-source cache ----------------------------------------

#: Bound on retained data sources. Each holds scan rows and hash indexes for
#: one database; per-world evaluation loops cycle through far fewer live
#: worlds than this at a time.
MAX_DATA_SOURCES = 128


def _source_sizeof(facts: IFactSet, source: PlanDataSource) -> int:
    """Price a data source by its world: rows and indexes scale with facts.

    Scan rows and hash indexes are materialized lazily, so an exact figure
    would drift after store time; a per-fact estimate (row tuples plus an
    index entry's dict overhead) keeps accounting stable and monotone in
    world size, which is what budget-driven eviction needs.
    """
    return 256 + 160 * len(facts)


_SOURCES = cache_registry().enroll(
    LRUMemo(
        maxsize=MAX_DATA_SOURCES, name="plan.data_sources", sizeof=_source_sizeof
    )
)


def data_source_for(facts: IFactSet) -> PlanDataSource:
    """The shared :class:`PlanDataSource` for a fact set (LRU, by value).

    Two databases with equal content share one source — re-enumerated
    possible worlds land on already-built indexes. Keyed by the fact set
    itself, so the invalidation bus retires an entry by key match when its
    world is retired.
    """
    return _SOURCES.get_or_create(facts, lambda: PlanDataSource(facts))


def data_source_count() -> int:
    """How many data sources are currently cached (for ``--stats``)."""
    return len(_SOURCES)


def clear_data_sources() -> None:
    """Drop every cached data source (tests and benchmarks reset with it)."""
    _SOURCES.clear()


def discard_data_source(facts: IFactSet) -> bool:
    """Drop one fact set's cached data source, if present.

    The shard layer's invalidation hook: a retired registry snapshot's
    fragments will never be scanned again, so their scan rows and join
    indexes can leave the LRU early instead of aging out. Kept callable
    directly, but the invalidation bus reaches the same entries by key
    match on the retired fact sets.
    """
    return _SOURCES.discard(facts)


# -- the interpreter -----------------------------------------------------------

def _scan_probe_join(
    node: HashJoinNode,
    left_rows: Sequence[Tuple[int, ...]],
    source: PlanDataSource,
) -> Sequence[Tuple[int, ...]]:
    """Join a tiny probe side against a scan without building its hash index.

    The optimizer's ``prefer_scan_probe`` path for cold data sources: the
    build side's rows are filtered once against the probe keys, grouping
    only the matching rows, so a huge build relation probed by a handful of
    rows costs one pass instead of a full (and cached) index build.
    """
    right_rows = source.scan_rows(node.right)
    left_keys = node.left_keys
    right_keys = node.right_keys
    probe_keys = {tuple(lrow[c] for c in left_keys) for lrow in left_rows}
    matched: Dict[Tuple[int, ...], List[Tuple[int, ...]]] = {}
    for rrow in right_rows:
        key = tuple(rrow[c] for c in right_keys)
        if key in probe_keys:
            matched.setdefault(key, []).append(rrow)
    out: List[Tuple[int, ...]] = []
    get = matched.get
    for lrow in left_rows:
        matches = get(tuple(lrow[c] for c in left_keys))
        if matches:
            for rrow in matches:
                out.append(lrow + rrow)
    return out


def _observe(actuals: Actuals, node: PlanNode, count: int) -> None:
    actuals[id(node)] = actuals.get(id(node), 0) + count


def _hash_join(
    node: HashJoinNode,
    left_rows: Sequence[Tuple[int, ...]],
    source: PlanDataSource,
    actuals: Optional[Actuals],
) -> Sequence[Tuple[int, ...]]:
    """Probe *node*'s build side with the (non-empty) *left_rows*."""
    right = node.right
    if type(right) is ScanNode:
        # The build-side scan is read through the source's caches, not
        # through _run, so the join reports its cardinality itself.
        if actuals is not None:
            _observe(actuals, right, len(source.scan_rows(right)))
        if (
            node.prefer_scan_probe
            and source.cached_index(right, node.right_keys) is None
        ):
            return _scan_probe_join(node, left_rows, source)
        index = source.join_index(right, node.right_keys)
    else:
        index = _build_index(_run(right, source, actuals), node.right_keys)
    if not index:
        return _EMPTY_ROWS
    left_keys = node.left_keys
    out: List[Tuple[int, ...]] = []
    if left_keys:
        get = index.get
        for lrow in left_rows:
            matches = get(tuple(lrow[c] for c in left_keys))
            if matches:
                for rrow in matches:
                    out.append(lrow + rrow)
    else:
        right_rows = index.get((), _EMPTY_ROWS)
        for lrow in left_rows:
            for rrow in right_rows:
                out.append(lrow + rrow)
    return out


def _run(
    node: PlanNode, source: PlanDataSource, actuals: Optional[Actuals] = None
) -> Sequence[Tuple[int, ...]]:
    """Evaluate *node*; with an *actuals* sink, add its row count there.

    A join whose probe side comes up empty skips its build side, which
    therefore records nothing.
    """
    node_type = type(node)
    if node_type is ScanNode:
        rows = source.scan_rows(node)
    elif node_type is HashJoinNode:
        left_rows = _run(node.left, source, actuals)
        rows = (
            _hash_join(node, left_rows, source, actuals)
            if left_rows
            else _EMPTY_ROWS
        )
    elif node_type is FilterNode:
        predicate = node.predicate
        table = source.table
        rows = [
            row
            for row in _run(node.child, source, actuals)
            if predicate.evaluate(row, table)
        ]
    elif node_type is ProjectNode:
        columns = node.columns
        seen: "OrderedDict[Tuple[int, ...], None]" = OrderedDict()
        for row in _run(node.child, source, actuals):
            seen.setdefault(
                tuple(
                    row[c] if isinstance(c, int) else c.cid for c in columns
                )
            )
        rows = tuple(seen)
    elif node_type is UnitNode:
        rows = ((),)
    elif node_type is UnionPlanNode:
        seen = OrderedDict()
        for child in node.children:
            for row in _run(child, source, actuals):
                seen.setdefault(row)
        rows = tuple(seen)
    else:
        raise PlanError(f"unknown plan node {node_type.__name__}")
    if actuals is not None:
        _observe(actuals, node, len(rows))
    return rows


def record_feedback(
    plan: CompiledPlan, source: PlanDataSource, result_count: int
) -> None:
    """Fold one execution's observations into the plan's feedback loop.

    Only free observations are taken: scan cardinalities come off the data
    source's already-built caches (:meth:`PlanDataSource.peek_scan_rows`)
    and the result count is the length the caller already has. A q-error
    beyond the re-optimization threshold flips ``feedback.stale`` — the plan
    cache re-optimizes on its next hit.
    """
    from repro.plan.optimizer import optimizer_counters

    feedback = plan.feedback
    if feedback is None:
        return
    counters = optimizer_counters()
    for scan in plan.scan_nodes:
        rows = source.peek_scan_rows(scan)
        if rows is None:
            continue
        actual = len(rows)
        feedback.observed[scan.cache_key()] = actual
        counters.record_q_error(feedback.record(scan.est_rows, actual))
    if plan.root.est_rows is not None:
        counters.record_q_error(
            feedback.record(plan.root.est_rows, result_count)
        )


def execute_plan(
    plan: CompiledPlan,
    source: PlanDataSource,
    actuals: Optional[Actuals] = None,
) -> FrozenSet[Tuple[int, ...]]:
    """Run a compiled plan; answers are rows of constant IDs.

    With an *actuals* sink, every operator that ran adds its output row
    count under ``id(node)`` (EXPLAIN ANALYZE's measurements); a plan cut
    short by a false prefilter records nothing.
    """
    table = source.table
    for predicate in plan.prefilters:
        if not predicate.evaluate((), table):
            return frozenset()  # boxed-ok: ints
    rows = frozenset(_run(plan.root, source, actuals))  # boxed-ok: ints
    if plan.feedback is not None:
        record_feedback(plan, source, len(rows))
    return rows


# -- boxed entry points --------------------------------------------------------

def evaluate(query, database) -> FrozenSet:
    """``Q(D)`` for a conjunctive query, through the plan pipeline.

    The drop-in replacement for
    :func:`repro.queries.evaluation.evaluate_backtracking` — identical
    answers (differentially tested), compiled once per alpha-equivalence
    class, indexes shared per database.
    """
    from repro.model.atoms import Atom
    from repro.plan.compiler import plan_for

    core = database.core()
    plan = plan_for(query, facts=core)
    source = data_source_for(core)
    rows = execute_plan(plan, source)
    constant_value = plan.table.constant_value
    head_relation = plan.head_relation
    return frozenset(
        Atom(head_relation, tuple(constant_value(c) for c in row))
        for row in rows
    )


def evaluate_rows(algebra_query, database) -> FrozenSet[Tuple]:
    """Algebra-tree evaluation to rows of boxed constants.

    Raises :class:`~repro.plan.ir.PlanError` for trees outside the compiled
    vocabulary; :meth:`repro.algebra.ast.AlgebraQuery.evaluate` catches it
    and falls back to the boxed interpreter.
    """
    from repro.model.terms import Constant
    from repro.plan.compiler import plan_for

    core = database.core()
    plan = plan_for(algebra_query, facts=core)
    source = data_source_for(core)
    rows = execute_plan(plan, source)
    constant_value = plan.table.constant_value
    return frozenset(
        tuple(Constant(constant_value(c)) for c in row) for row in rows
    )


def format_est(value: float) -> str:
    """Render a cardinality estimate for EXPLAIN (integers above ten)."""
    if value >= 10 or value == int(value):
        return f"{value:.0f}"
    return f"{value:.2f}"


def _estimate_suffix(node: PlanNode) -> str:
    est = node.est_rows
    if est is None:
        return ""
    return f"  (est={format_est(est)} rows)"


def explain(query, table=None, database=None) -> str:
    """The EXPLAIN rendering of a query's (cached) physical plan.

    With a *database*, the plan is compiled cost-based against its
    statistics and each operator line carries the optimizer's cardinality
    estimate; without one the rendering is the static plan, unchanged.
    """
    from repro.plan.compiler import plan_for

    facts = database.core() if database is not None else None
    plan = plan_for(query, table=table, facts=facts)
    if plan.optimizer_info:
        return plan.explain(annotate=_estimate_suffix)
    return plan.explain()
