"""Partition-aware planning: which fragments must a query touch?

Given a conjunctive query and a :class:`~repro.shard.store.ShardedDatabase`,
:func:`plan_shards` picks one of six strategies:

* ``single`` — one shard configured; the union store, zero overhead;
* ``pruned`` — a single-atom query with a constant at the partition-key
  position touches exactly one shard; the other ``N−1`` are pruned without
  reading a fact;
* ``scatter`` — a single-atom query over all base shards (every fact lives
  in exactly one, so the per-shard unions cover the store);
* ``copartitioned`` — a join whose common variable sits at *every* atom's
  partition-key position: matching facts already co-locate, shard-local
  joins over the base partition are complete;
* ``broadcast`` — one big relation stays shard-local, everything else is
  replicated to each fragment (valid when the big relation appears in
  exactly one atom);
* ``repartition`` — facts re-bucketed on a variable common to all atoms;

with ``global`` (evaluate the union store in one piece) as the fallback for
shapes distribution cannot help — algebra trees, zero-ary atoms, joins with
no common variable and no once-mentioned relation.

The broadcast-vs-repartition choice is cost-based, driven by the same
:func:`repro.plan.statistics.statistics_for` cardinalities the optimizer
uses: broadcast replicates the small relations ``N`` times, repartitioning
moves every queried fact roughly once, and the cheaper estimated volume
wins. Soundness never depends on the choice — every fragment is a subset of
the store and conjunctive queries are monotone — only completeness does,
and both layouts guarantee it (see :mod:`repro.shard.store`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.factset import IFactSet
from repro.model.terms import Constant, Variable
from repro.queries.conjunctive import ConjunctiveQuery
from repro.shard.partition import stable_bucket
from repro.shard.store import ShardedDatabase


@dataclass(frozen=True)
class ShardPlan:
    """The fragments one query execution must scatter over."""

    strategy: str
    #: ``(fragment index, fact set)`` pairs, in execution order
    fragments: Tuple[Tuple[int, IFactSet], ...]
    shards_total: int
    shards_pruned: int = 0
    detail: str = ""
    #: estimated materialized volume per candidate layout (explain surface)
    cost_estimates: Dict[str, float] = field(default_factory=dict)

    @property
    def shards_executed(self) -> int:
        """How many fragments the scatter phase actually runs."""
        return len(self.fragments)


def _variable_at_key(query: ConjunctiveQuery, spec) -> Optional[Variable]:
    """The single variable occupying every atom's key position, if any."""
    shared: Optional[Variable] = None
    for atom in query.relational_body():
        position = spec.key_position(atom.relation, len(atom.args))
        if position is None:
            return None
        term = atom.args[position]
        if not isinstance(term, Variable):
            return None
        if shared is None:
            shared = term
        elif term != shared:
            return None
    return shared


def _common_variables(query: ConjunctiveQuery) -> Tuple[Variable, ...]:
    """Variables occurring in every relational body atom, name-sorted."""
    atoms = query.relational_body()
    common = set(atoms[0].variables())
    for atom in atoms[1:]:
        common &= atom.variables()
    return tuple(sorted(common, key=lambda v: v.name))


def _relation_cardinalities(
    sharded: ShardedDatabase, relations: Tuple[str, ...]
) -> Dict[str, int]:
    """Cardinality of each queried relation, via the statistics catalog."""
    from repro.plan.statistics import statistics_for

    union = sharded.union_core()
    table = union.table
    stats = statistics_for(union)
    out: Dict[str, int] = {}
    for name in relations:
        rid = table.find_relation(name)
        relation_stats = None if rid is None else stats.relations.get(rid)
        out[name] = 0 if relation_stats is None else relation_stats.cardinality
    return out


def plan_shards(
    query,
    sharded: ShardedDatabase,
    use_statistics: bool = True,
) -> ShardPlan:
    """Choose a strategy and materialize its fragments for *query*."""
    spec = sharded.spec
    union = sharded.union_core()
    total = spec.num_shards
    if total == 1:
        return ShardPlan("single", ((0, union),), 1, detail="one shard configured")
    if not isinstance(query, ConjunctiveQuery):
        return ShardPlan(
            "global", ((0, union),), total,
            detail=f"{type(query).__name__} is outside the shardable vocabulary",
        )
    atoms = query.relational_body()
    if not atoms:
        return ShardPlan(
            "global", ((0, union),), total, detail="no relational body atoms"
        )
    if len(atoms) == 1:
        return _plan_single_atom(query, sharded)
    return _plan_join(query, sharded, use_statistics)


def _plan_single_atom(query: ConjunctiveQuery, sharded: ShardedDatabase) -> ShardPlan:
    spec = sharded.spec
    atom = query.relational_body()[0]
    position = spec.key_position(atom.relation, len(atom.args))
    if position is None:
        return ShardPlan(
            "global", ((0, sharded.union_core()),), spec.num_shards,
            detail=f"{atom.relation} has no partition key (zero arity)",
        )
    term = atom.args[position]
    if isinstance(term, Constant):
        # Facts are placed by their interned value, so route by it too:
        # 1, True and 1.0 are one constant but hash to different buckets.
        table = sharded.union_core().table
        cid = table.find_constant(term.value)
        value = term.value if cid is None else table.constant_value(cid)
        bucket = stable_bucket(value, spec.num_shards)
        return ShardPlan(
            "pruned",
            ((bucket, sharded.shards()[bucket]),),
            spec.num_shards,
            shards_pruned=spec.num_shards - 1,
            detail=(
                f"{atom.relation}[{position}] = {term} fixes shard {bucket}"
            ),
        )
    return ShardPlan(
        "scatter",
        tuple(enumerate(sharded.shards())),
        spec.num_shards,
        detail=f"shard-local scan of {atom.relation} on every shard",
    )


def _plan_join(
    query: ConjunctiveQuery, sharded: ShardedDatabase, use_statistics: bool
) -> ShardPlan:
    spec = sharded.spec
    atoms = query.relational_body()
    shared = _variable_at_key(query, spec)
    if shared is not None:
        return ShardPlan(
            "copartitioned",
            tuple(enumerate(sharded.shards())),
            spec.num_shards,
            detail=(
                f"join variable {shared.name} sits at every partition key: "
                "base shards are join-complete"
            ),
        )
    common = _common_variables(query)
    counts: Dict[str, int] = {}
    once = sorted(
        {a.relation for a in atoms}
        - {a.relation for a in atoms if sum(b.relation == a.relation for b in atoms) > 1}
    )
    relations = tuple(sorted({a.relation for a in atoms}))
    if use_statistics:
        counts = _relation_cardinalities(sharded, relations)
    estimates: Dict[str, float] = {}
    if once and counts:
        big = max(once, key=lambda name: counts.get(name, 0))
        small_volume = sum(counts[r] for r in relations if r != big)
        estimates["broadcast"] = counts.get(big, 0) + spec.num_shards * small_volume
    elif once:
        big = once[-1]
    else:
        big = None
    if common and counts:
        estimates["repartition"] = float(sum(counts[r] for r in relations))
    choice = _choose_join_strategy(common, big, estimates)
    if choice == "broadcast":
        table = sharded.union_core().table
        rid = table.relation(big)
        return ShardPlan(
            "broadcast",
            tuple(enumerate(sharded.broadcast_fragments(rid))),
            spec.num_shards,
            detail=(
                f"{big} stays shard-local; "
                f"{', '.join(r for r in relations if r != big) or 'nothing'} "
                "replicated to every fragment"
            ),
            cost_estimates=estimates,
        )
    if choice == "repartition":
        variable = common[0]
        table = sharded.union_core().table
        positions: Dict[int, List[int]] = {}
        for atom in atoms:
            rid = table.relation(atom.relation)
            for index, term in enumerate(atom.args):
                if term == variable:
                    positions.setdefault(rid, []).append(index)
        layout = {rid: tuple(sorted(set(p))) for rid, p in positions.items()}
        return ShardPlan(
            "repartition",
            tuple(enumerate(sharded.repartition_fragments(layout))),
            spec.num_shards,
            detail=(
                f"facts re-bucketed on join variable {variable.name} "
                f"across {len(layout)} relation(s)"
            ),
            cost_estimates=estimates,
        )
    return ShardPlan(
        "global",
        ((0, sharded.union_core()),),
        spec.num_shards,
        detail="no common join variable and no once-mentioned relation",
        cost_estimates=estimates,
    )


def _choose_join_strategy(
    common: Tuple[Variable, ...],
    big: Optional[str],
    estimates: Dict[str, float],
) -> str:
    """Pick among repartition/broadcast/global from what is available."""
    can_repartition = bool(common)
    can_broadcast = big is not None
    if can_repartition and can_broadcast:
        if "broadcast" in estimates and "repartition" in estimates:
            # Ties go to repartitioning: it never replicates a fact more
            # than its position count, broadcast replicates N-fold.
            return (
                "broadcast"
                if estimates["broadcast"] < estimates["repartition"]
                else "repartition"
            )
        return "repartition"
    if can_repartition:
        return "repartition"
    if can_broadcast:
        return "broadcast"
    return "global"


def explain_shards(query, sharded: ShardedDatabase) -> str:
    """The EXPLAIN rendering of a query's shard plan.

    The ``pruned=`` figure is the acceptance surface: a pruned point lookup
    reports how many shards were skipped without reading a fact.
    """
    plan = plan_shards(query, sharded)
    lines = [
        (
            f"shard plan: strategy={plan.strategy}"
            f"  shards={plan.shards_total}"
            f"  executed={plan.shards_executed}"
            f"  pruned={plan.shards_pruned}"
        )
    ]
    if plan.detail:
        lines.append(f"  {plan.detail}")
    for name, volume in sorted(plan.cost_estimates.items()):
        lines.append(f"  est volume {name}: {volume:.0f} facts")
    sizes = [len(facts) for _index, facts in plan.fragments]
    if sizes:
        lines.append(
            f"  fragment sizes: min={min(sizes)} max={max(sizes)} "
            f"total={sum(sizes)}"
        )
    return "\n".join(lines)
