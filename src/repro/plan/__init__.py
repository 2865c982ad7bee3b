"""``repro.plan``: one compiled, cached execution pipeline for every query path.

PR 3 interned the consistency/confidence hot paths; this package does the
same for *query evaluation*. Both query languages — conjunctive queries and
the σ/π/×/∪ relational algebra — compile into one physical plan IR over the
interned core (:mod:`repro.plan.ir`), with:

* interned relation scans carrying pushed-down selections,
* hash joins whose build-side indexes are cached per database,
* builtin/σ filters applied at the earliest bound point,
* a canonical-form plan cache keyed by alpha-equivalence
  (:mod:`repro.plan.compiler` / :mod:`repro.plan.cache`),
* a cost-based adaptive optimizer (:mod:`repro.plan.optimizer`) fed by a
  statistics catalog (:mod:`repro.plan.statistics`) that picks join orders,
  flags tiny probe sides, and re-optimizes plans whose runtime feedback
  shows mis-estimates, and
* ``EXPLAIN``-able plans (``python -m repro answer ... --explain``) plus
  measured ``EXPLAIN ANALYZE`` trees (:mod:`repro.plan.analyze`,
  ``--explain-analyze``).

Every evaluator in the repo routes here: ``queries.evaluation.evaluate``,
the algebra interpreter, the rewriting executor, tableaux query answering,
per-world confidence evaluation, and the mediator service's query requests.
The pre-existing backtracking and naive evaluators survive as differential
oracles (``evaluate_backtracking`` / ``evaluate_naive``), same pattern as
:mod:`repro.core.baseline`.
"""

from repro.plan.analyze import explain_analyze, explain_analyze_worlds
from repro.plan.cache import (
    plan_cache_stats,
    plan_cache_stats_dict,
    shared_plan_cache,
)
from repro.plan.compiler import compile_query, plan_for, plan_key
from repro.plan.executor import (
    MAX_DATA_SOURCES,
    PlanDataSource,
    clear_data_sources,
    data_source_count,
    data_source_for,
    discard_data_source,
    evaluate,
    evaluate_rows,
    execute_plan,
    explain,
)
from repro.plan.ir import CompiledPlan, PlanError
from repro.plan.optimizer import (
    PlanFeedback,
    choose_join_order,
    optimizer_stats,
    reset_optimizer_stats,
)
from repro.plan.statistics import (
    TableStatistics,
    cached_statistics,
    clear_statistics,
    discard_statistics,
    statistics_counters,
    statistics_for,
)

__all__ = [
    "CompiledPlan",
    "MAX_DATA_SOURCES",
    "PlanDataSource",
    "PlanError",
    "PlanFeedback",
    "TableStatistics",
    "cached_statistics",
    "choose_join_order",
    "clear_data_sources",
    "clear_statistics",
    "compile_query",
    "data_source_count",
    "data_source_for",
    "discard_data_source",
    "discard_statistics",
    "evaluate",
    "evaluate_rows",
    "execute_plan",
    "explain",
    "explain_analyze",
    "explain_analyze_worlds",
    "optimizer_stats",
    "plan_cache_stats",
    "plan_cache_stats_dict",
    "plan_for",
    "plan_key",
    "plan_stats",
    "reset_optimizer_stats",
    "shared_plan_cache",
    "statistics_counters",
    "statistics_for",
]


def plan_stats() -> dict:
    """One JSON-serializable snapshot of the plan layer's caches."""
    return {
        "cache": plan_cache_stats_dict(),
        "data_sources": data_source_count(),
        "statistics": statistics_counters(),
        "optimizer": optimizer_stats(),
    }
