"""EXPLAIN ANALYZE: measured per-operator cardinalities next to estimates.

The measurements come from the one plan interpreter,
:func:`repro.plan.executor.execute_plan`, run with a per-node row-count
sink; this module only renders them. Every plan line reads::

    hash-join [left.col0 = right.col0]  (est=310 actual=288 rows)

An operator that did not run carries no ``actual=``: a hash join whose
probe side is empty never reads its build side.

Two entry points match the two CLI surfaces: :func:`explain_analyze` runs a
query over one database; :func:`explain_analyze_worlds` aggregates the same
measurements over an iterable of possible worlds (the ``answer`` command's
setting, where a query never runs over just one database).

Analyzed executions are ordinary executions, so they feed the same
runtime-feedback loop (:func:`repro.plan.executor.record_feedback`).
"""

from __future__ import annotations

from typing import Iterable

from repro.plan.executor import (
    Actuals,
    data_source_for,
    execute_plan,
    format_est,
)
from repro.plan.ir import CompiledPlan, PlanNode


def _render(
    plan: CompiledPlan, actuals: Actuals, worlds: int, summary: str
) -> str:
    """The annotated tree, a *summary* line, and the q-error footer."""

    def annotate(node: PlanNode) -> str:
        parts = []
        if node.est_rows is not None:
            parts.append(f"est={format_est(node.est_rows)}")
        actual = actuals.get(id(node))
        if actual is not None:
            if worlds > 1:
                parts.append(f"actual={actual / worlds:.1f}/world")
            else:
                parts.append(f"actual={actual}")
        if not parts:
            return ""
        return "  (" + " ".join(parts) + " rows)"

    lines = [plan.explain(annotate=annotate), summary]
    feedback = plan.feedback
    if feedback is not None and feedback.checks:
        line = f"max q-error: {feedback.max_q_error:.2f}"
        if feedback.stale:
            line += " (plan marked stale; next cache hit re-optimizes)"
        lines.append(line)
    return "\n".join(lines)


def explain_analyze(query, database, table=None) -> str:
    """EXPLAIN ANALYZE one query over one database.

    Compiles (or re-uses) the cost-based plan for the database's fact set,
    executes it with per-operator measurement, and renders the annotated
    tree plus a feedback summary line.
    """
    from repro.plan.compiler import plan_for

    core = database.core()
    plan = plan_for(query, table=table, facts=core)
    actuals: Actuals = {}
    result = execute_plan(plan, data_source_for(core), actuals)
    return _render(plan, actuals, 1, f"answers: {len(result)}")


def explain_analyze_worlds(query, worlds: Iterable, table=None) -> str:
    """EXPLAIN ANALYZE aggregated over an iterable of possible worlds.

    The plan is compiled once (against the first world's statistics); every
    world is executed measured, actual cardinalities are summed, and the
    rendering reports per-operator means per world — the shape the
    possible-worlds ``answer`` command actually pays for.
    """
    from repro.plan.compiler import plan_for

    plan = None
    totals: Actuals = {}
    world_count = 0
    answer_total = 0
    for world in worlds:
        core = world.core()
        if plan is None:
            plan = plan_for(query, table=table, facts=core)
        answer_total += len(execute_plan(plan, data_source_for(core), totals))
        world_count += 1
    if plan is None:
        return "no possible worlds to analyze"
    summary = (
        f"worlds analyzed: {world_count}, "
        f"mean answers/world: {answer_total / world_count:.1f}"
    )
    return _render(plan, totals, world_count, summary)
