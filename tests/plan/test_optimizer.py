"""The cost-based optimizer: ordering, feedback, re-optimization, EXPLAIN."""

from repro.confidence.engine.memo import LRUMemo
from repro.core import global_table
from repro.model import GlobalDatabase, fact
from repro.plan import (
    clear_statistics,
    compile_query,
    data_source_for,
    execute_plan,
    explain,
    explain_analyze,
    plan_for,
    reset_optimizer_stats,
    statistics_for,
)
from repro.plan.executor import _run
from repro.plan.ir import HashJoinNode, UnionPlanNode
from repro.plan.optimizer import (
    MAX_REOPTS_PER_PLAN,
    REOPT_MIN_ROWS,
    REOPT_RATIO,
    SCAN_PROBE_FACTOR,
    PlanFeedback,
    optimizer_stats,
    prefer_scan_probe,
    q_error,
)
from repro.queries import evaluate_backtracking, parse_rule


def skewed_database(big=200, small=4):
    return GlobalDatabase(
        [fact("Big", f"k{i % 10}", f"z{i}") for i in range(big)]
        + [fact("Small", f"x{i}", f"k{i}") for i in range(small)]
    )


def observed_execution(plan, source):
    """Execute *plan* with a row-count sink and check what the sink holds.

    Observing must not change the answer; every recorded node holds the
    length of ``_run`` on its subtree; a node is recorded exactly when it
    ran, so a hash join whose probe side is empty leaves its build side
    unrecorded. Returns ``(rows, actuals)``.
    """
    actuals = {}
    rows = execute_plan(plan, source, actuals)
    assert rows == execute_plan(plan, source)
    stack = [plan.root]
    while stack:
        node = stack.pop()
        children = (
            node.children if isinstance(node, UnionPlanNode) else node.children()
        )
        if id(node) not in actuals:
            assert not any(id(child) in actuals for child in children)
            stack.extend(children)
            continue
        assert actuals[id(node)] == len(_run(node, source))
        if isinstance(node, HashJoinNode):
            assert id(node.left) in actuals
            probed = actuals[id(node.left)] > 0
            assert (id(node.right) in actuals) == probed
        else:
            assert all(id(child) in actuals for child in children)
        stack.extend(children)
    return rows, actuals


def answers(plan, source, table):
    constant_value = table.constant_value
    return {
        tuple(constant_value(c) for c in row)
        for row in execute_plan(plan, source)
    }


class TestQError:
    def test_perfect_estimate(self):
        assert q_error(10, 10) == 1.0

    def test_symmetric(self):
        assert q_error(100, 10) == q_error(10, 100)

    def test_missing_estimate_is_neutral(self):
        assert q_error(None, 10**6) == 1.0


class TestPreferScanProbe:
    def test_tiny_probe_side_flags(self):
        assert prefer_scan_probe(1.0, SCAN_PROBE_FACTOR + 1)

    def test_balanced_sides_do_not_flag(self):
        assert not prefer_scan_probe(100.0, 100.0)


class TestFeedback:
    def test_small_results_never_flip_stale(self):
        feedback = PlanFeedback()
        feedback.record(1, REOPT_MIN_ROWS - 1)
        assert not feedback.stale

    def test_large_misestimate_flips_stale(self):
        feedback = PlanFeedback()
        q = feedback.record(1, 1000)
        assert q > REOPT_RATIO
        assert feedback.stale
        assert feedback.max_q_error == q

    def test_accurate_estimates_stay_fresh(self):
        feedback = PlanFeedback()
        feedback.record(1000, 900)
        assert not feedback.stale

    def test_reopt_cap_pins_the_plan(self):
        feedback = PlanFeedback(reopt_count=MAX_REOPTS_PER_PLAN)
        feedback.record(1, 1000)
        assert not feedback.stale


class TestJoinOrder:
    def setup_method(self):
        clear_statistics()
        reset_optimizer_stats()

    def test_optimizer_scans_the_small_relation_first(self):
        database = skewed_database()
        core = database.core()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        plan = compile_query(query, global_table(), stats=statistics_for(core))
        assert plan.optimizer_info is not None
        assert plan.optimizer_info.startswith("dp join order")
        assert plan.scan_nodes[0].relation == "Small"

    def test_static_compile_keeps_the_syntactic_order(self):
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        plan = compile_query(query, global_table())
        assert plan.optimizer_info is None
        assert plan.feedback is None
        assert plan.scan_nodes[0].relation == "Big"

    def test_single_atom_queries_skip_optimization(self):
        core = GlobalDatabase([fact("R", "a")]).core()
        query = parse_rule("ans(x) <- R(x)")
        plan = compile_query(query, global_table(), stats=statistics_for(core))
        assert plan.optimizer_info is None

    def test_optimized_plan_matches_static_answers(self):
        database = skewed_database()
        core = database.core()
        table = global_table()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        static = compile_query(query, table)
        optimized = compile_query(query, table, stats=statistics_for(core))
        source = data_source_for(core)
        expected = {
            tuple(c.value for c in a.args)
            for a in evaluate_backtracking(query, database)
        }
        assert answers(static, source, table) == expected
        assert answers(optimized, source, table) == expected

    def test_explain_carries_estimates(self):
        database = skewed_database()
        text = explain(
            parse_rule("ans(x, z) <- Big(y, z), Small(x, y)"),
            database=database,
        )
        assert "optimizer: dp join order" in text
        assert "est=" in text
        assert "scan Small" in text


class TestReoptimization:
    def setup_method(self):
        clear_statistics()
        reset_optimizer_stats()

    def make_worlds(self):
        misleading = GlobalDatabase(
            [fact("Big", "k0", "z0")]
            + [fact("Small", f"x{i}", f"k{i % 2}") for i in range(40)]
        )
        actual = skewed_database(big=400, small=4)
        return misleading, actual

    def test_stale_plan_is_reoptimized_on_next_hit(self):
        misleading, actual = self.make_worlds()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        cache = LRUMemo(8)
        misled = plan_for(query, cache=cache, facts=misleading.core())
        assert misled.scan_nodes[0].relation == "Big"

        source = data_source_for(actual.core())
        execute_plan(misled, source)
        assert misled.feedback.stale

        adapted = plan_for(query, cache=cache, facts=actual.core())
        assert adapted is not misled
        assert adapted.feedback.reopt_count == 1
        assert "reopt #1" in adapted.optimizer_info
        assert adapted.scan_nodes[0].relation == "Small"
        assert optimizer_stats()["reoptimizations"] == 1

    def test_reoptimization_uses_observed_cardinalities(self):
        misleading, actual = self.make_worlds()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        cache = LRUMemo(8)
        misled = plan_for(query, cache=cache, facts=misleading.core())
        source = data_source_for(actual.core())
        expected = execute_plan(misled, source)
        adapted = plan_for(query, cache=cache, facts=actual.core())
        # The re-optimized plan answers identically and its estimates are
        # now exact for the world that triggered the feedback.
        assert execute_plan(adapted, source) == expected
        assert adapted.feedback.max_q_error == 1.0

    def test_fresh_plan_without_facts_is_not_reoptimized(self):
        misleading, actual = self.make_worlds()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        cache = LRUMemo(8)
        misled = plan_for(query, cache=cache, facts=misleading.core())
        execute_plan(misled, data_source_for(actual.core()))
        assert misled.feedback.stale
        # No facts on the cache hit: nothing to re-profile against, the
        # stale plan is served as-is.
        assert plan_for(query, cache=cache) is misled


class TestExplainAnalyze:
    def setup_method(self):
        clear_statistics()
        reset_optimizer_stats()

    def test_analyze_matches_execution(self):
        database = skewed_database()
        core = database.core()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        plan = compile_query(query, global_table(), stats=statistics_for(core))
        source = data_source_for(core)
        rows, actuals = observed_execution(plan, source)
        assert actuals[id(plan.root)] == len(rows)
        assert len(actuals) == 4  # project, join and both scans all ran

    def test_empty_probe_join_leaves_build_scan_unrecorded(self):
        database = GlobalDatabase(
            [fact("Big", f"k{i % 10}", f"z{i}") for i in range(200)]
            + [fact("Small", "x0", "nowhere")]
        )
        core = database.core()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y), Small(x, x)")
        plan = compile_query(query, global_table(), stats=statistics_for(core))
        rows, actuals = observed_execution(plan, data_source_for(core))
        assert rows == frozenset()
        # Small ⨝ Small comes up empty, so the outer join never reads Big.
        join = plan.root.child
        assert isinstance(join, HashJoinNode)
        assert actuals[id(join.left)] == 0
        assert id(join.right) not in actuals
        text = explain_analyze(query, database)
        assert "scan Big/2 -> (arg0, arg1)  (est=200 rows)" in text

    def test_explain_analyze_renders_actuals(self):
        database = skewed_database()
        query = parse_rule("ans(x, z) <- Big(y, z), Small(x, y)")
        text = explain_analyze(query, database)
        assert "actual=" in text
        assert "answers:" in text
        assert "max q-error:" in text
