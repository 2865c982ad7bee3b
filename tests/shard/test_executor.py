"""Scatter-gather execution: equivalence, process path, counters."""

import pytest

from repro.algebra import RelationScan, cq_to_algebra
from repro.confidence.engine.executors import make_executor
from repro.model import Atom, Constant, GlobalDatabase, Variable, fact
from repro.plan import evaluate as plan_evaluate
from repro.plan import evaluate_rows
from repro.queries import ConjunctiveQuery, parse_rule
from repro.queries.evaluation import evaluate_backtracking
from repro.shard import (
    PartitionSpec,
    ShardExecutor,
    ShardedDatabase,
    canonical_order,
    evaluate_sharded,
    reset_shard_stats,
    shard_stats,
)
from repro.shard.executor import _portable_query, clear_worker_stores

QUERIES = [
    "V(x, y) <- E(x, y)",          # scatter
    "V(y) <- E(1, y)",             # pruned
    "V(x, z) <- E(x, y), E(y, z)", # repartition
    "V(x, z) <- E(x, y), F(z, w)", # broadcast
    "V(x) <- E(x, x)",             # scatter, self-loop filter
    "V() <- E(1, 2)",              # pruned, boolean
    "V(x, y) <- E(x, y), Lt(x, y)",  # builtin: serial-only path
]


def make_db():
    return GlobalDatabase(
        [fact("E", i % 5, (i * 3) % 7) for i in range(30)]
        + [fact("F", i % 3, "t") for i in range(6)]
    )


def executor_for(db, n, **kw):
    return ShardExecutor(ShardedDatabase(db, PartitionSpec(n)), **kw)


class TestEquivalence:
    @pytest.mark.parametrize("rule", QUERIES)
    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_matches_single_store_pipeline(self, rule, shards):
        db = make_db()
        query = parse_rule(rule)
        expected = plan_evaluate(query, db)
        assert executor_for(db, shards).answer(query) == expected

    def test_answer_ordered_is_canonical(self):
        db = make_db()
        query = parse_rule("V(x, y) <- E(x, y)")
        ex = executor_for(db, 3)
        assert ex.answer_ordered(query) == canonical_order(ex.answer(query))

    def test_evaluate_sharded_one_shot(self):
        db = make_db()
        query = parse_rule("V(y) <- E(1, y)")
        assert evaluate_sharded(query, db, PartitionSpec(4)) == plan_evaluate(
            query, db
        )

    def test_empty_database(self):
        db = GlobalDatabase([])
        query = parse_rule("V(x) <- E(x, y)")
        assert executor_for(db, 4).answer(query) == frozenset()


class TestCounters:
    def test_plan_counters(self):
        reset_shard_stats()
        ex = executor_for(make_db(), 4)
        ex.answer(parse_rule("V(y) <- E(1, y)"))
        ex.answer(parse_rule("V(x, y) <- E(x, y)"))
        assert ex.counters["queries"] == 2
        assert ex.counters["shards_pruned"] == 3
        assert ex.counters["fragments_executed"] == 1 + 4
        assert ex.counters["strategy_pruned"] == 1
        assert ex.counters["strategy_scatter"] == 1
        # process-wide mirror sees the same deltas
        assert shard_stats()["queries"] >= 2

    def test_stats_includes_layout(self):
        ex = executor_for(make_db(), 2)
        ex.answer(parse_rule("V(x, y) <- E(x, y)"))
        stats = ex.stats()
        assert stats["layout"]["base_built"] == 2
        assert stats["workers"] == 0


class TestPortability:
    def test_plain_cq_is_portable(self):
        assert _portable_query(parse_rule("V(x, z) <- E(x, y), E(y, z)"))

    def test_builtin_query_is_not(self):
        assert not _portable_query(parse_rule("V(x) <- E(x, y), Lt(x, y)"))

    def test_algebra_query_is_not(self):
        from repro.algebra import cq_to_algebra

        assert not _portable_query(
            cq_to_algebra(parse_rule("V(x) <- E(x, y)"))
        )


class TestProcessPath:
    def test_process_equivalence_and_warm_reuse(self):
        reset_shard_stats()
        clear_worker_stores()
        db = make_db()
        with executor_for(db, 4, workers=2) as ex:
            for rule in QUERIES:
                query = parse_rule(rule)
                assert ex.answer(query) == plan_evaluate(query, db)
            # warm pass: same fragments, tokens already sent
            before = dict(ex.counters)
            for rule in QUERIES:
                query = parse_rule(rule)
                assert ex.answer(query) == plan_evaluate(query, db)
            after = ex.counters
            # the builtin query never takes the process path
            assert before.get("strategy_scatter", 0) >= 1
            if not getattr(ex._pool, "degraded", False):
                assert after["process_queries"] > 0

    def test_shared_pool_outlives_executors(self):
        db = make_db()
        query = parse_rule("V(x, y) <- E(x, y)")
        pool = make_executor(2, mode="process")
        try:
            with executor_for(db, 3, workers=2, pool=pool) as first:
                assert first.answer(query) == plan_evaluate(query, db)
            # closing a borrowing executor must not close the shared pool:
            # a second executor keeps answering through it, reusing the
            # sent-token bookkeeping that rides on the pool object. (Misses
            # may still occur — map() is free to hand a fragment to a
            # worker that has not cached it — and the resend path absorbs
            # them, so only correctness is asserted here.)
            sent = getattr(pool, "shard_sent_tokens", set())
            with executor_for(db, 3, workers=2, pool=pool) as second:
                assert second.answer(query) == plan_evaluate(query, db)
                if not getattr(pool, "degraded", False):
                    assert getattr(pool, "shard_sent_tokens") >= sent
        finally:
            pool.close()

    def test_builtin_query_falls_back_to_serial(self):
        db = make_db()
        query = parse_rule("V(x, y) <- E(x, y), Lt(x, y)")
        with executor_for(db, 4, workers=2) as ex:
            assert ex.answer(query) == plan_evaluate(query, db)
            assert "process_queries" not in ex.counters


class TestAlgebraQueries:
    """Algebra trees plan onto the global fragment and answer rows."""

    def test_relation_scan_answers_rows(self):
        db = make_db()
        ex = executor_for(db, 4)
        scan = RelationScan("E", 2)
        assert ex.answer(scan) == evaluate_rows(scan, db)
        assert ex.counters["strategy_global"] == 1

    def test_translated_cq_answers_rows_in_order(self):
        db = make_db()
        tree = cq_to_algebra(parse_rule("V(x, z) <- E(x, y), E(y, z)"))
        ordered = executor_for(db, 3).answer_ordered(tree)
        assert frozenset(ordered) == evaluate_rows(tree, db)
        assert len(ordered) == len(set(ordered))


class StrA:
    """A value whose ``str`` collides with :class:`StrB`'s and ``"clash"``."""

    def __str__(self):
        return "clash"

    def __repr__(self):
        return "StrA()"

    def __eq__(self, other):
        return type(other) is StrA

    def __hash__(self):
        return 7


class StrB(StrA):
    def __repr__(self):
        return "StrB()"

    def __eq__(self, other):
        return type(other) is StrB

    def __hash__(self):
        return 7


def mixed_db():
    """``1``, ``True`` and ``1.0`` are one constant; each relation holds one
    of them, so every answer column shows a single member of that class
    (their type names order it the same way against every other value
    here, whichever member the symbol table keeps)."""
    return GlobalDatabase(
        [
            fact("E", 1, "1"),
            fact("E", 1, (1, 2)),
            fact("E", "1", StrA()),
            fact("E", (1, 2), StrB()),
            fact("E", StrA(), "clash"),
            fact("E", StrB(), 1),
            fact("F", True, "x"),
            fact("F", "clash", "y"),
            fact("F", (1, 2), True),
            fact("F", StrB(), StrA()),
            fact("G", 1.0),
            fact("G", "1"),
            fact("G", StrA()),
        ]
    )


def _v(*names):
    return tuple(Variable(n) for n in names)


def _c(value):
    return Constant(value)


MIXED_QUERIES = [
    parse_rule("V(x, y) <- E(x, y)"),
    parse_rule("V(x, z) <- E(x, y), F(x, z)"),
    parse_rule("V(y, z) <- E(x, y), F(y, z)"),
    parse_rule("V(x, y) <- E(x, y), G(x)"),
    parse_rule("V(y) <- E(1.0, y)"),
    ConjunctiveQuery(
        Atom("V", _v("y")), [Atom("E", (_c(True), Variable("y")))]
    ),
    ConjunctiveQuery(
        Atom("V", _v("x")),
        [Atom("F", (Variable("x"), _c(StrA()))), Atom("G", _v("x"))],
    ),
    ConjunctiveQuery(
        Atom("V", _v("x", "y")),
        [Atom("E", _v("x", "y")), Atom("F", (Variable("y"), _c(True)))],
    ),
]


class TestMixedValueOrder:
    """Interned-row merge and order reproduce boxed equality and order."""

    @pytest.mark.parametrize("shards", [1, 2, 3, 4])
    def test_serial_matches_backtracking(self, shards):
        db = mixed_db()
        ex = executor_for(db, shards)
        for query in MIXED_QUERIES:
            expected = canonical_order(evaluate_backtracking(query, db))
            assert ex.answer_ordered(query) == expected, str(query)

    def test_process_matches_backtracking(self):
        db = mixed_db()
        with executor_for(db, 3, workers=2) as ex:
            for query in MIXED_QUERIES:
                expected = canonical_order(evaluate_backtracking(query, db))
                assert ex.answer_ordered(query) == expected, str(query)
            if not getattr(ex._pool, "degraded", False):
                assert ex.counters["process_queries"] > 0
