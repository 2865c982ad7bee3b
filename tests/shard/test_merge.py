"""Merge layer: ID-row union and one canonical total order over answers."""

import itertools

from repro.core.symbols import global_table
from repro.model import fact
from repro.model.terms import Constant
from repro.shard import (
    canonical_answer_key,
    canonical_order,
    decode_rows,
    merge_rows,
)


class StrA:
    """A value whose ``str`` collides with :class:`StrB`'s."""

    def __str__(self):
        return "clash"

    def __repr__(self):
        return "StrA()"

    def __eq__(self, other):
        return type(other) is StrA

    def __hash__(self):
        return 7


class StrB:
    def __str__(self):
        return "clash"

    def __repr__(self):
        return "StrB()"

    def __eq__(self, other):
        return type(other) is StrB

    def __hash__(self):
        return 7


class TestCanonicalOrder:
    def test_dedupes_and_sorts(self):
        out = canonical_order(
            [fact("R", 2), fact("R", 1), fact("R", 2), fact("Q", 9)]
        )
        assert [str(a) for a in out] == ["Q(9)", "R(1)", "R(2)"]

    def test_orders_by_relation_then_arity_then_args(self):
        out = canonical_order(
            [fact("R", 1, 2), fact("R", 1), fact("R", 1, 1)]
        )
        assert [str(a) for a in out] == ["R(1)", "R(1, 1)", "R(1, 2)"]

    def test_total_where_key_str_is_not(self):
        # str(fact) renders both as R(clash): sorted(key=str) leaves their
        # relative order to set iteration order. The canonical key sees the
        # value types and fixes it.
        answers = {fact("R", StrA()), fact("R", StrB())}
        first = canonical_order(answers)
        assert len({str(a) for a in first}) == 1  # str really does collide
        for _ in range(20):
            assert canonical_order(set(answers)) == first
        keys = [canonical_answer_key(a) for a in first]
        assert keys == sorted(keys) and keys[0] != keys[1]

    def test_mixed_types_do_not_raise(self):
        # int < str comparison would TypeError under a naive sort.
        out = canonical_order([fact("R", "1"), fact("R", 1)])
        assert len(out) == 2


def ids(*values):
    """One answer row: the interned IDs of *values*."""
    table = global_table()
    return tuple(table.constant(v) for v in values)


class TestMerge:
    def test_union_with_overlap(self):
        parts = [
            [ids(1), ids(2)],
            [ids(2), ids(3)],
            [],
        ]
        assert merge_rows(parts) == {ids(1), ids(2), ids(3)}

    def test_merge_ordered(self):
        parts = [[ids(3)], [ids(1)], [ids(2)]]
        out = decode_rows(merge_rows(parts), global_table(), "R", ordered=True)
        assert [str(a) for a in out] == ["R(1)", "R(2)", "R(3)"]

    def test_empty(self):
        assert merge_rows([]) == set()
        assert decode_rows(merge_rows([[], []]), global_table(), "R") == ()


#: Values whose boxed equality, ``str`` or type name could trip an ID-level
#: merge or order: ``1 == True == 1.0`` intern to one ID, ``"1"`` and
#: ``(1, 2)`` do not, and three values render as ``clash``.
MIXED = [1, True, 1.0, "1", (1, 2), StrA(), StrB(), "clash", 0.5, "a"]


class TestRowDecode:
    def test_equal_values_merge_like_constants(self):
        assert ids(1) == ids(True) == ids(1.0)
        merged = merge_rows([[ids(1)], [ids(True)], [ids(1.0)], [ids("1")]])
        boxed = {fact("R", 1), fact("R", True), fact("R", 1.0), fact("R", "1")}
        assert len(merged) == len(boxed) == 2
        assert set(decode_rows(merged, global_table(), "R")) == boxed

    def test_order_matches_canonical_order(self):
        table = global_table()
        for arity in (1, 2):
            rows = {ids(*combo) for combo in itertools.product(MIXED, repeat=arity)}
            ordered = decode_rows(rows, table, "R", ordered=True)
            assert ordered == canonical_order(decode_rows(rows, table, "R"))
            assert len(ordered) == len(rows)

    def test_one_constant_per_distinct_id(self):
        rows = {ids("a", "b"), ids("a", "c"), ids("c", "a")}
        answers = decode_rows(rows, global_table(), "R")
        shared = {id(arg) for a in answers for arg in a.args if arg.value == "a"}
        assert len(shared) == 1

    def test_algebra_rows_decode_to_constant_tuples(self):
        rows = {ids(1, "a"), ids(2, "b")}
        out = decode_rows(rows, global_table(), None, ordered=True)
        assert out == (
            (Constant(1), Constant("a")),
            (Constant(2), Constant("b")),
        )
