"""Deterministic merging of per-shard answers.

Scatter-gather execution produces one answer set per fragment, in whatever
order the fragments finished; rendering them to a caller needs one
*canonical* total order so equal answer sets always serialize identically.
``sorted(answers, key=str)`` — the service's historical rendering — is not
total: constants wrap arbitrary hashable values, and two unequal values of
different types can share a ``str`` rendering (any user-defined value
whose ``__str__`` collides with another's), leaving their relative order
to the set's salted iteration order. :func:`canonical_answer_key` breaks
those ties by value *type* before repr, the same discrimination
:func:`repro.model.terms.term_sort_key` uses, so the order is reproducible
across runs, processes, and shard layouts.

Fragments answer in the interned representation — rows of constant IDs —
and stay interned through the merge and the ordering:
:func:`merge_rows` is a set union of ID tuples (interning maps ``==``
values to one ID, so this is exactly the boxed union), and
:func:`decode_rows` orders rows by a per-ID key computed once per distinct
ID, then boxes each distinct ID and each distinct answer once.
"""

from __future__ import annotations

from typing import Collection, Iterable, Optional, Set, Tuple

from repro.model.atoms import Atom
from repro.model.terms import Constant, term_sort_key

#: One answer in the interned representation: constant IDs, head order.
Row = Tuple[int, ...]


def canonical_answer_key(atom: Atom) -> Tuple:
    """A total sort key over answer atoms: relation, arity, then args.

    Arguments order by ``term_sort_key`` — ``(type name, repr)`` for
    constants — so values whose ``str`` renderings coincide still compare
    deterministically. Total for every value with a faithful ``repr``
    (everything the serialization format can carry).
    """
    return (
        atom.relation,
        len(atom.args),
        tuple(term_sort_key(argument) for argument in atom.args),
    )


def canonical_order(answers: Iterable[Atom]) -> Tuple[Atom, ...]:
    """Deduplicate and sort *answers* into the canonical total order.

    >>> from repro.model import fact
    >>> [str(a) for a in canonical_order([fact("R", 2), fact("R", 1)])]
    ['R(1)', 'R(2)']
    """
    return tuple(sorted(set(answers), key=canonical_answer_key))


def merge_rows(parts: Iterable[Iterable[Row]]) -> Set[Row]:
    """The union of per-fragment answer rows (set semantics).

    Fragments overlap freely — broadcast replicates small relations,
    repartitioning may double-place self-join facts — so the merge is a
    plain union; conjunctive queries are monotone, which is what makes every
    fragment's answers sound (each fragment store is a subset of the full
    store).
    """
    merged: Set[Row] = set()
    for part in parts:
        merged.update(part)
    return merged


def decode_rows(
    rows: Collection[Row],
    table,
    head_relation: Optional[str],
    ordered: bool = False,
) -> Tuple:
    """Box distinct answer *rows*: one ``Constant`` per ID, one answer per row.

    Answers are ``head_relation`` atoms, or — for algebra plans, whose head
    relation is ``None`` — tuples of constants, as
    :func:`repro.plan.evaluate_rows` returns them. With *ordered*, rows are
    sorted first into :func:`canonical_order`'s order: every row of one
    plan shares its relation and arity, so comparing rows argument by
    argument under ``term_sort_key`` is comparing their canonical keys.
    """
    constant_value = table.constant_value
    ids = {cid for row in rows for cid in row}
    constants = {cid: Constant(constant_value(cid)) for cid in ids}  # boxed-ok: the final decode
    if ordered:
        rows = sorted(rows, key=_row_key(constants))
    box = constants.__getitem__
    if head_relation is None:
        return tuple(tuple(map(box, row)) for row in rows)
    return tuple(Atom(head_relation, tuple(map(box, row))) for row in rows)


def _row_key(constants):
    """A row sort key ranking each ID by its constant's ``term_sort_key``.

    Ranks are computed once per distinct ID; IDs with equal keys share a
    rank, so rows compare exactly as their key tuples would.
    """
    rank = {}
    previous = None
    position = -1
    for key, cid in sorted(
        ((term_sort_key(constant), cid) for cid, constant in constants.items())
    ):
        if key != previous:
            previous, position = key, position + 1
        rank[cid] = position
    lookup = rank.__getitem__
    return lambda row: tuple(map(lookup, row))
