"""Property test for Theorem 4.1 over random identity collections.

Random *general-view* collections blow up the enumeration quickly, so the
property sweep uses identity collections over a small shared domain (the
deterministic tests in tests/tableaux cover hand-picked general views).
"""

from fractions import Fraction

from hypothesis import given, settings

from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceCollection, SourceDescriptor
from repro.tableaux import direct_possible_worlds, template_possible_worlds

from tests.property.strategies import identity_collections

DOMAIN = ["a", "b", "c", "d"]


@given(identity_collections(max_sources=2, values=DOMAIN[:3]))
@settings(max_examples=25, deadline=None)
def test_theorem41(collection):
    direct = direct_possible_worlds(collection, DOMAIN)
    via_templates = template_possible_worlds(collection, DOMAIN)
    assert direct == via_templates


def test_theorem41_large_cardinality_bound():
    # One identity source with |v| = 3, s = 0, c = 1/4: C^U has m + 1 = 13
    # rows, so an unpruned search meets 4^13 embeddings per candidate world.
    collection = SourceCollection(
        [
            SourceDescriptor(
                identity_view("V1", "R", 1),
                [fact("V1", v) for v in DOMAIN[:3]],
                Fraction(1, 4),
                Fraction(0),
                name="S1",
            )
        ]
    )
    direct = direct_possible_worlds(collection, DOMAIN)
    assert len(direct) == 15
    assert template_possible_worlds(collection, DOMAIN) == direct
