"""Constraints (U, Θ) over a schema (Section 4).

A constraint is a tableau U plus a set Θ of substitutions. A database D
*satisfies* (U, Θ) when every valuation σ embedding U into D is compatible
with at least one θ ∈ Θ. The cardinality constraints C^U(S_i) of Section 4
are exactly of this shape: embedding m_i + 1 "rows" forces two rows to
coincide.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Tuple

from repro.model.database import GlobalDatabase
from repro.model.valuation import Substitution, compatible
from repro.tableaux.tableau import Tableau


class Constraint:
    """``(U, Θ)``: tableau plus allowed substitutions.

    >>> from repro.model import atom, Variable, Constant
    >>> x = Variable("x")
    >>> c = Constraint(Tableau([atom("R", "a", x)]),
    ...                [Substitution({x: Constant("b")})])
    """

    __slots__ = ("tableau", "substitutions", "label")

    def __init__(
        self,
        tableau: Tableau,
        substitutions: Iterable[Substitution],
        label: str = "",
    ):
        self.tableau = tableau
        self.substitutions: Tuple[Substitution, ...] = tuple(substitutions)
        self.label = label

    def satisfied_by(self, database: GlobalDatabase) -> bool:
        """Every embedding of U into D is compatible with some θ ∈ Θ."""
        return next(self.violating_embeddings(database), None) is None

    def violating_embeddings(self, database: GlobalDatabase) -> Iterator[Substitution]:
        """Embeddings incompatible with every θ (for diagnostics/tests).

        The search stops extending a partial embedding as soon as it is
        compatible with some θ. Compatibility compares the images of θ's
        variables, an embedding binds variables to constants only, and an
        unbound variable equals no other term; so every extension of a
        compatible partial embedding is compatible too. Without this cut,
        C^U's m+1 rows alone have k^(m+1) embeddings into k facts.
        """
        return self.tableau.embeddings(database, prune=self._compatible)

    def _compatible(self, valuation: Substitution) -> bool:
        return any(compatible(valuation, theta) for theta in self.substitutions)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Constraint)
            and self.tableau == other.tableau
            and frozenset(self.substitutions) == frozenset(other.substitutions)
        )

    def __hash__(self) -> int:
        return hash((self.tableau, frozenset(self.substitutions)))

    def __repr__(self) -> str:
        name = f" {self.label}" if self.label else ""
        return (
            f"Constraint{name}(|U|={len(self.tableau)}, "
            f"|Theta|={len(self.substitutions)})"
        )
