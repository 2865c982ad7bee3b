"""Correctness check: every OK response against the oracles of its snapshot.

During a run the callers fold each OK response into an :class:`Outcomes`
tally keyed by everything its correctness depends on — snapshot version,
excluded sources, the request, and what the service answered — so equal
responses are stored once and checked once, however many arrive.

After the timed window :func:`verify` recomputes each distinct outcome
from scratch on the snapshot the response pinned:

* confidences must equal the uncached engine's (``cache_size=0``) exactly,
  as ``Fraction``\\ s;
* query answers must equal ``evaluate_backtracking`` over the oracle's
  certain database (the confidence-1 facts);
* with excluded sources the snapshot's collection is first demoted with
  ``repro.resilience.demote``, and ``downgraded_answers`` must equal the
  healthy answers minus the degraded ones (empty when nothing is
  excluded).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.confidence.engine import ConfidenceEngine
from repro.model.atoms import Atom
from repro.model.database import GlobalDatabase
from repro.queries.evaluation import evaluate_backtracking
from repro.resilience import demote


class Outcomes:
    """Distinct OK responses, with how often each was seen."""

    def __init__(self):
        self.seen: Counter = Counter()

    def confidence(self, version: int, excluded: Tuple[str, ...], facts, confidences) -> None:
        self.seen[(version, excluded, "conf", facts, tuple(map(confidences.__getitem__, facts)))] += 1

    def answer(self, version: int, excluded: Tuple[str, ...], query_id: int,
               answers, downgraded) -> None:
        self.seen[(version, excluded, "query", query_id, frozenset(answers),
                   frozenset(downgraded))] += 1


class _Oracle:
    """Uncached confidences and backtracking answers for one collection."""

    def __init__(self, collection, domain):
        self.engine = ConfidenceEngine(collection, domain, cache_size=0)
        self.confidences = self.engine.confidences()
        self._certain = None
        self._answers: Dict[int, frozenset] = {}

    def confidence(self, f: Atom):
        value = self.confidences.get(f)
        return value if value is not None else self.engine.confidence(f)

    def answers(self, query_id: int, query) -> frozenset:
        if query_id not in self._answers:
            if self._certain is None:
                self._certain = GlobalDatabase(
                    f for f, c in self.confidences.items() if c == 1
                )
            self._answers[query_id] = frozenset(
                evaluate_backtracking(query, self._certain)
            )
        return self._answers[query_id]


def verify(outcomes: Outcomes, snapshots: Mapping[int, object],
           queries: Sequence) -> Tuple[int, List[str]]:
    """Check every distinct outcome; returns ``(checked, mismatches)``.

    *snapshots* maps each version a response may pin to a snapshot with
    that version's sources and domain.
    """
    oracles: Dict[Tuple, _Oracle] = {}

    def oracle_for(version: int, excluded: Tuple[str, ...]) -> _Oracle:
        pinned = (version, excluded)
        if pinned not in oracles:
            snapshot = snapshots[version]
            collection = demote(snapshot.collection, excluded) if excluded else snapshot.collection
            oracles[pinned] = _Oracle(collection, snapshot.domain)
        return oracles[pinned]

    mismatches: List[str] = []
    for outcome in outcomes.seen:
        version, excluded, kind = outcome[:3]
        if version not in snapshots:
            mismatches.append(f"response pinned unknown snapshot version {version}")
            continue
        oracle = oracle_for(version, excluded)
        if kind == "conf":
            _, _, _, facts, got = outcome
            want = tuple(oracle.confidence(f) for f in facts)
            if got != want:
                mismatches.append(
                    f"v{version} excluded={list(excluded)}: confidences of "
                    f"{[str(f) for f in facts]} were {[str(c) for c in got]}, "
                    f"oracle says {[str(c) for c in want]}"
                )
            continue
        _, _, _, query_id, answers, downgraded = outcome
        query = queries[query_id]
        want = oracle.answers(query_id, query)
        want_downgraded = (
            oracle_for(version, ()).answers(query_id, query) - want
            if excluded else frozenset()
        )
        if answers != want or downgraded != want_downgraded:
            mismatches.append(
                f"v{version} excluded={list(excluded)}: {query} answered "
                f"{len(answers)} (+{len(downgraded)} downgraded), oracle says "
                f"{len(want)} (+{len(want_downgraded)} downgraded)"
            )
    return len(outcomes.seen), mismatches
