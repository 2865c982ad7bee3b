"""Request/response vocabulary of the mediator service.

A request names the facts whose confidences are wanted and carries an
absolute deadline; the response always reports an explicit
:class:`RequestStatus` — the service never answers with a silently wrong or
partial confidence map. ``OK`` responses carry exact Fractions computed
against one registry snapshot, identified by ``snapshot_version`` so callers
can detect (injected or real) staleness.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from repro.model.atoms import Atom
from repro.queries.conjunctive import ConjunctiveQuery

_request_ids = itertools.count(1)


class RequestStatus(enum.Enum):
    """Terminal status of a service request (always explicit)."""

    OK = "ok"                  #: exact confidences computed before the deadline
    TIMEOUT = "timeout"        #: deadline expired; no confidences returned
    REJECTED = "rejected"      #: refused at admission (queue full, bad input)
    ERROR = "error"            #: source reads or the engine failed after retries

    @property
    def is_terminal_failure(self) -> bool:
        return self is not RequestStatus.OK


@dataclass
class ConfidenceRequest:
    """One confidence question: a tuple of facts against one snapshot.

    ``snapshot_version`` is pinned at admission: however long the request
    waits in the queue, and whatever registrations land meanwhile, it is
    answered against the registry state it was admitted under (snapshot
    isolation — tested by registering a source mid-flight).
    """

    facts: Tuple[Atom, ...]
    deadline: Optional[float] = None       #: absolute loop time; None = none
    snapshot_version: int = -1
    request_id: int = field(default_factory=lambda: next(_request_ids))
    submitted_at: float = 0.0
    #: optional conjunctive query, answered with certain-answer lower-bound
    #: semantics over the snapshot's confidence-1 facts (compiled through
    #: ``repro.plan``); a request must carry facts, a query, or both
    query: Optional[ConjunctiveQuery] = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


@dataclass
class ServiceResponse:
    """The service's answer to one request.

    ``confidences`` is populated only for ``OK``; every other status carries
    a human-readable ``reason`` instead. ``batch_size`` records how many
    requests shared the engine call that produced this answer (1 = dispatched
    alone), ``attempts`` how many source-read tries the batch needed.
    """

    request_id: int
    status: RequestStatus
    confidences: Dict[Atom, Fraction] = field(default_factory=dict)
    reason: str = ""
    snapshot_version: int = -1
    latency: float = 0.0
    batch_size: int = 0
    attempts: int = 0
    #: certain-answer lower bound of the request's query (empty when the
    #: request carried no query); under degradation these are the answers
    #: the *remaining* sources still entail — sound either way
    answers: Tuple[Atom, ...] = ()
    #: True when one or more sources were unavailable and the answer was
    #: computed with their annotations demoted (see repro.resilience)
    degraded: bool = False
    #: names of the sources excluded (breaker open / probe failed)
    excluded_sources: Tuple[str, ...] = ()
    #: the answer set's guarantee level: "certain" normally, "degraded"
    #: when excluded sources were demoted (answers remain certain w.r.t.
    #: the sources still standing)
    guarantee: str = "certain"
    #: answers certain under the full annotation set that the demotion
    #: downgraded to merely possible (empty when not degraded)
    downgraded_answers: Tuple[Atom, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (confidences as floats keyed by str).

        ``answers`` render in the canonical total order
        (:func:`repro.shard.merge.canonical_order`): equal answer sets
        always serialize identically, whatever shard layout or set
        iteration order produced them.
        """
        from repro.shard.merge import canonical_order

        answers = [str(a) for a in canonical_order(self.answers)]
        out = {
            "request_id": self.request_id,
            "status": self.status.value,
            "confidences": {
                str(f): float(c) for f, c in sorted(
                    self.confidences.items(), key=lambda kv: str(kv[0])
                )
            },
            "reason": self.reason,
            "snapshot_version": self.snapshot_version,
            "latency": self.latency,
            "batch_size": self.batch_size,
            "attempts": self.attempts,
            "answers": answers,
            "degraded": self.degraded,
            "guarantee": self.guarantee,
        }
        if self.degraded:
            out["excluded_sources"] = list(self.excluded_sources)
            downgraded = [
                str(a) for a in canonical_order(self.downgraded_answers)
            ]
            out["downgraded_answers"] = downgraded
            out["answer_guarantees"] = dict(
                [(a, "certain") for a in answers]
                + [(a, "possible") for a in downgraded]
            )
        return out
