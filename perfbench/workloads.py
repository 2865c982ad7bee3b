"""Seeded workload builders for the end-to-end ``MediatorService`` benchmark.

Each builder turns ``(seed)`` into a :class:`Workload`: a source collection
and domain, the service configuration, a request stream the closed loop
cycles through, and (for ``churn_chaos``) a write cycle and a crash window.
The seed changes constant names, the order and content of requests, the
write order and the crash window; the *shape* of every workload (source
count, bounds, extension sizes, graph, request mix) is fixed, so runs with
different seeds cost the same and their spread measures the program, not
the inputs.

The service only ever sees the generated collection, domain, requests and
writes — nothing here names a workload to the program.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.confidence.engine import ConfidenceEngine
from repro.model import fact
from repro.queries import identity_view, parse_rule
from repro.resilience import ResilienceConfig
from repro.service import PerSourceGateway, SchedulerConfig
from repro.sources import SourceCollection, SourceDescriptor

#: Requests each workload pre-generates; the closed loop cycles through them.
STREAM_LENGTH = 4096

#: Request kinds in a stream entry ``(kind, key, payload)``.
CONF = "conf"
QUERY = "query"


@dataclass(frozen=True)
class Chaos:
    """Crash *source* for requests ``[start, start + length)`` of every
    *cycle* requests (fail-fast crash, not a partition)."""

    source: str
    cycle: int
    start: int
    length: int


@dataclass
class Workload:
    """Everything one benchmark run feeds the service."""

    name: str
    collection: SourceCollection
    domain: Tuple
    config: SchedulerConfig
    #: ``(kind, key, payload)``: ``kind`` is CONF (payload: facts) or QUERY
    #: (payload: a parsed query); ``key`` identifies the request for the
    #: correctness check (the fact tuple, or an index into ``queries``)
    requests: List[Tuple[str, object, object]]
    queries: List[object] = field(default_factory=list)
    #: descriptors applied with ``update_source``, cycled, one after every
    #: ``write_every`` requests (empty: no writes)
    writes: List[SourceDescriptor] = field(default_factory=list)
    write_every: int = 0
    chaos: Optional[Chaos] = None
    seed: int = 0

    def make_gateway(self) -> Optional[PerSourceGateway]:
        """A fresh per-source gateway (whose sources the crash window
        fails) when the workload has one; otherwise the legacy gateway."""
        return PerSourceGateway(seed=self.seed) if self.chaos is not None else None


def _names(rng: random.Random, prefix: str, count: int) -> List[str]:
    """*count* distinct seeded constant names."""
    picked = rng.sample(range(10 ** 6), count)
    return [f"{prefix}{value:06d}" for value in picked]


def _source(name: str, values: Sequence, completeness, soundness) -> SourceDescriptor:
    view = f"V{name}"
    arity = len(values[0]) if values and isinstance(values[0], tuple) else 1
    rows = [v if isinstance(v, tuple) else (v,) for v in values]
    return SourceDescriptor(
        identity_view(view, "R", arity),
        [fact(view, *row) for row in rows],
        completeness,
        soundness,
        name=name,
    )


#: query_graph shape: nodes, sound-source edges, constant skew.
GRAPH_NODES = 800
GRAPH_EDGES = 300
GRAPH_SKEW = 0.8
#: One full 2-hop join every JOIN_EVERY requests, at a seeded phase. The
#: closed loop's 16 callers form batches of about 16 consecutive requests;
#: evenly spaced joins put at most one join in a batch and the same share
#: of batches (1/4) on every seed, so the latency percentiles sit inside
#: the join and no-join modes instead of on how joins happen to cluster.
JOIN_EVERY = 64
#: Fixed generator of the graph's shape (not the workload seed).
GRAPH_SHAPE_SEED = 20010521


def _zipf_weights(count: int, skew: float) -> List[float]:
    return list(itertools.accumulate(1.0 / (rank ** skew) for rank in range(1, count + 1)))


def query_graph(seed: int) -> Workload:
    """Point and 2-hop lookups plus full 2-hop joins over a sound edge set.

    The graph's shape is fixed: edges join node *ranks* drawn once from a
    Zipf law by a constant generator, so every seed has the same degrees
    and join sizes. The seed names the nodes and draws the requests.
    """
    rng = random.Random(seed)
    nodes = _names(rng, "n", GRAPH_NODES)
    weights = _zipf_weights(GRAPH_NODES, GRAPH_SKEW)
    shape = random.Random(GRAPH_SHAPE_SEED)
    ranks = range(GRAPH_NODES)
    edges = set()
    while len(edges) < GRAPH_EDGES:
        a, b = shape.choices(ranks, cum_weights=weights, k=2)
        if a != b:
            edges.add((a, b))
    picked = shape.sample(sorted(edges), 6)
    edges = sorted((nodes[a], nodes[b]) for a, b in edges)
    small = [(nodes[a], nodes[b]) for a, b in picked]
    collection = SourceCollection([
        _source("S1", edges, 0, 1),
        _source("S2", small[:3], 0, "1/2"),
        _source("S3", small[3:], 0, "1/3"),
    ])
    queries: List[object] = []
    index: Dict[str, int] = {}

    def query_id(text: str) -> int:
        if text not in index:
            index[text] = len(queries)
            queries.append(parse_rule(text))
        return index[text]

    join_phase = rng.randrange(JOIN_EVERY)
    requests = []
    for i in range(STREAM_LENGTH):
        if i % JOIN_EVERY == join_phase:
            text = "ans(x, z) <- R(x, y), R(y, z)"
        else:
            (c,) = rng.choices(nodes, cum_weights=weights)
            if rng.random() < 0.5:
                text = f"ans(y) <- R('{c}', y)"
            else:
                text = f"ans(z) <- R('{c}', y), R(y, z)"
        qid = query_id(text)
        requests.append((QUERY, qid, queries[qid]))
    return Workload(
        "query_graph", collection, tuple(nodes),
        SchedulerConfig(engine_workers=0, shard_workers=0, shards=4),
        requests, queries=queries, seed=seed,
    )


#: churn_chaos shape: pairwise-distinct ⟨c, s⟩ of the 6-source chain. The
#: two sound sources (s=1) make their facts certain, so queries have
#: answers and crashing one of them downgrades some.
CHURN_BOUNDS = [
    ("1/5", "1"), ("1/6", "1/3"), ("1/7", "2/5"),
    ("1/8", "1"), ("1/9", "3/5"), ("1/10", "2/3"),
]
CHURN_WRITE_EVERY = 40
CHURN_CONF_SHARE = 0.7
CHAOS_CYCLE = 1200
CHAOS_LENGTH = 240
#: The crashed source: sound and mid-chain, so its crash downgrades answers.
#: Fixed, because which source is down changes the cost of degraded batches.
CHAOS_SOURCE = "S4"


def _consistent(collection: SourceCollection, domain: Sequence) -> bool:
    return ConfidenceEngine(collection, domain, cache_size=0).is_consistent()


def churn_chaos(seed: int) -> Workload:
    """Confidence + query mix with source writes and a crash window."""
    rng = random.Random(seed)
    names = _names(rng, "e", 8)
    anonymous = _names(rng, "x", 2)
    domain = tuple(names + anonymous)
    base = [
        _source(f"S{i + 1}", names[i:i + 2], c, s)
        for i, (c, s) in enumerate(CHURN_BOUNDS)
    ]
    # Each source's variant also claims the next-but-one constant.
    variant = [
        _source(f"S{i + 1}", names[i:i + 3], c, s)
        for i, (c, s) in enumerate(CHURN_BOUNDS)
    ]
    # One write cycle toggles every source to its variant and back, in a
    # seeded order; every state it passes through must stay consistent.
    order = rng.sample(range(len(base)), len(base))
    writes = [variant[j] for j in order] + [base[j] for j in order]
    current = list(base)
    for descriptor in writes:
        current = [descriptor if s.name == descriptor.name else s for s in current]
        if not _consistent(SourceCollection(current), domain):
            raise ValueError(f"churn_chaos state after {descriptor.name} is inconsistent")
    query = parse_rule("ans(x) <- R(x)")
    facts = [fact("R", n) for n in names]
    requests = []
    for _ in range(STREAM_LENGTH):
        if rng.random() < CHURN_CONF_SHARE:
            pair = tuple(rng.sample(facts, 2))
            requests.append((CONF, pair, pair))
        else:
            requests.append((QUERY, 0, query))
    chaos = Chaos(
        source=CHAOS_SOURCE,
        cycle=CHAOS_CYCLE,
        start=rng.randrange(CHAOS_CYCLE - CHAOS_LENGTH),
        length=CHAOS_LENGTH,
    )
    config = SchedulerConfig(
        engine_workers=0,
        shard_workers=0,
        resilience=ResilienceConfig(
            source_timeout=0.05, min_samples=1, consecutive_limit=2, cooldown=0.02,
        ),
    )
    return Workload(
        "churn_chaos", SourceCollection(base), domain, config, requests,
        queries=[query], writes=writes, write_every=CHURN_WRITE_EVERY,
        chaos=chaos, seed=seed,
    )


BUILDERS: Dict[str, Callable[[int], Workload]] = {
    "query_graph": query_graph,
    "churn_chaos": churn_chaos,
}


def build(name: str, seed: int) -> Workload:
    """The seeded workload called *name*."""
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; choose from {sorted(BUILDERS)}") from None
    return builder(seed)
