"""The per-version confidence table: counted once, looked up after.

Every batch pinned to one (version, exclusion set) reads the same table;
these tests check that its lookups equal the uncached engine on the pinned
snapshot (demoted when sources are excluded), that the table is never
recounted, that query-only batches leave the engine alone, and that a
superseded version's engine and worker pool are released on a write.
"""

import asyncio
import multiprocessing
from fractions import Fraction

from repro.confidence.engine import ConfidenceEngine
from repro.model import fact
from repro.queries import parse_rule
from repro.resilience import ResilienceConfig, demote
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    RequestStatus,
    SchedulerConfig,
)

from tests.conftest import make_example51_collection

DOMAIN = ["a", "b", "c", "d"]
QUERY = parse_rule("ans(x) <- R(x)")
#: covered facts, an anonymous one (R(d): in the fact space, no source
#: claims it), one asked under a source's relation name (the renamed
#: path) and an out-of-space one (constant outside the domain)
FACTS = [
    fact("R", "a"), fact("R", "b"), fact("R", "c"),
    fact("R", "d"), fact("V2", "c"), fact("R", "zz"),
]


def run(coroutine):
    return asyncio.run(coroutine)


def oracle(collection, wanted):
    """Uncached engine confidences over *collection* at DOMAIN."""
    with ConfidenceEngine(collection, DOMAIN, cache_size=0) as engine:
        return {f: engine.confidence(f) for f in wanted}


def count_confidences_calls(monkeypatch):
    """Spy on ``ConfidenceEngine.confidences``; returns the call list."""
    calls = []
    original = ConfidenceEngine.confidences

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(ConfidenceEngine, "confidences", spy)
    return calls


class TestDifferential:
    def test_healthy_batches_equal_uncached_engine(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN
            ) as service:
                pinned = {0: service.registry.snapshot()}
                first = [await service.confidence(FACTS) for _ in range(2)]
                service.update_source(
                    pinned[0].collection.by_name("S2")
                    .with_bounds(soundness_bound=1)
                )
                pinned[1] = service.registry.snapshot()
                second = [await service.confidence(FACTS) for _ in range(2)]
                return pinned, first + second

        pinned, responses = run(scenario())
        assert [r.snapshot_version for r in responses] == [0, 0, 1, 1]
        for response in responses:
            assert response.status is RequestStatus.OK
            assert not response.degraded
            expected = oracle(
                pinned[response.snapshot_version].collection, FACTS
            )
            assert response.confidences == expected
        # a renamed fact reads its block; an out-of-space one is never true
        healthy = responses[0].confidences
        assert healthy[fact("V2", "c")] == healthy[fact("R", "c")]
        assert healthy[fact("R", "zz")] == 0
        assert healthy[fact("R", "a")] == Fraction(4, 7)

    def test_degraded_batches_equal_uncached_engine_on_demoted(self):
        gateway = PerSourceGateway()
        gateway.set_policy("S2", FaultPolicy(crash=True))

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(
                    resilience=ResilienceConfig(source_timeout=0.05)
                ),
                gateway=gateway,
            ) as service:
                snapshot = service.registry.snapshot()
                responses = [
                    await service.confidence(FACTS, timeout=2.0)
                    for _ in range(3)
                ]
                return snapshot, responses

        snapshot, responses = run(scenario())
        expected = oracle(demote(snapshot.collection, {"S2"}), FACTS)
        for response in responses:
            assert response.status is RequestStatus.OK
            assert response.degraded
            assert response.excluded_sources == ("S2",)
            assert response.confidences == expected
        # demotion changed the answer, so the check is not vacuous
        assert expected != oracle(snapshot.collection, FACTS)


class TestNoRecompute:
    def test_second_batch_at_same_version_recounts_nothing(
        self, monkeypatch
    ):
        calls = count_confidences_calls(monkeypatch)

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN
            ) as service:
                first = await service.confidence(FACTS)
                after_first = len(calls)
                second = await service.confidence(FACTS)
                return first, second, after_first, len(calls)

        first, second, after_first, after_second = run(scenario())
        assert first.ok and second.ok
        assert after_first == 1
        assert after_second == after_first
        assert second.confidences == first.confidences

    def test_query_only_batch_counts_at_most_the_certain_database(
        self, monkeypatch
    ):
        calls = count_confidences_calls(monkeypatch)

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN
            ) as service:
                service.update_source(
                    service.registry.snapshot().collection.by_name("S2")
                    .with_bounds(soundness_bound=1)
                )
                responses = [await service.answer(QUERY) for _ in range(3)]
                return service, responses

        service, responses = run(scenario())
        assert all(r.status is RequestStatus.OK for r in responses)
        assert responses[0].snapshot_version == 1
        assert len(calls) <= 1
        assert "engine_calls" not in service.metrics.snapshot()["counters"]


class TestRetirement:
    def test_writes_release_superseded_engine_pools(self):
        before = set(multiprocessing.active_children())

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(engine_workers=2, engine_cache_size=0),
            ) as service:
                for bound in ("1", "3/4", "2/3"):
                    assert (await service.confidence([fact("R", "a")])).ok
                    service.update_source(
                        service.registry.snapshot().collection.by_name("S2")
                        .with_bounds(soundness_bound=bound)
                    )
                leaked = set(multiprocessing.active_children()) - before
                assert not leaked  # three leaked pools of 2 workers would be 6
                # the third write retired version 2; nothing is built for 3 yet
                assert service.scheduler._stores == {}
                assert (await service.confidence([fact("R", "a")])).ok
                stores = sorted(service.scheduler._stores)
                alive = set(multiprocessing.active_children()) - before
                return stores, alive

        stores, alive = run(scenario())
        assert stores == [(3, frozenset())]
        assert len(alive) == 2  # the one live pool
