"""MediatorService end-to-end: correctness, snapshot isolation, stats."""

import asyncio
import json
from dataclasses import replace
from fractions import Fraction

from repro.model import fact
from repro.queries import identity_view
from repro.sources import SourceDescriptor
from repro.confidence.engine import ConfidenceEngine, LRUMemo
from repro.resilience import STRICT
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    RequestStatus,
    SchedulerConfig,
)

from tests.conftest import make_example51_collection

DOMAIN = ["a", "b", "c", "d"]
R_A, R_B, R_C, R_D = (fact("R", x) for x in "abcd")


def run(coroutine):
    return asyncio.run(coroutine)


class TestCorrectness:
    def test_service_matches_direct_engine(self):
        collection = make_example51_collection()

        async def scenario():
            async with MediatorService(collection, DOMAIN) as service:
                return await service.confidence([R_A, R_B, R_C, R_D])

        response = run(scenario())
        assert response.ok

        with ConfidenceEngine(collection, DOMAIN) as engine:
            expected = {f: engine.confidence(f) for f in (R_A, R_B, R_C, R_D)}
        assert response.confidences == expected
        assert response.confidences[R_A] == Fraction(4, 7)
        assert response.confidences[R_B] == Fraction(6, 7)

    def test_anonymous_fact_gets_a_confidence(self):
        # d is claimed by no source; the service still answers it.
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN
            ) as service:
                return await service.confidence([R_D])

        response = run(scenario())
        assert response.ok
        assert 0 < response.confidences[R_D] < 1


class TestSnapshotIsolation:
    def test_inflight_requests_see_preupdate_snapshot(self):
        """Acceptance criterion: a source registered mid-flight is invisible
        to already-admitted requests, which answer exactly as the pre-update
        snapshot would."""
        collection = make_example51_collection()
        # Perfectly sound (completeness 0): every possible database must now
        # contain a and d, without contradicting S2's soundness floor.
        extra = SourceDescriptor(
            identity_view("V3", "R", 1),
            [fact("V3", "a"), fact("V3", "d")],
            0,
            1,
            name="S3",
        )

        async def scenario():
            async with MediatorService(collection, DOMAIN) as service:
                old = service.registry.snapshot()
                # Admitted but not yet served: submit() never yields to the
                # worker, so the mutation below lands strictly mid-flight.
                inflight = await service.submit([R_A, R_D])
                diff = service.register_source(extra)
                assert service.registry.version() == 1
                before = await inflight
                after = await service.confidence([R_A, R_D])
                return old, diff, before, after

        old, diff, before, after = run(scenario())

        assert before.ok and after.ok
        assert before.snapshot_version == 0
        assert after.snapshot_version == 1

        # The in-flight answer is exactly the pre-update snapshot's.
        with ConfidenceEngine(old.instance()) as engine:
            expected = {f: engine.confidence(f) for f in (R_A, R_D)}
        assert before.confidences == expected

        # The mutation really changed the answers (S3 forces a and d into
        # every possible database), so isolation is not vacuous.
        assert after.confidences[R_A] == after.confidences[R_D] == 1
        assert before.confidences[R_A] != 1 and before.confidences[R_D] != 1

    def test_mutation_invalidates_shared_memo(self):
        memo = LRUMemo(128)

        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN, memo=memo
            ) as service:
                assert (await service.confidence([R_A, R_B])).ok
                populated = len(memo)
                service.update_source(
                    service.registry.snapshot()
                    .collection.by_name("S2")
                    .with_bounds(soundness_bound=1)
                )
                invalidated = service.metrics.counter(
                    "memo_entries_invalidated"
                ).value
                return populated, invalidated, len(memo)

        populated, invalidated, remaining = run(scenario())
        assert populated >= 2
        assert invalidated >= 1
        assert remaining == populated - invalidated


class TestDegradation:
    def test_faulty_service_never_crashes(self):
        async def scenario():
            gateway = PerSourceGateway(seed=7)
            gateway.set_policy(
                "S1", FaultPolicy(latency=0.002, error_rate=0.5)
            )
            service = MediatorService(
                make_example51_collection(),
                DOMAIN,
                config=SchedulerConfig(
                    resilience=replace(
                        STRICT,
                        max_attempts=2, backoff_base=0.001, backoff_cap=0.002,
                    )
                ),
                gateway=gateway,
            )
            async with service:
                responses = []
                for _ in range(12):
                    responses.append(
                        await service.confidence([R_A], timeout=1.0)
                    )
                return responses

        responses = run(scenario())
        statuses = {r.status for r in responses}
        assert statuses <= {RequestStatus.OK, RequestStatus.ERROR}
        for response in responses:
            if response.ok:
                assert response.confidences[R_A] == Fraction(4, 7)
            else:
                assert "injected transient failure" in response.reason

    def test_unexpected_exception_answers_the_batch_and_worker_survives(self):
        """A non-ReproError escaping a batch answers that batch with ERROR
        naming the exception type; the next request is served normally."""

        async def scenario():
            service = MediatorService(make_example51_collection(), DOMAIN)
            compute = service.scheduler._compute
            calls = []

            def flaky_compute(*args, **kwargs):
                calls.append(1)
                if len(calls) == 1:
                    raise RuntimeError("engine exploded")
                return compute(*args, **kwargs)

            service.scheduler._compute = flaky_compute
            async with service:
                first = await asyncio.wait_for(
                    service.confidence([R_A], timeout=1.0), 5.0
                )
                second = await asyncio.wait_for(
                    service.confidence([R_A], timeout=1.0), 5.0
                )
            return first, second

        first, second = run(scenario())
        assert first.status is RequestStatus.ERROR
        assert "RuntimeError" in first.reason
        assert second.ok
        assert second.confidences[R_A] == Fraction(4, 7)


class TestObservability:
    def test_stats_shape_and_json_round_trip(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(),
                DOMAIN,
                gateway=PerSourceGateway(seed=0),
            ) as service:
                await service.confidence([R_A])
                return service.stats(), service.recent_spans()

        stats, spans = run(scenario())
        assert set(stats) == {
            "registry", "metrics", "gateway", "tracing", "plan", "shard",
            "cache", "resilience",
        }
        assert "engine.memo" in stats["cache"]["caches"]
        assert {"hits", "misses", "evictions", "bytes", "invalidations"} <= set(
            stats["cache"]["caches"]["engine.memo"]
        )
        assert stats["cache"]["bytes"] >= 0
        assert set(stats["plan"]) == {
            "cache", "data_sources", "statistics", "optimizer",
        }
        assert stats["registry"]["version"] == 0
        assert stats["registry"]["sources"] == 2
        # One probe per source: Example 5.1 has two.
        assert stats["gateway"]["reads"] == 2
        assert all(
            lane["errors_injected"] == 0
            for lane in stats["gateway"]["lanes"].values()
        )
        assert stats["metrics"]["counters"]["responses_ok"] == 1
        assert stats["metrics"]["histograms"]["latency"]["count"] == 1
        assert stats["tracing"]["spans_started"] >= 3

        parsed = json.loads(json.dumps(stats, sort_keys=True))
        assert parsed["registry"]["version"] == 0

        names = {s["name"] for s in spans}
        assert {"batch", "source_read", "engine"} <= names
        (read,) = [s for s in spans if s["name"] == "source_read"]
        assert read["attributes"]["probed"] == 2
        assert read["attributes"]["excluded"] == []
        assert read["attributes"]["retries"] == 0

    def test_response_to_dict_is_json_serializable(self):
        async def scenario():
            async with MediatorService(
                make_example51_collection(), DOMAIN
            ) as service:
                return await service.confidence([R_A])

        payload = run(scenario()).to_dict()
        parsed = json.loads(json.dumps(payload))
        assert parsed["status"] == "ok"
        assert parsed["confidences"]["R('a')"] == 4 / 7
