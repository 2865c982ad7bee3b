"""The resilience layer end to end: crash, degrade, recover.

The acceptance scenario of the resilience PR: with one source hard-down,
the service keeps answering (``degraded=true``, zero unhandled
exceptions), its breaker opens within the configured failure threshold and
half-opens after the cooldown — and the degraded answers are *exactly*
what the paper's semantics prescribe for the statically weakened
collection (the dynamic path can never drift from the declarative one).
"""

import asyncio
import json

from repro.confidence.answers import answer_query
from repro.confidence.engine import ConfidenceEngine
from repro.model import fact
from repro.queries import identity_view, parse_rule
from repro.resilience import ResilienceConfig, demote
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    RequestStatus,
    SchedulerConfig,
)
from repro.sources import SourceCollection, SourceDescriptor

from tests.conftest import example51_domain, make_example51_collection

DOMAIN = example51_domain(1)
QUERY = parse_rule("ans(x) <- R(x)")

#: Fast-tripping breakers for tests: open on the 2nd failure, short cooldown.
FAST = dict(
    source_timeout=0.05,
    min_samples=1,
    consecutive_limit=2,
    cooldown=0.05,
)


def run(coroutine):
    return asyncio.run(coroutine)


def resilient_config(**overrides):
    return SchedulerConfig(resilience=ResilienceConfig(**{**FAST, **overrides}))


def sound_pair():
    """Two sound-only sources; S2 alone certifies R(c)."""
    return SourceCollection(
        [
            SourceDescriptor(
                identity_view("V1", "R", 1),
                [fact("V1", "a")], 0, 1, name="S1",
            ),
            SourceDescriptor(
                identity_view("V2", "R", 1),
                [fact("V2", "c")], 0, 1, name="S2",
            ),
        ]
    )


class TestDegradedAnswers:
    def test_crashed_source_degrades_but_still_answers(self):
        gateway = PerSourceGateway()
        gateway.set_policy("S2", FaultPolicy(crash=True))

        async def scenario():
            service = MediatorService(
                make_example51_collection(), DOMAIN,
                config=resilient_config(), gateway=gateway,
            )
            async with service:
                responses = [
                    await service.confidence(
                        [fact("R", "a"), fact("R", "b")], timeout=2.0
                    )
                    for _ in range(4)
                ]
            return responses, service.stats()

        responses, stats = run(scenario())
        assert all(r.status is RequestStatus.OK for r in responses)
        assert all(r.degraded for r in responses)
        assert all(r.excluded_sources == ("S2",) for r in responses)
        assert all(r.guarantee == "degraded" for r in responses)
        assert stats["resilience"]["sources"]["S2"]["state"] == "open"
        assert stats["metrics"]["counters"]["responses_degraded"] == 4

    def test_degraded_confidences_match_static_demotion(self):
        """Differential: the running service's degraded confidences equal a
        fresh engine over the statically demoted collection."""
        collection = make_example51_collection()
        gateway = PerSourceGateway()
        gateway.set_policy("S2", FaultPolicy(crash=True))
        wanted = [fact("R", v) for v in "abcd"]

        async def scenario():
            service = MediatorService(
                collection, DOMAIN,
                config=resilient_config(), gateway=gateway,
            )
            async with service:
                for _ in range(3):
                    response = await service.confidence(wanted, timeout=2.0)
            return response

        response = run(scenario())
        assert response.degraded and response.excluded_sources == ("S2",)
        with ConfidenceEngine(demote(collection, {"S2"}), DOMAIN) as engine:
            expected = {f: engine.confidence(f) for f in wanted}
        assert response.confidences == expected

    def test_degraded_query_answers_match_paper_semantics(self):
        """Differential on the query path: degraded certain answers equal
        the certain-answer lower bound of the demoted collection, and the
        downgraded set is the full-minus-degraded difference."""
        collection = sound_pair()
        domain = ["a", "b", "c"]
        gateway = PerSourceGateway()
        gateway.set_policy("S2", FaultPolicy(crash=True))

        async def scenario():
            service = MediatorService(
                collection, domain,
                config=resilient_config(), gateway=gateway,
            )
            async with service:
                for _ in range(3):
                    response = await service.answer(QUERY, timeout=2.0)
            return response

        response = run(scenario())
        assert response.degraded
        degraded_semantics = answer_query(
            QUERY, demote(collection, {"S2"}), domain
        )
        full_semantics = answer_query(QUERY, collection, domain)
        assert frozenset(response.answers) == degraded_semantics.certain
        assert frozenset(response.downgraded_answers) == (
            full_semantics.certain - degraded_semantics.certain
        )
        assert response.downgraded_answers == (fact("ans", "c"),)
        payload = response.to_dict()
        assert payload["answer_guarantees"]["ans('c')"] == "possible"
        assert payload["answer_guarantees"]["ans('a')"] == "certain"
        json.dumps(payload)

    def test_partitioned_source_is_timed_out_and_excluded(self):
        gateway = PerSourceGateway()
        gateway.set_policy("S1", FaultPolicy(partition=True))

        async def scenario():
            service = MediatorService(
                make_example51_collection(), DOMAIN,
                config=resilient_config(source_timeout=0.02),
                gateway=gateway,
            )
            async with service:
                for _ in range(3):
                    response = await service.confidence(
                        [fact("R", "b")], timeout=5.0
                    )
            return response, service.stats()

        response, stats = run(scenario())
        assert response.ok and response.excluded_sources == ("S1",)
        assert stats["metrics"]["counters"]["source_probe_timeouts"] >= 2
        assert stats["resilience"]["sources"]["S1"]["state"] == "open"

    def test_total_source_loss_still_answers(self):
        gateway = PerSourceGateway(default=FaultPolicy(crash=True))

        async def scenario():
            service = MediatorService(
                make_example51_collection(), DOMAIN,
                config=resilient_config(), gateway=gateway,
            )
            async with service:
                for _ in range(3):
                    response = await service.confidence(
                        [fact("R", "a")], timeout=2.0
                    )
            return response

        response = run(scenario())
        assert response.status is RequestStatus.OK
        assert response.excluded_sources == ("S1", "S2")
        # Nothing constrains the worlds: every fact is merely possible.
        assert 0 < response.confidences[fact("R", "a")] < 1


class TestRecovery:
    def test_flap_recover_flap_lifecycle(self):
        """Crash -> open -> heal -> half-open -> closed -> crash -> open,
        with zero non-OK responses end to end."""
        gateway = PerSourceGateway()

        async def scenario():
            service = MediatorService(
                make_example51_collection(), DOMAIN,
                config=resilient_config(), gateway=gateway,
            )
            statuses = []
            async with service:
                async def probe_round(n):
                    for _ in range(n):
                        response = await service.confidence(
                            [fact("R", "a")], timeout=2.0
                        )
                        statuses.append(
                            (response.status, response.degraded)
                        )

                gateway.set_policy("S2", FaultPolicy(crash=True))
                await probe_round(3)          # trips the breaker
                first_states = dict(service.scheduler.resilience.states())
                gateway.heal("S2")
                await asyncio.sleep(0.06)     # past the cooldown
                await probe_round(2)          # half-open probe succeeds
                healed_states = dict(service.scheduler.resilience.states())
                gateway.set_policy("S2", FaultPolicy(crash=True))
                await probe_round(3)          # flaps again
                final = service.stats()
            return statuses, first_states, healed_states, final

        statuses, first_states, healed_states, final = run(scenario())
        assert all(status is RequestStatus.OK for status, _ in statuses)
        assert first_states["S2"] == "open"
        assert healed_states["S2"] == "closed"
        assert final["resilience"]["sources"]["S2"]["state"] == "open"
        counters = final["metrics"]["counters"]
        assert counters["breaker_opened"] >= 2
        assert counters["breaker_half_opened"] >= 1
        assert counters["breaker_closed"] >= 1
        edges = [
            (t["from"], t["to"]) for t in final["resilience"]["transitions"]
        ]
        assert ("closed", "open") in edges
        assert ("open", "half_open") in edges
        assert ("half_open", "closed") in edges

    def test_responses_not_degraded_after_recovery(self):
        gateway = PerSourceGateway()
        gateway.set_policy("S2", FaultPolicy(crash=True))

        async def scenario():
            service = MediatorService(
                make_example51_collection(), DOMAIN,
                config=resilient_config(), gateway=gateway,
            )
            async with service:
                for _ in range(3):
                    degraded = await service.confidence(
                        [fact("R", "a")], timeout=2.0
                    )
                gateway.heal("S2")
                await asyncio.sleep(0.06)
                recovered = await service.confidence(
                    [fact("R", "a")], timeout=2.0
                )
            return degraded, recovered

        degraded, recovered = run(scenario())
        assert degraded.degraded and not recovered.degraded
        assert recovered.guarantee == "certain"
        assert recovered.excluded_sources == ()


class TestHedgedProbes:
    def test_slow_source_hedges_and_wins(self):
        """A source slower than hedge_delay gets duplicate probes; the
        request still succeeds without degradation."""
        gateway = PerSourceGateway()
        gateway.set_policy("S1", FaultPolicy(latency=0.01))

        async def scenario():
            service = MediatorService(
                make_example51_collection(), DOMAIN,
                config=SchedulerConfig(
                    resilience=ResilienceConfig(
                        source_timeout=0.5, hedge_delay=0.002, max_attempts=3,
                        **{
                            k: v for k, v in FAST.items()
                            if k not in ("source_timeout",)
                        },
                    )
                ),
                gateway=gateway,
            )
            async with service:
                response = await service.confidence(
                    [fact("R", "a")], timeout=2.0
                )
            return response, service.stats()

        response, stats = run(scenario())
        assert response.ok and not response.degraded
        assert stats["metrics"]["counters"]["source_hedges"] >= 1


class TestBreakerConfigGuard:
    def test_invalid_breaker_threshold_cannot_hang_the_service(self):
        """A breaker threshold outside (0, 1] is refused when the config is
        built; it never reaches the batch worker, where building the first
        breaker would kill the worker and leave every caller waiting."""

        async def scenario():
            try:
                config = resilient_config(error_threshold=0)
            except ValueError:
                return "rejected"
            async with MediatorService(
                make_example51_collection(), DOMAIN, config=config
            ) as service:
                return await asyncio.wait_for(
                    service.confidence([fact("R", "a")], timeout=0.5), 3.0
                )

        assert run(scenario()) == "rejected"
