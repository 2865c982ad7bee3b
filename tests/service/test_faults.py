"""The fault-injection harness: latency, transient errors, staleness."""

import asyncio
import time

import pytest

from repro.model import fact
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    SourceRegistry,
    TransientSourceError,
)

from tests.conftest import make_example51_collection

DOMAIN = ["a", "b", "c", "d"]


def run(coroutine):
    return asyncio.run(coroutine)


def one_faulty_lane(policy, seed=0):
    """A gateway whose S1 lane carries *policy*; S2 stays healthy."""
    gateway = PerSourceGateway(seed=seed)
    gateway.set_policy("S1", policy)
    return gateway


class TestPolicyValidation:
    def test_defaults_are_all_off(self):
        policy = FaultPolicy()
        assert policy.latency == 0.0
        assert policy.error_rate == 0.0
        assert policy.stale_rate == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"latency": -0.1},
            {"error_rate": 1.5},
            {"error_rate": -0.1},
            {"stale_rate": 2.0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPolicy(**kwargs)


class TestHealthyGateway:
    def test_probe_returns_descriptor_and_counts(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        gateway = PerSourceGateway()
        snapshot = registry.snapshot()

        async def scenario():
            assert (await gateway.probe(snapshot, "S1")).name == "S1"
            assert (await gateway.probe(snapshot, "S2")).name == "S2"

        run(scenario())
        assert gateway.reads == 2


class TestErrorInjection:
    def test_error_rate_one_always_raises(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        gateway = one_faulty_lane(FaultPolicy(error_rate=1.0), seed=3)

        async def scenario():
            with pytest.raises(TransientSourceError, match="injected"):
                await gateway.probe(registry.snapshot(), "S1")

        run(scenario())
        assert gateway.lane("S1").errors_injected == 1

    def test_error_burst_recovers(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        gateway = one_faulty_lane(
            FaultPolicy(error_rate=1.0, error_burst=2), seed=3
        )

        async def scenario():
            failures = 0
            for _ in range(5):
                try:
                    await gateway.probe(registry.snapshot(), "S1")
                except TransientSourceError:
                    failures += 1
            return failures

        assert run(scenario()) == 2
        assert gateway.lane("S1").errors_injected == 2

    def test_seed_makes_injection_deterministic(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)

        def outcomes(seed):
            gateway = one_faulty_lane(FaultPolicy(error_rate=0.5), seed=seed)

            async def scenario():
                pattern = []
                for _ in range(16):
                    try:
                        await gateway.probe(registry.snapshot(), "S1")
                        pattern.append("ok")
                    except TransientSourceError:
                        pattern.append("err")
                return pattern

            return run(scenario())

        assert outcomes(5) == outcomes(5)
        assert outcomes(5) != outcomes(6)


class TestLatency:
    def test_latency_delays_read(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        gateway = one_faulty_lane(FaultPolicy(latency=0.03))

        async def scenario():
            start = time.perf_counter()
            await gateway.probe(registry.snapshot(), "S1")
            return time.perf_counter() - start

        assert run(scenario()) >= 0.025


class TestStaleness:
    def test_stale_read_serves_previous_version(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        source = registry.snapshot().collection.by_name("S1")
        registry.update(source.with_bounds(soundness_bound=1))
        assert registry.version() == 1
        gateway = PerSourceGateway(default=FaultPolicy(stale_rate=1.0))

        stale = gateway.stale_snapshot(registry.snapshot(), registry)
        assert stale.version == 0
        assert gateway.stale_served == 1

    def test_stale_rate_without_history_is_identity(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        gateway = PerSourceGateway(default=FaultPolicy(stale_rate=1.0))

        assert gateway.stale_snapshot(registry.snapshot(), registry) is None
        assert gateway.stale_served == 0

    def test_service_answers_from_the_stale_version(self):
        """The availability pass resolves the whole batch to the stale
        mirror's snapshot, and the response reports that version."""
        gateway = PerSourceGateway(default=FaultPolicy(stale_rate=1.0))

        async def scenario():
            service = MediatorService(
                make_example51_collection(), DOMAIN, gateway=gateway
            )
            source = service.registry.snapshot().collection.by_name("S1")
            service.update_source(source.with_bounds(soundness_bound=1))
            async with service:
                return await service.confidence([fact("R", "a")])

        response = run(scenario())
        assert response.ok
        assert response.snapshot_version == 0
        assert gateway.stale_served == 1
