"""Per-source gateway and hard fault modes (crash, partition)."""

import asyncio

import pytest

from repro.model import fact
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    RequestStatus,
    SourceCrashedError,
    SourceRegistry,
    TransientSourceError,
)

from tests.conftest import example51_domain, make_example51_collection


def snapshot():
    registry = SourceRegistry(
        tuple(make_example51_collection()), example51_domain(1)
    )
    return registry.snapshot()


def run(coro):
    return asyncio.run(coro)


def test_crash_policy_raises_source_crashed():
    gateway = PerSourceGateway(default=FaultPolicy(crash=True))
    with pytest.raises(SourceCrashedError):
        run(gateway.probe(snapshot(), "S1"))


def test_partition_policy_hangs_past_any_reasonable_timeout():
    gateway = PerSourceGateway(default=FaultPolicy(partition=True))

    async def attempt():
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(gateway.probe(snapshot(), "S1"), timeout=0.05)

    run(attempt())


def test_healthy_gateway_probe_returns_descriptor():
    gateway = PerSourceGateway()
    snap = snapshot()
    descriptor = run(gateway.probe(snap, "S1"))
    assert descriptor.name == "S1"
    assert gateway.reads == 1


def test_per_source_gateway_isolates_fault_to_one_lane():
    gateway = PerSourceGateway()
    gateway.set_policy("S2", FaultPolicy(crash=True))
    snap = snapshot()
    # S1's probe is untouched...
    assert run(gateway.probe(snap, "S1")).name == "S1"
    # ...while S2's raises.
    with pytest.raises(SourceCrashedError):
        run(gateway.probe(snap, "S2"))
    counters = gateway.stats()
    assert counters["S1"]["crashes"] == 0
    assert counters["S2"]["crashes"] == 1


def test_default_preset_fails_the_batch_when_any_lane_is_down():
    # Without a degrading config, one crashed source fails the whole
    # batch: a structured ERROR naming the source, not a demotion.
    gateway = PerSourceGateway()
    gateway.set_policy("S2", FaultPolicy(crash=True))

    async def scenario():
        async with MediatorService(
            make_example51_collection(), example51_domain(1), gateway=gateway
        ) as service:
            return await service.confidence([fact("R", "a")], timeout=1.0)

    response = run(scenario())
    assert response.status is RequestStatus.ERROR
    assert "'S2' unavailable" in response.reason
    assert "crashed" in response.reason
    assert not response.degraded


def test_heal_clears_the_policy_but_keeps_the_lane():
    gateway = PerSourceGateway()
    gateway.set_policy("S1", FaultPolicy(crash=True))
    with pytest.raises(SourceCrashedError):
        run(gateway.probe(snapshot(), "S1"))
    gateway.heal("S1")
    assert run(gateway.probe(snapshot(), "S1")).name == "S1"
    assert gateway.stats()["S1"]["reads"] == 2  # counters survive healing
    assert gateway.policy_for("S1").healthy


def test_lane_rngs_are_independent_and_seed_stable():
    """Flipping one lane's policy never perturbs another lane's stream."""
    def error_trace(gateway, name, reads):
        outcomes = []
        for _ in range(reads):
            try:
                run(gateway.probe(snapshot(), name))
                outcomes.append(True)
            except TransientSourceError:
                outcomes.append(False)
        return outcomes

    flaky = FaultPolicy(error_rate=0.5)
    solo = PerSourceGateway(seed=7)
    solo.set_policy("S1", flaky)
    baseline = error_trace(solo, "S1", 12)

    perturbed = PerSourceGateway(seed=7)
    perturbed.set_policy("S1", flaky)
    perturbed.set_policy("S2", FaultPolicy(error_rate=0.9))
    for _ in range(5):  # drain S2's lane; S1's stream must not move
        try:
            run(perturbed.probe(snapshot(), "S2"))
        except TransientSourceError:
            pass
    assert error_trace(perturbed, "S1", 12) == baseline
    assert any(baseline) and not all(baseline)  # the trace is non-trivial


def test_default_policy_applies_to_unconfigured_lanes():
    gateway = PerSourceGateway(default=FaultPolicy(crash=True))
    with pytest.raises(SourceCrashedError):
        run(gateway.probe(snapshot(), "S1"))
    gateway.heal("S1")
    assert run(gateway.probe(snapshot(), "S1")).name == "S1"


def test_policy_validation_still_applies():
    with pytest.raises(ValueError):
        FaultPolicy(error_rate=1.5)
    with pytest.raises(ValueError):
        FaultPolicy(latency=-1)
    assert FaultPolicy().healthy
    assert not FaultPolicy(partition=True).healthy
