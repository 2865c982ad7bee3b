"""Retry/backoff hardening: budget caps, seeded jitter, structured errors.

A probe's retry loop that would sleep past the batch's earliest deadline
must fail *fast* with a structured ``ERROR`` response — never an unhandled
exception, never a guaranteed-late answer. Each scenario faults one lane
(S1) of the gateway; under the default all-or-nothing preset its loss
fails the batch.
"""

import asyncio
import random
from dataclasses import replace

import pytest

from repro.model import fact
from repro.resilience import STRICT
from repro.service import (
    FaultPolicy,
    MediatorService,
    PerSourceGateway,
    RequestStatus,
    SchedulerConfig,
)

from tests.conftest import example51_domain, make_example51_collection

DOMAIN = example51_domain(1)


def run(coroutine):
    return asyncio.run(coroutine)


def strict(**retry):
    """The default preset with *retry* knobs and no batching window."""
    return SchedulerConfig(batch_window=0.0, resilience=replace(STRICT, **retry))


def always_failing_s1():
    gateway = PerSourceGateway(seed=11)
    gateway.set_policy("S1", FaultPolicy(error_rate=1.0))
    return gateway


def test_exhausted_attempts_surface_structured_error():
    """error_rate=1.0: every attempt fails; the caller gets ERROR, not a
    traceback out of the worker."""

    async def scenario():
        service = MediatorService(
            make_example51_collection(), DOMAIN,
            config=strict(max_attempts=2, backoff_base=0.001),
            gateway=always_failing_s1(),
        )
        async with service:
            response = await service.confidence(
                [fact("R", "a")], timeout=5.0
            )
        return response, service.stats()

    response, stats = run(scenario())
    assert response.status is RequestStatus.ERROR
    assert response.reason  # a human-readable cause, not empty
    assert stats["metrics"]["counters"]["source_read_retries"] == 2


def test_retry_budget_capped_by_request_deadline():
    """A backoff that would overrun the earliest deadline fails fast with
    the budget-exhausted reason instead of sleeping into a timeout."""

    async def scenario():
        service = MediatorService(
            make_example51_collection(), DOMAIN,
            config=strict(
                max_attempts=5,
                backoff_base=10.0,   # any retry sleep dwarfs the deadline
                backoff_cap=10.0,
            ),
            gateway=always_failing_s1(),
        )
        async with service:
            response = await service.confidence(
                [fact("R", "a")], timeout=0.25
            )
        return response, service.stats()

    response, stats = run(scenario())
    assert response.status is RequestStatus.ERROR
    assert "retry budget exhausted" in response.reason
    assert stats["metrics"]["counters"]["retry_budget_exhausted"] == 1
    # Fail-fast means well under the 10s backoff, under the deadline even.
    assert response.latency < 0.25


def test_unbounded_requests_still_retry_to_exhaustion():
    """No deadline: the full attempt budget is spent before giving up."""

    async def scenario():
        service = MediatorService(
            make_example51_collection(), DOMAIN,
            config=strict(max_attempts=3, backoff_base=0.001),
            gateway=always_failing_s1(),
        )
        async with service:
            response = await service.confidence([fact("R", "a")])
        return response, service.stats()

    response, stats = run(scenario())
    assert response.status is RequestStatus.ERROR
    assert "retry budget exhausted" not in response.reason
    assert stats["metrics"]["counters"]["source_read_retries"] == 3


def test_jitter_is_seeded_and_bounded():
    """Jittered delays stay inside [backoff, backoff·(1+jitter)] and replay
    identically for the same seed."""

    def delays(seed, n=8):
        config = replace(STRICT, backoff_jitter=0.5)
        rng = random.Random(seed)
        out = []
        for attempt in range(1, n + 1):
            delay = config.backoff(attempt)
            out.append(delay * (1.0 + config.backoff_jitter * rng.random()))
        return out

    base = replace(STRICT, backoff_jitter=0.5)
    for attempt, delay in enumerate(delays(7), start=1):
        floor = base.backoff(attempt)
        assert floor <= delay <= floor * 1.5
    assert delays(7) == delays(7)
    assert delays(7) != delays(8)


def test_probe_retries_sleep_the_jittered_backoff():
    """A faulty lane's retries wait out backoff(a)·(1 + U·jitter) inside
    the probe before the attempt that succeeds."""
    gateway = PerSourceGateway(seed=3)
    gateway.set_policy("S1", FaultPolicy(error_rate=1.0, error_burst=2))

    async def scenario():
        service = MediatorService(
            make_example51_collection(), DOMAIN,
            config=strict(max_attempts=3, backoff_base=0.02, backoff_jitter=1.0),
            gateway=gateway,
        )
        async with service:
            return await service.confidence([fact("R", "a")])

    response = run(scenario())
    assert response.ok and response.attempts == 3
    # Two retries: 0.02·(1+U) + 0.04·(1+U) >= 0.06.
    assert response.latency >= 0.06


def test_jitter_config_validation():
    with pytest.raises(ValueError):
        replace(STRICT, backoff_jitter=-0.1)
    assert replace(STRICT, backoff_jitter=0.0).backoff_jitter == 0.0


def test_backoff_schedule_is_exponential_and_capped():
    config = replace(STRICT, backoff_base=0.01, backoff_cap=0.05)
    assert [config.backoff(a) for a in range(1, 6)] == [
        0.01, 0.02, 0.04, 0.05, 0.05,
    ]
