"""Admission, micro-batching, deadlines, retry/backoff, shutdown."""

import asyncio
from dataclasses import replace
from fractions import Fraction

import pytest

from repro.model import fact
from repro.resilience import STRICT, ResilienceConfig
from repro.service import (
    FaultPolicy,
    PerSourceGateway,
    RequestScheduler,
    RequestStatus,
    SchedulerConfig,
    SourceRegistry,
)

from tests.conftest import make_example51_collection

DOMAIN = ["a", "b", "c", "d"]
R_A, R_B, R_C = fact("R", "a"), fact("R", "b"), fact("R", "c")


def make_scheduler(config=None, policy=None, registry=None):
    """A scheduler whose gateway faults one lane (S1) with *policy*."""
    registry = registry or SourceRegistry(make_example51_collection(), DOMAIN)
    gateway = PerSourceGateway(seed=1)
    if policy is not None:
        gateway.set_policy("S1", policy)
    return RequestScheduler(registry, gateway=gateway, config=config)


def retrying(**retry):
    """The default all-or-nothing preset with *retry* knobs."""
    return SchedulerConfig(resilience=replace(STRICT, **retry))


def run(coroutine):
    return asyncio.run(coroutine)


class TestBatching:
    def test_burst_shares_one_engine_call(self):
        scheduler = make_scheduler(SchedulerConfig(max_batch=8))

        async def scenario():
            await scheduler.start()
            futures = [
                await scheduler.submit([R_A, R_B]) for _ in range(8)
            ]
            responses = [await f for f in futures]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        assert all(r.status is RequestStatus.OK for r in responses)
        assert all(r.batch_size == 8 for r in responses)
        assert scheduler.metrics.counter("engine_calls").value == 1
        # Example 5.1 at m=1: conf(a) = 4/7, conf(b) = 6/7.
        assert responses[0].confidences[R_A] == Fraction(4, 7)
        assert responses[0].confidences[R_B] == Fraction(6, 7)

    def test_batch_size_capped(self):
        scheduler = make_scheduler(
            SchedulerConfig(max_batch=3, batch_window=0.0)
        )

        async def scenario():
            await scheduler.start()
            futures = [await scheduler.submit([R_A]) for _ in range(7)]
            responses = [await f for f in futures]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        assert all(r.ok for r in responses)
        assert max(r.batch_size for r in responses) <= 3

    def test_per_request_dispatch_when_batching_disabled(self):
        scheduler = make_scheduler(SchedulerConfig(max_batch=1))

        async def scenario():
            await scheduler.start()
            futures = [await scheduler.submit([R_A]) for _ in range(4)]
            responses = [await f for f in futures]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        assert all(r.batch_size == 1 for r in responses)
        assert scheduler.metrics.counter("engine_calls").value == 4

    def test_mixed_versions_split_batches(self):
        registry = SourceRegistry(make_example51_collection(), DOMAIN)
        scheduler = make_scheduler(
            SchedulerConfig(max_batch=16), registry=registry
        )

        async def scenario():
            await scheduler.start()
            first = [await scheduler.submit([R_A]) for _ in range(2)]
            source = registry.snapshot().collection.by_name("S2")
            registry.update(source.with_bounds(soundness_bound=1))
            second = [await scheduler.submit([R_A]) for _ in range(2)]
            responses = [await f for f in first + second]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        assert [r.snapshot_version for r in responses] == [0, 0, 1, 1]
        assert scheduler.metrics.counter("engine_calls").value == 2
        # Raising S2's soundness floor changes the answer — proof the two
        # batches really computed against different snapshots.
        assert responses[0].confidences[R_A] != responses[2].confidences[R_A]


class TestAdmission:
    def test_queue_overflow_rejected_with_reason(self):
        scheduler = make_scheduler(SchedulerConfig(max_queue=4))

        async def scenario():
            await scheduler.start()
            futures = [await scheduler.submit([R_A]) for _ in range(10)]
            responses = [await f for f in futures]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        rejected = [r for r in responses if r.status is RequestStatus.REJECTED]
        served = [r for r in responses if r.ok]
        assert len(rejected) == 6
        assert len(served) == 4
        assert all("queue full" in r.reason for r in rejected)

    def test_empty_fact_list_rejected(self):
        scheduler = make_scheduler()

        async def scenario():
            await scheduler.start()
            response = await scheduler.request([])
            await scheduler.stop()
            return response

        response = run(scenario())
        assert response.status is RequestStatus.REJECTED
        assert response.reason == "empty fact list"

    def test_submit_before_start_raises(self):
        scheduler = make_scheduler()

        async def scenario():
            await scheduler.submit([R_A])

        with pytest.raises(Exception, match="not started"):
            run(scenario())


class TestDeadlines:
    def test_expired_in_queue_times_out_without_compute(self):
        scheduler = make_scheduler(
            SchedulerConfig(max_batch=1),
            policy=FaultPolicy(latency=0.02),
        )

        async def scenario():
            await scheduler.start()
            # First request occupies the worker for ~20ms; the rest carry
            # sub-millisecond deadlines and expire while queued.
            first = await scheduler.submit([R_A], timeout=5.0)
            rest = [
                await scheduler.submit([R_B], timeout=0.001)
                for _ in range(3)
            ]
            responses = [await f for f in [first] + rest]
            await scheduler.stop()
            return responses

        responses = run(scenario())
        assert responses[0].ok
        for response in responses[1:]:
            assert response.status is RequestStatus.TIMEOUT
            assert "queued" in response.reason
            assert response.confidences == {}
        # Expired requests were answered without spending engine work:
        # only the first request's batch computed.
        assert scheduler.metrics.counter("engine_calls").value == 1

    def test_deadline_crossed_during_source_read(self):
        scheduler = make_scheduler(
            SchedulerConfig(max_batch=1),
            policy=FaultPolicy(latency=0.03),
        )

        async def scenario():
            await scheduler.start()
            response = await scheduler.request([R_A], timeout=0.005)
            await scheduler.stop()
            return response

        response = run(scenario())
        # The probe deadline is the request's: the slow read is cut there.
        assert response.status is RequestStatus.TIMEOUT
        assert "during source read" in response.reason
        assert response.latency < 0.03
        assert response.confidences == {}


class TestRetries:
    def test_transient_errors_retried_until_success(self):
        scheduler = make_scheduler(
            retrying(max_attempts=3, backoff_base=0.001, backoff_cap=0.002),
            policy=FaultPolicy(error_rate=1.0, error_burst=2),
        )

        async def scenario():
            await scheduler.start()
            response = await scheduler.request([R_A])
            await scheduler.stop()
            return response

        response = run(scenario())
        assert response.ok
        assert response.attempts == 3
        assert scheduler.metrics.counter("source_read_retries").value == 2

    def test_exhausted_retries_fail_explicitly(self):
        scheduler = make_scheduler(
            retrying(max_attempts=2, backoff_base=0.001, backoff_cap=0.002),
            policy=FaultPolicy(error_rate=1.0),
        )

        async def scenario():
            await scheduler.start()
            response = await scheduler.request([R_A])
            await scheduler.stop()
            return response

        response = run(scenario())
        assert response.status is RequestStatus.ERROR
        assert "injected transient failure" in response.reason
        assert "'S1' unavailable" in response.reason
        assert scheduler.metrics.counter("responses_error").value == 1

    def test_backoff_schedule(self):
        config = ResilienceConfig(backoff_base=0.01, backoff_cap=0.25)
        assert config.backoff(1) == 0.01
        assert config.backoff(2) == 0.02
        assert config.backoff(3) == 0.04
        assert config.backoff(10) == 0.25  # capped


class TestShutdown:
    def test_stop_rejects_unserved_requests(self):
        scheduler = make_scheduler(
            SchedulerConfig(max_batch=1),
            policy=FaultPolicy(latency=0.05),
        )

        async def scenario():
            await scheduler.start()
            futures = [await scheduler.submit([R_A]) for _ in range(5)]
            await asyncio.sleep(0.01)  # worker now mid-read on request 1
            await scheduler.stop()
            return [await f for f in futures]

        responses = run(scenario())
        assert all(
            r.status is RequestStatus.REJECTED and "stopped" in r.reason
            for r in responses
        )

    def test_stop_is_idempotent(self):
        scheduler = make_scheduler()

        async def scenario():
            await scheduler.start()
            await scheduler.stop()
            await scheduler.stop()

        run(scenario())


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_queue": 0}, {"max_batch": 0}, {"shards": 0}],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SchedulerConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"source_timeout": 0},
            {"backoff_jitter": -1},
            {"error_threshold": 0},
            {"error_threshold": 1.5},
            {"ewma_alpha": 0},
            {"min_samples": 0},
            {"cooldown": -1},
        ],
    )
    def test_bad_resilience_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ResilienceConfig(**kwargs)
