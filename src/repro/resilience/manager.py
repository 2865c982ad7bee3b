"""The per-batch availability pass: breakers, deadlines, retries, hedges.

Every batch reads its sources through :meth:`ResilienceManager.resolve`,
the service's one source-read path:

1. every source whose breaker is open is excluded instantly (a short
   circuit — no read, no deadline budget spent);
2. the remaining sources are probed **concurrently** through the
   gateway's per-source seam, all under one probe deadline: the earlier
   of ``source_timeout`` and the batch's earliest request deadline;
3. each probe spends at most ``max_attempts`` attempts: a
   :class:`~repro.service.faults.TransientSourceError` is retried after
   ``backoff(a)`` plus seeded jitter (never sleeping past the deadline),
   and an attempt slower than ``hedge_delay`` is raced by a staggered
   duplicate — a *hedge*; the first success wins;
4. outcomes feed the breakers: failures open them, cooldowns half-open
   them, trial successes close them.

The result is a :class:`ProbeReport`: the lost source names with the
reason each was lost, the snapshot to compute against (an older one when
the gateway serves a stale mirror) and counters. What a loss means is the
config's ``degrade`` decision: demote the lost sources' annotations
(:mod:`repro.resilience.degrade`) and answer from the rest, or — the
:data:`STRICT` preset, the service's default — fail the batch. The
manager itself never raises.

Randomness (fault lanes, backoff jitter) is seeded, so a fault sequence
replays exactly; breakers are clocked off the running event loop, so the
transition counts of a paced run such as E22 vary slightly between runs.
"""

from __future__ import annotations

import asyncio
import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.exceptions import ReproError
from repro.resilience.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.service.faults import TransientSourceError

#: Bound on remembered breaker transitions (the stats()/bench surface).
MAX_TRANSITIONS = 256


@dataclass(frozen=True)
class ResilienceConfig:
    """Tuning knobs of the per-source availability pass.

    ``source_timeout`` caps each probe, all its attempts together (None:
    only the batch's earliest request deadline does); ``max_attempts`` is
    each probe's attempt budget, retries and hedges alike;
    ``backoff_base`` · 2^(a−1), capped at ``backoff_cap``, is the delay
    before retry *a*, stretched by a seeded fraction of up to
    ``backoff_jitter``; ``hedge_delay`` is how long an attempt may dawdle
    before a duplicate races it (0 disables hedging). ``degrade`` decides
    what a lost source costs: True demotes its annotation and answers from
    the rest, False fails the batch. The breaker fields mirror
    :class:`BreakerConfig`.
    """

    source_timeout: Optional[float] = 0.05
    max_attempts: int = 3
    backoff_base: float = 0.01
    backoff_cap: float = 0.25
    backoff_jitter: float = 0.0
    hedge_delay: float = 0.0
    degrade: bool = True
    error_threshold: float = 0.5
    ewma_alpha: float = 0.4
    min_samples: int = 2
    consecutive_limit: int = 3
    cooldown: float = 0.25
    half_open_probes: int = 1

    def __post_init__(self):
        if self.source_timeout is not None and self.source_timeout <= 0:
            raise ValueError("source_timeout must be > 0")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff_base and backoff_cap must be >= 0")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be >= 0")
        if self.hedge_delay < 0:
            raise ValueError("hedge_delay must be >= 0")
        # Fail here, at construction, not inside the batch worker when the
        # first breaker is built.
        self.breaker_config()

    def backoff(self, attempt: int) -> float:
        """Delay before retry *attempt* (1-based): base·2^(a−1), capped."""
        return min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))

    def breaker_config(self) -> BreakerConfig:
        return BreakerConfig(
            error_threshold=self.error_threshold,
            ewma_alpha=self.ewma_alpha,
            min_samples=self.min_samples,
            consecutive_limit=self.consecutive_limit,
            cooldown=self.cooldown,
            half_open_probes=self.half_open_probes,
        )


#: The all-or-nothing preset, :class:`~repro.service.SchedulerConfig`'s
#: default: every source must answer before the batch's earliest deadline
#: (no per-source timeout) or the batch fails with an ``ERROR`` naming the
#: lost sources; breakers never trip, so every batch reads every source
#: afresh.
STRICT = ResilienceConfig(
    source_timeout=None,
    degrade=False,
    min_samples=sys.maxsize,
    consecutive_limit=sys.maxsize,
)


@dataclass
class ProbeReport:
    """What one availability pass found out (the counters live in the
    metrics: ``source_probe_failures``, ``source_hedges``, ...)."""

    #: the snapshot to compute against (older than the pinned one when the
    #: gateway served a stale mirror)
    snapshot: object = None
    #: lost source → why (breaker open, the last attempt's error, timeout)
    lost: Dict[str, str] = field(default_factory=dict)
    probed: int = 0
    retries: int = 0
    #: the most attempts any probe spent
    attempts: int = 0

    def reason(self) -> str:
        """One line naming every lost source and why it was lost."""
        return "; ".join(
            f"source {name!r} unavailable: {why}"
            for name, why in sorted(self.lost.items())
        )


class ResilienceManager:
    """Per-source breakers plus the concurrent probe/retry/hedge machinery.

    *metrics* is duck-typed (anything with ``counter(name).inc()`` and
    ``histogram(name).observe()`` — the service passes its
    :class:`~repro.service.metrics.MetricsRegistry`); ``None`` records
    nothing. *registry* is where a stale mirror's older snapshot comes
    from; *seed* seeds the backoff jitter. Breaker state transitions land
    in ``metrics`` counters (``breaker_opened`` / ``breaker_half_opened``
    / ``breaker_closed``) and in a bounded :attr:`transitions` log.
    """

    def __init__(
        self,
        config: Optional[ResilienceConfig] = None,
        metrics=None,
        registry=None,
        seed: int = 0,
    ):
        self.config = config if config is not None else ResilienceConfig()
        self.metrics = metrics
        self.registry = registry
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.transitions: List[Dict[str, object]] = []
        self._jitter = random.Random(seed)

    # -- breakers ----------------------------------------------------------------

    def breaker_for(self, name: str) -> CircuitBreaker:
        breaker = self.breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                name,
                self.config.breaker_config(),
                on_transition=self._record_transition,
            )
            self.breakers[name] = breaker
        return breaker

    def _record_transition(self, name, old, new, now) -> None:
        self.transitions.append(
            {"source": name, "from": old.value, "to": new.value, "at": now}
        )
        del self.transitions[:-MAX_TRANSITIONS]
        if self.metrics is not None:
            self.metrics.counter(f"breaker_{self._verb(new)}").inc()

    @staticmethod
    def _verb(state: BreakerState) -> str:
        return {
            BreakerState.OPEN: "opened",
            BreakerState.HALF_OPEN: "half_opened",
            BreakerState.CLOSED: "closed",
        }[state]

    # -- the availability pass ---------------------------------------------------

    async def resolve(
        self, snapshot, gateway, deadline: Optional[float] = None
    ) -> ProbeReport:
        """Probe every source of *snapshot* through *gateway*; never raises.

        *deadline* is the batch's earliest absolute request deadline on
        the loop clock (None = unbounded). A probe still running at the
        probe deadline is cut off and its source lost; the breaker is told
        only when the source's own ``source_timeout`` expired, since a
        short request deadline says nothing about the source's health.
        """
        loop = asyncio.get_running_loop()
        start = loop.time()
        config = self.config
        if self.registry is not None:
            snapshot = gateway.stale_snapshot(snapshot, self.registry) or snapshot
        report = ProbeReport(snapshot=snapshot)
        own_deadline = (
            None if config.source_timeout is None
            else start + config.source_timeout
        )
        if deadline is None or (
            own_deadline is not None and own_deadline <= deadline
        ):
            deadline = own_deadline
        probes: Dict["asyncio.Task", str] = {}
        for source in snapshot.collection:
            name = source.name
            if not self.breaker_for(name).allow(start):
                report.lost[name] = "circuit breaker open"
                self._count("breaker_short_circuits")
                continue
            probes[loop.create_task(
                self._probe(gateway, snapshot, name, report, deadline)
            )] = name
        if probes:
            report.probed = len(probes)
            timeout = None if deadline is None else max(0.0, deadline - loop.time())
            try:
                done, pending = await asyncio.wait(probes, timeout=timeout)
            except asyncio.CancelledError:  # the batch itself was abandoned
                for task in probes:
                    task.cancel()
                raise
            for task in done:
                why = task.result()
                if why is not None:
                    report.lost[probes[task]] = why
            for task in pending:
                task.cancel()
                name = probes[task]
                report.lost[name] = "probe timed out"
                if deadline == own_deadline:
                    self._failure(name, start, loop)
            if pending:
                self._count("source_probe_timeouts", len(pending))
        if report.lost:
            self._count("sources_excluded", len(report.lost))
        return report

    async def _probe(
        self, gateway, snapshot, name: str, report: ProbeReport,
        deadline: Optional[float],
    ) -> Optional[str]:
        """One source's probe within its attempt budget; None on success,
        else why it failed. The outcome feeds the source's breaker."""
        loop = asyncio.get_running_loop()
        config = self.config
        start = loop.time()
        attempts = 0
        while True:
            if config.hedge_delay > 0:
                launched, error = await self._race(
                    gateway, snapshot, name, report, attempts
                )
                attempts += launched
            else:
                attempts += 1
                report.attempts = max(report.attempts, attempts)
                error = None
                try:
                    await gateway.probe(snapshot, name)
                except Exception as exc:  # the gateway is outside input
                    error = exc
            if error is None:
                latency = loop.time() - start
                self.breaker_for(name).record_success(latency, loop.time())
                self._observe("probe_latency", latency)
                return None
            why = (
                str(error) if isinstance(error, ReproError)
                else f"{type(error).__name__}: {error}"
            )
            if isinstance(error, TransientSourceError):
                report.retries += 1
                self._count("source_read_retries")
                if attempts < config.max_attempts:
                    delay = config.backoff(attempts)
                    if config.backoff_jitter > 0:
                        delay *= 1.0 + config.backoff_jitter * self._jitter.random()
                    if deadline is None or loop.time() + delay <= deadline:
                        await asyncio.sleep(delay)
                        continue
                    self._count("retry_budget_exhausted")
                    why = (
                        f"retry budget exhausted after attempt {attempts}: "
                        f"backing off {delay:.3f}s would overrun the probe "
                        "deadline"
                    )
            self._count("source_probe_failures")
            self._failure(name, start, loop)
            return why

    async def _race(self, gateway, snapshot, name: str, report: ProbeReport,
                    spent: int) -> Tuple[int, Optional[BaseException]]:
        """Race hedged attempts: one now, another each ``hedge_delay`` while
        the budget lasts; the first success wins and cancels the rest.

        Returns ``(attempts launched, None)`` on success, else the last
        failed attempt's exception once every launched attempt failed.
        """
        loop = asyncio.get_running_loop()
        config = self.config
        first = loop.create_task(gateway.probe(snapshot, name))
        racing: Set["asyncio.Task"] = {first}
        launched = 1
        report.attempts = max(report.attempts, spent + launched)
        error: Optional[BaseException] = None
        try:
            while racing:
                can_hedge = spent + launched < config.max_attempts
                done, racing = await asyncio.wait(
                    racing,
                    timeout=config.hedge_delay if can_hedge else None,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                winners = [t for t in done if t.exception() is None]
                if winners:
                    if first not in winners:
                        self._count("source_hedge_wins")
                    return launched, None
                if done:
                    error = next(iter(done)).exception()
                if not done and can_hedge:
                    racing.add(loop.create_task(gateway.probe(snapshot, name)))
                    launched += 1
                    report.attempts = max(report.attempts, spent + launched)
                    self._count("source_hedges")
            return launched, error
        finally:
            for task in racing:
                task.cancel()

    def _failure(self, name: str, start: float, loop) -> None:
        self.breaker_for(name).record_failure(loop.time() - start, loop.time())

    # -- observability -----------------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(delta)

    def _observe(self, name: str, value: float) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value)

    def states(self) -> Dict[str, str]:
        """Source → breaker state (tests and quick health checks)."""
        return {name: b.state.value for name, b in sorted(self.breakers.items())}

    def stats(self) -> Dict[str, object]:
        """The ``stats()["resilience"]`` payload: per-source health."""
        return {
            "sources": {
                name: breaker.snapshot()
                for name, breaker in sorted(self.breakers.items())
            },
            "transitions": list(self.transitions),
            "config": {
                "source_timeout": self.config.source_timeout,
                "max_attempts": self.config.max_attempts,
                "hedge_delay": self.config.hedge_delay,
                "degrade": self.config.degrade,
                "error_threshold": self.config.error_threshold,
                "cooldown": self.config.cooldown,
            },
        }

