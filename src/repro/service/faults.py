"""Fault injection for source reads: latency, errors, staleness, outages.

The scheduler never touches a registry snapshot's extensions directly; it
*reads* them, one source at a time, through a :class:`PerSourceGateway` —
the seam standing in for the network fetch a real mediator performs
against remote sources (the paper's §1.1 flaky web sources, §6 caches and
mirrors). Every source gets its own :class:`SourceLane` carrying a
:class:`FaultPolicy` and a seeded RNG, so one crashed or partitioned
source fails only its own probe:

* **latency** — every probe sleeps (asyncio, so concurrent probes overlap);
* **transient errors** — probes raise :class:`TransientSourceError` with a
  configured probability, which the availability pass retries with
  exponential backoff;
* **crash** — probes raise :class:`SourceCrashedError` (a hard failure
  retries cannot fix: the process behind the source is gone);
* **partition** — probes hang (the network path to the source is gone);
  only the probe deadline gets control back.

**Staleness** is a property of the whole gateway, not of one lane: a
per-source stale read would mix snapshot versions inside one batch. With
``stale_rate`` on the gateway's default policy, the availability pass
asks :meth:`PerSourceGateway.stale_snapshot` whether to answer the batch
from an older retained snapshot (a stale mirror), visible to callers
through the response's ``snapshot_version``.

All randomness is seeded by the gateway, so every degradation scenario in
the tests and in E16/E22 is reproducible.
"""

from __future__ import annotations

import asyncio
import random
import zlib
from dataclasses import dataclass
from typing import Dict, Optional

from repro.exceptions import ReproError
from repro.service.registry import RegistrySnapshot, SourceRegistry
from repro.sources.descriptor import SourceDescriptor

#: How long a partitioned read hangs. Effectively forever next to any
#: probe deadline; finite so a caller that forgot one still returns.
PARTITION_HANG = 3600.0


class TransientSourceError(ReproError):
    """A source read failed in a retryable way (timeouts, flaky mirrors)."""


class SourceCrashedError(ReproError):
    """A source read failed in a non-retryable way (the source is down)."""


@dataclass(frozen=True)
class FaultPolicy:
    """Knobs of the injected degradation (all off by default).

    ``latency`` is seconds added to every read; ``error_rate`` and
    ``stale_rate`` are probabilities in [0, 1]; ``error_burst`` makes only
    the first N reads fail (``None`` = every read is a coin flip), which
    lets tests script "fails twice, then recovers" deterministically.
    ``crash`` makes every read raise :class:`SourceCrashedError`;
    ``partition`` makes every read hang until the caller's timeout — the
    two hard outage modes the circuit breakers of ``repro.resilience``
    are built to contain. ``stale_rate`` counts only on a gateway's
    default policy (staleness is gateway-wide).
    """

    latency: float = 0.0
    error_rate: float = 0.0
    stale_rate: float = 0.0
    error_burst: Optional[int] = None
    crash: bool = False
    partition: bool = False

    def __post_init__(self):
        if self.latency < 0:
            raise ValueError("latency must be >= 0")
        for name in ("error_rate", "stale_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")

    @property
    def healthy(self) -> bool:
        """True when this policy injects nothing at all."""
        return (
            self.latency == 0.0
            and self.error_rate == 0.0
            and self.stale_rate == 0.0
            and not self.crash
            and not self.partition
        )


class SourceLane:
    """One source's private fault lane inside a :class:`PerSourceGateway`.

    Carries the source's current :class:`FaultPolicy`, a deterministically
    derived RNG (stable under chaos-schedule policy swaps: the stream is
    seeded once per lane, not per policy), and per-lane counters.
    """

    __slots__ = ("name", "policy", "reads", "errors_injected", "crashes",
                 "partitions", "_rng")

    def __init__(self, name: str, policy: FaultPolicy, seed: int):
        self.name = name
        self.policy = policy
        self.reads = 0
        self.errors_injected = 0
        self.crashes = 0
        self.partitions = 0
        # blake-free stable per-lane seed: crc32 is deterministic across
        # processes and PYTHONHASHSEED values, unlike hash(str).
        self._rng = random.Random(seed ^ zlib.crc32(name.encode("utf-8")))

    async def pass_through(self) -> None:
        """Inject this lane's faults, or return cleanly."""
        self.reads += 1
        policy = self.policy
        if policy.latency > 0:
            await asyncio.sleep(policy.latency)
        if policy.partition:
            self.partitions += 1
            await asyncio.sleep(PARTITION_HANG)
        if policy.crash:
            self.crashes += 1
            raise SourceCrashedError(
                f"source {self.name!r} crashed (read #{self.reads})"
            )
        if policy.error_rate > 0:
            bursting = (
                policy.error_burst is None
                or self.errors_injected < policy.error_burst
            )
            if bursting and self._rng.random() < policy.error_rate:
                self.errors_injected += 1
                raise TransientSourceError(
                    f"injected transient failure on {self.name!r} "
                    f"(read #{self.reads})"
                )

    def counters(self) -> Dict[str, object]:
        return {
            "reads": self.reads,
            "errors_injected": self.errors_injected,
            "crashes": self.crashes,
            "partitions": self.partitions,
            "policy": {
                "latency": self.policy.latency,
                "error_rate": self.policy.error_rate,
                "crash": self.policy.crash,
                "partition": self.policy.partition,
            },
        }


class PerSourceGateway:
    """The read seam: every source behind its own fault lane.

    Each source name resolves to a :class:`SourceLane` holding its own
    policy and seeded RNG; sources without an explicit policy share
    *default* (healthy unless given) but still get their own lane and RNG
    stream, so flipping one source's policy mid-run never perturbs
    another's randomness. Policies are swappable at runtime
    (:meth:`set_policy` / :meth:`heal`) — the mutation surface the chaos
    runner drives. ``reads`` counts every probe.
    """

    def __init__(
        self,
        default: Optional[FaultPolicy] = None,
        policies: Optional[Dict[str, FaultPolicy]] = None,
        seed: int = 0,
    ):
        self.default = default if default is not None else FaultPolicy()
        self.seed = seed
        self.reads = 0
        self.stale_served = 0
        self._rng = random.Random(seed)  # the gateway-wide staleness stream
        self._lanes: Dict[str, SourceLane] = {}
        for name, policy in (policies or {}).items():
            self._lanes[name] = SourceLane(name, policy, seed)

    # -- policy surface (the chaos runner's mutation seam) -----------------------

    def lane(self, name: str) -> SourceLane:
        lane = self._lanes.get(name)
        if lane is None:
            lane = self._lanes[name] = SourceLane(name, self.default, self.seed)
        return lane

    def policy_for(self, name: str) -> FaultPolicy:
        lane = self._lanes.get(name)
        return lane.policy if lane is not None else self.default

    def set_policy(self, name: str, policy: FaultPolicy) -> None:
        """Swap one source's fault policy in place (takes effect next read)."""
        self.lane(name).policy = policy

    def heal(self, name: str) -> None:
        """Clear one source's faults (its lane keeps its counters and RNG)."""
        self.lane(name).policy = FaultPolicy()

    # -- reads -------------------------------------------------------------------

    async def probe(
        self, snapshot: RegistrySnapshot, name: str
    ) -> SourceDescriptor:
        """Read one source through its own fault lane."""
        self.reads += 1
        await self.lane(name).pass_through()
        return snapshot.collection.by_name(name)

    def stale_snapshot(
        self, snapshot: RegistrySnapshot, registry: SourceRegistry
    ) -> Optional[RegistrySnapshot]:
        """The stale mirror's answer for a batch pinned to *snapshot*.

        One seeded coin flip against the default policy's ``stale_rate``
        per availability pass; on heads, the newest snapshot *registry*
        retains that is strictly older than *snapshot* (None on tails or
        when no older version is retained).
        """
        rate = self.default.stale_rate
        if rate == 0 or self._rng.random() >= rate:
            return None
        older = [v for v in registry.history_versions() if v < snapshot.version]
        if not older:
            return None
        self.stale_served += 1
        return registry.past_snapshot(max(older))

    def stats(self) -> Dict[str, object]:
        """Per-lane counters (the ``lanes`` of the gateway's ``stats()``)."""
        return {name: lane.counters() for name, lane in sorted(self._lanes.items())}
