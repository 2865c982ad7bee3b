"""``repro.service``: the mediator as a long-running, concurrent service.

See ``docs/service.md`` for the architecture. Layering, bottom up:

* :mod:`~repro.service.requests` — request/response vocabulary with
  explicit terminal statuses (OK / TIMEOUT / REJECTED / ERROR).
* :mod:`~repro.service.registry` — versioned, copy-on-write source
  registry; block-level diffs drive incremental memo invalidation.
* :mod:`~repro.service.faults` — the source-read seam,
  :class:`PerSourceGateway`: every source behind its own seeded fault lane
  (latency, transient errors, crashes, partitions) plus gateway-wide
  staleness — the seam ``repro.resilience`` probes through.
* :mod:`~repro.service.metrics` / :mod:`~repro.service.tracing` — the
  observability substrate (counters, gauges, percentile histograms,
  bounded trace spans).
* :mod:`~repro.service.scheduler` — bounded admission, deadlines,
  micro-batching, every batch's sources read through the availability
  pass of ``repro.resilience``.
* :mod:`~repro.service.server` — :class:`MediatorService`, the composition
  root behind ``python -m repro serve`` and experiment E16.
"""

from repro.service.faults import (
    FaultPolicy,
    PerSourceGateway,
    SourceCrashedError,
    SourceLane,
    TransientSourceError,
)
from repro.service.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.service.registry import (
    RegistryDiff,
    RegistrySnapshot,
    SourceRegistry,
    diff_snapshots,
    invalidate,
)
from repro.service.requests import (
    ConfidenceRequest,
    RequestStatus,
    ServiceResponse,
)
from repro.service.scheduler import RequestScheduler, SchedulerConfig
from repro.service.server import MediatorService
from repro.service.tracing import Span, Tracer

__all__ = [
    "MediatorService",
    "RequestScheduler",
    "SchedulerConfig",
    "SourceRegistry",
    "RegistrySnapshot",
    "RegistryDiff",
    "diff_snapshots",
    "invalidate",
    "ConfidenceRequest",
    "ServiceResponse",
    "RequestStatus",
    "FaultPolicy",
    "PerSourceGateway",
    "SourceCrashedError",
    "SourceLane",
    "TransientSourceError",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
]
