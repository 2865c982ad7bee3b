"""``repro.resilience``: per-source availability under the mediator.

The paper's mediator answers from sources that are only *partially* sound
and complete; this package extends that stance to runtime availability —
a source that is down is a source whose annotation cannot currently be
trusted, and the mediator answers from what the remaining annotations
still entail. See ``docs/resilience.md``. Layering:

* :mod:`~repro.resilience.breaker` — closed/open/half-open circuit
  breakers with EWMA error-rate and latency tracking, explicit clocking.
* :mod:`~repro.resilience.manager` — the per-batch availability pass,
  the service's one source-read path: concurrent per-source probes, one
  probe deadline, retries with backoff, hedges, breaker bookkeeping;
  produces a :class:`ProbeReport`. :data:`STRICT` is the all-or-nothing
  preset (a lost source fails the batch) the service uses by default.
* :mod:`~repro.resilience.degrade` — the semantics: demote a lost
  source's annotation to ⟨c=0, s=0⟩ and grade answers (``certain`` vs
  downgraded-to-``possible``) against the weakened collection.
* :mod:`~repro.resilience.chaos` — deterministic scripted outages
  (crash / partition / error / slow / heal) for tests, the CLI, and the
  E22 chaos benchmark.

The per-source fault *injection* itself lives with the other gateways in
:mod:`repro.service.faults` (:class:`~repro.service.faults.PerSourceGateway`).
"""

from repro.resilience.breaker import (
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.chaos import (
    ChaosEvent,
    ChaosRunner,
    ChaosSchedule,
    ChaosSpecError,
)
from repro.resilience.degrade import (
    GUARANTEE_CERTAIN,
    GUARANTEE_POSSIBLE,
    demote,
    downgraded,
    grade_answers,
)
from repro.resilience.manager import (
    STRICT,
    ProbeReport,
    ResilienceConfig,
    ResilienceManager,
)

__all__ = [
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "ChaosEvent",
    "ChaosRunner",
    "ChaosSchedule",
    "ChaosSpecError",
    "GUARANTEE_CERTAIN",
    "GUARANTEE_POSSIBLE",
    "demote",
    "downgraded",
    "grade_answers",
    "STRICT",
    "ProbeReport",
    "ResilienceConfig",
    "ResilienceManager",
]
