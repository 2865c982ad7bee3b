"""Service observability: counters, gauges, and latency histograms.

Deliberately dependency-free (no prometheus client in the container): a
:class:`MetricsRegistry` holds named :class:`Counter`/:class:`Gauge`
instruments and :class:`Histogram` reservoirs, and renders one
JSON-serializable ``snapshot()`` — the shape ``python -m repro serve``
prints, E16 tabulates, and the CI smoke step validates with
``tools/check_service_snapshot.py``.

Histograms keep a bounded uniform reservoir (Vitter's Algorithm R with a
deterministic RNG) so p50/p95/p99 stay accurate without unbounded memory on
a long-running service; ``count``/``sum``/``min``/``max`` are exact.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, List, Optional, Sequence

#: Reservoir size: large enough for stable tail percentiles, small enough
#: to snapshot cheaply.
DEFAULT_RESERVOIR = 4096

#: The percentiles every histogram snapshot reports.
PERCENTILES = (0.50, 0.95, 0.99)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value", "_lock")

    def __init__(self):
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that goes up and down (queue depth, in-flight requests)."""

    __slots__ = ("value", "high_water", "_lock")

    def __init__(self):
        self.value = 0
        self.high_water = 0
        self._lock = threading.Lock()

    def set(self, value: int) -> None:
        with self._lock:
            self.value = value
            if value > self.high_water:
                self.high_water = value

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount
            if self.value > self.high_water:
                self.high_water = self.value

    def dec(self, amount: int = 1) -> None:
        self.inc(-amount)


class Histogram:
    """Exact count/sum/min/max plus reservoir-sampled percentiles."""

    __slots__ = ("count", "total", "min", "max", "_reservoir", "_capacity",
                 "_rng", "_lock")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR, seed: int = 0):
        if capacity <= 0:
            raise ValueError("Histogram needs a positive reservoir capacity")
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: List[float] = []
        self._capacity = capacity
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._reservoir) < self._capacity:
                self._reservoir.append(value)
            else:  # Algorithm R: keep each of the n seen with prob cap/n
                slot = self._rng.randrange(self.count)
                if slot < self._capacity:
                    self._reservoir[slot] = value

    def percentile(self, q: float) -> Optional[float]:
        """The q-quantile (0 < q <= 1) of the sampled values; None if empty."""
        with self._lock:
            if not self._reservoir:
                return None
            ordered = sorted(self._reservoir)
        index = max(0, min(len(ordered) - 1, int(q * len(ordered)) - (q == 1.0)))
        return ordered[index]

    def snapshot(self) -> Dict[str, object]:
        with self._lock:
            mean = self.total / self.count if self.count else None
            out: Dict[str, object] = {
                "count": self.count,
                "sum": self.total,
                "min": self.min,
                "max": self.max,
                "mean": mean,
            }
        for q in PERCENTILES:
            out[f"p{int(q * 100)}"] = self.percentile(q)
        return out


class MetricsRegistry:
    """Named instruments with one JSON-serializable snapshot.

    Instruments are created on first use (``counter("x").inc()``), so the
    snapshot only carries what the service actually touched, and new code
    paths never need a central declaration site.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _instrument(self, instruments: Dict, name: str, factory):
        """The named instrument; constructed (under the lock) only on a miss.

        A hit allocates nothing: hot paths look their instruments up per
        call, and a fresh ``Histogram`` seeds a ``random.Random``.
        """
        instrument = instruments.get(name)
        if instrument is None:
            with self._lock:
                instrument = instruments.get(name)
                if instrument is None:
                    instrument = instruments[name] = factory()
        return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(self._counters, name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(self._gauges, name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(self._histograms, name, Histogram)

    def snapshot(self) -> Dict[str, object]:
        """All instruments as plain data: the scrapeable metrics surface."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {
                name: {"value": g.value, "high_water": g.high_water}
                for name, g in sorted(gauges.items())
            },
            "histograms": {
                name: h.snapshot() for name, h in sorted(histograms.items())
            },
        }
