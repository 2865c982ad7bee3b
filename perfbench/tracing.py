"""Layer timers for the traced benchmark run.

The traced run wraps the public entry points of each layer of the request
path with timers installed from here, and removes them afterwards; the
program itself is not changed. Everything runs on one event-loop thread,
so timed calls nest as a stack and a layer's *self* time is its calls'
duration minus the time of the timed calls nested inside them.

Coroutine entry points (the resilience layer) are timed step by step:
only the stretches in which the coroutine actually runs count, never the
time it spends suspended while other tasks run.

Idle time comes from :class:`IdleSelector`, the event loop's selector with
its blocking ``select`` timed. The service layer's self time is what is
left of the window's wall time after idle time and every other layer.
"""

from __future__ import annotations

import selectors
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

perf_counter = time.perf_counter

#: Layers timed by wrappers (plus "driver", the benchmark's own callers).
#: "service" and "idle" are derived, not wrapped.
LAYERS = (
    "service", "engine", "memo_key", "kernel", "plan", "shard",
    "resilience", "registry", "cache", "driver", "idle",
)
#: Entry points whose every call duration is kept (for a median).
KEEP_DURATIONS = frozenset({"registry.update_source"})


class LayerClock:
    """Self time per layer and inclusive time and calls per entry point."""

    def __init__(self):
        self._stack: List[list] = []
        self.reset()

    def reset(self) -> None:
        """Zero every accumulator (open calls keep running)."""
        self.self_time: Dict[str, float] = defaultdict(float)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.dp_states = 0

    def snapshot(self) -> dict:
        """A copy of the accumulators as plain data."""
        return {
            "self_time": dict(self.self_time),
            "inclusive": dict(self.inclusive),
            "calls": dict(self.calls),
            "durations": {entry: list(d) for entry, d in self.durations.items()},
            "dp_states": self.dp_states,
        }

    def enter(self, layer: str) -> None:
        self._stack.append([layer, perf_counter(), 0.0])

    def exit(self) -> float:
        layer, start, children = self._stack.pop()
        elapsed = perf_counter() - start
        self.self_time[layer] += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed
        return elapsed

    def record(self, entry: str, elapsed: float) -> None:
        self.calls[entry] += 1
        self.inclusive[entry] += elapsed
        if entry in KEEP_DURATIONS:
            self.durations[entry].append(elapsed)


class IdleSelector(selectors.DefaultSelector):
    """The default selector, with time blocked in ``select`` summed."""

    def __init__(self):
        super().__init__()
        self.idle = 0.0

    def select(self, timeout=None):
        start = perf_counter()
        try:
            return super().select(timeout)
        finally:
            self.idle += perf_counter() - start


def _sync_wrapper(fn, clock: LayerClock, layer: str, entry: str):
    def timed(*args, **kwargs):
        clock.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            clock.record(entry, clock.exit())
        if entry == "kernel.solve":
            clock.dp_states += result[1]
        return result

    return timed


class _Stepped:
    """Await *coro*, timing each stretch it runs under *layer*."""

    __slots__ = ("coro", "clock", "layer", "entry")

    def __init__(self, coro, clock: LayerClock, layer: str, entry: str):
        self.coro, self.clock, self.layer, self.entry = coro, clock, layer, entry

    def __await__(self):
        coro, clock = self.coro, self.clock
        value, error = None, None
        busy = 0.0
        try:
            while True:
                clock.enter(self.layer)
                try:
                    if error is not None:
                        yielded = coro.throw(error)
                    else:
                        yielded = coro.send(value)
                except StopIteration as stop:
                    busy += clock.exit()
                    return stop.value
                except BaseException:
                    busy += clock.exit()
                    raise
                busy += clock.exit()
                try:
                    value, error = (yield yielded), None
                except BaseException as exc:  # delivered into the coroutine
                    value, error = None, exc
        finally:
            clock.record(self.entry, busy)


def _async_wrapper(fn, clock: LayerClock, layer: str, entry: str):
    async def timed(*args, **kwargs):
        return await _Stepped(fn(*args, **kwargs), clock, layer, entry)

    return timed


def _targets() -> List[Tuple[object, str, str, str, bool]]:
    """``(owner, attribute, layer, entry, is_coroutine)``.

    Module functions are patched where callers look them up at call time.
    """
    import repro.confidence.engine.core as engine_core
    import repro.confidence.engine.kernel as kernel
    import repro.plan as plan
    import repro.shard.executor as shard_executor
    from repro.cache.runtime import CacheRegistry
    from repro.confidence.engine import ConfidenceEngine
    from repro.resilience.manager import ResilienceManager
    from repro.service import MediatorService, PerSourceGateway
    from repro.service.registry import RegistrySnapshot
    from repro.shard import ShardExecutor

    return [
        (ConfidenceEngine, "confidences", "engine", "engine.confidences", False),
        (ConfidenceEngine, "confidence", "engine", "engine.confidence", False),
        (engine_core, "canonical_key", "memo_key", "engine.canonical_key", False),
        (kernel, "solve", "kernel", "kernel.solve", False),
        (plan, "evaluate", "plan", "plan.evaluate", False),
        (shard_executor, "evaluate_fragment", "plan", "plan.evaluate_fragment", False),
        (ShardExecutor, "answer_ordered", "shard", "shard.answer_ordered", False),
        (ResilienceManager, "resolve", "resilience", "resilience.resolve", True),
        (ResilienceManager, "_probe", "resilience", "resilience.probe", True),
        (PerSourceGateway, "probe", "resilience", "resilience.gateway_probe", True),
        (MediatorService, "update_source", "registry", "registry.update_source", False),
        (RegistrySnapshot, "instance", "registry", "registry.instance", False),
        (CacheRegistry, "invalidate_tags", "cache", "cache.invalidate_tags", False),
    ]


def install(clock: LayerClock) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that unwraps them."""
    saved = []
    for owner, attribute, layer, entry, is_coroutine in _targets():
        original = owner.__dict__[attribute]
        make = _async_wrapper if is_coroutine else _sync_wrapper
        setattr(owner, attribute, make(original, clock, layer, entry))
        saved.append((owner, attribute, original))

    def uninstall() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return uninstall
