"""Discrete-event simulation kernel.

A minimal calendar queue: callbacks scheduled at absolute or relative
simulated times, executed in (time, insertion) order.  All hardware
components share one :class:`Simulator` instance; all nondeterminism in a
run comes from seeded RNGs owned by components (the kernel itself is
deterministic), so a run is reproducible from its configuration and seed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.obs.tracer import NULL_TRACER, Tracer


class SimulationError(RuntimeError):
    """Raised for kernel-level failures (negative delays, runaway runs)."""


class Simulator:
    """Event queue with a monotonically advancing clock.

    The simulator also carries the run's :class:`~repro.obs.tracer.Tracer`
    so every hardware component reaches it through its ``sim`` reference;
    the default is the zero-cost null tracer, and instrumentation sites
    gate on ``tracer.enabled`` before building any event.

    ``now`` (current simulated time in cycles) and ``events_executed``
    (events run so far, for runaway detection and stats) are plain
    attributes: every component reads the clock on its hot path.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.now = 0
        self.events_executed = 0
        self._seq = 0
        self._queue: List[Tuple[int, int, Callable[[], None]]] = []
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER

    def at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(f"cannot schedule in the past ({time} < {self.now})")
        heappush(self._queue, (time, self._seq, callback))
        self._seq += 1

    def after(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heappush(self._queue, (self.now + delay, self._seq, callback))
        self._seq += 1

    def pending(self) -> int:
        """Number of queued events."""
        return len(self._queue)

    def run(
        self,
        until: Optional[int] = None,
        max_events: int = 50_000_000,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Drain the event queue.

        Stops when the queue empties, the clock passes ``until``, the
        ``stop_when`` predicate holds between events, or ``max_events``
        fire (raising, to catch runaway simulations).
        """
        queue = self._queue
        if until is None and stop_when is None:
            # The common case (every campaign run): nothing to test
            # between events but the runaway guard.
            while queue:
                self.now, _, callback = heappop(queue)
                callback()
                self.events_executed += 1
                if self.events_executed > max_events:
                    self._runaway(max_events)
            return
        while queue:
            if stop_when is not None and stop_when():
                return
            time, _, callback = queue[0]
            if until is not None and time > until:
                return
            heappop(queue)
            self.now = time
            callback()
            self.events_executed += 1
            if self.events_executed > max_events:
                self._runaway(max_events)

    @staticmethod
    def _runaway(max_events: int) -> None:
        raise SimulationError(
            f"exceeded {max_events} events; simulation is likely stuck"
        )
