"""Discrete-event scheduler underpinning the network simulator.

The scheduler is one binary heap of ``(time, seq, callback, handle)`` tuples.
``seq`` is the scheduler's insertion counter, so ties in simulated time fire in
scheduling order and a run is fully deterministic for a fixed random seed of
the delay model.  Tuples compare on ``(time, seq)`` alone — ``seq`` is unique,
so the callback and handle are never compared.

Every ``schedule`` call returns an :class:`Event` handle whose only job is
cancellation: a cancelled entry stays in the heap and is discarded when it
reaches the head.  Simulated time is a float in arbitrary "time units"; the
protocols and experiments only rely on relative ordering and on the partial
synchrony bound ``δ``, never on wall-clock meaning.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError

EventCallback = Callable[[], None]


class Event:
    """Handle to a scheduled callback.  ``cancel()`` prevents it from firing."""

    __slots__ = ("time", "cancelled")

    def __init__(self, time: float) -> None:
        self.time = time
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Event(t={:.3f}, cancelled={})".format(self.time, self.cancelled)


class EventScheduler:
    """A deterministic discrete-event scheduler."""

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, EventCallback, Event]] = []
        self._now = 0.0
        self._counter = itertools.count()
        self._events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    def schedule_at(self, time: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` to run at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(
                "cannot schedule an event in the past (now={}, requested={})".format(
                    self._now, time
                )
            )
        event = Event(time)
        heapq.heappush(self._queue, (time, next(self._counter), callback, event))
        return event

    def schedule(self, delay: float, callback: EventCallback) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError("delay must be non-negative, got {}".format(delay))
        return self.schedule_at(self._now + delay, callback)

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for entry in self._queue if not entry[3].cancelled)

    def step(self) -> bool:
        """Execute the next event.  Returns False when the queue is empty."""
        executed = self._events_processed
        self.run(max_events=1)
        return self._events_processed > executed

    def run(
        self,
        max_time: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run events in order until a stopping condition is met.

        Stops when the queue empties, when simulated time would exceed
        ``max_time``, when ``max_events`` events have been executed by this
        call, or when ``stop_when()`` becomes true (checked after every event).
        """
        queue = self._queue
        pop = heapq.heappop
        executed = 0
        if stop_when is not None and stop_when():
            return
        while queue and (max_events is None or executed < max_events):
            time, _, callback, event = queue[0]
            if event.cancelled:
                pop(queue)
                continue
            if max_time is not None and time > max_time:
                self._now = max_time
                return
            pop(queue)
            self._now = time
            self._events_processed += 1
            executed += 1
            callback()
            if stop_when is not None and stop_when():
                return

    def run_until(self, time: float) -> None:
        """Run every event scheduled at or before ``time`` and advance to ``time``."""
        self.run(max_time=time)
        if self._now < time:
            self._now = time
