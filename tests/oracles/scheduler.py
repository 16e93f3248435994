"""Reference discrete-event scheduler: one heap of comparable event objects.

This is the simulator's original scheduler, kept as a differential oracle:
every event is a fresh object ordered by
``(time, seq)``, cancelled events stay in the heap until they reach its head,
and :meth:`OracleScheduler.pending` rescans the queue.  It offers the same
surface as :class:`repro.sim.EventScheduler`, so it can drive a whole
simulation via ``Network(scheduler=OracleScheduler())``.
"""

from __future__ import annotations

import heapq
import itertools

from repro.errors import SimulationError


class OracleEvent:
    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time, seq, callback):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True

    def __lt__(self, other):
        return (self.time, self.seq) < (other.time, other.seq)


class OracleScheduler:
    def __init__(self):
        self._queue = []
        self._counter = itertools.count()
        self.now = 0.0
        self.events_processed = 0

    def schedule_at(self, time, callback):
        if time < self.now:
            raise SimulationError("cannot schedule an event in the past")
        event = OracleEvent(time, next(self._counter), callback)
        heapq.heappush(self._queue, event)
        return event

    def schedule(self, delay, callback):
        if delay < 0:
            raise SimulationError("delay must be non-negative")
        return self.schedule_at(self.now + delay, callback)

    def pending(self):
        return sum(1 for event in self._queue if not event.cancelled)

    def _next(self):
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None

    def _fire(self):
        event = heapq.heappop(self._queue)
        self.now = event.time
        self.events_processed += 1
        event.callback()

    def step(self):
        if self._next() is None:
            return False
        self._fire()
        return True

    def run(self, max_time=None, max_events=None, stop_when=None):
        executed = 0
        if stop_when is not None and stop_when():
            return
        while max_events is None or executed < max_events:
            event = self._next()
            if event is None:
                return
            if max_time is not None and event.time > max_time:
                self.now = max_time
                return
            self._fire()
            executed += 1
            if stop_when is not None and stop_when():
                return

    def run_until(self, time):
        self.run(max_time=time)
        self.now = max(self.now, time)
