"""Differential tests: the production scheduler against the reference heap.

:class:`repro.sim.EventScheduler` (one heap of tuples) is compared with the
reference scheduler in :mod:`oracles.scheduler` (a single heap of ``Event``
objects) on the same schedules: exact time ties, cancellations,
``max_time`` / ``max_events`` / ``stop_when`` limits, ``step`` and callbacks
that schedule (and cancel) further events.  Both must fire the same callbacks
in the same order and agree on ``now``, ``events_processed`` and
``pending()``.
"""

from __future__ import annotations

import random

import pytest

from oracles.scheduler import OracleScheduler
from repro.sim import EventScheduler


def _random_plan(rng):
    """(delay, cancel) entries with dense time ties and some cancellations."""
    return [
        (rng.choice([0.0, 0.5, 1.0, 1.0, 2.5]), rng.random() < 0.3)
        for _ in range(rng.randint(5, 40))
    ]


def _execute(scheduler, plan, **limits):
    """Schedule ``plan``, cancel the flagged events, then run with ``limits``.

    A third of the callbacks schedule a follow-up event (and some of those
    cancel a still-pending sibling), so the queue keeps changing while the
    run is hot.
    """
    fired = []
    handles = []

    def spawn(tag, depth):
        def callback():
            fired.append((tag, scheduler.now))
            if depth < 2 and tag % 3 == 0:
                handles.append(scheduler.schedule(1.0, spawn(tag + 1000, depth + 1)))
                if tag % 2 == 0 and handles:
                    handles[len(handles) // 2].cancel()

        return callback

    cancelled = []
    for index, (delay, cancel) in enumerate(plan):
        event = scheduler.schedule(delay, spawn(index, 0))
        handles.append(event)
        if cancel:
            cancelled.append(event)
    for event in cancelled:
        event.cancel()
    scheduler.run(**limits)
    return fired, scheduler.events_processed, scheduler.now, scheduler.pending()


def test_pool_recycling_is_invisible_under_random_schedules():
    """Random schedules with cancellations and nested scheduling fire exactly
    what the reference heap fires, in the same order; no fired or cancelled
    event ever fires again."""
    for case in range(40):
        plan = _random_plan(random.Random(case))
        assert _execute(EventScheduler(), plan) == _execute(OracleScheduler(), plan), case


def test_fifo_lane_tie_breaks_match_the_reference_heap():
    """Non-decreasing absolute times with heavy tie density: firing order is
    exactly the reference heap's ``(time, seq)`` order."""
    for case in range(25):
        rng = random.Random(1000 + case)
        times = []
        at = 0.0
        for _ in range(rng.randint(10, 60)):
            if rng.random() < 0.6:
                at += rng.choice([0.0, 0.0, 1.0])
            times.append(at)

        def execute(scheduler):
            fired = []
            for index, at in enumerate(times):
                scheduler.schedule_at(at, lambda index=index: fired.append(index))
            scheduler.run()
            return fired

        assert execute(EventScheduler()) == execute(OracleScheduler()), case


@pytest.mark.parametrize(
    "limits",
    [
        {"max_time": 1.0},
        {"max_time": 2.75},
        {"max_events": 7},
        {"max_time": 3.0, "max_events": 12},
    ],
    ids=["max_time-tie", "max_time-gap", "max_events", "both"],
)
def test_run_limits_match_the_oracle(limits):
    for case in range(25):
        plan = _random_plan(random.Random(2000 + case))
        production, oracle = EventScheduler(), OracleScheduler()
        assert _execute(production, plan, **limits) == _execute(oracle, plan, **limits), case
        # Resuming after a limit drains the rest in the same order.
        production.run()
        oracle.run()
        assert (production.events_processed, production.now, production.pending()) == (
            oracle.events_processed,
            oracle.now,
            oracle.pending(),
        ), case


def test_stop_when_matches_the_oracle():
    for case in range(25):
        plan = _random_plan(random.Random(3000 + case))
        threshold = len(plan) // 2

        def run(scheduler):
            return _execute(
                scheduler, plan, stop_when=lambda: scheduler.events_processed >= threshold
            )

        assert run(EventScheduler()) == run(OracleScheduler()), case


def test_step_matches_the_oracle():
    plan = _random_plan(random.Random(7))
    production, oracle = EventScheduler(), OracleScheduler()
    for scheduler in (production, oracle):
        for delay, _ in plan:
            scheduler.schedule(delay, lambda: None)
    while True:
        stepped = production.step()
        assert stepped == oracle.step()
        assert (production.now, production.events_processed) == (
            oracle.now,
            oracle.events_processed,
        )
        if not stepped:
            break


def test_every_callback_fires_exactly_once():
    scheduler = EventScheduler()
    counts = {}
    for wave in range(30):
        for i in range(8):
            key = (wave, i)
            scheduler.schedule(
                float(i % 3), lambda key=key: counts.__setitem__(key, counts.get(key, 0) + 1)
            )
        scheduler.run()
    assert len(counts) == 30 * 8
    assert all(count == 1 for count in counts.values())
    assert scheduler.pending() == 0
