"""Tests for the discrete-event scheduler (:mod:`repro.sim.events`)."""

import pytest

from repro.errors import SimulationError
from repro.sim import EventScheduler


def test_events_run_in_time_order():
    scheduler = EventScheduler()
    order = []
    scheduler.schedule(2.0, lambda: order.append("late"))
    scheduler.schedule(1.0, lambda: order.append("early"))
    scheduler.run()
    assert order == ["early", "late"]
    assert scheduler.now == pytest.approx(2.0)


def test_ties_broken_by_insertion_order():
    scheduler = EventScheduler()
    order = []
    scheduler.schedule(1.0, lambda: order.append("first"))
    scheduler.schedule(1.0, lambda: order.append("second"))
    scheduler.run()
    assert order == ["first", "second"]


def test_negative_delay_rejected():
    scheduler = EventScheduler()
    with pytest.raises(SimulationError):
        scheduler.schedule(-1.0, lambda: None)


def test_schedule_in_the_past_rejected():
    scheduler = EventScheduler()
    scheduler.schedule(5.0, lambda: None)
    scheduler.run()
    with pytest.raises(SimulationError):
        scheduler.schedule_at(1.0, lambda: None)


def test_cancelled_events_do_not_fire():
    scheduler = EventScheduler()
    fired = []
    event = scheduler.schedule(1.0, lambda: fired.append(1))
    event.cancel()
    scheduler.run()
    assert not fired
    assert scheduler.events_processed == 0


def test_events_can_schedule_more_events():
    scheduler = EventScheduler()
    seen = []

    def first():
        seen.append("first")
        scheduler.schedule(1.0, lambda: seen.append("second"))

    scheduler.schedule(1.0, first)
    scheduler.run()
    assert seen == ["first", "second"]
    assert scheduler.now == pytest.approx(2.0)


def test_run_respects_max_time():
    scheduler = EventScheduler()
    seen = []
    scheduler.schedule(1.0, lambda: seen.append(1))
    scheduler.schedule(10.0, lambda: seen.append(2))
    scheduler.run(max_time=5.0)
    assert seen == [1]
    assert scheduler.now == pytest.approx(5.0)
    assert scheduler.pending() == 1


def test_run_respects_max_events():
    scheduler = EventScheduler()
    seen = []
    for i in range(5):
        scheduler.schedule(float(i + 1), lambda i=i: seen.append(i))
    scheduler.run(max_events=2)
    assert seen == [0, 1]


def test_run_stop_when_predicate():
    scheduler = EventScheduler()
    seen = []
    for i in range(5):
        scheduler.schedule(float(i + 1), lambda i=i: seen.append(i))
    scheduler.run(stop_when=lambda: len(seen) >= 3)
    assert len(seen) == 3


def test_run_until_advances_time_even_with_no_events():
    scheduler = EventScheduler()
    scheduler.run_until(42.0)
    assert scheduler.now == pytest.approx(42.0)


def test_events_processed_counter():
    scheduler = EventScheduler()
    for i in range(3):
        scheduler.schedule(float(i), lambda: None)
    scheduler.run()
    assert scheduler.events_processed == 3


# --------------------------------------------------------------------------- #
# Live count: cancelled and fired events are not pending
# --------------------------------------------------------------------------- #
def test_pending_is_live_count_with_cancellations():
    scheduler = EventScheduler()
    events = [scheduler.schedule(float(i + 1), lambda: None) for i in range(6)]
    assert scheduler.pending() == 6
    events[0].cancel()
    events[3].cancel()
    assert scheduler.pending() == 4
    # Cancelling twice changes nothing.
    events[0].cancel()
    assert scheduler.pending() == 4
    scheduler.run()
    assert scheduler.pending() == 0
    assert scheduler.events_processed == 4


def test_cancel_after_fire_is_a_noop_for_the_live_count():
    scheduler = EventScheduler()
    event = scheduler.schedule(1.0, lambda: None)
    scheduler.run()
    assert scheduler.pending() == 0
    event.cancel()
    assert scheduler.pending() == 0


# --------------------------------------------------------------------------- #
# One heap: arrival-order and out-of-order deliveries, repeated rounds
# --------------------------------------------------------------------------- #
def test_fifo_lane_merges_with_heap_in_time_seq_order():
    scheduler = EventScheduler()
    order = []
    scheduler.schedule(2.0, lambda: order.append("a@2"))
    scheduler.schedule(1.0, lambda: order.append("b@1"))
    scheduler.schedule(2.0, lambda: order.append("c@2"))
    scheduler.schedule(1.0, lambda: order.append("d@1"))
    scheduler.run()
    # Ties at t=1 and t=2 break by scheduling order (seq).
    assert order == ["b@1", "d@1", "a@2", "c@2"]


def test_pool_reuse_does_not_leak_stale_callbacks_or_cancelled_state():
    scheduler = EventScheduler()
    fired = []
    for round_index in range(50):
        for i in range(4):
            scheduler.schedule(1.0, lambda r=round_index, i=i: fired.append((r, i)))
        # A cancelled event in one round must not suppress or replay anything
        # in a later round.
        scheduler.schedule(1.0, lambda r=round_index: fired.append((r, "cancelled"))).cancel()
        scheduler.run()
        assert scheduler.pending() == 0
    assert fired == [(r, i) for r in range(50) for i in range(4)]
    assert scheduler.events_processed == 50 * 4
