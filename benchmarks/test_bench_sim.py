"""Simulator throughput: the event scheduler vs the reference scheduler.

Message-heavy discrete-event workloads execute one scheduler event per
delivered message, so events/sec is the simulator's samples/sec analogue.  A
token ring is timed under two delay models — **fixed delay** (every delivery
time ties with its neighbours, so the ``seq`` tie-break carries the order) and
**uniform delay** (randomized, interleaved delivery times) — once with
:class:`repro.sim.EventScheduler` and once with the reference single-heap
scheduler of ``tests/oracles/scheduler.py``, passed in through
``Network(scheduler=...)``.

The two schedulers run interleaved with the best of three rounds per side, at
*equal output*: every round asserts the processed event and delivery counts
identical before any throughput is compared, and the production scheduler
must be at least as fast as the reference on each ring.  The recorded
``events_per_sec`` metrics feed the conftest regression guard against
``BENCH_seed.json``.
"""

from __future__ import annotations

import gc
import os
import sys
import time

from repro.sim import EventScheduler, FixedDelay, Network, Process, UniformDelay

from conftest import bench_once

sys.path.append(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))
from oracles.scheduler import OracleScheduler  # noqa: E402

RING_SIZE = 8
TOKENS_PER_PROCESS = 500
HOPS_PER_TOKEN = 30
ROUNDS = 3


class TokenRing(Process):
    """Forwards every received token to the next ring member until its TTL ends.

    The handler does near-zero protocol work on purpose: the benchmark should
    time the scheduler and network transport, not application logic.
    """

    def __init__(self, pid, network, ring):
        super().__init__(pid, network)
        self.ring = ring
        self.successor = ring[(ring.index(pid) + 1) % len(ring)]

    def on_message(self, sender, message):
        ttl = message
        if ttl > 0:
            self.send(self.successor, ttl - 1)


def _run_token_ring(delay_model, scheduler):
    network = Network(delay_model=delay_model, scheduler=scheduler)
    ring = ["p{}".format(i) for i in range(RING_SIZE)]
    processes = {pid: TokenRing(pid, network, ring) for pid in ring}
    for pid in ring:
        for _ in range(TOKENS_PER_PROCESS):
            processes[pid].send(processes[pid].successor, HOPS_PER_TOKEN)
    start = time.perf_counter()
    network.run()
    seconds = time.perf_counter() - start
    return network.scheduler.events_processed, network.stats.messages_delivered, seconds


SCHEDULERS = (("reference", OracleScheduler), ("production", EventScheduler))


def _interleaved_events_per_sec(make_delay):
    """Best-of-ROUNDS events/sec per scheduler, asserting equal event counts."""
    numbers = {}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(ROUNDS):
            for label, make_scheduler in SCHEDULERS:
                events, delivered, seconds = _run_token_ring(make_delay(), make_scheduler())
                entry = numbers.setdefault(
                    label, {"events": events, "delivered": delivered, "seconds": seconds}
                )
                assert entry["events"] == events and entry["delivered"] == delivered
                entry["seconds"] = min(entry["seconds"], seconds)
                gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    assert numbers["production"]["events"] == numbers["reference"]["events"]
    assert numbers["production"]["delivered"] == numbers["reference"]["delivered"]
    for entry in numbers.values():
        entry["events_per_sec"] = round(entry["events"] / entry.pop("seconds"), 1)
    return numbers


def _record_and_check(label, numbers, bench_numbers):
    production = numbers["production"]["events_per_sec"]
    reference = numbers["reference"]["events_per_sec"]
    bench_numbers(events_per_sec=production, events=numbers["production"]["events"])
    print()
    print(
        "sim {} token ring ({} events): reference {:.0f} -> scheduler {:.0f} "
        "events/sec ({:.2f}x)".format(
            label, numbers["production"]["events"], reference, production, production / reference
        )
    )
    assert production >= reference, numbers


def test_sim_fixed_delay_message_heavy_speedup(benchmark, bench_numbers):
    """Fixed delay (dense time ties): at least the reference's events/sec."""
    numbers = bench_once(benchmark, _interleaved_events_per_sec, lambda: FixedDelay(1.0))
    _record_and_check("fixed-delay", numbers, bench_numbers)


def test_sim_uniform_delay_message_heavy_throughput(benchmark, bench_numbers):
    """Uniform delay (randomized times): at least the reference's events/sec."""
    numbers = bench_once(
        benchmark, _interleaved_events_per_sec, lambda: UniformDelay(0.5, 2.0, seed=3)
    )
    _record_and_check("uniform-delay", numbers, bench_numbers)
