"""Reference Monte Carlo engine: one failure-pattern object per sample.

This is the original set-based evaluation path of :mod:`repro.montecarlo`,
kept as the differential oracle for the bitmask shards of
:mod:`repro.montecarlo.bitsampler`.  Every sampled failure pattern is
materialised as a :class:`FailurePattern`, wrapped in a fresh
:class:`FailProneSystem` and judged with set-based reachability, one quorum
pair at a time.

:class:`SetEngineRunner` is passed as ``runner=`` to the public sweeps: it
keeps their engine specs, per-shard seeds and merges, and evaluates each
shard with the set-based twin of the bitmask shard task.  For every shard
seed both consume the RNG stream draw for draw, so the sweeps return the same
counters on either engine, sample for sample.

:func:`sample_reliability_masks` and :func:`sample_admissibility_masks` spell
out, as standalone functions, the mask-level sampling that the bitmask shards
inline into their loops.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple

from repro.engine import ExperimentSpec, ParallelRunner, ShardSpec
from repro.failures import FailProneSystem, FailurePattern, random_failure_pattern
from repro.graph import mutually_reachable
from repro.montecarlo import bitsampler
from repro.montecarlo.comparison import AdmissibilityPoint, sample_asymmetric_partition_system
from repro.montecarlo.reliability import ReliabilityEstimate
from repro.quorums import (
    GeneralizedQuorumSystem,
    classify_fail_prone_system,
    gqs_exists,
    is_f_available,
    is_f_reachable,
    strong_system_exists,
)
from repro.types import ProcessId


# ---------------------------------------------------------------------- #
# Reliability (availability of fixed quorums)
# ---------------------------------------------------------------------- #
def _sample_pattern(
    processes: Sequence[ProcessId],
    rng: random.Random,
    crash_prob: float,
    disconnect_prob: float,
) -> FailurePattern:
    """Sample one i.i.d. failure pattern, conditioned on at least one survivor.

    A pattern that crashes *every* process is meaningless for availability, so
    the all-crashed draw is adjusted by un-crashing one process **chosen
    uniformly at random** (one extra ``rng`` draw, only in that branch).
    """
    crashed = [p for p in processes if rng.random() < crash_prob]
    if len(crashed) == len(processes):
        crashed.pop(rng.randrange(len(crashed)))
    survivors = [p for p in processes if p not in crashed]
    channels = [
        (src, dst)
        for src in survivors
        for dst in survivors
        if src != dst and rng.random() < disconnect_prob
    ]
    return FailurePattern(crashed, channels)


def _availability_under(
    quorum_system: GeneralizedQuorumSystem, pattern: FailurePattern
) -> Tuple[bool, bool, bool]:
    """(GQS availability, QS+ availability, classical availability) for one pattern."""
    fail_prone = FailProneSystem(
        quorum_system.processes, [pattern], graph=quorum_system.fail_prone.graph_view
    )
    correct = pattern.correct_processes(quorum_system.processes)
    residual = fail_prone.residual_graph(pattern)

    gqs_ok = False
    strong_ok = False
    classical_ok = False
    for write_quorum in quorum_system.write_quorums:
        write_correct = write_quorum <= correct
        if not write_correct:
            continue
        write_available = is_f_available(fail_prone, pattern, write_quorum)
        for read_quorum in quorum_system.read_quorums:
            if not read_quorum <= correct:
                continue
            classical_ok = True
            if write_available and is_f_reachable(fail_prone, pattern, write_quorum, read_quorum):
                gqs_ok = True
            if mutually_reachable(residual, read_quorum | write_quorum):
                strong_ok = True
        if gqs_ok and strong_ok and classical_ok:
            break
    return gqs_ok, strong_ok, classical_ok


def _reliability_shard(spec: ExperimentSpec, shard: ShardSpec) -> ReliabilityEstimate:
    """Run one shard of a reliability estimate (executes inside a worker)."""
    quorum_system = spec.params["quorum_system"]
    crash_prob = spec.params["crash_prob"]
    disconnect_prob = spec.params["disconnect_prob"]
    rng = random.Random(shard.seed)
    processes = sorted(quorum_system.processes, key=repr)
    estimate = ReliabilityEstimate(
        crash_prob=crash_prob, disconnect_prob=disconnect_prob, samples=shard.samples
    )
    for _ in range(shard.samples):
        pattern = _sample_pattern(processes, rng, crash_prob, disconnect_prob)
        gqs_ok, strong_ok, classical_ok = _availability_under(quorum_system, pattern)
        if gqs_ok:
            estimate.gqs_available += 1
        if strong_ok:
            estimate.strong_available += 1
        if classical_ok:
            estimate.classical_available += 1
    return estimate


# ---------------------------------------------------------------------- #
# Admissibility of the three quorum conditions
# ---------------------------------------------------------------------- #
def sample_fail_prone_system(
    rng: random.Random,
    n: int,
    num_patterns: int,
    crash_prob: float,
    disconnect_prob: float,
    max_crashes: Optional[int] = None,
) -> FailProneSystem:
    """Sample one random fail-prone system over processes ``p0 .. p{n-1}``."""
    processes = ["p{}".format(i) for i in range(n)]
    patterns = [
        random_failure_pattern(
            processes,
            rng,
            crash_prob=crash_prob,
            disconnect_prob=disconnect_prob,
            max_crashes=max_crashes,
            name="f{}".format(i),
        )
        for i in range(num_patterns)
    ]
    return FailProneSystem(processes, patterns)


def _admissibility_shard(spec: ExperimentSpec, shard: ShardSpec) -> AdmissibilityPoint:
    """Classify one shard's worth of random fail-prone systems (worker side)."""
    rng = random.Random(shard.seed)
    point = AdmissibilityPoint(
        disconnect_prob=spec.params["disconnect_prob"],
        crash_prob=spec.params["crash_prob"],
        samples=shard.samples,
    )
    for _ in range(shard.samples):
        system = sample_fail_prone_system(
            rng,
            n=spec.params["n"],
            num_patterns=spec.params["num_patterns"],
            crash_prob=spec.params["crash_prob"],
            disconnect_prob=spec.params["disconnect_prob"],
            max_crashes=spec.params["max_crashes"],
        )
        verdict = classify_fail_prone_system(system)
        if verdict["generalized"]:
            point.generalized += 1
        if verdict["strong"]:
            point.strong += 1
        if verdict["classical"]:
            point.classical += 1
    return point


def _asymmetric_shard(spec: ExperimentSpec, shard: ShardSpec) -> Tuple[int, int]:
    """Count (QS+, GQS) admissions in one shard of asymmetric-partition samples."""
    rng = random.Random(shard.seed)
    strong_count = 0
    generalized_count = 0
    for _ in range(shard.samples):
        system = sample_asymmetric_partition_system(
            rng,
            n=spec.params["n"],
            num_patterns=spec.params["num_patterns"],
            window_size=spec.params["window_size"],
        )
        if strong_system_exists(system):
            strong_count += 1
        if gqs_exists(system):
            generalized_count += 1
    return strong_count, generalized_count


# ---------------------------------------------------------------------- #
# Mask-level pattern samplers (stream twins of the inlined shard sampling)
# ---------------------------------------------------------------------- #
def sample_reliability_masks(
    order: Sequence[int],
    rng: random.Random,
    crash_prob: float,
    disconnect_prob: float,
) -> Tuple[int, Dict[int, int]]:
    """Sample one i.i.d. failure pattern, conditioned on at least one survivor.

    ``order`` lists bit positions in process iteration order
    (``sorted(..., key=repr)``); the returned ``(crash_mask, succ_clear)``
    pair feeds :meth:`~repro.graph.BitsetDiGraph.residual_masks`.  A pattern
    that crashes every process is meaningless for availability, so the
    all-crashed draw is adjusted by un-crashing one position **chosen
    uniformly at random**: one extra draw, spent only in that branch.
    """
    crashed = [pos for pos in order if rng.random() < crash_prob]
    if len(crashed) == len(order):
        crashed.pop(rng.randrange(len(crashed)))
    crash_mask = 0
    for pos in crashed:
        crash_mask |= 1 << pos
    survivors = [pos for pos in order if not crash_mask >> pos & 1]
    succ_clear: Dict[int, int] = {}
    for src in survivors:
        row = 0
        for dst in survivors:
            if src != dst and rng.random() < disconnect_prob:
                row |= 1 << dst
        if row:
            succ_clear[src] = row
    return crash_mask, succ_clear


def sample_admissibility_masks(
    order: Sequence[int],
    rng: random.Random,
    crash_prob: float,
    disconnect_prob: float,
    max_crashes: Optional[int] = None,
) -> Tuple[int, Dict[int, int]]:
    """Draw-for-draw twin of :func:`repro.failures.random_failure_pattern`.

    The crash loop stops *before* drawing for the next process once the crash
    limit is reached — the generator's ``break`` ends the per-process draw
    stream early, and mirroring that exactly keeps both on the same RNG
    stream.
    """
    limit = len(order) - 1 if max_crashes is None else min(max_crashes, len(order) - 1)
    crash_mask = 0
    crashes = 0
    for pos in order:
        if crashes >= limit:
            break
        if rng.random() < crash_prob:
            crash_mask |= 1 << pos
            crashes += 1
    survivors = [pos for pos in order if not crash_mask >> pos & 1]
    succ_clear: Dict[int, int] = {}
    for src in survivors:
        row = 0
        for dst in survivors:
            if src != dst and rng.random() < disconnect_prob:
                row |= 1 << dst
        if row:
            succ_clear[src] = row
    return crash_mask, succ_clear


#: The set-based twin of each bitmask shard task.
SET_SHARDS = {
    bitsampler._reliability_shard_bitset: _reliability_shard,
    bitsampler._admissibility_shard_bitset: _admissibility_shard,
    bitsampler._asymmetric_shard_bitset: _asymmetric_shard,
}


class SetEngineRunner(ParallelRunner):
    """A runner that evaluates every Monte Carlo shard with the set-based twin."""

    def run_sharded(self, specs, shard_task, merge):
        return super().run_sharded(specs, SET_SHARDS[shard_task], merge)
