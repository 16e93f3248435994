"""Differential battery: the bitset Monte Carlo engine vs the set-based oracle.

The bitmask engine (:mod:`repro.montecarlo.bitsampler`) is a faster
representation of the same experiment as the object-per-pattern reference in
:mod:`oracles.montecarlo`, never a different experiment.  These tests pin the
strongest form of that claim: for identical shard seeds the two consume the
RNG stream draw for draw and therefore produce **the same counters on every
sample**, not merely statistically compatible estimates.  The battery runs
the samplers head-to-head, sweeps ≥20 random systems and configurations
through both, and checks the public ``sweep`` JSON is byte-identical to the
oracle's across ``jobs`` counts.
"""

import inspect
import json
import random

import pytest

from oracles import montecarlo as oracle
from repro import api
from repro.analysis import figure1_quorum_system
from repro.cli import main
from repro.engine import ParallelRunner
from repro.failures import FailProneSystem, FailurePattern
from repro.failures.generators import random_failure_pattern
from repro.graph import ProcessIndex
from repro.montecarlo import (
    admissibility_sweep,
    asymmetric_admissibility_sweep,
    estimate_reliability,
    reliability_sweep,
)
from repro.quorums import GeneralizedQuorumSystem

#: Both engines, as runners for the public sweeps: the production bitset
#: shards and the set-based oracle.
ENGINES = {"bitset": ParallelRunner, "set": oracle.SetEngineRunner}


def _random_quorum_system(rng, n):
    """A random (not necessarily valid) GQS — reliability estimation never
    consults validity, only the quorum families."""
    processes = ["p{}".format(i) for i in range(n)]
    fail_prone = FailProneSystem(
        processes, [FailurePattern.crash_only([processes[0]], name="f0")]
    )

    def family():
        count = rng.randint(1, 3)
        return [
            rng.sample(processes, rng.randint(1, n)) for _ in range(count)
        ]

    return GeneralizedQuorumSystem(fail_prone, family(), family(), validate=False)


# --------------------------------------------------------------------- #
# Sampler twins: identical RNG stream, identical decoded patterns
# --------------------------------------------------------------------- #
def test_reliability_mask_sampler_is_a_stream_twin_of_sample_pattern():
    processes = ["p{}".format(i) for i in range(6)]
    index = ProcessIndex(processes)
    order = [index.position(p) for p in sorted(processes, key=repr)]
    for seed in range(30):
        rng_set = random.Random(seed)
        rng_bit = random.Random(seed)
        for crash_prob, disconnect_prob in [(0.3, 0.4), (1.0, 0.0), (0.9, 0.9)]:
            pattern = oracle._sample_pattern(
                sorted(processes, key=repr), rng_set, crash_prob, disconnect_prob
            )
            crash_mask, succ_clear = oracle.sample_reliability_masks(
                order, rng_bit, crash_prob, disconnect_prob
            )
            assert index.set_of(crash_mask) == pattern.crash_prone
            assert index.channels_of(succ_clear) == pattern.disconnect_prone
            # Not just the same value: the exact same number of draws.
            assert rng_set.getstate() == rng_bit.getstate()


def test_admissibility_mask_sampler_is_a_stream_twin_of_random_pattern():
    processes = ["p{}".format(i) for i in range(5)]
    index = ProcessIndex(processes)
    order = [index.position(p) for p in processes]
    for seed in range(30):
        for max_crashes in (None, 1, 2):
            rng_set = random.Random(seed)
            rng_bit = random.Random(seed)
            pattern = random_failure_pattern(
                processes, rng_set, crash_prob=0.5, disconnect_prob=0.4,
                max_crashes=max_crashes,
            )
            crash_mask, succ_clear = oracle.sample_admissibility_masks(
                order, rng_bit, 0.5, 0.4, max_crashes
            )
            assert index.set_of(crash_mask) == pattern.crash_prone
            assert index.channels_of(succ_clear) == pattern.disconnect_prone
            assert rng_set.getstate() == rng_bit.getstate()


# --------------------------------------------------------------------- #
# Engine equality on random systems / configurations
# --------------------------------------------------------------------- #
def test_reliability_counters_equal_on_random_systems():
    """≥20 random quorum systems: identical ReliabilityEstimate per engine."""
    rng = random.Random(2024)
    for case in range(24):
        quorum_system = _random_quorum_system(rng, rng.randint(3, 8))
        crash_prob = rng.choice([0.0, 0.1, 0.3, 0.7, 1.0])
        disconnect_prob = rng.choice([0.0, 0.2, 0.5, 0.9])
        seed = rng.randrange(10_000)
        estimates = {
            engine: estimate_reliability(
                quorum_system,
                crash_prob=crash_prob,
                disconnect_prob=disconnect_prob,
                samples=60,
                seed=seed,
                runner=runner(),
            )
            for engine, runner in ENGINES.items()
        }
        assert estimates["bitset"] == estimates["set"], (
            case, crash_prob, disconnect_prob, seed,
        )


def test_admissibility_counters_equal_on_random_configurations():
    """≥20 random sweep configurations: identical per-point counters."""
    rng = random.Random(77)
    for case in range(22):
        n = rng.randint(3, 7)
        config = dict(
            disconnect_probs=(rng.choice([0.0, 0.3, 0.6, 0.9]),),
            n=n,
            num_patterns=rng.randint(1, 4),
            crash_prob=rng.choice([0.0, 0.2, 0.5, 0.9]),
            samples=40,
            max_crashes=rng.choice([None, 1, n - 1]),
            seed=rng.randrange(10_000),
        )
        points = {
            engine: admissibility_sweep(runner=runner(), **config)
            for engine, runner in ENGINES.items()
        }
        assert points["bitset"] == points["set"], (case, config)


def test_asymmetric_sweep_equal_across_engines():
    tables = {
        engine: asymmetric_admissibility_sweep(
            n_values=(3, 4, 5, 6), num_patterns=3, samples=40, seed=9, runner=runner()
        )
        for engine, runner in ENGINES.items()
    }
    assert tables["bitset"].rows == tables["set"].rows


def test_reliability_counters_independent_of_jobs(figure1_gqs):
    reference = estimate_reliability(
        figure1_gqs, crash_prob=0.2, disconnect_prob=0.3, samples=96, seed=11, jobs=1
    )
    for jobs in (2, 4):
        for runner in ENGINES.values():
            assert (
                estimate_reliability(
                    figure1_gqs,
                    crash_prob=0.2,
                    disconnect_prob=0.3,
                    samples=96,
                    seed=11,
                    runner=runner(jobs=jobs),
                )
                == reference
            )


# --------------------------------------------------------------------- #
# Public sweep JSON: byte-identical to the oracle's across jobs counts
# --------------------------------------------------------------------- #
def _oracle_sweep(probs, n, patterns, samples, seed, jobs):
    """The set-based twin of ``api.sweep(kind="all", ...)``."""
    return api.MonteCarloSweep(
        admissibility=admissibility_sweep(
            disconnect_probs=probs, n=n, num_patterns=patterns, samples=samples,
            seed=seed, runner=oracle.SetEngineRunner(jobs=jobs),
        ),
        reliability=reliability_sweep(
            figure1_quorum_system(), disconnect_probs=probs, samples=samples,
            seed=seed, runner=oracle.SetEngineRunner(jobs=jobs),
        ),
    )


def test_sweep_json_bytes_identical_across_engines_and_jobs():
    outputs = set()
    for jobs in (1, 2, 4):
        outcome = api.sweep(
            kind="all", probs=(0.0, 0.3), n=4, patterns=2, samples=24,
            seed=5, jobs=jobs,
        )
        outputs.add(outcome.to_json().encode("utf-8"))
        outcome = _oracle_sweep(
            probs=(0.0, 0.3), n=4, patterns=2, samples=24, seed=5, jobs=jobs
        )
        outputs.add(outcome.to_json().encode("utf-8"))
    assert len(outputs) == 1
    payload = json.loads(outputs.pop().decode("utf-8"))
    assert set(payload) == {"admissibility", "reliability"}
    assert all(point["samples"] == 24 for point in payload["admissibility"])


def test_unknown_engine_is_rejected_everywhere(capsys):
    """There is one engine: no public entry point takes an ``engine`` keyword."""
    import repro.montecarlo

    entry_points = [
        estimate_reliability,
        reliability_sweep,
        admissibility_sweep,
        asymmetric_admissibility_sweep,
        api.sweep,
    ]
    for function in entry_points:
        assert "engine" not in inspect.signature(function).parameters, function
    assert not hasattr(repro.montecarlo, "MONTE_CARLO_ENGINES")
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--engine=set"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --engine=set" in capsys.readouterr().err
