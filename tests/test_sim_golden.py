"""The simulator against recorded golden outputs and a reference scheduler.

The golden files under ``tests/golden/`` were recorded before the event
scheduler was collapsed to a single tuple heap, so they pin that the collapse
changed no observable behaviour:

* ``scenario_sweep_traces/`` — every catalogue scenario's recorded traces from
  ``sweep_scenarios(runs=2, seed=7)``, compared byte for byte at jobs 1 and 2;
* ``hunt_corpus_adversarial_partition/`` — the complete corpus of
  ``repro nemesis hunt adversarial-partition --budget 8 --seed 7``;
* ``sim_workload_fingerprints.json`` — per-workload histories,
  ``NetworkStats``, ``events_processed``, ``pending`` and ``now`` for the
  five protocol kinds (plus one fixed-delay register run).

Never regenerate these files to make a test pass: a difference means the
simulator changed its event order, delays or accounting.

The randomized comparisons against the reference scheduler live in
``tests/test_sim_fastpath_differential.py``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro import api
from repro.experiments import run_workload
from repro.scenarios.runner import run_scenario, sweep_scenarios
from repro.serialization import history_to_dicts
from repro.sim import FixedDelay

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SWEEP_TRACES = os.path.join(GOLDEN_DIR, "scenario_sweep_traces")
HUNT_CORPUS = os.path.join(GOLDEN_DIR, "hunt_corpus_adversarial_partition")
FINGERPRINTS = os.path.join(GOLDEN_DIR, "sim_workload_fingerprints.json")

KINDS = ("register", "snapshot", "lattice", "consensus", "paxos")
SEEDS = (0, 3)


def _read_directory(directory):
    return {
        name: open(os.path.join(directory, name), "rb").read()
        for name in sorted(os.listdir(directory))
    }


def _workload_fingerprint(kind, quorum_system, seed, delay_model=None):
    result = run_workload(kind, quorum_system, seed=seed, delay_model=delay_model)
    cluster = result.cluster
    return {
        "records": history_to_dicts(result.history),
        "completed": result.completed,
        "stats": vars(cluster.network.stats),
        "events_processed": cluster.network.scheduler.events_processed,
        "pending": cluster.network.scheduler.pending(),
        "now": cluster.now,
    }


def _render(fingerprint):
    return json.dumps(fingerprint, sort_keys=True, indent=1)


def workload_fingerprints(quorum_system):
    """Every pinned workload's fingerprint, keyed as in the golden file."""
    fingerprints = {
        "{}/seed{}".format(kind, seed): _workload_fingerprint(kind, quorum_system, seed)
        for kind in KINDS
        for seed in SEEDS
    }
    fingerprints["register/seed1/fixed-delay"] = _workload_fingerprint(
        "register", quorum_system, seed=1, delay_model=FixedDelay(1.0)
    )
    return fingerprints


@pytest.fixture(scope="module")
def golden_fingerprints():
    with open(FINGERPRINTS, encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------- #
# Golden outputs
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", KINDS)
def test_workload_fingerprints_match_golden(kind, figure1_gqs, golden_fingerprints):
    for seed in SEEDS:
        key = "{}/seed{}".format(kind, seed)
        fingerprint = _workload_fingerprint(kind, figure1_gqs, seed)
        assert _render(fingerprint) == _render(golden_fingerprints[key]), key


def test_fixed_delay_workload_matches_golden(figure1_gqs, golden_fingerprints):
    fingerprint = _workload_fingerprint(
        "register", figure1_gqs, seed=1, delay_model=FixedDelay(1.0)
    )
    assert _render(fingerprint) == _render(golden_fingerprints["register/seed1/fixed-delay"])


def test_fingerprint_file_is_byte_identical(figure1_gqs):
    with open(FINGERPRINTS, encoding="utf-8") as handle:
        golden = handle.read()
    assert _render(workload_fingerprints(figure1_gqs)) + "\n" == golden


@pytest.mark.parametrize("jobs", [1, 2])
def test_catalogue_traces_match_golden(tmp_path, jobs):
    directory = str(tmp_path / "traces")
    sweep_scenarios(runs=2, seed=7, jobs=jobs, record_traces=directory)
    golden = _read_directory(SWEEP_TRACES)
    assert len(golden) == 20
    assert _read_directory(directory) == golden


def test_hunt_corpus_matches_golden(tmp_path):
    directory = str(tmp_path / "corpus")
    api.hunt("adversarial-partition", budget=8, seed=7, jobs=2, corpus_dir=directory)
    assert _read_directory(directory) == _read_directory(HUNT_CORPUS)


def test_single_scenario_rows_equal_across_jobs():
    serial = run_scenario("heavy-contention-register", runs=3, seed=11, jobs=1)
    parallel = run_scenario("heavy-contention-register", runs=3, seed=11, jobs=2)
    assert serial.rows == parallel.rows
