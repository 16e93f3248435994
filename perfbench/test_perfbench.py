"""Tests for the benchmark's own arithmetic and its agreement with BENCHMARK.json.

Run with ``python3 -m pytest perfbench``.
"""

import json
import os
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from measure import Outcome, describe_timing, nearest_rank, self_times, tail  # noqa: E402
from spans import Tracer, layer_sum  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------- #
# Percentile selection
# ---------------------------------------------------------------------- #
def test_nearest_rank():
    values = list(range(1, 101))
    assert nearest_rank(values, 50) == 50
    assert nearest_rank(values, 90) == 90
    assert nearest_rank(values, 99.9) == 100
    assert nearest_rank([7.0], 50) == 7.0


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    found = tail([float(i) for i in range(n)])
    if expected is None:
        assert found is None
        return
    assert found.percentile == expected
    assert found.samples == n
    rank = nearest_rank(range(n), expected)
    assert found.value == float(rank)
    assert n - (rank + 1) >= 10


def test_tail_does_not_depend_on_input_order():
    values = [float(i % 37) for i in range(150)]
    assert tail(values) == tail(sorted(values))


def test_describe_timing_reports_sample_count_and_tail():
    assert describe_timing([1.0, 2.0, 3.0]) == "median 2.0000 s (n=3)"
    text = describe_timing([float(i) for i in range(1, 101)], 1000.0, "ms")
    assert text == "median 50500.0000 ms (n=100), p90 90000.0000 ms"


# ---------------------------------------------------------------------- #
# Self time over nested spans
# ---------------------------------------------------------------------- #
def test_self_time_subtracts_direct_children_only():
    #   root [0, 10] -> a [1, 4] -> grandchild [2, 3]
    #                -> b [5, 6]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_them():
    starts = [0.0, 1.0, 4.0, 5.0]
    ends = [6.0, 5.0, 7.0, 9.0]
    parents = [-1, 0, 0, 0]
    # Children cover [1, 6] of the parent once: self = 6 - 5.
    assert self_times(starts, ends, parents)[0] == pytest.approx(1.0)


def test_self_times_sum_to_root_duration():
    tracer = Tracer()
    with tracer.span("outer"):
        for _ in range(3):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
    assert tracer.parents == [-1, 0, 1, 0, 3, 0, 5]
    selfs = tracer.self_times()
    assert sum(selfs) == pytest.approx(tracer.ends[0] - tracer.starts[0])
    assert all(value >= 0 for value in selfs)
    leaf = layer_sum(tracer.names, selfs, tracer.parents, ("leaf",), under="inner")
    assert leaf == pytest.approx(sum(selfs[i] for i, n in enumerate(tracer.names) if n == "leaf"))
    assert layer_sum(tracer.names, selfs, tracer.parents, ("leaf",), under="outer") == 0.0


def test_patch_function_reaches_every_holder_and_restores():
    def original(x):
        return x + 1

    module = types.ModuleType("repro._perfbench_probe")
    module.first = original
    module.second = original
    sys.modules[module.__name__] = module
    tracer = Tracer()
    try:
        tracer.patch_function(original, "probe", after=lambda t, a, k, r, tok: t.count("calls", r))
        assert module.first(1) == 2 and module.second(2) == 3
        assert tracer.names == ["probe", "probe"]
        assert tracer.counters == {"calls": 5}
    finally:
        tracer.restore()
        del sys.modules[module.__name__]
    assert module.first is original and module.second is original


# ---------------------------------------------------------------------- #
# Failure counting
# ---------------------------------------------------------------------- #
def test_outcome_counts_failed_operations():
    outcome = Outcome()
    outcome.record(True, 8)
    outcome.record(False, 2)
    outcome.record(True)
    assert (outcome.attempted, outcome.failed) == (11, 2)
    assert outcome.fail_frac == pytest.approx(2 / 11)
    assert outcome.ok_frac == pytest.approx(9 / 11)


def test_outcome_with_no_operations_counts_as_failed():
    assert Outcome().fail_frac == 1.0
    assert Outcome().ok_frac == 0.0


# ---------------------------------------------------------------------- #
# Peak RSS includes pool workers
# ---------------------------------------------------------------------- #
CHILD_RSS = """
import multiprocessing, sys
sys.path.insert(0, {here!r})
from measure import own_peak_rss_kib, peak_rss_mb

def allocate(megabytes):
    block = bytearray(megabytes * 1024 * 1024)
    for i in range(0, len(block), 4096):
        block[i] = 1
    return len(block)

if __name__ == "__main__":
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        pool.map(allocate, [100])
    print(own_peak_rss_kib() / 1024.0, peak_rss_mb())
"""


def test_peak_rss_includes_pool_workers_but_not_the_launcher(tmp_path):
    script = tmp_path / "child_rss.py"
    script.write_text(CHILD_RSS.format(here=HERE))
    # A large launcher: Linux's ru_maxrss would carry its size into the child.
    launcher = bytearray(120 * 1024 * 1024)
    for i in range(0, len(launcher), 4096):
        launcher[i] = 1
    output = subprocess.run(
        [sys.executable, str(script)], check=True, stdout=subprocess.PIPE,
        universal_newlines=True, timeout=120,
    ).stdout.split()
    del launcher
    own, peak = float(output[0]), float(output[1])
    assert own < 90.0
    assert peak >= 100.0


# ---------------------------------------------------------------------- #
# BENCHMARK.json agrees with run.py
# ---------------------------------------------------------------------- #
def test_benchmark_json_names_what_run_py_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
