"""Benchmark runner for the ``repro`` GQS reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload quorum-decide --seed 1 --seconds 30 --trace 0

Runs one workload in this process, closed loop with one caller: passes of
the workload's commands run back to back for about ``--seconds``.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it runs an
untraced pass, a traced pass and another untraced pass, and prints the
per-layer metrics (spans are written to ``.perfbench-out/``).  The last line
of standard output is one JSON object; the lines before it are the same
figures for people, plus the workload-specific ones.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: Set-up is measured this many times: once here, the rest in fresh
#: processes started before the first pass and after each pass.
SETUP_SAMPLES = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "failures.build_s": "s",
    "failures.symmetry_s": "s",
    "graph.residual_s": "s",
    "graph.permute_s": "s",
    "quorums.candidates_s": "s",
    "quorums.candidates": "count",
    "quorums.search_s": "s",
    "quorums.nodes_explored": "count",
    "quorums.decode_s": "s",
    "quorums.apply_delta_s": "s",
    "quorums.recertify_search_s": "s",
    "quorums.reuse_fraction": "ratio",
    "quorums.recertify_s": "s",
    "scenarios.build_s": "s",
    "scenarios.runs_per_s": "1/s",
    "sim.run_s": "s",
    "sim.events": "count",
    "sim.events_per_s": "1/s",
    "protocols.deliver_s": "s",
    "protocols.messages_sent": "count",
    "protocols.messages_dropped": "count",
    "protocols.sim_latency_mean": "sim-time",
    "protocols.sim_latency_max": "sim-time",
    "protocols.msgs_per_op": "msgs",
    "checkers.judge_s": "s",
    "checkers.explored_states": "count",
    "checkers.probe_s": "s",
    "checkers.probe_states": "count",
    "nemesis.evaluate_s": "s",
    "nemesis.mutate_s": "s",
    "nemesis.admit_ratio": "ratio",
    "nemesis.evals_per_s": "1/s",
    "engine.map_s": "s",
    "engine.compute_s": "s",
    "engine.efficiency": "ratio",
    "engine.shards": "count",
    "engine.ipc_bytes": "bytes",
    "montecarlo.shard_s": "s",
    "montecarlo.samples_per_s": "1/s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only measure set-up (import and inputs) and print its seconds",
    )
    return parser.parse_args(argv)


def set_up(workload, seed: int):
    """Import ``repro`` and make the workload's inputs; return (inputs, seconds)."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    inputs = workload.make_inputs(seed)
    return inputs, time.perf_counter() - start


def setup_probe_seconds(workload_name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, universal_newlines=True, timeout=120,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def timed_passes(workload, inputs, seconds: float, at_least: int, outcome, state, after_pass):
    """Closed loop: run passes back to back for about ``seconds``.

    After the first ``at_least`` passes, a pass is not started when the
    median pass so far would end it past ``seconds``, so a run of long
    passes does not overshoot by most of a pass.  ``after_pass()`` runs
    after each pass, outside its timing.
    """
    from measure import cpu_seconds, median
    from spans import Tracer

    walls, cpus, figures = [], [], []
    ops = Tracer()
    function = workload.op_function()
    if function is not None:
        ops.patch_function(function, "op")
    try:
        while True:
            gc.collect()
            start, cpu = time.perf_counter(), cpu_seconds()
            output = workload.run_pass(inputs)
            walls.append(time.perf_counter() - start)
            cpus.append(cpu_seconds() - cpu)
            figures.append(workload.figures(output))
            workload.check(inputs, output, outcome, state)
            del output
            after_pass()
            if len(walls) >= at_least and sum(walls) + median(walls) > seconds:
                break
    finally:
        ops.restore()
    latencies = [end - start for start, end in zip(ops.starts, ops.ends)]
    return walls, cpus, figures, latencies


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro sources under {}".format(SRC), file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from measure import Outcome, describe_timing, median, peak_rss_mb
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("perfbench: unknown workload {!r}; expected one of {}".format(
            args.workload, sorted(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(repr(set_up(workload, args.seed)[1]))
        return 0

    inputs, first_setup = set_up(workload, args.seed)
    setups = [first_setup]

    def probe() -> None:
        if len(setups) < SETUP_SAMPLES:
            setups.append(setup_probe_seconds(args.workload, args.seed))

    # Probes are spread over the run, so that one burst of load on the
    # machine does not move all of them.
    probe()
    probe()
    outcome, state = Outcome(), {}
    # A timed run takes at least two passes, so that its median is never a
    # single pass; the traced run needs one untraced pass before its traced one.
    walls, cpus, figures, latencies = timed_passes(
        workload, inputs, 0.0 if args.trace else args.seconds, 1 if args.trace else 2,
        outcome, state, probe,
    )
    while len(setups) < SETUP_SAMPLES:
        probe()
    print("workload {} seed {}: set-up {}".format(args.workload, args.seed, describe_timing(setups)))
    print("passes: {}; wall {}; each {}".format(
        len(walls), describe_timing(walls), " ".join("{:.3f}".format(w) for w in walls)))
    if latencies:
        print("operation latency: {}".format(describe_timing(latencies, 1000.0, "ms")))
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        layers = workload.traced(inputs, outcome, state, OUT_DIR, walls[0])
        for key in figures[0]:
            layers[key] = median([f[key] for f in figures])
        if workload.op_metric is not None:
            layers[workload.op_metric] = median(latencies)
        metrics = {name: layers.get(name, 0) for name in PER_LAYER_UNITS}
        units = PER_LAYER_UNITS
    else:
        for key in sorted(figures[0]):
            print("{:<28} {:>16.6f} (median over passes)".format(key, median([f[key] for f in figures])))
        if workload.op_metric is not None:
            print("{:<28} {:>16.6f} s (median per operation)".format(workload.op_metric, median(latencies)))
        metrics = {
            "setup_s": median(setups),
            "wall_s": median(walls),
            "cpu_s": median(cpus),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": outcome.ok_frac,
        }
        units = END_TO_END_UNITS
    print("fail_frac {:.6f} ({} failed of {} operations)".format(
        outcome.fail_frac, outcome.failed, outcome.attempted))

    for name, value in metrics.items():
        print("{:<28} {:>16.6f} {}".format(name, value, units[name]))
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
