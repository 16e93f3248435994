"""The three workloads: inputs from a seed, one timed pass, output checks, a traced pass.

Every call into the program goes through ``repro.api`` or a layer's public
function, as a user's command would.  ``repro`` is imported lazily so that
set-up time includes importing it.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import random
import time
from typing import Any, Dict, Optional

from measure import Outcome
from spans import Tracer, layer_sum, total_duration

#: Worker processes for the pool workloads: two, or fewer on a smaller machine.
JOBS = min(2, os.cpu_count() or 1)


def digest(payload: Any) -> str:
    """A stable fingerprint of a JSON-ready output."""
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """One benchmark workload.

    ``run_pass`` is the timed work; ``check`` judges its output outside the
    timed phase, and ``figures`` derives the workload-specific figures from
    it.  An exception from either ends the run without a result.
    ``op_function`` names the public function whose calls are the workload's
    operations, timed one by one for the latency distribution; ``op_metric``
    names the per-layer metric that reports their median, if any.
    """

    name = ""
    why = ""
    op_metric: Optional[str] = None

    def make_inputs(self, seed: int) -> Any:
        raise NotImplementedError

    def op_function(self):
        return None

    def run_pass(self, inputs: Any) -> Any:
        raise NotImplementedError

    def check(self, inputs: Any, output: Any, outcome: Outcome, state: Dict[str, Any]) -> None:
        raise NotImplementedError

    def figures(self, output: Any) -> Dict[str, float]:
        """Workload-specific end-to-end figures of one untraced pass."""
        return {}

    def traced(
        self, inputs: Any, outcome: Outcome, state: Dict[str, Any], out_dir: str, before_s: float
    ) -> Dict[str, float]:
        """Run a traced pass, then an untraced one; return per-layer figures.

        The tracing overhead is the traced pass's wall time minus the mean of
        the untraced passes before (``before_s``) and after it, so that a
        steady drift of the machine's speed cancels out.
        """
        tracer = Tracer()
        install_layers(tracer)
        try:
            start = time.perf_counter()
            output = self.run_traced(inputs, tracer)
            wall = time.perf_counter() - start
        finally:
            tracer.restore()
        self.check(inputs, output, outcome, state)
        del output
        start = time.perf_counter()
        output = self.run_pass(inputs)
        after_s = time.perf_counter() - start
        self.check(inputs, output, outcome, state)
        tracer.write(os.path.join(out_dir, "spans-{}-layers.tsv.gz".format(self.name)))
        figures = layer_figures(tracer)
        figures.update(self.traced_counters(output))
        figures["trace.overhead_s"] = wall - (before_s + after_s) / 2
        return figures

    def run_traced(self, inputs: Any, tracer: Tracer) -> Any:
        return self.run_pass(inputs)

    def traced_counters(self, output: Any) -> Dict[str, float]:
        return {}


def checked(outcome: Outcome, state: Dict[str, Any], key: str, payload: Any, first_check, count: int = 1) -> None:
    """Full check on the first output under ``key``; later ones must match it exactly."""
    fingerprint = digest(payload)
    if key not in state:
        state[key] = fingerprint
        outcome.record(first_check(), count)
    else:
        outcome.record(state[key] == fingerprint, count)


# ---------------------------------------------------------------------- #
# quorum-decide
# ---------------------------------------------------------------------- #
def witness_holds(system, payload: Dict[str, Any]) -> bool:
    """The reported witness is a GQS: per pattern, W is f-available and
    f-reachable from R; every chosen R intersects every chosen W.

    ``is_f_reachable_mask`` runs one forward closure per member of R, about
    10^9 steps on the n=1008 system.  Once W is known to be strongly
    connected, "every member of R reaches every member of W" is the same as
    "R lies inside the backward closure of one member of W", which is one
    closure; that is what is checked here.
    """
    from repro.quorums import is_f_available_mask

    index = system.process_index
    reads, writes = set(), set()
    for pattern, row in zip(system.patterns, payload["patterns"]):
        if row["read_quorum"] is None or row["write_quorum"] is None:
            return False
        residual = system.residual_bitset(pattern)
        correct = index.mask_of(system.correct_processes(pattern))
        read = index.mask_of(row["read_quorum"])
        write = index.mask_of(row["write_quorum"])
        if not is_f_available_mask(residual, correct, write):
            return False
        if not read or read & ~correct or read & ~residual.can_reach_mask(write & -write):
            return False
        reads.add(read)
        writes.add(write)
    return len(payload["patterns"]) == len(system.patterns) and all(
        read & write for read in reads for write in writes
    )


class QuorumDecide(Workload):
    """Cold decisions on three builtins, then recertification under churn.

    Recertification ends this workload's pass instead of being a workload of
    its own: timed alone on ``large-threshold-504x24``, its wall time spread
    by 0.31 and 0.40 over ten seeds on the shared VM of BASELINE.md, above
    the 0.25 bound.  Here its layers are still traced, and a regression in
    them still moves this workload's ``wall_s``.
    """

    name = "quorum-decide"
    why = "Cold GQS decision up to n=1008 (build, candidate ordering, search), then warm recertification of n=252 after a join, a seeded channel suspicion and a seeded leave."
    BUILTINS = ("large-threshold-1008x48", "large-threshold-120x8x6", "multiregion-10x13")
    CHURN_BUILTIN = "large-threshold-252x12"
    CHURN_PROCESSES = ["p{:03d}".format(i) for i in range(252)]
    op_metric = "quorums.recertify_s"

    def make_inputs(self, seed: int) -> Any:
        # The decisions are on fixed builtins; the seed picks the churn.
        from repro.quorums import MembershipDelta

        rng = random.Random(seed)
        src, dst, leaver = rng.sample(self.CHURN_PROCESSES, 3)
        return self.BUILTINS, [
            MembershipDelta("join", process="p252"),
            MembershipDelta("suspect-channel", src=src, dst=dst),
            MembershipDelta("leave", process=leaver),
        ]

    def op_function(self):
        from repro.quorums import incremental

        return incremental.recertify_delta

    def run_pass(self, inputs) -> Any:
        from repro import api

        builtins, deltas = inputs
        decisions = []
        for name in builtins:
            system = api.resolve_system(builtin=name)
            decisions.append((name, system, api.discovery_report(system).to_dict()))
        return decisions, self.watch(deltas)

    def watch(self, deltas) -> Any:
        from repro import api

        report = api.watch_quorums(api.resolve_system(builtin=self.CHURN_BUILTIN), deltas)
        return report, report.to_dict()

    def run_traced(self, inputs, tracer: Tracer) -> Any:
        # The decision phases are driven one after the other, each warming
        # the caches the next one reads, so each span holds only its own phase.
        from repro import api, quorums

        builtins, deltas = inputs
        decisions = []
        for name in builtins:
            with tracer.span("builtin:" + name):
                system = api.resolve_system(builtin=name)
                for pattern in system.patterns:
                    system.residual_bitset(pattern)
                for pattern in system.patterns:
                    quorums.candidate_pairs(system, pattern)
                decisions.append((name, system, api.discovery_report(system).to_dict()))
        with tracer.span("watch:" + self.CHURN_BUILTIN):
            return decisions, self.watch(deltas)

    def check(self, inputs, output, outcome, state) -> None:
        from repro import api
        from repro.failures import FailProneSystem
        from repro.quorums import discover_gqs

        decisions, (report, payload) = output
        _, deltas = inputs
        for name, system, decision in decisions:
            checked(
                outcome,
                state,
                name,
                decision,
                lambda: decision["exists"] is True and witness_holds(system, decision),
            )

        def from_scratch() -> bool:
            # Each stage's verdict must equal a cold decision on a fresh copy
            # of the same system (no adopted caches, no symmetry).
            stages = [api.resolve_system(builtin=self.CHURN_BUILTIN)]
            stages += [verdict.system for verdict in report.outcome.verdicts]
            got = [payload["initial_exists"]] + [row["exists"] for row in payload["deltas"]]
            expected = []
            for system in stages:
                fresh = FailProneSystem(system.processes, system.patterns, graph=system.graph)
                expected.append(discover_gqs(fresh, validate=False).exists)
            return got == expected and len(got) == len(deltas) + 1

        checked(outcome, state, "watch", payload, from_scratch, count=len(deltas) + 1)

    def traced_counters(self, output) -> Dict[str, float]:
        _, (_, payload) = output
        reused = sum(row["candidates_reused"] for row in payload["deltas"])
        total = sum(row["patterns_total"] for row in payload["deltas"])
        return {"quorums.reuse_fraction": reused / total if total else 0.0}


# ---------------------------------------------------------------------- #
# experiment-sweep
# ---------------------------------------------------------------------- #
class ExperimentSweep(Workload):
    name = "experiment-sweep"
    why = "Scenario catalogue sweep (8 runs each) plus Monte Carlo sweep over a 2-worker pool: engine IPC, scheduler, five protocols, bitset sampler."
    RUNS = 8
    SAMPLES = 4000

    def make_inputs(self, seed: int) -> Any:
        import repro.api  # noqa: F401

        return {"seed": seed, "jobs": JOBS}

    def run_pass(self, inputs, jobs: Optional[int] = None) -> Any:
        from repro import api

        jobs = inputs["jobs"] if jobs is None else jobs
        start = time.perf_counter()
        scenarios = api.sweep_scenarios(runs=self.RUNS, seed=inputs["seed"], jobs=jobs)
        middle = time.perf_counter()
        montecarlo = api.sweep(samples=self.SAMPLES, seed=inputs["seed"], jobs=jobs)
        end = time.perf_counter()
        return scenarios, montecarlo, middle - start, end - middle

    def check(self, inputs, output, outcome, state) -> None:
        from repro import api
        from repro.registry import PROTOCOLS

        scenarios, montecarlo, _, _ = output
        rows = sum(result.runs for result in scenarios)

        def runs_ok() -> bool:
            for result in scenarios:
                claims = not PROTOCOLS.get(result.scenario.protocol.kind).has_tag("no-safety-claim")
                for row in result.rows:
                    if not row["completed"] or (claims and not row["safe"]):
                        return False
            return rows == self.RUNS * len(scenarios)

        checked(outcome, state, "scenarios", [r.to_dict() for r in scenarios], runs_ok, count=rows)
        if "montecarlo-serial" not in state:
            serial = api.sweep(samples=self.SAMPLES, seed=inputs["seed"], jobs=1)
            state["montecarlo-serial"] = serial.to_json()
        points = len(montecarlo.admissibility or []) + len(montecarlo.reliability or [])
        outcome.record(montecarlo.to_json() == state["montecarlo-serial"], points)

    def figures(self, output) -> Dict[str, float]:
        scenarios, montecarlo, scenario_s, montecarlo_s = output
        rows = [row for result in scenarios for row in result.rows]
        samples = sum(p.samples for p in (montecarlo.admissibility or []) + (montecarlo.reliability or []))
        operations = sum(row["operations"] for row in rows)
        return {
            "scenarios.runs_per_s": len(rows) / scenario_s,
            "montecarlo.samples_per_s": samples / montecarlo_s,
            "protocols.sim_latency_mean": sum(row["mean_latency"] for row in rows) / len(rows),
            "protocols.sim_latency_max": max(row["max_latency"] for row in rows),
            "protocols.msgs_per_op": sum(row["messages"] for row in rows) / operations,
        }

    def traced(self, inputs, outcome, state, out_dir, before_s) -> Dict[str, float]:
        """Engine passes at the pool's job count and at jobs=1, then every layer at jobs=1.

        ``before_s`` timed a pool pass, so it is not used: the untraced
        references for the overhead are the jobs=1 passes around the traced one.
        """
        jobs = inputs["jobs"]
        # Only ParallelRunner.map, at the benchmark's job count: pool time,
        # shards and pickled bytes.
        engine = Tracer()
        install_engine(engine, measure_ipc=True)
        try:
            output = self.run_pass(inputs)
        finally:
            engine.restore()
        self.check(inputs, output, outcome, state)
        engine.write(os.path.join(out_dir, "spans-{}-engine.tsv.gz".format(self.name)))
        # Only the map, at jobs=1, before and after the traced pass: its
        # duration is the pure compute, and the passes are the untraced
        # references for the tracing overhead.
        serial = Tracer()
        untraced = []

        def serial_pass() -> None:
            install_engine(serial, measure_ipc=False)
            try:
                start = time.perf_counter()
                output = self.run_pass(inputs, jobs=1)
                untraced.append(time.perf_counter() - start)
            finally:
                serial.restore()
            self.check(inputs, output, outcome, state)

        serial_pass()
        # Every layer at jobs=1, so that the spans are recorded in this process.
        tracer = Tracer()
        install_layers(tracer)
        try:
            start = time.perf_counter()
            output = self.run_pass(inputs, jobs=1)
            wall = time.perf_counter() - start
        finally:
            tracer.restore()
        self.check(inputs, output, outcome, state)
        tracer.write(os.path.join(out_dir, "spans-{}-layers.tsv.gz".format(self.name)))
        serial_pass()
        figures = layer_figures(tracer)
        map_s = total_duration(engine.names, engine.starts, engine.ends, "engine.map")
        compute_s = total_duration(serial.names, serial.starts, serial.ends, "engine.map") / 2
        figures.update(
            {
                "engine.map_s": map_s,
                "engine.compute_s": compute_s,
                "engine.efficiency": compute_s / (jobs * map_s) if map_s else 0.0,
                "engine.shards": engine.counters.get("engine.shards", 0),
                "engine.ipc_bytes": engine.counters.get("engine.ipc_bytes", 0),
                "trace.overhead_s": wall - sum(untraced) / 2,
            }
        )
        return figures


# ---------------------------------------------------------------------- #
# nemesis-hunt
# ---------------------------------------------------------------------- #
class NemesisHunt(Workload):
    name = "nemesis-hunt"
    why = "Hill-climb hunts on two scenarios, 18 schedule evaluations each: schedule-override delays, mutation and the checker effort probe."
    HUNTS = (("adversarial-partition", 16), ("heavy-contention-register", 16))
    #: The hunt seed is fixed: the trajectory, and so the work, changes with
    #: it (4.0 s to 8.1 s over seeds 0..9), which would swamp the noise.
    HUNT_SEED = 0

    def make_inputs(self, seed: int) -> Any:
        import repro.api  # noqa: F401

        return self.HUNTS

    def op_function(self):
        from repro.nemesis import schedule

        return schedule.evaluate_schedule

    def run_pass(self, inputs) -> Any:
        from repro import api

        start = time.perf_counter()
        reports = [
            api.hunt(scenario, strategy="hill-climb", budget=budget, seed=self.HUNT_SEED, jobs=1)
            for scenario, budget in inputs
        ]
        return reports, time.perf_counter() - start

    def check(self, inputs, output, outcome, state) -> None:
        reports, _ = output
        for (scenario, budget), report in zip(inputs, reports):
            checked(
                outcome,
                state,
                scenario,
                report.to_dict(),
                lambda: report.evaluations == budget + report.seed_schedules
                and not any(row["violation"] for row in report.rows),
                count=report.evaluations,
            )

    def figures(self, output) -> Dict[str, float]:
        reports, wall = output
        return {"nemesis.evals_per_s": sum(r.evaluations for r in reports) / wall}

    def traced_counters(self, output) -> Dict[str, float]:
        reports, _ = output
        evaluations = sum(r.evaluations for r in reports)
        return {"nemesis.admit_ratio": sum(r.admitted for r in reports) / evaluations}


WORKLOADS = {w.name: w for w in (QuorumDecide(), ExperimentSweep(), NemesisHunt())}


# ---------------------------------------------------------------------- #
# Layer spans
# ---------------------------------------------------------------------- #
def install_layers(tracer: Tracer) -> None:
    """Span every layer boundary the per-layer metrics read."""
    from repro import api
    from repro.experiments import workloads as experiments
    from repro.failures import FailProneSystem, builtin_fail_prone_system
    from repro.failures.symmetry import SymmetryGroup
    from repro.graph.bitset import MaskPermutation, permute_mask
    from repro.montecarlo import bitsampler
    from repro.nemesis import mutate, schedule
    from repro.quorums import discovery, incremental
    from repro.scenarios import builders
    from repro.sim.network import Network
    from repro.sim.process import Process

    def add(name, value):
        return lambda t, args, kwargs, result, token: t.count(name, value(args, result))

    def network_state(args, kwargs):
        stats = args[0].stats
        dropped = stats.messages_dropped_channel + stats.messages_dropped_crashed
        return args[0].scheduler.events_processed, stats.messages_sent, dropped

    def network_counts(t, args, kwargs, result, token):
        events, sent, dropped = network_state(args, kwargs)
        t.count("sim.events", events - token[0])
        t.count("protocols.messages_sent", sent - token[1])
        t.count("protocols.messages_dropped", dropped - token[2])

    tracer.patch_function(builtin_fail_prone_system, "failures.build")
    tracer.patch_method(FailProneSystem, "__init__", "failures.build")
    tracer.patch_method(SymmetryGroup, "validate_for", "failures.symmetry")
    tracer.patch_method(FailProneSystem, "residual_bitset", "graph.residual")
    tracer.patch_method(MaskPermutation, "apply", "graph.permute")
    tracer.patch_function(permute_mask, "graph.permute")
    tracer.patch_function(
        discovery.candidate_pairs, "quorums.candidates",
        after=add("quorums.candidates", lambda args, result: len(result)),
    )
    tracer.patch_function(
        discovery.discover_gqs, "quorums.search",
        after=add("quorums.nodes_explored", lambda args, result: result.nodes_explored),
    )
    tracer.patch_method(api.DiscoveryReport, "to_dict", "quorums.decode")
    tracer.patch_function(incremental.recertify_delta, "quorums.recertify")
    tracer.patch_function(incremental.apply_delta, "quorums.apply_delta")
    tracer.patch_method(FailProneSystem, "adopt_pattern_caches", "quorums.apply_delta")
    for function in (
        builders.build_topology,
        builders.build_quorum_system,
        builders.resolve_pattern,
        builders.run_built_scenario,
    ):
        tracer.patch_function(function, "scenarios.build")
    tracer.patch_method(Network, "run", "sim.run", before=network_state, after=network_counts)
    tracer.patch_method(Process, "deliver", "protocols.deliver")
    tracer.patch_function(
        experiments.judge_history, "checkers.judge",
        after=add("checkers.explored_states", lambda args, result: result["explored_states"]),
    )
    tracer.patch_function(
        experiments.register_search_effort, "checkers.probe",
        after=add("checkers.probe_states", lambda args, result: result),
    )
    tracer.patch_function(schedule.evaluate_schedule, "nemesis.evaluate")
    tracer.patch_function(mutate.mutate_schedule, "nemesis.mutate")
    tracer.patch_function(bitsampler._admissibility_shard_bitset, "montecarlo.shard")
    tracer.patch_function(bitsampler._reliability_shard_bitset, "montecarlo.shard")


def install_engine(tracer: Tracer, measure_ipc: bool) -> None:
    """Span ``ParallelRunner.map``; count shards and, optionally, pickled bytes."""
    from repro.engine.runner import ParallelRunner

    original = ParallelRunner.map

    def traced_map(runner, task, items):
        work = list(items)
        with tracer.span("engine.map"):
            results = original(runner, task, work)
        tracer.count("engine.shards", len(work))
        if measure_ipc and runner.last_mode == "parallel":
            sent = sum(len(pickle.dumps((task, item), pickle.HIGHEST_PROTOCOL)) for item in work)
            received = sum(len(pickle.dumps(result, pickle.HIGHEST_PROTOCOL)) for result in results)
            tracer.count("engine.ipc_bytes", sent + received)
        return results

    tracer.patch_attribute(ParallelRunner, "map", traced_map)


#: Per-layer time metrics: span names whose self time they sum, and an
#: optional parent-name filter.
LAYER_TIMES = {
    "failures.build_s": (("failures.build",), None, None),
    "failures.symmetry_s": (("failures.symmetry",), None, None),
    "graph.residual_s": (("graph.residual",), None, None),
    "graph.permute_s": (("graph.permute",), None, None),
    "quorums.candidates_s": (("quorums.candidates",), None, None),
    "quorums.search_s": (("quorums.search",), None, "quorums.recertify"),
    "quorums.decode_s": (("quorums.decode",), None, None),
    "quorums.apply_delta_s": (("quorums.apply_delta", "quorums.recertify"), None, None),
    "quorums.recertify_search_s": (("quorums.search",), "quorums.recertify", None),
    "scenarios.build_s": (("scenarios.build",), None, None),
    "sim.run_s": (("sim.run",), None, None),
    "protocols.deliver_s": (("protocols.deliver",), None, None),
    "checkers.judge_s": (("checkers.judge",), None, None),
    "checkers.probe_s": (("checkers.probe",), None, None),
    "nemesis.evaluate_s": (("nemesis.evaluate",), None, None),
    "nemesis.mutate_s": (("nemesis.mutate",), None, None),
    "montecarlo.shard_s": (("montecarlo.shard",), None, None),
}

#: Per-layer counters read straight from the tracer.
LAYER_COUNTERS = (
    "quorums.candidates",
    "quorums.nodes_explored",
    "sim.events",
    "protocols.messages_sent",
    "protocols.messages_dropped",
    "checkers.explored_states",
    "checkers.probe_states",
)


def layer_figures(tracer: Tracer) -> Dict[str, float]:
    selfs = tracer.self_times()
    figures: Dict[str, float] = {}
    for metric, (names, under, not_under) in LAYER_TIMES.items():
        figures[metric] = layer_sum(tracer.names, selfs, tracer.parents, names, under, not_under)
    for counter in LAYER_COUNTERS:
        figures[counter] = tracer.counters.get(counter, 0)
    run_s = total_duration(tracer.names, tracer.starts, tracer.ends, "sim.run")
    figures["sim.events_per_s"] = figures["sim.events"] / run_s if run_s else 0.0
    return figures

