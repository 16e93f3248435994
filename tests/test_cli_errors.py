"""CLI error paths: unknown names exit non-zero with stable golden messages.

Every unknown-name error now funnels through the extension registry, so the
messages are deterministic (sorted candidate lists, hash-seed independent)
and carry a "did you mean" suggestion on a close miss — asserted here as
exact golden text.
"""

import pytest

from repro.cli import main

ALL_SCENARIOS = (
    "['adversarial-partition', 'churn-at-gst', 'geo-replication', "
    "'heavy-contention-register', 'lattice-fan-in', 'multi-region-blackout', "
    "'partial-synchrony-stress', 'paxos-baseline', 'unidirectional-ring', "
    "'zoned-threshold']"
)

BUILTIN_FORMS = (
    "figure1, figure1-modified, ring-<n>, geo-<sites>x<replicas>, minority-<n>, "
    "adversarial-<n>, large-threshold-<n>x<k>[x<zones>] or "
    "multiregion-<regions>x<replicas>"
)


def test_unknown_scenario_name_golden_message(capsys):
    status = main(["scenario", "run", "zoned-treshold"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err == (
        "error: unknown scenario 'zoned-treshold'; expected one of "
        + ALL_SCENARIOS
        + " (did you mean 'zoned-threshold'?)\n"
    )


def test_unknown_scenario_without_close_match_has_no_suggestion(capsys):
    status = main(["scenario", "show", "qqqq"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err == (
        "error: unknown scenario 'qqqq'; expected one of " + ALL_SCENARIOS + "\n"
    )


def test_unknown_builtin_topology_golden_message(capsys):
    status = main(["check", "--builtin", "doesnt-exist"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err == (
        "error: unknown built-in system 'doesnt-exist'; use " + BUILTIN_FORMS + "\n"
    )


def test_unknown_protocol_object_rejected_by_generated_choices(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["simulate", "--object", "registr"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'registr'" in err
    # The choice list is generated from the protocol registry.
    for kind in ("register", "snapshot", "lattice", "consensus", "paxos"):
        assert kind in err


def test_unknown_checker_rejected_by_generated_choices(capsys, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["check", str(tmp_path), "--checker", "wing-gog"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'wing-gog'" in err
    for kind in ("auto", "wing-gong", "dep-graph", "streaming"):
        assert kind in err


def test_unknown_plugin_module_golden_message(capsys):
    status = main(["--plugin", "no_such_plugin_module", "examples"])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.err.startswith(
        "error: plugin 'no_such_plugin_module' failed to import: ModuleNotFoundError:"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--samples", "-3"], "argument --samples: samples must be at least 1"),
        (
            ["sweep", "--probs", "1.5"],
            "argument --probs: probability must be between 0 and 1, got '1.5'",
        ),
        (
            ["sweep", "--probs", "-0.5"],
            "argument --probs: probability must be between 0 and 1, got '-0.5'",
        ),
        (["sweep", "admissibility", "--n", "0"], "argument --n: n must be at least 1"),
        (
            ["sweep", "admissibility", "--patterns", "0"],
            "argument --patterns: patterns must be at least 1",
        ),
        (["simulate", "--ops", "0"], "argument --ops: ops must be at least 1"),
        (["simulate", "--runs", "0"], "argument --runs: runs must be at least 1"),
        (["simulate", "--runs", "-2"], "argument --runs: runs must be at least 1"),
    ],
    ids=[
        "sweep-samples-negative",
        "sweep-probs-above-one",
        "sweep-probs-negative",
        "sweep-n-zero",
        "sweep-patterns-zero",
        "simulate-ops-zero",
        "simulate-runs-zero",
        "simulate-runs-negative",
    ],
)
def test_counts_and_probabilities_are_validated_by_argparse(capsys, argv, message):
    """Impossible counts and probabilities are one-line usage errors (exit 2),
    never a traceback, a vacuous table or a silent single run."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    command = argv[0]
    assert captured.err.endswith("repro {}: error: {}\n".format(command, message))
