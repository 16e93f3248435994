"""Byte-identity of CLI output across the facade/registry redesign.

The golden files under ``tests/golden/`` were captured from the CLI *before*
:mod:`repro.api` and :mod:`repro.registry` existed; these tests pin the
redesigned CLI to the exact same bytes, so the refactor (and any future one)
cannot silently change user-visible output of the existing commands.
"""

import json
import os

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _golden(name):
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as handle:
        return handle.read()


def test_scenario_list_markdown_is_byte_identical(capsys):
    assert main(["scenario", "list", "--format", "markdown"]) == 0
    assert capsys.readouterr().out == _golden("scenario_list_markdown.txt")


def test_scenario_run_with_jobs_is_byte_identical(capsys):
    argv = ["scenario", "run", "unidirectional-ring", "--runs", "2", "--seed", "7", "--jobs", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == _golden("scenario_run_ring.txt")


def test_quorums_discover_json_is_byte_identical(capsys):
    assert main(["quorums", "discover", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == _golden("quorums_discover_figure1.json")
    json.loads(out)  # and it stays well-formed JSON


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_table_and_json_match_goldens_recorded_with_two_engines(capsys, jobs):
    """`repro sweep` bytes, recorded while the set-based engine was still
    selectable (both engines produced them), at every job count."""
    argv = ["sweep", "--seed", "7", "--samples", "8", "--probs", "0.0", "0.3", "--jobs", jobs]
    assert main(argv) == 0
    assert capsys.readouterr().out == _golden("sweep_seed7_samples8.txt")
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == _golden("sweep_seed7_samples8.json")
