"""Differential battery for the symmetry-quotiented discovery path.

``discover_gqs(..., algorithm="quotient")`` prunes the candidate-choice search
to one representative per symmetry class, branching only on candidates that
survive the generators still consistent with the assigned prefix.  Its
contract is exact: on every system — symmetric or not — it must return the
*same verdict and the identical witness* as the full search, never exploring
more nodes.  The battery checks that on the registered symmetric families and
on randomized systems whose pattern families are closed under a randomly
drawn permutation.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import figure1_fail_prone_system, figure1_modified_fail_prone_system
from repro.failures import (
    FailProneSystem,
    SymmetryGroup,
    geo_replicated_system,
    large_threshold_system,
    multi_region_system,
    random_fail_prone_system,
    ring_unidirectional_system,
)
from repro.quorums import DISCOVERY_ALGORITHMS, candidate_pairs, discover_gqs
from repro.types import sorted_processes

#: The registered builders that declare a non-trivial symmetry, with sizes
#: small enough for the naive cross-check yet large enough to have orbits.
SYMMETRIC_FAMILIES = [
    lambda: ring_unidirectional_system(5),
    lambda: ring_unidirectional_system(8),
    lambda: geo_replicated_system(sites=3, replicas_per_site=2),
    lambda: geo_replicated_system(sites=4, replicas_per_site=2),
    lambda: multi_region_system(regions=4, replicas_per_region=3),
    lambda: multi_region_system(regions=3, replicas_per_region=2, epochs=4),
    lambda: large_threshold_system(n=12, max_crashes=3),
    lambda: large_threshold_system(n=26, max_crashes=2, zones=3, catastrophic=True),
]


def _symmetrized_random_system(seed: int) -> FailProneSystem:
    """A random system whose pattern family is closed under a random permutation.

    Draw a base system, draw a permutation of its processes, close the pattern
    family under the permutation's action (the network graph is complete, so
    any process bijection is a graph automorphism) and declare the generated
    group.  A shuffled identity permutation yields a trivial group — those
    cases stay in the battery on purpose, as the degenerate end of the sweep.
    """
    rng = random.Random(seed)
    base = random_fail_prone_system(
        n=rng.choice([4, 5, 6]),
        num_patterns=rng.choice([2, 3, 4]),
        crash_prob=0.25,
        disconnect_prob=0.3,
        seed=seed,
    )
    processes = sorted_processes(base.processes)
    images = list(processes)
    rng.shuffle(images)
    sigma = dict(zip(processes, images))
    closed = []
    for pattern in base.patterns:
        if pattern not in closed:
            closed.append(pattern)
    frontier = list(closed)
    while frontier:
        grown = []
        for pattern in frontier:
            image = SymmetryGroup.image_of_pattern(sigma, pattern)
            if image not in closed:
                closed.append(image)
                grown.append(image)
        frontier = grown
    return FailProneSystem(
        base.processes,
        closed,
        symmetry=SymmetryGroup([sigma], name="applied-{}".format(seed)),
        name="symmetrized-{}".format(seed),
    )


def _battery_systems():
    for build in SYMMETRIC_FAMILIES:
        yield build, build
    for seed in range(36):
        yield (lambda s=seed: _symmetrized_random_system(s),) * 2


def _assert_quotient_matches_full(build_system):
    """Fresh instance per algorithm, so neither feeds off the other's caches."""
    full = discover_gqs(build_system(), validate=False, algorithm="pruned")
    quotient = discover_gqs(build_system(), validate=False, algorithm="quotient")
    assert quotient.algorithm == "quotient"
    assert quotient.exists == full.exists
    assert quotient.nodes_explored <= full.nodes_explored
    if full.exists:
        assert set(quotient.choices) == set(full.choices)
        for pattern, choice in full.choices.items():
            assert quotient.choices[pattern].read_quorum == choice.read_quorum
            assert quotient.choices[pattern].write_quorum == choice.write_quorum
    return full, quotient


def test_quotient_matches_full_on_registered_symmetric_families():
    for build in SYMMETRIC_FAMILIES:
        full, quotient = _assert_quotient_matches_full(build)
        assert full.exists, build().describe()
        assert quotient.pattern_orbits >= 1


def test_quotient_matches_full_on_randomly_symmetrized_systems():
    admitted = 0
    permuted = 0
    for build, _ in _battery_systems():
        full, quotient = _assert_quotient_matches_full(build)
        admitted += int(full.exists)
        permuted += quotient.candidates_permuted
    # The sweep must exercise both verdicts and actually hit the orbit
    # transport path, or it proves nothing about the quotient machinery.
    assert admitted > 0
    assert permuted > 0


def test_quotient_collapses_orbits_on_symmetric_families():
    """At least the ring and multi-region orbits must genuinely collapse."""
    ring = discover_gqs(ring_unidirectional_system(8), validate=False, algorithm="quotient")
    assert ring.pattern_orbits == 1
    assert ring.candidates_permuted > 0
    region = discover_gqs(
        multi_region_system(regions=4, replicas_per_region=3),
        validate=False,
        algorithm="quotient",
    )
    assert region.pattern_orbits == 2  # wan orbit + blackout


def test_quotient_never_explores_more_nodes_than_full_on_plain_random_systems():
    """Without any declared symmetry the quotient path degrades to the full one."""
    for seed in range(20):
        system = random_fail_prone_system(
            n=5, num_patterns=4, crash_prob=0.2, disconnect_prob=0.35, seed=4000 + seed
        )
        full = discover_gqs(system, validate=False, algorithm="pruned")
        fresh = random_fail_prone_system(
            n=5, num_patterns=4, crash_prob=0.2, disconnect_prob=0.35, seed=4000 + seed
        )
        quotient = discover_gqs(fresh, validate=False, algorithm="quotient")
        assert quotient.exists == full.exists
        assert quotient.nodes_explored <= full.nodes_explored
        if full.exists:
            for pattern, choice in full.choices.items():
                assert quotient.choices[pattern].read_quorum == choice.read_quorum
                assert quotient.choices[pattern].write_quorum == choice.write_quorum


def test_quotient_rejects_figure1_modified_like_full():
    """Regression: unit propagation must cross-check same-wave forced patterns.

    On figure1-modified a single decision forces three other patterns to
    singleton candidates in one propagation wave; two of them (f1'->(c,c) and
    f4->(abd,ad)) are mutually incompatible, yet neither ever prunes the
    other's domain because both are assigned before either is popped as a
    source.  Without the explicit assigned-vs-assigned compatibility check
    the quotient search reported a bogus witness here while the full search
    correctly proved non-existence.
    """
    full, quotient = _assert_quotient_matches_full(figure1_modified_fail_prone_system)
    assert not full.exists
    assert not quotient.exists


def test_quotient_works_on_asymmetric_figure1():
    system = figure1_fail_prone_system()
    assert system.symmetry is None
    full = discover_gqs(figure1_fail_prone_system(), validate=False)
    quotient = discover_gqs(system, validate=False, algorithm="quotient")
    assert quotient.exists == full.exists == True  # noqa: E712
    assert quotient.pattern_orbits == len(set(system.patterns))
    assert quotient.candidates_permuted == 0


def test_permuted_candidate_structures_match_direct_enumeration():
    """Orbit-transported candidate caches are byte-equal to direct computation.

    The quotient path computes candidates only for orbit representatives and
    materializes every other pattern's entries by mask permutation; the
    resulting cache must be indistinguishable from the one the plain
    enumeration builds — same pairs, same order.
    """
    quotiented = multi_region_system(regions=5, replicas_per_region=3)
    discover_gqs(quotiented, validate=False, algorithm="quotient")
    direct = multi_region_system(regions=5, replicas_per_region=3)
    for pattern in dict.fromkeys(quotiented.patterns):
        fast = candidate_pairs(quotiented, pattern)  # served from the warm cache
        slow = candidate_pairs(direct, pattern)
        assert [(c.read_quorum, c.write_quorum) for c in fast] == [
            (c.read_quorum, c.write_quorum) for c in slow
        ]


def test_unknown_algorithm_is_rejected():
    with pytest.raises(Exception):
        discover_gqs(figure1_fail_prone_system(), algorithm="magic")


def test_full_alias_is_rejected():
    """``"full"`` was a second name for ``"pruned"``; only one name remains."""
    assert "full" not in DISCOVERY_ALGORITHMS
    with pytest.raises(ValueError):
        discover_gqs(figure1_fail_prone_system(), algorithm="full")
    pruned = discover_gqs(figure1_fail_prone_system(), validate=False)
    assert pruned.algorithm == "pruned"
