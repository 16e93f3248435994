"""Reference GQS deciders kept as differential oracles for discovery.

* :func:`discover_gqs_naive` is the original backtracker of
  :mod:`repro.quorums.discovery`.  It re-derives each residual graph, its
  Tarjan SCCs and reader closures with ordinary set operations
  (:func:`candidate_pairs_reference`), and checks a candidate's compatibility
  only against the already-chosen prefix, exploring (and counting) every
  candidate it tries.  It visits patterns and candidates in the production
  order, so it returns the same witness as the pruned search.
* :func:`gqs_exists_bruteforce` enumerates availability-validating
  ``(R, W)`` pairs over *arbitrary subsets* of the process set, independently
  of the SCC characterisation the other deciders rely on.  It is exponential
  in ``n`` and guarded to small systems.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Tuple

from repro.failures import FailProneSystem, FailurePattern
from repro.graph import can_reach, strongly_connected_components
from repro.quorums import (
    CandidateQuorumPair,
    DiscoveryResult,
    GeneralizedQuorumSystem,
    is_f_available,
    is_f_reachable,
)
from repro.quorums.discovery import _candidate_sort_key
from repro.types import ProcessSet, sorted_processes


def candidate_pairs_reference(
    fail_prone: FailProneSystem, pattern: FailurePattern
) -> List[CandidateQuorumPair]:
    """Uncached set-based candidate enumeration (the pre-bitmask pipeline)."""
    residual = pattern.residual_graph(fail_prone.graph_view)
    candidates: List[CandidateQuorumPair] = []
    for component in strongly_connected_components(residual):
        if not component:
            continue
        readers = can_reach(residual, component)
        candidates.append(
            CandidateQuorumPair(pattern=pattern, write_quorum=component, read_quorum=readers)
        )
    candidates.sort(key=_candidate_sort_key)
    return candidates


def _compatible(a: CandidateQuorumPair, b: CandidateQuorumPair) -> bool:
    """Mutual Consistency between the candidates chosen for two patterns."""
    return bool(a.read_quorum & b.write_quorum) and bool(b.read_quorum & a.write_quorum)


def _naive_search(
    per_pattern: Sequence[Sequence[CandidateQuorumPair]], result: DiscoveryResult
) -> Optional[List[CandidateQuorumPair]]:
    """The reference backtracker: pairwise checks against the chosen prefix."""
    order = sorted(range(len(per_pattern)), key=lambda i: len(per_pattern[i]))
    chosen: List[CandidateQuorumPair] = []

    def backtrack(depth: int) -> bool:
        if depth == len(order):
            return True
        for candidate in per_pattern[order[depth]]:
            result.nodes_explored += 1
            if all(_compatible(candidate, prev) for prev in chosen):
                chosen.append(candidate)
                if backtrack(depth + 1):
                    return True
                chosen.pop()
        return False

    return chosen if backtrack(0) else None


def discover_gqs_naive(fail_prone: FailProneSystem, validate: bool = True) -> DiscoveryResult:
    """Reference twin of :func:`repro.quorums.discover_gqs`: same verdict and witness.

    ``nodes_explored`` counts every candidate the backtracker tries, so it
    bounds the pruned search's count from above.
    """
    result = DiscoveryResult(fail_prone=fail_prone, exists=False, algorithm="naive")
    per_pattern = []
    for f in fail_prone.patterns:
        cands = candidate_pairs_reference(fail_prone, f)
        result.candidates_per_pattern[f] = len(cands)
        per_pattern.append(cands)
    if any(not cands for cands in per_pattern):
        return result
    chosen = _naive_search(per_pattern, result)
    if chosen is None:
        return result
    result.exists = True
    result.choices = {c.pattern: c for c in chosen}
    result.quorum_system = GeneralizedQuorumSystem(
        fail_prone,
        [c.read_quorum for c in chosen],
        [c.write_quorum for c in chosen],
        validate=validate,
    )
    return result


def gqs_exists_bruteforce(fail_prone: FailProneSystem, max_processes: int = 5) -> bool:
    """Exponential decision procedure over arbitrary subsets (tiny systems only).

    For every failure pattern all availability-validating ``(R, W)`` pairs over
    arbitrary subsets of the process set are enumerated; the procedure then
    looks for one choice per pattern such that every chosen read quorum
    intersects every chosen write quorum.
    """
    processes = sorted_processes(fail_prone.processes)
    if len(processes) > max_processes:
        raise ValueError(
            "brute-force check limited to {} processes (got {})".format(
                max_processes, len(processes)
            )
        )
    subsets: List[ProcessSet] = []
    for size in range(1, len(processes) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(processes, size))

    per_pattern: List[List[Tuple[ProcessSet, ProcessSet]]] = []
    for f in fail_prone:
        pairs = [
            (r, w)
            for w in subsets
            if is_f_available(fail_prone, f, w)
            for r in subsets
            if is_f_reachable(fail_prone, f, w, r)
        ]
        if not pairs:
            return False
        per_pattern.append(pairs)

    chosen: List[Tuple[ProcessSet, ProcessSet]] = []

    def compatible(a: Tuple[ProcessSet, ProcessSet], b: Tuple[ProcessSet, ProcessSet]) -> bool:
        return bool(a[0] & b[1]) and bool(b[0] & a[1]) and bool(a[0] & a[1]) and bool(b[0] & b[1])

    def backtrack(i: int) -> bool:
        if i == len(per_pattern):
            return True
        for pair in per_pattern[i]:
            if all(compatible(pair, prev) for prev in chosen):
                chosen.append(pair)
                if backtrack(i + 1):
                    return True
                chosen.pop()
        return False

    return backtrack(0)
