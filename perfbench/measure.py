"""The benchmark's own arithmetic: medians, tail percentiles, self time,
failure counting and resource usage.

Nothing here imports ``repro``; the tests in ``test_perfbench.py`` pin it.
"""

from __future__ import annotations

import math
import resource
from statistics import median
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Percentiles considered for a tail figure, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile before it is reported.
SAMPLES_BEYOND = 10


def _rank(percentile: float, n: int) -> int:
    """1-based nearest rank ceil(p/100 * n); rounded first so 99.9% of 10000 is 9990."""
    return max(1, math.ceil(round(percentile * n / 100.0, 9)))


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of ``values``."""
    ordered = sorted(values)
    return ordered[_rank(percentile, len(ordered)) - 1]


@dataclass(frozen=True)
class Tail:
    """The highest percentile that has at least :data:`SAMPLES_BEYOND` samples beyond it."""

    percentile: float
    value: float
    samples: int


def tail(values: Sequence[float]) -> Optional[Tail]:
    """Pick the highest percentile of :data:`TAIL_PERCENTILES` with enough samples beyond it.

    A sample lies beyond percentile ``p`` when its rank exceeds the nearest
    rank of ``p``; ``None`` when even the median has fewer than
    :data:`SAMPLES_BEYOND` samples beyond it.
    """
    n = len(values)
    chosen = None
    for percentile in TAIL_PERCENTILES:
        if n - _rank(percentile, n) >= SAMPLES_BEYOND:
            chosen = percentile
    if chosen is None:
        return None
    return Tail(chosen, nearest_rank(values, chosen), n)


def describe_timing(values: Sequence[float], scale: float = 1.0, unit: str = "s") -> str:
    """``median X unit, pNN Y unit (n=N)`` — the tail part only when one qualifies."""
    text = "median {:.4f} {} (n={})".format(median(values) * scale, unit, len(values))
    found = tail(values)
    if found is not None and found.percentile > 50.0:
        text += ", p{:g} {:.4f} {}".format(found.percentile, found.value * scale, unit)
    return text


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #
def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the part of it that its child spans cover.

    ``parents[i]`` is the index of span ``i``'s parent, or ``-1`` for a root.
    Child intervals are clipped to the parent's interval and merged, so
    overlapping children are not subtracted twice.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for index, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[index], ends[index]))
    result = []
    for index, (start, end) in enumerate(zip(starts, ends)):
        kids = children.get(index)
        covered = 0.0
        if kids:
            covered = _covered(
                [(max(s, start), min(e, end)) for s, e in kids if min(e, end) > max(s, start)]
            )
        result.append((end - start) - covered)
    return result


# ---------------------------------------------------------------------- #
# Operations and resources
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """Operations attempted and failed, as the workload's output checks define them."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def ok_frac(self) -> float:
        return 1.0 - self.fail_frac


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def own_peak_rss_kib() -> int:
    """Peak RSS of this process since it started, in KiB.

    ``VmHWM`` belongs to the process's own address space.  ``ru_maxrss`` is
    not used for this process: Linux carries it across ``fork``+``exec``, so
    it would report the launching process's size when that was larger.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for child, in MB.

    ``RUSAGE_CHILDREN`` reports the largest descendant that has been reaped
    (in KiB on Linux), which covers pool workers once the pool has been
    joined.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_peak_rss_kib(), children) / 1024.0
