"""Spans recorded from outside the program, around calls into its layers.

A :class:`Tracer` replaces a function of ``repro`` — every module attribute
and registry hook that holds it, or a class attribute for a method — with a
wrapper that records one span per call: name, start, end and the index of
the enclosing span.  Spans stay in memory until :meth:`Tracer.write`.
``restore`` puts every original back.  Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from measure import self_times

#: ``before(args, kwargs) -> token`` runs before the call; ``after(tracer,
#: args, kwargs, result, token)`` after it, outside the span.
Before = Callable[[tuple, dict], Any]
After = Callable[["Tracer", tuple, dict, Any, Any], None]


class Tracer:
    """In-memory span and counter recorder for one traced pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, Any, Any, bool]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(
        self,
        function: Callable,
        name: str,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> Callable:
        """``function`` with a span named ``name`` around every call."""
        opened, closed = self._open, self._close

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            index = opened(name)
            try:
                result = function(*args, **kwargs)
            finally:
                closed(index)
            if after is not None:
                after(self, args, kwargs, result, token)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def patch_function(self, function: Callable, name: str, **hooks) -> None:
        """Replace ``function`` in every ``repro`` module and registry hook holding it."""
        wrapper = self.wrap(function, name, **hooks)
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, function, True))
                    replaced += 1
        for extras in _registry_extras():
            for key, value in list(extras.items()):
                if value is function:
                    extras[key] = wrapper
                    self._undo.append((extras, key, function, False))
                    replaced += 1
        if not replaced:
            raise RuntimeError("nothing in repro holds {!r}".format(function))

    def patch_method(self, cls: type, attr: str, name: str, **hooks) -> None:
        """Replace method ``cls.attr`` (defined on ``cls`` itself) with a traced one."""
        self.patch_attribute(cls, attr, self.wrap(cls.__dict__[attr], name, **hooks))

    def patch_attribute(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._undo.append((owner, attr, getattr(owner, attr), True))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._undo:
            owner, key, original, is_attr = self._undo.pop()
            if is_attr:
                setattr(owner, key, original)
            else:
                owner[key] = original

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def self_times(self) -> List[float]:
        return self_times(self.starts, self.ends, self.parents)

    def write(self, path: str) -> None:
        """Write every span as ``index name start end parent`` lines (gzip, TSV)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("index\tname\tstart\tend\tparent\n")
            for index, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                handle.write("{}\t{}\t{:.9f}\t{:.9f}\t{}\n".format(index, name, start, end, parent))


def _registry_extras() -> List[dict]:
    """The ``extras`` dicts of every registered descriptor (hooks such as judges)."""
    registry = sys.modules.get("repro.registry")
    if registry is None:
        return []
    found = []
    for value in vars(registry).values():
        descriptors = getattr(value, "descriptors", None)
        if callable(descriptors) and not isinstance(value, type):
            found.extend(descriptor.extras for descriptor in descriptors())
    return found


def layer_sum(
    names: List[str],
    selfs: List[float],
    parents: List[int],
    wanted: Tuple[str, ...],
    under: Optional[str] = None,
    not_under: Optional[str] = None,
) -> float:
    """Summed self time of spans named in ``wanted``, optionally filtered by parent name."""
    total = 0.0
    for index, name in enumerate(names):
        if name not in wanted:
            continue
        parent = parents[index]
        parent_name = names[parent] if parent >= 0 else None
        if under is not None and parent_name != under:
            continue
        if not_under is not None and parent_name == not_under:
            continue
        total += selfs[index]
    return total


def total_duration(names: List[str], starts: List[float], ends: List[float], wanted: str) -> float:
    """Summed inclusive duration of spans named ``wanted``."""
    return sum(e - s for n, s, e in zip(names, starts, ends) if n == wanted)
