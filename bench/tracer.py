"""Spans around the calls into each layer of `carefulsynth`, recorded from
outside the package.

The tracer replaces a function under the name its consumer looks it up by
(for example `synthesis.find_witness_lasso`, which `solve` calls as a module
global) with a wrapper that records one span per call: name, start, end,
parent span and instance id, plus a size measured at the same boundary.
Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    instance: str
    size: Optional[float]  # a count measured at this boundary, if any


# wrapped name (consumer module . attribute) -> size probe on (args, result)
WRAPPED: dict[str, Callable[[tuple, Any], Optional[float]]] = {
    "cli.parse_arena": lambda args, r: None,
    "cli.unfold": lambda args, r: len(r.states),
    "cli._saturation_caveat": lambda args, r: None,
    "synthesis.solve": lambda args, r: None,
    "synthesis.unfold": lambda args, r: len(r.states),
    "synthesis.punish_region": lambda args, r: len(r.win),
    "synthesis.find_witness_lasso": lambda args, r: float(r is not None),
    "synthesis.strongly_connected_components": lambda args, r: len(args[0]),
    "synthesis.shortest_path": lambda args, r: None,
    "synthesis.check_certificate": lambda args, r: len(r),
    "zerosum.solve_parity": lambda args, r: len(args[0].states),
    "ltl.to_nba": lambda args, r: r.n_states,
    "reduction.build_game": lambda args, r: len(r.states),
}


class Tracer:
    """Records spans for the wrapped names while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance = ""
        self._open: list[tuple[int, int, float]] = []  # (index, parent, start)
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self, modules: dict[str, Any]) -> None:
        """Wrap every name in WRAPPED; `modules` maps the short module name
        (`cli`, `synthesis`, ...) to the imported module."""
        for name, probe in WRAPPED.items():
            mod_name, attr = name.split(".", 1)
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, probe))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, name, fn, probe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin()
            size = None
            try:
                result = fn(*args, **kwargs)
                size = probe(args, result)
                return result
            finally:
                self.end(name, size)

        return wrapper

    def begin(self) -> int:
        """Open a span and return its index; the matching `end` closes it."""
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self._open.append((index, parent, time.perf_counter()))
        self.spans.append(None)
        return index

    def end(self, name: str, size: Optional[float] = None) -> None:
        index, parent, start = self._open.pop()
        self.spans[index] = Span(name, start, time.perf_counter(), parent, self.instance, size)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump([s._asdict() for s in self.spans], f)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.
    Calls are sequential in one thread, so children never overlap."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def ancestors(spans: list[Span], index: int):
    parent = spans[index].parent
    while parent >= 0:
        yield spans[parent].name
        parent = spans[parent].parent
