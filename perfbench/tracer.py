"""Outside-in span tracer for the orthoscore package.

The tracer times calls into the package from outside it: on entry it
wraps each probed function and rebinds the wrapper in every
``orthoscore`` module namespace that holds the original, because the
package imports functions by name across modules (``late`` holds its
own ``fit_mlp``, ``diagnostics`` its own ``gen_dataset`` and six
modules their own ``derive_seed``).  A method is rebound on its class.
On exit every binding is restored.  Nothing under ``src/`` changes.

Spans stay in memory; ``summarize`` folds them into per-name totals
and ``write_spans`` writes them out once the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

PACKAGE = "orthoscore"


@dataclass(frozen=True)
class Probe:
    """One package function to trace, named ``<module>.<qualname>``.

    ``suffix(args, kwargs)`` splits the span name by an argument (for
    example the check target); ``count(args, kwargs, result)`` returns
    counters recorded on the span after a successful call.
    """

    module: str
    qualname: str
    suffix: Callable | None = None
    count: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.qualname}"

    def locate(self):
        """(owner, attribute) that holds the original object."""
        owner = importlib.import_module(f"{PACKAGE}.{self.module}")
        *path, attr = self.qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int            # index of the enclosing span, -1 at top level
    counters: dict


def package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Context manager: probes are live inside ``with tracer:`` only.

    One tracer may be entered many times; spans accumulate across
    entries.  Calls run in one thread, so spans nest strictly.
    """

    def __init__(self, probes):
        self.probes = tuple(probes)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = package_modules()
        for probe in self.probes:
            owner, attr = probe.locate()
            original = getattr(owner, attr)
            wrapper = self._wrap(probe, original)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, name, original, wrapper)
        return self

    def __exit__(self, *exc) -> bool:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        return False

    def _rebind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def _wrap(self, probe: Probe, fn):
        spans, stack = self.spans, self._stack
        base = probe.name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = base if probe.suffix is None else f"{base}.{probe.suffix(args, kwargs)}"
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                counters = ({} if probe.count is None or result is None
                            else probe.count(args, kwargs, result))
                spans[index] = Span(name, start, end, parent, counters)

        return traced


def summarize(spans) -> dict[str, Counter]:
    """Per span name: calls, busy_s, self_s and the summed counters.

    busy_s is the summed span duration; self_s subtracts the time
    covered by each span's direct children.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    totals: dict[str, Counter] = {}
    for index, span in enumerate(spans):
        entry = totals.setdefault(span.name, Counter())
        duration = span.end - span.start
        entry["calls"] += 1
        entry["busy_s"] += duration
        entry["self_s"] += duration - child[index]
        entry.update(span.counters)
    return totals


def write_spans(spans, path) -> None:
    """One JSON array per line: name, start, end, parent, counters."""
    with open(path, "w", encoding="utf-8") as out:
        for span in spans:
            out.write(json.dumps([span.name, span.start, span.end,
                                  span.parent, span.counters]) + "\n")
