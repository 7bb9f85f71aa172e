"""Spans around the package's public functions, recorded from outside.

Each wrapped function is replaced at the name its caller looks it up by
(for example ``receipt_kie.cli.parse_ocr``, not ``receipt_kie.ingest``),
so the program runs unchanged apart from the wrapper call. Spans are kept
in memory and written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter_ns
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: dict[str, Any] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any, Any]] = []

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter_ns(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = perf_counter_ns()
                stack.pop()
            if count is not None:
                count(self.counts, result)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, count: Callable | None = None,
              as_classmethod: bool = False) -> None:
        """Wrap ``owner.attr`` in a span called ``name``; ``count`` gets the
        tracer's counters and the call's result."""
        original = owner.__dict__[attr]
        fn = original.__func__ if as_classmethod else original
        wrapped = self._wrap(name, fn, count)
        self._patches.append((owner, attr, original, classmethod(wrapped) if as_classmethod else wrapped))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def root(self, name: str, fn: Callable, *args):
        """Run ``fn(*args)`` as the top-level span ``name``."""
        return self._wrap(name, fn, None)(*args)

    def take(self) -> tuple[list[list], dict[str, Any]]:
        """Hand over and reset the spans and counters recorded so far."""
        spans, counts = self.spans[:], self.counts
        self.spans.clear()
        self.counts = {}
        return spans, counts


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_totals(spans: list[list]) -> tuple[dict[str, int], dict[str, int], dict[str, int]]:
    """Per span name: total time, self time (both ns) and call count."""
    total: dict[str, int] = {}
    own: dict[str, int] = {}
    calls: dict[str, int] = {}
    for (name, start, end, _), self_ns in zip(spans, self_times(spans)):
        total[name] = total.get(name, 0) + end - start
        own[name] = own.get(name, 0) + self_ns
        calls[name] = calls.get(name, 0) + 1
    return total, own, calls


def write_spans(path, passes: list[list[list]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pass_index, spans in enumerate(passes):
            for index, (name, start, end, parent) in enumerate(spans):
                fh.write(json.dumps({"pass": pass_index, "id": index, "parent": parent,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
