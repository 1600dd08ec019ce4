"""In-memory span tracer for the benchmark's traced runs.

A span wraps one call of a public function or method.  Spans of the op in
flight are kept in flat arrays (parent index, name, start, end); when the op
ends they are folded into per-name totals (calls, self time) and, up to a
cap, retained for the span file written once at the end of the run.

Self time of a span is its duration minus the time its child spans cover.
The client is single-threaded and closed-loop, so child spans never overlap
and "covered" is the sum of child durations.
"""

from __future__ import annotations

import functools
import json
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Sequence

ROOT = -1

# The span file keeps at most this many spans, the first of the traced loop
# (a traced loop opens ~10^5 spans at the default sizes), so that memory and
# the file stay bounded on larger inputs.
MAX_KEPT_SPANS = 200_000


def self_times(
    parents: Sequence[int],
    names: Sequence[int],
    starts: Sequence[float],
    ends: Sequence[float],
) -> dict[int, tuple[int, float]]:
    """(calls, total self time) per name id over one span forest.

    Spans are indexed on entry, so a parent precedes its children.
    """
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p != ROOT:
            child[p] += ends[i] - starts[i]
    out: dict[int, tuple[int, float]] = {}
    for i, nid in enumerate(names):
        calls, total = out.get(nid, (0, 0.0))
        out[nid] = (calls + 1, total + (ends[i] - starts[i]) - child[i])
    return out


@dataclass
class Totals:
    """Per-name span totals and return-value counts over a set of ops."""

    ops: int = 0
    calls: Counter = field(default_factory=Counter)
    self_s: Counter = field(default_factory=Counter)
    errors: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._parent = array("i")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [ROOT]
        self.totals = Totals()
        self.kept: dict[str, list] = {k: [] for k in ("op", "parent", "name", "start", "end")}

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_return: Callable[[Counter, tuple, Any], None] | None = None,
    ) -> Callable:
        """`fn` wrapped in a span named `name`; `on_return(counts, args,
        result)` adds counts read from the public return value."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        parent, names, start, end, stack = (
            self._parent, self._name, self._start, self._end, self._stack
        )
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.totals.errors[name] += 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(tracer.totals.counts, args, result)
            return result

        return traced

    def fold(self, keep: bool) -> None:
        """Close the current op: add its spans to the totals and, with
        `keep`, to the spans written at the end."""
        totals = self.totals
        for nid, (calls, own) in self_times(
            self._parent, self._name, self._start, self._end
        ).items():
            totals.calls[self.names[nid]] += calls
            totals.self_s[self.names[nid]] += own
        room = MAX_KEPT_SPANS - len(self.kept["start"])
        if keep and room > 0:
            base = len(self.kept["start"])
            n = min(room, len(self._start))
            self.kept["op"].extend([totals.ops] * n)
            self.kept["parent"].extend(
                p if p == ROOT else p + base for p in self._parent[:n]
            )
            self.kept["name"].extend(self._name[:n])
            self.kept["start"].extend(self._start[:n])
            self.kept["end"].extend(self._end[:n])
        totals.ops += 1
        for buf in (self._parent, self._name, self._start, self._end):
            del buf[:]

    def take(self) -> Totals:
        """Return the totals so far and start new ones."""
        totals, self.totals = self.totals, Totals()
        return totals

    def write(self, path: Path) -> None:
        doc = {"names": self.names, "root": ROOT, **self.kept}
        path.write_text(json.dumps(doc, separators=(",", ":")))
