"""Span tracing by rebinding the package's cross-module functions.

Each boundary function is wrapped once, and every module attribute that
holds the original object is pointed at the wrapper, so calls made through
any alias (``solver.available``, ``conflict.build_conflict_graph`` inside
``verify_strong``, ``fileio.read_text`` reached by attribute from ``cli``)
are recorded.  Spans live in flat in-memory arrays and are written out
once, when the run ends.

Every wrapper increments ``<label>.calls``; a hook may add further counts
from the call's result.  Hooks run after the span closes, so their cost is
charged to the caller's self time, never to the traced layer.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter


def _hit(counts, label, result, args):
    counts[f"{label}.hits"] += result is not None


def _entries(counts, label, result, args):
    counts["conflict.entries"] += sum(map(len, result.conflicts))


def _stats(counts, label, result, args):
    for name, value in result[1].as_dict().items():
        counts[f"solver.{name}"] += value


def _bytes_read(counts, label, result, args):
    counts["fileio.bytes_read"] += len(result)  # the formats are ASCII-only JSON


def _bytes_written(counts, label, result, args):
    counts["fileio.bytes_written"] += len(args[1])


# (module, function, layer label, hook): the calls into each layer.
BOUNDARIES = (
    ("graph", "_residual_shortest_cycle", "graph.cycle_search", _hit),
    ("graph", "_descriptor_from_cycle", "graph.descriptor", None),
    ("graph", "components", "graph.components", None),
    ("graph", "subdivide", "graph.subdivide", None),
    ("conflict", "build_conflict_graph", "conflict.build", _entries),
    ("conflict", "available", "conflict.available", None),
    ("conflict", "verify_strong", "conflict.verify_strong", None),
    ("conflict", "verify_incidence", "conflict.verify_incidence", None),
    ("matching", "rainbow_sdr", "matching.sdr", _hit),
    ("solver", "color_strong_23", "solver.self", _stats),
    ("solver", "color_incidence", "solver.transport", None),
    ("solver", "extend_c4", "solver.extend_c4", None),
    ("solver", "extend_c6", "solver.extend_c6", None),
    ("solver", "extend_long_cycle", "solver.extend_long", None),
    ("solver", "precolor_five_path", "solver.five_path", None),
    ("solver", "color_odd_path", "solver.odd_path", None),
    ("fileio", "graph_from_text", "fileio.parse", None),
    ("fileio", "coloring_from_text", "fileio.parse", None),
    ("fileio", "lists_from_text", "fileio.parse", None),
    ("fileio", "graph_to_text", "fileio.serialize", None),
    ("fileio", "coloring_to_text", "fileio.serialize", None),
    ("fileio", "lists_to_text", "fileio.serialize", None),
    ("fileio", "read_text", "fileio.io", _bytes_read),
    ("fileio", "write_text", "fileio.io", _bytes_written),
    ("cli", "main", "cli.self", None),
)


class Tracer:
    """Records nested spans; a span's parent is the span open when it began."""

    def __init__(self):
        self.labels: list = []
        self._label_ids: dict = {}
        self.label = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = defaultdict(int)
        self._patches: list = []

    def label_id(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def begin(self, label_id: int) -> int:
        idx = len(self.start)
        self.label.append(label_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, label: str, fn, hook=None):
        label_id = self.label_id(label)
        counts = self.counts
        calls_key = f"{label}.calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(label_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.finish(idx)
            counts[calls_key] += 1
            if hook is not None:
                hook(counts, label, result, args)
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every boundary and rebind all of its aliases in ``modules``."""
        for module, name, label, hook in BOUNDARIES:
            original = getattr(modules[module], name)
            wrapped = self.wrap(label, original, hook)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def self_times(self) -> dict:
        """Seconds per label, each span's duration minus its children's."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = defaultdict(float)
        labels, label = self.labels, self.label
        for i in range(n):
            out[labels[label[i]]] += end[i] - start[i] - child[i]
        return out

    def write(self, path) -> dict:
        """Dump the spans as four native-endian arrays; returns their layout."""
        with open(path, "wb") as fh:
            for arr in (self.label, self.parent, self.start, self.end):
                arr.tofile(fh)
        return {
            "path": str(path),
            "spans": len(self.start),
            "layout": "label:int32[n] parent:int32[n] start:float64[n] end:float64[n]",
            "labels": self.labels,
        }
