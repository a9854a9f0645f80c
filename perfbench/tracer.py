"""In-memory span tracer and attribute patcher for the benchmark.

Spans are recorded from outside the program: :class:`Patcher` swaps a
module or class attribute for a wrapper made by :meth:`Tracer.wrap`, so
the program's own code is never edited.  Each span has a layer name,
start and end (``perf_counter_ns``), the index of its parent span and a
request id (the benchmark's simulated-second slice index).  A layer's
self time is its span duration minus the time covered by its child
spans, so the self times of all layers add up exactly to the duration
of the root spans.

A call into a layer from inside the same layer (``positions`` calling
``position``) does not open a new span: ``calls`` counts entries into a
layer from another layer.  Time the benchmark spends inside a span on
its own work (speed probes) is recorded as a child span of layer
:data:`EXCLUDED` and left out of the traced run time.

Spans are kept in compact arrays while the run is measured and written
out once at the end by :meth:`Tracer.dump`; :func:`load_spans` reads
such a file back.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable

_MISSING = object()

#: Layer of the spans the benchmark records for its own work.
EXCLUDED = "benchmark"


class Tracer:
    """Span recorder with per-layer self time, call counts and counters."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.starts = array("q")
        self.ends = array("q")
        self.layer_of = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.self_ns: list[int] = []
        self.calls: list[int] = []
        self.counts: Counter = Counter()
        #: Request id stamped on every span opened from now on.
        self.request = -1
        self._stack: list[list[int]] = []

    def layer_id(self, layer: str) -> int:
        """The dense id of ``layer``, registering it on first use."""
        lid = self._layer_ids.get(layer)
        if lid is None:
            lid = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_ns.append(0)
            self.calls.append(0)
        return lid

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that each call from another layer is a span."""
        lid = self.layer_id(layer)
        stack = self._stack
        clock = time.perf_counter_ns
        starts, ends = self.starts, self.ends
        layer_of, parents, requests = self.layer_of, self.parents, self.requests
        self_ns, calls = self.self_ns, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == lid:
                return fn(*args, **kwargs)
            index = len(starts)
            parents.append(stack[-1][0] if stack else -1)
            layer_of.append(lid)
            requests.append(self.request)
            ends.append(0)
            frame = [index, lid, 0, 0]
            stack.append(frame)
            frame[2] = t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                ends[index] = t1
                self_ns[lid] += duration - frame[3]
                calls[lid] += 1
                if stack:
                    stack[-1][3] += duration

        return traced

    def counted(self, counter: str, fn: Callable, weight=None) -> Callable:
        """``fn`` wrapped to add 1 (or ``weight(*args)``) to ``counter``."""
        counts = self.counts

        if weight is None:

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                counts[counter] += 1
                return fn(*args, **kwargs)

        else:

            @functools.wraps(fn)
            def counting(*args, **kwargs):
                counts[counter] += weight(*args, **kwargs)
                return fn(*args, **kwargs)

        return counting

    def exclude(self, start_ns: int, end_ns: int) -> None:
        """Record time the benchmark itself spent inside the open span.

        It becomes a child span of layer :data:`EXCLUDED`, so no program
        layer is charged for it, and :meth:`traced_ns` leaves it out.
        """
        if not self._stack:
            return
        lid = self.layer_id(EXCLUDED)
        parent = self._stack[-1]
        self.starts.append(start_ns)
        self.ends.append(end_ns)
        self.layer_of.append(lid)
        self.parents.append(parent[0])
        self.requests.append(self.request)
        self.self_ns[lid] += end_ns - start_ns
        self.calls[lid] += 1
        parent[3] += end_ns - start_ns

    def self_s(self, layer: str) -> float:
        """Seconds of self time charged to ``layer`` (0 if never entered)."""
        lid = self._layer_ids.get(layer)
        return 0.0 if lid is None else self.self_ns[lid] / 1e9

    def calls_of(self, layer: str) -> int:
        """Spans opened for ``layer``."""
        lid = self._layer_ids.get(layer)
        return 0 if lid is None else self.calls[lid]

    def self_total_ns(self) -> int:
        """Self time summed over every program layer."""
        return sum(self.self_ns) - self._excluded_ns()

    def traced_ns(self) -> int:
        """Root span durations less excluded time: the traced run time."""
        roots = sum(
            self.ends[i] - self.starts[i]
            for i in range(len(self.starts))
            if self.parents[i] == -1
        )
        return roots - self._excluded_ns()

    def _excluded_ns(self) -> int:
        lid = self._layer_ids.get(EXCLUDED)
        return 0 if lid is None else self.self_ns[lid]

    @property
    def span_count(self) -> int:
        """Spans recorded so far."""
        return len(self.starts)

    def dump(self, path: str | Path) -> Path:
        """Write every span to ``path``: one JSON header line, then arrays.

        The header names the layers and gives the span count; the
        arrays follow as raw native-endian bytes in the order
        starts, ends, layer, parent, request.
        """
        if self._stack:
            raise RuntimeError("cannot dump spans while a span is open")
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "format": 1,
            "layers": self.layers,
            "spans": len(self.starts),
            "arrays": [
                ["start_ns", "q"],
                ["end_ns", "q"],
                ["layer", "i"],
                ["parent", "i"],
                ["request", "i"],
            ],
        }
        with open(target, "wb") as handle:
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for values in (
                self.starts,
                self.ends,
                self.layer_of,
                self.parents,
                self.requests,
            ):
                values.tofile(handle)
        return target


def load_spans(path: str | Path) -> dict:
    """Read a :meth:`Tracer.dump` file: ``{"layers": [...], <array>: array}``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        out = {"layers": header["layers"]}
        for name, code in header["arrays"]:
            values = array(code)
            values.fromfile(handle, header["spans"])
            out[name] = values
    return out


def self_times_from_spans(spans: dict) -> dict[str, float]:
    """Per-layer self seconds recomputed from a loaded span file."""
    count = len(spans["start_ns"])
    child = [0] * count
    for i in range(count):
        parent = spans["parent"][i]
        if parent >= 0:
            child[parent] += spans["end_ns"][i] - spans["start_ns"][i]
    totals: dict[str, float] = {}
    for i in range(count):
        layer = spans["layers"][spans["layer"][i]]
        own = spans["end_ns"][i] - spans["start_ns"][i] - child[i]
        totals[layer] = totals.get(layer, 0.0) + own / 1e9
    return totals


class Patcher:
    """Replace attributes and put every original back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        """``setattr(owner, name, value)``, remembering what was there."""
        self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
        setattr(owner, name, value)

    def wrap(self, owner: object, name: str, make: Callable) -> None:
        """Replace ``owner.name`` by ``make(owner.name)``."""
        self.set(owner, name, make(getattr(owner, name)))

    def patched(self) -> list[tuple[object, str]]:
        """Every ``(owner, name)`` replaced so far, oldest first."""
        return [(owner, name) for owner, name, _ in self._saved]

    def restore(self) -> None:
        """Undo every :meth:`set`, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
