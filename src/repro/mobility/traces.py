"""Movement traces: ns-2 ``setdest`` format and trace-driven replay.

The original evaluation ran on NS-2 movement scenario files.  This
module round-trips that format so that (a) trajectories generated here
can be exported for inspection and (b) externally generated ns-2
scenarios can drive this simulator directly.

Supported statements::

    $node_(3) set X_ 150.0
    $node_(3) set Y_ 93.0
    $ns_ at 10.0 "$node_(3) setdest 250.0 100.0 5.0"

Everything else (comments, ``set Z_``, blank lines) is ignored.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import re
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId
from repro.mobility.base import Region
from repro.mobility.legs import Leg, LegMobility

_RE_INITIAL = re.compile(
    r"\$node_\((?P<node>\d+)\)\s+set\s+(?P<axis>[XY])_\s+(?P<value>[-\d.eE+]+)"
)
_RE_SETDEST = re.compile(
    r"\$ns_\s+at\s+(?P<time>[-\d.eE+]+)\s+\"\$node_\((?P<node>\d+)\)\s+"
    r"setdest\s+(?P<x>[-\d.eE+]+)\s+(?P<y>[-\d.eE+]+)\s+(?P<speed>[-\d.eE+]+)\""
)


@dataclass
class NodeTrace:
    """Initial position plus timed ``setdest`` commands for one node."""

    initial: Point
    commands: list[tuple[float, Point, float]] = field(default_factory=list)

    def to_legs(self) -> list[Leg]:
        """Compile commands into trajectory legs.

        ns-2 semantics: a ``setdest`` issued mid-leg interrupts it — the
        node turns from wherever it currently is.  Commands are processed
        in time order.
        """
        legs: list[Leg] = [Leg(0.0, 0.0, self.initial, self.initial)]
        for at, dest, speed in sorted(self.commands, key=lambda c: c[0]):
            current = _position_on_legs(legs, at)
            last = legs[-1]
            if at < last.t_end:
                # Truncate the interrupted leg at the command time.
                legs[-1] = Leg(last.t_start, at, last.p_start, current)
            elif at > last.t_end:
                legs.append(Leg(last.t_end, at, last.p_end, last.p_end))
            if speed <= 0:
                continue
            travel = current.distance_to(dest) / speed
            legs.append(Leg(at, at + travel, current, dest))
        return legs


def _position_on_legs(legs: Sequence[Leg], t: float) -> Point:
    ends = [leg.t_end for leg in legs]
    index = bisect.bisect_left(ends, t)
    index = min(index, len(legs) - 1)
    return legs[index].position_at(t)


class TraceMobility(LegMobility):
    """Replay trajectories compiled from :class:`NodeTrace` records.

    Trajectories are finite: past the last command a node holds its
    final position forever (``_advance`` never extends).  Every leg
    endpoint must lie inside ``region`` (legs are straight, so the
    whole trajectory then does too) — a trace generated for a different
    field size fails loudly instead of silently breaking the
    stays-inside-the-region invariant every model guarantees.
    """

    #: Tolerance for endpoints sitting on the region border (the ns-2
    #: export rounds coordinates to 6 decimals).
    BORDER_TOL = 1e-6

    def __init__(self, region: Region, traces: Mapping[NodeId, NodeTrace]):
        super().__init__(list(traces), region)
        for node, trace in traces.items():
            legs = trace.to_legs()
            for leg in legs:
                for p in (leg.p_start, leg.p_end):
                    if not region.contains(p, tol=self.BORDER_TOL):
                        raise ValueError(
                            f"trace for node {node!r} leaves the "
                            f"{region.width:g}x{region.height:g} region "
                            f"at {p} (t={leg.t_start:g})"
                        )
            self._preload_legs(node, legs)


def parse_ns2_trace(path: str | Path) -> dict[NodeId, NodeTrace]:
    """Parse an ns-2 movement scenario file into per-node trace records."""
    traces: dict[NodeId, NodeTrace] = {}
    initial_coords: dict[int, dict[str, float]] = {}
    commands: dict[int, list[tuple[float, Point, float]]] = {}

    text = Path(path).read_text()
    for line in text.splitlines():
        m = _RE_INITIAL.search(line)
        if m:
            node = int(m.group("node"))
            initial_coords.setdefault(node, {})[m.group("axis")] = float(
                m.group("value")
            )
            continue
        m = _RE_SETDEST.search(line)
        if m:
            node = int(m.group("node"))
            commands.setdefault(node, []).append(
                (
                    float(m.group("time")),
                    Point(float(m.group("x")), float(m.group("y"))),
                    float(m.group("speed")),
                )
            )

    for node, coords in initial_coords.items():
        if "X" not in coords or "Y" not in coords:
            raise ValueError(f"node {node} is missing an initial coordinate")
        traces[node] = NodeTrace(
            initial=Point(coords["X"], coords["Y"]),
            commands=commands.get(node, []),
        )
    for node in commands:
        if node not in traces:
            raise ValueError(
                f"node {node} has setdest commands but no initial position"
            )
    return traces


@lru_cache(maxsize=256)
def _digest_for_stat(path: str, size: int, mtime_ns: int) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def trace_file_digest(path: str | Path) -> str:
    """SHA-256 of a trace file's *content* (hex).

    Campaign task keys cover trace-driven scenarios by this digest
    rather than the path string, so editing a trace in place re-keys
    its simulations while renaming or copying an identical file keeps
    their keys.  Digests are memoised per
    ``(path, size, mtime)`` so a sweep with thousands of tasks sharing
    one trace hashes it once.
    """
    stat = os.stat(path)
    return _digest_for_stat(str(path), stat.st_size, stat.st_mtime_ns)


def load_ns2_trace(path: str | Path, region: Region) -> TraceMobility:
    """Parse an ns-2 movement scenario file into a mobility model."""
    return TraceMobility(region, parse_ns2_trace(path))


def save_ns2_trace(
    model: LegMobility,
    path: str | Path,
    until: float,
    node_order: Iterable[NodeId] | None = None,
) -> None:
    """Export any leg-based mobility model as an ns-2 movement scenario.

    Works for every model built on :class:`~repro.mobility.legs
    .LegMobility` (random waypoint, random walk, Gauss–Markov,
    Manhattan grid, trace replay).  Nodes are numbered 0..n-1 in
    ``node_order`` (default: model order).
    """
    order = list(node_order) if node_order is not None else model.node_ids
    lines: list[str] = [
        "# ns-2 movement trace exported by repro.mobility.traces",
        f"# horizon: {until} s",
    ]
    for index, node in enumerate(order):
        legs = model.waypoints_until(node, until)
        start = legs[0].p_start
        lines.append(f"$node_({index}) set X_ {start.x:.6f}")
        lines.append(f"$node_({index}) set Y_ {start.y:.6f}")
        lines.append(f"$node_({index}) set Z_ 0.000000")
        for leg in legs:
            if leg.t_end <= leg.t_start:
                continue  # pauses and the seed leg carry no setdest
            duration = leg.t_end - leg.t_start
            dist = leg.p_start.distance_to(leg.p_end)
            if dist == 0.0:
                continue
            speed = dist / duration
            lines.append(
                f'$ns_ at {leg.t_start:.6f} "$node_({index}) setdest '
                f'{leg.p_end.x:.6f} {leg.p_end.y:.6f} {speed:.6f}"'
            )
    Path(path).write_text("\n".join(lines) + "\n")
