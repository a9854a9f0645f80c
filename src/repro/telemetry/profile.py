"""Opt-in per-task phase profiler for the simulation hot path.

The ROADMAP's vectorization work needs to know *where* a task's wall
time goes — mobility stepping, UDG/beacon rebuild, LDTG construction,
MAC contention, protocol decisions, delivery bookkeeping — not just the
total.  This module provides ``perf_counter_ns`` accumulators that the
engine threads through :class:`~repro.sim.world.World` and its
subsystems.

Two hard requirements shape the design:

- **Zero overhead when off.**  Profiling is enabled by the
  ``REPRO_PROFILE_PHASES`` environment variable (inherited by process
  pool children, like the chaos sleep knob).  When off, every hook
  holds :data:`NULL_PROFILER`, whose ``start``/``add`` are empty-body
  methods — no branches in the hot path, no timestamps taken.
- **Exclusive attribution.**  Phases nest (a protocol decision hands a
  frame to the MAC, whose send path runs inside the decision's call
  frame), so the enabled profiler keeps a stack of child-time
  accumulators and charges each phase only its own time.  Phase totals
  therefore sum to at most the task's wall time instead of
  double-counting nested work.

The snapshot rides on the task's stream record as a ``phase_profile``
field — beside ``wall_time_s``/``cached`` provenance, *not* inside the
metrics payload, so metric streams stay bit-identical with the
profiler on (the equivalence tests pin this).
"""

from __future__ import annotations

import os
import time
from typing import Iterable, Mapping

#: Set (to anything but "" or "0") to profile every task's phases.
PROFILE_ENV = "REPRO_PROFILE_PHASES"

PHASE_MOBILITY = "mobility"
PHASE_UDG = "udg_rebuild"
PHASE_LDT = "ldt"
PHASE_MAC = "mac"
PHASE_PROTOCOL = "protocol"
PHASE_DELIVERY = "delivery"

#: Every phase the hot path instruments, in display order.
PHASES = (
    PHASE_MOBILITY,
    PHASE_UDG,
    PHASE_LDT,
    PHASE_MAC,
    PHASE_PROTOCOL,
    PHASE_DELIVERY,
)


class PhaseProfiler:
    """Accumulates exclusive per-phase nanoseconds.

    Usage at a hook site::

        t0 = profiler.start()
        ...the phase's work...
        profiler.add(PHASE_MAC, t0)

    ``start``/``add`` pairs must bracket properly (they follow the call
    stack, so they do); ``add`` charges the elapsed time minus any time
    already charged to phases that started and finished inside it.
    """

    __slots__ = ("_acc", "_stack")

    #: Class attribute so the null object can override it cheaply.
    enabled = True

    def __init__(self) -> None:
        self._acc: dict[str, int] = {}
        self._stack: list[int] = []

    def start(self) -> int:
        self._stack.append(0)
        return time.perf_counter_ns()

    def add(self, phase: str, t0: int) -> None:
        elapsed = time.perf_counter_ns() - t0
        child_ns = self._stack.pop()
        self._acc[phase] = self._acc.get(phase, 0) + elapsed - child_ns
        if self._stack:
            self._stack[-1] += elapsed

    def snapshot(self) -> dict[str, float]:
        """Accumulated seconds per phase, every phase always present.

        A phase the task never entered reads ``0.0`` rather than being
        absent — the block's key set is schema, not data, so consumers
        (aggregation, the CI phase table) never special-case sparse
        tasks.
        """
        return {
            phase: round(self._acc.get(phase, 0) * 1e-9, 9)
            for phase in PHASES
        }


class _NullProfiler:
    """The do-nothing stand-in every hook holds when profiling is off."""

    __slots__ = ()

    enabled = False

    def start(self) -> int:
        return 0

    def add(self, phase: str, t0: int) -> None:
        pass

    def snapshot(self) -> dict[str, float]:
        return {}


#: The shared no-op instance (stateless, safe to share everywhere).
NULL_PROFILER = _NullProfiler()


def profiling_enabled() -> bool:
    """Whether :data:`PROFILE_ENV` asks for phase profiling."""
    return os.environ.get(PROFILE_ENV, "") not in ("", "0")


def make_profiler() -> PhaseProfiler | _NullProfiler:
    """A live profiler when the environment opts in, else the null one."""
    return PhaseProfiler() if profiling_enabled() else NULL_PROFILER


def aggregate_phase_profiles(
    records: Iterable[Mapping],
) -> dict[tuple[str, str], dict[str, float]]:
    """Sum ``phase_profile`` blocks per (scenario, protocol) cell.

    Input is task stream records (dicts); records without a profile are
    skipped.  Each cell maps phase name to total seconds, plus a
    ``"tasks"`` count of the records that contributed, so callers can
    show means as well as totals.
    """
    cells: dict[tuple[str, str], dict[str, float]] = {}
    for record in records:
        profile = record.get("phase_profile")
        if not profile:
            continue
        cell = cells.setdefault(
            (record["scenario"], record["protocol"]), {"tasks": 0}
        )
        cell["tasks"] += 1
        for phase, seconds in profile.items():
            cell[phase] = round(cell.get(phase, 0.0) + seconds, 9)
    return cells
