"""Neighbour discovery and location diffusion — the IMEP stand-in.

The paper layers GLR over IMEP, whose link/connection status sensing
gives each node a periodically refreshed view of its neighbourhood, with
locations piggybacked in the (modified) IMEP header.  Two consequences
the paper calls out, both preserved here:

- neighbour/location information is only as fresh as the last beacon
  ("the IMEP layer updates neighbor information at specified time
  interval, the location information is not accurate");
- whenever two nodes are in range they exchange timestamped locations,
  which is the transport for **location diffusion** (Section 2.3.1).

Implementation: every ``beacon_interval`` the service snapshots true
node positions, rebuilds the unit-disk graph over that snapshot, and
updates each node's timestamped location table with its in-range
neighbours.  Between beacons all queries answer from the snapshot —
stale by up to one interval, exactly like IMEP.

The service also owns the per-epoch **LDTG cache**: the k-local Delaunay
triangulation over the beacon snapshot, computed lazily on first query
in an epoch.  All nodes acting on the same beacon epoch see mutually
consistent local triangulations, which is what the k-local construction
guarantees when neighbourhood information is synchronized.

Beacon frames themselves are not pushed through the MAC — they are
small, periodic, and identical across compared protocols, so simulating
their airtime would add cost without changing any comparison.  Their
byte volume is still accounted in the metrics as control overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.geometry.primitives import Point
from repro.graphs.ldt import local_delaunay_graph
from repro.graphs.udg import NodeId, SpatialGraph, unit_disk_graph
from repro.mobility.base import MobilityModel
from repro.sim.arraystate import (
    ENGINE_REFERENCE,
    ENGINE_VECTORIZED,
    ArrayState,
    resolve_engine,
)
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.radio import RadioConfig
from repro.telemetry.profile import (
    NULL_PROFILER,
    PHASE_LDT,
    PHASE_MOBILITY,
    PHASE_UDG,
)

#: Approximate bytes of one beacon (IMEP header + location + id).
BEACON_BYTES = 32


@dataclass(frozen=True)
class LocationRecord:
    """A timestamped location belief about some node."""

    position: Point
    timestamp: float


class NeighborService:
    """Beacon-driven neighbourhood, location tables, and LDTG cache."""

    def __init__(
        self,
        sim: Simulator,
        mobility: MobilityModel,
        radio: RadioConfig,
        beacon_interval: float = 1.0,
        ldt_k: int = 2,
        on_control_bytes: Callable[[int], None] | None = None,
        profiler=NULL_PROFILER,
        engine: str | None = None,
    ):
        if beacon_interval <= 0:
            raise ValueError("beacon interval must be positive")
        self._sim = sim
        self._mobility = mobility
        self._radio = radio
        self.beacon_interval = beacon_interval
        self.ldt_k = ldt_k
        self._on_control_bytes = on_control_bytes
        self._profiler = profiler
        # ``None`` falls back to REPRO_ENGINE (then "reference"), so an
        # env-flipped run covers directly constructed worlds too.
        # resolve_engine also checks numpy imports for "vectorized" — a
        # world built on a numpy-less box fails here with the clear
        # engine error instead of an ImportError mid-run.
        self.engine = resolve_engine(engine)

        self.epoch = 0
        self._snapshot: SpatialGraph = SpatialGraph()
        self._array_state: ArrayState | None = None
        self._ldt_cache: SpatialGraph | None = None
        self._location_tables: dict[NodeId, dict[NodeId, LocationRecord]] = {
            node: {} for node in mobility.node_ids
        }
        self._rebuild()  # epoch 0 snapshot at t=0
        self._task = PeriodicTask(
            sim,
            beacon_interval,
            self._on_beacon_tick,
            start_offset=beacon_interval,  # epoch 0 is built above
        )

    # ------------------------------------------------------------------
    # Beacon cycle
    # ------------------------------------------------------------------

    def _on_beacon_tick(self) -> None:
        self.epoch += 1
        self._rebuild()

    def _rebuild(self) -> None:
        now = self._sim.now
        if self.engine == ENGINE_VECTORIZED:
            t0 = self._profiler.start()
            state = ArrayState.from_mobility(self._mobility, now)
            self._profiler.add(PHASE_MOBILITY, t0)
            t0 = self._profiler.start()
            self._array_state = state
            snapshot = state.unit_disk_snapshot(self._radio.range_m)
            self._snapshot = snapshot
            self._ldt_cache = None
            positions = snapshot.positions
            tables = self._location_tables
            ids = snapshot.ids
            # Location diffusion leg 1, driven by the edge-index array
            # so the lazy snapshot's per-node neighbour sets stay
            # unmaterialized until a protocol actually queries them.
            # Same records in the same tables as the reference loop;
            # only dict insertion order differs, and location tables
            # are only ever read by key.
            records = {
                node: LocationRecord(position=positions[node], timestamp=now)
                for node in ids
            }
            for i, j in snapshot.edge_indices.tolist():
                a = ids[i]
                b = ids[j]
                tables[b][a] = records[a]
                tables[a][b] = records[b]
            for node in ids:
                # A node always knows its own current position (GPS).
                tables[node][node] = records[node]
            beacons = len(ids)
        else:
            t0 = self._profiler.start()
            scalar_positions = self._mobility.positions(now)
            self._profiler.add(PHASE_MOBILITY, t0)
            t0 = self._profiler.start()
            self._snapshot = unit_disk_graph(
                scalar_positions, self._radio.range_m
            )
            positions = self._snapshot.positions
            self._ldt_cache = None
            # Location diffusion leg 1: beacon exchange between
            # neighbours.
            beacons = 0
            for node in self._snapshot.nodes():
                record = LocationRecord(
                    position=positions[node], timestamp=now
                )
                table_updates = self._snapshot.neighbors(node)
                beacons += 1
                for nbr in table_updates:
                    self._location_tables[nbr][node] = record
                # A node always knows its own current position (GPS).
                self._location_tables[node][node] = record
        if self._on_control_bytes is not None:
            self._on_control_bytes(beacons * BEACON_BYTES)
        self._profiler.add(PHASE_UDG, t0)

    # ------------------------------------------------------------------
    # Queries (all answer from the latest beacon snapshot)
    # ------------------------------------------------------------------

    def snapshot_graph(self) -> SpatialGraph:
        """The beacon-epoch unit-disk graph."""
        return self._snapshot

    def array_state(self) -> ArrayState | None:
        """The epoch's read-only ``(N, 2)`` position array state.

        ``None`` on the reference engine, which never materializes
        arrays.  The array is write-protected, so stats/analysis code
        can hold views without risking the snapshot.
        """
        return self._array_state

    def neighbors(self, node: NodeId) -> set[NodeId]:
        """One-hop neighbours as of the last beacon."""
        return set(self._snapshot.neighbors(node))

    def neighbor_positions(self, node: NodeId) -> dict[NodeId, Point]:
        """Beaconed positions of the node's one-hop neighbours."""
        return {
            n: self._snapshot.positions[n]
            for n in self._snapshot.neighbors(node)
        }

    def k_hop(self, node: NodeId, k: int) -> set[NodeId]:
        """k-hop neighbourhood (excluding ``node``) from the snapshot."""
        return self._snapshot.k_hop_neighborhood(node, k)

    def beacon_position(self, node: NodeId) -> Point:
        """Position of ``node`` as of the last beacon."""
        return self._snapshot.positions[node]

    def ldt_neighbors(self, node: NodeId) -> set[NodeId]:
        """LDTG neighbours of ``node`` for the current epoch.

        Computed lazily once per epoch for the whole snapshot; every node
        then reads its own adjacency, modelling each node running the
        k-local construction on consistent beacon data.
        """
        if self._ldt_cache is None:
            t0 = self._profiler.start()
            self._ldt_cache = local_delaunay_graph(
                self._snapshot.positions,
                self._radio.range_m,
                k=self.ldt_k,
                udg=self._snapshot,
            )
            self._profiler.add(PHASE_LDT, t0)
        return set(self._ldt_cache.neighbors(node))

    def ldt_graph(self) -> SpatialGraph:
        """Entire cached LDTG for the current epoch (analysis hooks)."""
        if self._ldt_cache is None:
            self.ldt_neighbors(next(iter(self._snapshot.positions)))
        assert self._ldt_cache is not None
        return self._ldt_cache

    # ------------------------------------------------------------------
    # Location tables (diffusion legs 2 and 3 happen in the protocol)
    # ------------------------------------------------------------------

    def location_of(self, owner: NodeId, subject: NodeId) -> LocationRecord | None:
        """``owner``'s current belief about ``subject``'s location."""
        return self._location_tables[owner].get(subject)

    def learn_location(
        self, owner: NodeId, subject: NodeId, record: LocationRecord
    ) -> bool:
        """Install a location belief if it is fresher than the current one.

        Returns True when the table was updated.  This is the primitive
        both diffusion directions use: a data packet carrying a fresher
        destination location teaches the receiving relay, and a relay
        with fresher knowledge refreshes the packet (paper 2.3.1).
        """
        current = self._location_tables[owner].get(subject)
        if current is None or record.timestamp > current.timestamp:
            self._location_tables[owner][subject] = record
            return True
        return False

    def stop(self) -> None:
        """Stop the beacon task (end of simulation)."""
        self._task.stop()
