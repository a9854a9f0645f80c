"""Metrics collection.

Collects exactly the quantities the paper's evaluation reports:

- **delivery ratio** — delivered / generated (Sections 3.5, 3.6);
- **average delivery latency** — creation to *first* arrival at the
  destination (Sections 3.2–3.4);
- **average hop count** — link transmissions of the first-delivered copy
  (Section 3.8);
- **storage** — per-node peak occupancy, reported as the max and the
  mean across nodes (Tables 2, 4, 5), plus time-averaged occupancy;
- MAC/control diagnostics (frames, drops, collisions, control bytes)
  used by Figure 3's control-overhead trade-off discussion.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional

from repro.graphs.udg import NodeId
from repro.sim.messages import Message
from repro.telemetry.profile import NULL_PROFILER, PHASE_DELIVERY


@dataclass
class SimulationMetrics:
    """Frozen summary of one simulation run."""

    protocol: str
    duration: float
    messages_created: int
    messages_delivered: int
    delivery_ratio: float
    average_latency: Optional[float]
    average_hops: Optional[float]
    max_peak_storage: int
    average_peak_storage: float
    time_average_storage: float
    frames_sent: int
    frames_delivered: int
    frames_lost_collision: int
    frames_lost_range: int
    frames_dropped_queue: int
    retries: int
    data_bytes_sent: int
    control_bytes_sent: int
    events_processed: int
    per_node_peak_storage: dict[NodeId, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    hop_counts: list[int] = field(default_factory=list)

    def to_json(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_json`).

        Round-trips exactly: Python's JSON encoder emits ``repr``-exact
        floats, so ``from_json(json.loads(json.dumps(m.to_json())))``
        equals ``m`` bit-for-bit — the property the JSONL metrics
        stream relies on.
        """
        return dataclasses.asdict(self)

    @classmethod
    def from_json(cls, data: object) -> "SimulationMetrics":
        """Rebuild metrics from :meth:`to_json` output, strictly.

        Raises :class:`ValueError` when fields are missing, extra, or
        of the wrong shape, so stream consumers never silently
        trust a truncated or tampered payload.
        """
        field_names = {f.name for f in dataclasses.fields(cls)}
        if not isinstance(data, dict) or set(data) != field_names:
            raise ValueError("metrics payload has wrong field set")
        data = dict(data)
        peaks = data.get("per_node_peak_storage")
        latencies = data.get("latencies")
        hops = data.get("hop_counts")
        if not isinstance(peaks, dict):
            raise ValueError("per_node_peak_storage must be a mapping")
        if not isinstance(latencies, list) or not isinstance(hops, list):
            raise ValueError("latencies/hop_counts must be lists")
        try:
            # JSON object keys are strings; node ids are ints.
            data["per_node_peak_storage"] = {
                int(k): int(v) for k, v in peaks.items()
            }
            data["latencies"] = [float(v) for v in latencies]
            data["hop_counts"] = [int(v) for v in hops]
            metrics = cls(**data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad metrics payload: {exc}") from exc
        if not isinstance(metrics.messages_created, int):
            raise ValueError("messages_created must be an int")
        if not isinstance(metrics.delivery_ratio, (int, float)):
            raise ValueError("delivery_ratio must be a number")
        return metrics


class MetricsCollector:
    """Accumulates observations during a run and snapshots them after."""

    def __init__(self, profiler=NULL_PROFILER) -> None:
        self._created: dict[int, Message] = {}
        self._delivered: dict[int, tuple[float, int]] = {}
        self.control_bytes = 0
        self._storage_peaks: dict[NodeId, int] = {}
        self._storage_time_avg: dict[NodeId, float] = {}
        self._profiler = profiler

    # -- message lifecycle --------------------------------------------

    def on_created(self, message: Message) -> None:
        """Record a generated message."""
        self._created[message.uid] = message

    def on_delivered(self, message: Message, now: float, hops: int) -> None:
        """Record a delivery; only the first arrival of a message counts."""
        t0 = self._profiler.start()
        try:
            if message.uid in self._delivered:
                return
            if message.uid not in self._created:
                raise ValueError(
                    f"delivery recorded for unknown message uid {message.uid}"
                )
            latency = now - message.created_at
            if latency < 0:
                raise ValueError("delivery before creation — clock error")
            self._delivered[message.uid] = (latency, hops)
        finally:
            self._profiler.add(PHASE_DELIVERY, t0)

    def is_delivered(self, uid: int) -> bool:
        """True when the message has already reached its destination."""
        return uid in self._delivered

    def delivered_uids(self) -> set[int]:
        """Uids of delivered messages (used by receipt extensions)."""
        return set(self._delivered)

    # -- storage and control -------------------------------------------

    def on_control_bytes(self, count: int) -> None:
        """Accumulate control-plane bytes (beacons, summaries...)."""
        self.control_bytes += count

    def record_storage(
        self, node: NodeId, peak: int, time_average: float
    ) -> None:
        """Record a node's final storage statistics."""
        self._storage_peaks[node] = peak
        self._storage_time_avg[node] = time_average

    # -- snapshot -------------------------------------------------------

    def snapshot(
        self,
        protocol: str,
        duration: float,
        mac_totals: dict[str, int],
        events_processed: int,
    ) -> SimulationMetrics:
        """Produce the immutable summary of the run."""
        created = len(self._created)
        delivered = len(self._delivered)
        latencies = [lat for lat, _ in self._delivered.values()]
        hops = [h for _, h in self._delivered.values()]
        peaks = list(self._storage_peaks.values())
        return SimulationMetrics(
            protocol=protocol,
            duration=duration,
            messages_created=created,
            messages_delivered=delivered,
            delivery_ratio=(delivered / created) if created else 1.0,
            average_latency=(sum(latencies) / delivered) if delivered else None,
            average_hops=(sum(hops) / delivered) if delivered else None,
            max_peak_storage=max(peaks) if peaks else 0,
            average_peak_storage=(sum(peaks) / len(peaks)) if peaks else 0.0,
            time_average_storage=(
                sum(self._storage_time_avg.values()) / len(self._storage_time_avg)
                if self._storage_time_avg
                else 0.0
            ),
            frames_sent=mac_totals.get("frames_sent", 0),
            frames_delivered=mac_totals.get("frames_delivered", 0),
            frames_lost_collision=mac_totals.get("frames_lost_collision", 0),
            frames_lost_range=mac_totals.get("frames_lost_range", 0),
            frames_dropped_queue=mac_totals.get("frames_dropped_queue", 0),
            retries=mac_totals.get("retries", 0),
            data_bytes_sent=mac_totals.get("bytes_sent", 0),
            control_bytes_sent=self.control_bytes,
            events_processed=events_processed,
            per_node_peak_storage=dict(self._storage_peaks),
            latencies=latencies,
            hop_counts=hops,
        )
