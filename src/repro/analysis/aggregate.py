"""Aggregate metrics across replicate simulation runs.

Consumers hand this module *decoded* metrics — whether they came from a
live simulation or a campaign metrics stream
(:mod:`repro.experiments.stream`); aggregation itself is agnostic to
where runs were executed or stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, TypeVar

from repro.analysis.ci import ConfidenceInterval, mean_confidence_interval
from repro.sim.stats import SimulationMetrics


@dataclass(frozen=True)
class MetricSummary:
    """Mean ± 90% CI of the paper's headline metrics over replicates.

    ``average_latency``/``average_hops`` summarize only runs that
    delivered at least one message (matching how the paper can only
    average over delivered messages).
    """

    protocol: str
    runs: int
    delivery_ratio: ConfidenceInterval
    average_latency: ConfidenceInterval | None
    average_hops: ConfidenceInterval | None
    max_peak_storage: ConfidenceInterval
    average_peak_storage: ConfidenceInterval


def summarize_metrics(runs: Sequence[SimulationMetrics]) -> MetricSummary:
    """Summarize replicate runs of one configuration."""
    if not runs:
        raise ValueError("need at least one run to summarize")
    protocols = {r.protocol for r in runs}
    if len(protocols) != 1:
        raise ValueError(f"mixed protocols in one summary: {protocols}")

    latencies = [
        r.average_latency for r in runs if r.average_latency is not None
    ]
    hops = [float(r.average_hops) for r in runs if r.average_hops is not None]
    return MetricSummary(
        protocol=runs[0].protocol,
        runs=len(runs),
        delivery_ratio=mean_confidence_interval(
            [r.delivery_ratio for r in runs]
        ),
        average_latency=(
            mean_confidence_interval(latencies) if latencies else None
        ),
        average_hops=mean_confidence_interval(hops) if hops else None,
        max_peak_storage=mean_confidence_interval(
            [float(r.max_peak_storage) for r in runs]
        ),
        average_peak_storage=mean_confidence_interval(
            [r.average_peak_storage for r in runs]
        ),
    )


CellKey = TypeVar("CellKey")


def summarize_cells(
    metrics_by_cell: Mapping[CellKey, Sequence[SimulationMetrics]],
) -> dict[CellKey, MetricSummary]:
    """One :class:`MetricSummary` per grid cell, preserving cell order.

    This is the campaign-level aggregation step: cells are whatever the
    caller keys them by (``(scenario name, protocol label)`` for
    campaigns and stream replays).  Partial views (shard results, live
    watch ticks) never contain empty cells — the rebuild step drops
    cells with no records — so an empty run list here is a caller bug
    and raises.
    """
    return {
        cell: summarize_metrics(runs)
        for cell, runs in metrics_by_cell.items()
    }


def cell_coverage(
    metrics_by_cell: Mapping[CellKey, Sequence[SimulationMetrics]],
    expected_runs: int,
) -> tuple[int, int]:
    """(cells that hold all ``expected_runs`` replicates, cells with data).

    The honesty line of a partial aggregate: a live watcher or a shard
    report pairs this with the per-cell ``runs`` column so a
    half-finished campaign can never read as the full result.
    """
    complete = sum(
        1 for runs in metrics_by_cell.values() if len(runs) >= expected_runs
    )
    return complete, len(metrics_by_cell)
