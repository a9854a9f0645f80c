"""Output checks: what every benchmark run verifies before it reports.

No metrics digest is pinned: a correct change to the triangulation may
legitimately move LDTG edges and therefore every routing metric.  The
checks are invariants that hold for any correct simulation, plus
equalities between runs that must agree (traced vs untraced, cold vs
resumed).
"""

from __future__ import annotations

import math

from repro.experiments.scenarios import Scenario
from repro.experiments.workload import generate_workload
from repro.sim.stats import SimulationMetrics


def expected_messages(scenario: Scenario) -> int:
    """Messages whose creation time falls inside the horizon."""
    return sum(
        1
        for spec in generate_workload(scenario)
        if spec.at_time <= scenario.sim_time
    )


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def metrics_problems(
    metrics: SimulationMetrics, scenario: Scenario
) -> list[str]:
    """Every invariant ``metrics`` breaks for a run of ``scenario``."""
    problems = []
    horizon = scenario.sim_time
    created = metrics.messages_created
    delivered = metrics.messages_delivered
    if created != expected_messages(scenario):
        problems.append(
            f"created {created} messages, expected "
            f"{expected_messages(scenario)}"
        )
    if not 0 <= delivered <= created:
        problems.append(f"delivered {delivered} of {created} created")
    ratio = delivered / created if created else 1.0
    if not _close(metrics.delivery_ratio, ratio):
        problems.append(
            f"delivery_ratio {metrics.delivery_ratio} != {delivered}/{created}"
        )
    if metrics.duration != horizon:
        problems.append(f"duration {metrics.duration} != horizon {horizon}")
    if len(metrics.latencies) != delivered:
        problems.append("one latency per delivered message expected")
    if any(not 0.0 <= lat <= horizon for lat in metrics.latencies):
        problems.append("a latency lies outside [0, horizon]")
    if len(metrics.hop_counts) != delivered:
        problems.append("one hop count per delivered message expected")
    if any(hops < 1 for hops in metrics.hop_counts):
        problems.append("a delivered message has fewer than one hop")
    if delivered:
        if metrics.average_latency is None or not _close(
            metrics.average_latency, sum(metrics.latencies) / delivered
        ):
            problems.append("average_latency is not the mean latency")
        if metrics.average_hops is None or not _close(
            metrics.average_hops, sum(metrics.hop_counts) / delivered
        ):
            problems.append("average_hops is not the mean hop count")
    outcomes = (
        metrics.frames_delivered
        + metrics.frames_lost_collision
        + metrics.frames_lost_range
    )
    if outcomes > metrics.frames_sent:
        problems.append(
            f"{outcomes} frame outcomes exceed {metrics.frames_sent} sent"
        )
    if metrics.retries > metrics.frames_sent:
        problems.append("more retries than frames sent")
    if metrics.events_processed <= 0:
        problems.append("no events processed")
    return problems


def identity_problems(
    label: str, first: SimulationMetrics, second: SimulationMetrics
) -> list[str]:
    """Differences between two runs that must be bit-identical."""
    if first == second:
        return []
    fields = [
        name
        for name, value in first.to_json().items()
        if second.to_json()[name] != value
    ]
    return [f"{label}: metrics differ in {', '.join(fields)}"]
