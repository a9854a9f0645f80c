"""Named cross-mobility scenario suites.

The paper evaluates GLR under a single movement pattern (random
waypoint, Table 1), but DTN delivery/overhead rankings are notoriously
mobility-sensitive.  A *suite* is a pre-built
:class:`~repro.experiments.campaign.CampaignSpec` that sweeps the
mobility axis (and whatever else characterises the workload class) so
one command compares GLR against the baselines across movement
patterns::

    repro campaign --suite cross-mobility --workers 8 --stream suite.jsonl

Suites are effort-scaled: pass an
:class:`~repro.experiments.common.Effort` to trade fidelity for
wall-clock (the CLI maps ``--effort bench|spot|paper``).  Every suite
is deterministic in its seed and resumes like any other campaign.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Mapping

from repro.experiments.campaign import CampaignSpec
from repro.experiments.common import BENCH_EFFORT, Effort
from repro.experiments.protocols import ProtocolConfig
from repro.experiments.scenarios import Scenario
from repro.mobility.registry import MobilityConfig
from repro.sim.adversary import AdversaryConfig

#: The movement patterns the cross-mobility comparison covers: the
#: paper's RWP plus the three registry models with default parameters.
CROSS_MOBILITY_MODELS: tuple[MobilityConfig, ...] = (
    MobilityConfig.of("random_waypoint"),
    MobilityConfig.of("gauss_markov"),
    MobilityConfig.of("rpgm"),
    MobilityConfig.of("manhattan"),
)


def _base(name: str, seed: int, effort: Effort, **overrides) -> Scenario:
    """A paper-geometry scenario scaled to the given effort."""
    return Scenario(
        name=name,
        message_count=effort.message_count,
        sim_time=effort.sim_time,
        seed=seed,
        **overrides,
    )


def _suite_paper_table1(
    seed: int, replicates: int, effort: Effort
) -> CampaignSpec:
    """The paper's Table 1 evaluation: RWP, radius swept 50-250 m."""
    return CampaignSpec(
        name="paper-table1",
        base=_base("paper-table1", seed, effort),
        grid=(("radius", (50.0, 100.0, 150.0, 200.0, 250.0)),),
        protocols=("glr", "epidemic"),
        replicates=replicates,
    )


def _suite_cross_mobility(
    seed: int, replicates: int, effort: Effort
) -> CampaignSpec:
    """Every protocol under every movement pattern, one grid."""
    return CampaignSpec(
        name="cross-mobility",
        base=_base("cross-mobility", seed, effort),
        grid=(("mobility", CROSS_MOBILITY_MODELS),),
        protocols=("glr", "epidemic", "spray_and_wait", "first_contact"),
        replicates=replicates,
    )


def _suite_sparse_dtn(
    seed: int, replicates: int, effort: Effort
) -> CampaignSpec:
    """Disconnected regime: short radii where store-and-forward rules."""
    return CampaignSpec(
        name="sparse-dtn",
        base=_base("sparse-dtn", seed, effort),
        grid=(
            ("radius", (50.0, 75.0, 100.0)),
            (
                "mobility",
                (
                    MobilityConfig.of("random_waypoint"),
                    MobilityConfig.of("gauss_markov"),
                ),
            ),
        ),
        protocols=("glr", "epidemic", "spray_and_wait"),
        replicates=replicates,
    )


def _suite_convoy(seed: int, replicates: int, effort: Effort) -> CampaignSpec:
    """Group mobility: clusters that partition and merge (RPGM sweeps)."""
    return CampaignSpec(
        name="convoy",
        base=_base("convoy", seed, effort),
        grid=(
            (
                "mobility",
                (
                    MobilityConfig.of("rpgm", n_groups=2, group_radius=40.0),
                    MobilityConfig.of("rpgm", n_groups=5, group_radius=40.0),
                    MobilityConfig.of("rpgm", n_groups=5, group_radius=80.0),
                ),
            ),
        ),
        protocols=("glr", "epidemic"),
        replicates=replicates,
    )


def _suite_urban_grid(
    seed: int, replicates: int, effort: Effort
) -> CampaignSpec:
    """Street-constrained motion at three block granularities."""
    return CampaignSpec(
        name="urban-grid",
        base=_base("urban-grid", seed, effort),
        grid=(
            (
                "mobility",
                (
                    MobilityConfig.of("manhattan"),
                    MobilityConfig.of("manhattan", blocks_x=20, blocks_y=4),
                    MobilityConfig.of("manhattan", blocks_x=5, blocks_y=1),
                ),
            ),
        ),
        protocols=("glr", "epidemic"),
        replicates=replicates,
    )


def _suite_mobility_x_protocol(
    seed: int, replicates: int, effort: Effort
) -> CampaignSpec:
    """Joint mobility x protocol-config grid (custody, check interval).

    The trade-off surface DTN evaluations must cover: the same protocol
    under different configurations, under contrasting movement
    patterns, in one sweep.
    """
    return CampaignSpec(
        name="mobility-x-protocol",
        base=_base("mobility-x-protocol", seed, effort),
        grid=(
            (
                "mobility",
                (
                    MobilityConfig.of("random_waypoint"),
                    MobilityConfig.of("gauss_markov"),
                ),
            ),
        ),
        protocols=(
            ProtocolConfig.of("glr"),
            ProtocolConfig.of("glr", custody=False),
            ProtocolConfig.of("glr", check_interval=1.8),
            ProtocolConfig.of("spray_and_wait", initial_copies=4),
        ),
        replicates=replicates,
    )


def _suite_adversarial(
    seed: int, replicates: int, effort: Effort
) -> CampaignSpec:
    """Byzantine robustness: every adversary mode at rising fractions.

    The honest cell (``None``) anchors the comparison; the grid then
    compromises 10% and 30% of the nodes with each misbehaviour so one
    sweep shows how gracefully each protocol degrades under packet
    sinks, probabilistic droppers, and location liars.
    """
    return CampaignSpec(
        name="adversarial",
        base=_base("adversarial", seed, effort),
        grid=(
            (
                "adversary",
                (
                    None,
                    AdversaryConfig.of("blackhole", 0.1),
                    AdversaryConfig.of("blackhole", 0.3),
                    AdversaryConfig.of("selective_drop", 0.3),
                    AdversaryConfig.of("location_lying", 0.3),
                ),
            ),
        ),
        protocols=("glr", "epidemic", "spray_and_wait", "one_hop"),
        replicates=replicates,
    )


#: Suite name -> builder(seed, replicates, effort) -> CampaignSpec.
SUITES: dict[str, Callable[[int, int, Effort], CampaignSpec]] = {
    "paper-table1": _suite_paper_table1,
    "cross-mobility": _suite_cross_mobility,
    "sparse-dtn": _suite_sparse_dtn,
    "convoy": _suite_convoy,
    "urban-grid": _suite_urban_grid,
    "mobility-x-protocol": _suite_mobility_x_protocol,
    "adversarial": _suite_adversarial,
}


def available_suites() -> list[str]:
    """Names accepted by :func:`build_suite` (and ``--suite``)."""
    return sorted(SUITES)


def suite_description(name: str) -> str:
    """One-line description of a suite (its builder's docstring)."""
    lines = (SUITES[name].__doc__ or "").strip().splitlines()
    return lines[0] if lines else ""


def build_suite(
    name: str,
    seed: int = 1,
    replicates: int = 3,
    effort: Effort = BENCH_EFFORT,
    base_overrides: Mapping | None = None,
) -> CampaignSpec:
    """Materialize a named suite as a runnable :class:`CampaignSpec`.

    ``base_overrides`` patches the suite's base scenario (e.g. shrink
    ``n_nodes`` for smoke tests) after the builder runs.
    """
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {available_suites()}"
        )
    spec = SUITES[name](seed, replicates, effort)
    if base_overrides:
        spec = dataclasses.replace(
            spec, base=spec.base.but(**dict(base_overrides))
        )
    return spec
