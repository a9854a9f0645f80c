"""Whole-run pins: short paper Table 1 runs reproduce exact metrics.

Performance work on the frame path (the shared medium, the event
calendar, the protocols' summary exchange) must leave every simulated
outcome unchanged: the RNG draw sequence depends on contention counts
and deferral ends, so any change in what the medium answers shows up
here as moved frame, retry or loss counts.  Each run is pinned twice:
readable scalar literals, and a SHA-256 over the full
``SimulationMetrics`` JSON (latencies, hop counts and per-node storage
included), on both engines.

The GLR literals will legitimately move when the Bowyer–Watson
triangulation's hull-edge loss is fixed (ROADMAP, "Make the k-local
Delaunay spanner correct"): that fix changes some LDTG edges and with
them GLR's routes.  The PR that lands it must update these literals and
state what moved.  The epidemic literals never build the LDTG and must
not move for that fix.

The GLR scale pin runs 200 nodes at paper density (4x the nodes on 4x
the area) for 45 s.  At that size most nodes never ask for their LDTG
neighbours in an epoch and many 2-hop neighbourhoods coincide, so it is
the run that exercises the LDTG's per-node evaluation and its memoised
triangulations.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.runner import run_single
from repro.experiments.scenarios import PAPER_TABLE1
from repro.mobility.base import Region

#: Table 1 at a 60 s horizon with the paper's 1 message/s load.
SCENARIO = PAPER_TABLE1.but(sim_time=60.0, message_count=50)

PINS = {
    "epidemic": (
        {
            "messages_created": 50,
            "messages_delivered": 39,
            "delivery_ratio": 0.78,
            "average_latency": 12.574592335236806,
            "average_hops": 5.717948717948718,
            "max_peak_storage": 45,
            "frames_sent": 5786,
            "frames_delivered": 5226,
            "frames_lost_collision": 192,
            "frames_lost_range": 367,
            "frames_dropped_queue": 0,
            "retries": 467,
            "events_processed": 8908,
        },
        "105273dbac49b3176c2db2f0cbc1017a9cf37b55133e8026ea35de574d114423",
    ),
    "glr": (
        {
            "messages_created": 50,
            "messages_delivered": 30,
            "delivery_ratio": 0.6,
            "average_latency": 8.067750974206573,
            "average_hops": 6.5,
            "max_peak_storage": 10,
            "frames_sent": 2845,
            "frames_delivered": 2594,
            "frames_lost_collision": 171,
            "frames_lost_range": 80,
            "frames_dropped_queue": 0,
            "retries": 231,
            "events_processed": 6648,
        },
        "0db5e8da1acb17176cdbe0d3e111262cc29a9fa577e091999b0c0e2f5d3ad252",
    ),
}


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@pytest.mark.parametrize("protocol", sorted(PINS))
def test_short_table1_run_matches_pinned_metrics(protocol, engine):
    scalars, digest = PINS[protocol]
    metrics = run_single(SCENARIO.but(engine=engine), protocol)
    assert {name: getattr(metrics, name) for name in scalars} == scalars
    blob = json.dumps(metrics.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


#: Paper density at 200 nodes, short horizon, every message created.
SCALE_SCENARIO = PAPER_TABLE1.but(
    n_nodes=200, region=Region(3000.0, 600.0), sim_time=45.0, message_count=40
)

SCALE_PIN = (
    {
        "messages_created": 40,
        "messages_delivered": 13,
        "delivery_ratio": 0.325,
        "average_latency": 16.698330977490812,
        "average_hops": 14.384615384615385,
        "max_peak_storage": 7,
        "frames_sent": 3129,
        "frames_delivered": 2893,
        "frames_lost_collision": 149,
        "frames_lost_range": 87,
        "frames_dropped_queue": 0,
        "retries": 214,
        "events_processed": 13519,
    },
    "c4e82ecc5f41688ebe6a357d4f92fdbbcc3b608ce26d33fb39f6ec9fb92a8419",
)


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
def test_glr_at_200_nodes_matches_pinned_metrics(engine):
    scalars, digest = SCALE_PIN
    metrics = run_single(SCALE_SCENARIO.but(engine=engine), "glr")
    assert {name: getattr(metrics, name) for name in scalars} == scalars
    blob = json.dumps(metrics.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest
