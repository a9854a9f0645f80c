"""Self-tests of the benchmark harness.

Run from the repository root with ``python -m pytest perfbench -q``.
They use short scenarios: the point is that measuring changes nothing
and that every wrapper is on a path the program really takes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.runner import run_single
from repro.experiments.scenarios import PAPER_TABLE1
from repro.sim.arraystate import numpy_or_none

import layers
import workloads
from checks import metrics_problems
from tracer import EXCLUDED, Tracer, load_spans, self_times_from_spans

HERE = Path(__file__).resolve().parent
ENGINES = ["reference"] + (["vectorized"] if numpy_or_none() else [])

#: Wrappers a protocol or engine never reaches by design.
UNREACHED = {
    "reference": {"positions_array", "unit_disk_snapshot"},
    "vectorized": {"positions", "unit_disk_graph"},
    "glr": set(),
    # Epidemic never builds the LDTG and sets no one-shot timers.
    "epidemic": {
        "local_delaunay_graph",
        "delaunay_edges",
        "in_circle",
        "schedule",
    },
}


def short_scenario(engine: str):
    return PAPER_TABLE1.but(
        n_nodes=24,
        active_nodes=20,
        sim_time=40.0,
        message_count=20,
        seed=5,
        engine=engine,
    )


def traced_pass(protocol: str, scenario, reached: Counter | None = None):
    """One sliced, fully wrapped pass beside one plain sliced pass.

    With ``reached``, every patched attribute also counts its entries
    there; the names patched are returned alongside.
    """
    workload = workloads.SimWorkload(protocol, protocol)
    plain = workloads.simulate(workload, scenario)
    tracer = Tracer()
    with layers.instrument_simulation(
        tracer,
        protocol,
        type(next(iter(plain.world.protocols.values()))),
        type(plain.world.mobility),
    ) as patch:
        patched = {name for _, name in patch.patched()}
        if reached is not None:
            for owner, name in patch.patched():
                patch.wrap(owner, name, lambda fn, n=name: _reach(reached, n, fn))
        traced = workloads.simulate(workload, scenario, tracer)
    return plain, traced, tracer, patched


def _reach(reached: Counter, name: str, fn):
    def entered(*args, **kwargs):
        reached[name] += 1
        return fn(*args, **kwargs)

    return entered


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("protocol", ["glr", "epidemic"])
def test_slicing_and_tracing_leave_metrics_identical(protocol, engine):
    scenario = short_scenario(engine)
    reference = run_single(scenario, protocol)
    sliced, traced, _, _ = traced_pass(protocol, scenario)
    assert sliced.metrics == reference
    assert traced.metrics == reference
    assert len(sliced.slices_ms) == scenario.sim_time
    assert metrics_problems(reference, scenario) == []


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("protocol", ["glr", "epidemic"])
def test_every_wrapper_is_reached(protocol, engine):
    reached: Counter = Counter()
    _, _, tracer, patched = traced_pass(
        protocol, short_scenario(engine), reached
    )
    expected = patched - UNREACHED[engine] - UNREACHED[protocol]
    assert {name for name in expected if reached[name] == 0} == set()
    own_layer = layers.PROTOCOL_LAYERS[protocol]
    for layer in ("sim.engine", "mobility", "graphs.udg", "sim.mac", own_layer):
        assert tracer.calls_of(layer) > 0, layer
    assert tracer.counts["sim.mac.medium_calls"] > 0
    if protocol == "glr":
        assert tracer.calls_of("graphs.ldt") > 0
        assert tracer.calls_of("geometry.delaunay") > 0
        assert tracer.counts["geometry.delaunay.in_circle"] > 0
    else:
        assert tracer.calls_of("graphs.ldt") == 0
        assert tracer.counts["geometry.delaunay.in_circle"] == 0


def test_self_times_add_up_and_survive_the_span_file(tmp_path):
    _, traced, tracer, _ = traced_pass("glr", short_scenario("reference"))
    assert tracer.self_total_ns() == tracer.traced_ns()
    assert tracer.calls_of(EXCLUDED) == len(traced.slices_ms) + 1
    spans = load_spans(tracer.dump(tmp_path / "run.spans"))
    assert len(spans["start_ns"]) == tracer.span_count
    from_file = self_times_from_spans(spans)
    for layer in tracer.layers:
        assert from_file[layer] == pytest.approx(tracer.self_s(layer))
    # Every span inside the calendar carries its slice as request id.
    requests = set(spans["request"])
    assert requests - {-1} == set(range(len(traced.slices_ms)))


@pytest.mark.parametrize("protocol", ["glr", "epidemic"])
def test_traced_run_reports_every_per_layer_metric(protocol, tmp_path):
    fields = {"n_nodes": 24, "active_nodes": 20, "sim_time": 40.0,
              "message_count": 20}
    workload = workloads.SimWorkload("selftest", protocol, fields)
    outcome = workloads.trace_simulation(workload, 5, tmp_path / "t.spans")
    assert outcome.problems == []
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(outcome.metrics) == {m["name"] for m in declared["per_layer"]}
    m = {name: value for name, (value, _) in outcome.metrics.items()}
    self_total = sum(m[name] for name in workloads.SELF_TIME_METRICS)
    assert self_total == pytest.approx(m["trace.run_s"], rel=1e-6)
    assert m["sim.engine.events"] > 0


def test_patches_are_restored():
    from repro.sim import neighbors
    from repro.sim.mac import NodeMac
    from repro.sim.world import NodeApi

    before = (
        neighbors.local_delaunay_graph,
        NodeMac.enqueue,
        NodeApi.periodic,
        vars(NodeMac).get("_complete"),
    )
    traced_pass("glr", short_scenario("reference"))
    after = (
        neighbors.local_delaunay_graph,
        NodeMac.enqueue,
        NodeApi.periodic,
        vars(NodeMac).get("_complete"),
    )
    assert before == after


def test_checks_catch_broken_metrics():
    scenario = short_scenario("reference")
    good = run_single(scenario, "epidemic")
    assert good.messages_delivered > 0
    broken = [
        replace(good, messages_delivered=good.messages_created + 1),
        replace(good, delivery_ratio=good.delivery_ratio + 0.01),
        replace(good, latencies=[scenario.sim_time + 1] + good.latencies[1:]),
        replace(good, hop_counts=[0] + good.hop_counts[1:]),
        replace(good, frames_delivered=good.frames_sent + 1),
        replace(good, messages_created=good.messages_created - 1),
    ]
    for metrics in broken:
        assert metrics_problems(metrics, scenario), metrics


def test_campaign_trace_checks_pass_and_reaches_every_layer(
    tmp_path, monkeypatch
):
    reached: Counter = Counter()
    patched: set = set()

    def instrument_and_count(tracer):
        patch = layers.instrument_campaign(tracer)
        for owner, name in patch.patched():
            patched.add(name)
            patch.wrap(owner, name, lambda fn, n=name: _reach(reached, n, fn))
        return patch

    monkeypatch.setattr(workloads, "instrument_campaign", instrument_and_count)
    workload = replace(
        workloads.WORKLOADS["campaign-probe"],
        name="campaign-selftest",
        replicates=2,
        fields={
            "n_nodes": 10,
            "active_nodes": 4,
            "message_count": 3,
            "sim_time": 10.0,
        },
    )
    outcome = workloads.trace_campaign(
        workload, 3, tmp_path, tmp_path / "campaign.spans"
    )
    assert outcome.problems == []
    assert outcome.failed == 0
    m = {name: value for name, (value, _) in outcome.metrics.items()}
    assert m["experiments.orchestrator.launches"] >= 2
    assert m["experiments.stream.records"] > 0
    assert m["experiments.campaign.self_s"] > 0
    assert m["experiments.stream.load_s"] > 0
    assert 0 < m["experiments.orchestrator.busy_ratio"] <= 1
    assert {name for name in patched if reached[name] == 0} == set()


def test_run_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            "glr-table1",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout == ""
