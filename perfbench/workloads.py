"""The benchmark's workloads and how each one is measured.

Closed loop, one client: each workload runs in one process, one pass
at a time, at a fixed input size.  Inputs derive from the ``--seed``
argument only (mobility, traffic pairs, MAC and node RNGs all follow
the scenario seed).  ``engine`` is left unset in every scenario, so
``REPRO_ENGINE=vectorized`` reruns the identical workloads on the numpy
core; the resolved engine is part of the report.

Simulation workloads (``glr-table1``, ``epidemic-table1``,
``glr-n200``) time ``build_world`` (set-up) and ``World.run`` (the
pass), driving the calendar in 1 s simulated slices.  The
``campaign-probe`` workload times an orchestrated campaign cold, then
resumed over its finished run directory.

Every reported time is host time scaled to the nominal speed of the
box (see :mod:`speed`); raw host times go to the notes line.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments import orchestrator as orchestrator_mod
from repro.experiments.campaign import (
    CampaignSpec,
    campaign_result_from_stream,
    campaign_spec_hash,
    run_campaign,
    task_key,
)
from repro.experiments.layout import RunLayout
from repro.experiments.runner import build_world
from repro.experiments.scenarios import PAPER_TABLE1, Scenario
from repro.experiments.stream import (
    append_record,
    init_stream,
    load_stream,
    make_task_record,
)
from repro.mobility.base import Region
from repro.seeding import replicate_seed
from repro.sim.arraystate import resolve_engine
from repro.sim.stats import SimulationMetrics
from repro.telemetry.events import load_events

from checks import identity_problems, metrics_problems
from layers import (
    SIM_LAYERS,
    instrument_campaign,
    instrument_simulation,
)
from speed import SpeedSampler, bracketed_scales, probe_ns, timed_at_nominal
from tracer import Tracer

#: Simulated seconds per calendar slice (the trace's request unit).
SLICE_S = 1.0
#: ``build_world`` samples per run; ``setup_s`` is their median.
SETUP_REPEATS = 15
#: Stream resumes per simulation run; ``resume_s`` is their median.
SIM_RESUME_REPEATS = 40
#: Campaign resumes per cold campaign; ``resume_s`` is their median.
CAMPAIGN_RESUMES = 5


@dataclass(frozen=True)
class SimWorkload:
    """One protocol on one scenario, run to its horizon."""

    name: str
    protocol: str
    fields: dict = field(default_factory=dict)
    #: Topologies per run, seeded as the paper's replicates are.
    replicates: int = 1

    def scenario(self, seed: int) -> Scenario:
        return PAPER_TABLE1.but(name=self.name, seed=seed, **self.fields)

    def scenarios(self, seed: int) -> list[Scenario]:
        return [
            self.scenario(replicate_seed(seed, i))
            for i in range(self.replicates)
        ]


@dataclass(frozen=True)
class CampaignWorkload:
    """An orchestrated sweep of small tasks, cold then resumed."""

    name: str
    radii: tuple
    protocols: tuple
    replicates: int
    shards: int
    poll_interval: float
    fields: dict = field(default_factory=dict)

    def spec(self, seed: int) -> CampaignSpec:
        return CampaignSpec(
            name=self.name,
            base=Scenario(name=self.name, seed=seed, **self.fields),
            grid=(("radius", self.radii),),
            protocols=self.protocols,
            replicates=self.replicates,
        )


#: Paper Table 1 at a 600 s horizon with 300 messages.
TABLE1 = {"sim_time": 600.0, "message_count": 300}

WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("glr-table1", "glr", TABLE1),
        # Two topologies: one topology's cost varies by 12-18% from
        # seed to seed, too much for a bound of 25% on ten seeds.
        SimWorkload("epidemic-table1", "epidemic", TABLE1, replicates=2),
        SimWorkload(
            "glr-n200",
            "glr",
            {
                # Paper density: 4x the nodes on 4x the area.
                "n_nodes": 200,
                "region": Region(3000.0, 600.0),
                "sim_time": 200.0,
                "message_count": 200,
            },
            # Two topologies, as for epidemic-table1.
            replicates=2,
        ),
        CampaignWorkload(
            "campaign-probe",
            radii=(80.0, 140.0),
            protocols=("glr", "epidemic"),
            # 208 tasks: enough per-task samples for a p95 with ten
            # samples beyond it.
            replicates=52,
            shards=2,
            # Stated as part of the workload: at the 0.3 s default one
            # poll would be most of a resume.
            poll_interval=0.05,
            fields={
                "n_nodes": 16,
                "active_nodes": 8,
                "message_count": 8,
                "sim_time": 30.0,
            },
        ),
    )
}


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0 < q < 1) of ``values``, exclusive method."""
    cuts = statistics.quantiles(values, n=100)
    return cuts[round(q * 100) - 1]


def peak_rss_mb(workers: int = 0) -> float:
    """Peak RSS of this process plus ``workers`` times the largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------


@dataclass
class Pass:
    """One simulation pass: its result and its times."""

    metrics: SimulationMetrics
    run_raw: float
    run_s: float
    slices_ms: list
    setup_s: float
    world: object


def slice_calendar(world, raw_ns: list, probes: list, tracer=None) -> list:
    """Make ``world.run`` drive its calendar in 1 s slices.

    ``Simulator.run(until=t)`` processes every event at or before
    ``t`` and then sets the clock to ``t``; no callback runs between
    two slices, so the event sequence is exactly that of one call.
    Each slice's host time goes to ``raw_ns``; a speed probe is taken
    before the first slice and after every slice, into ``probes``.
    Returns a one-item list that ends up holding the host time the
    probes took.
    """
    run = world.sim.run
    clock = time.perf_counter_ns
    probe_wall = [0]

    def probe() -> None:
        t0 = clock()
        probes.append(probe_ns())
        t1 = clock()
        probe_wall[0] += t1 - t0
        if tracer is not None:
            tracer.exclude(t0, t1)

    def sliced(until: float) -> None:
        probe()
        k = 0
        while True:
            k += 1
            target = min(k * SLICE_S, until)
            if tracer is not None:
                tracer.request = k - 1
            t0 = clock()
            run(until=target)
            raw_ns.append(clock() - t0)
            probe()
            if target >= until:
                break
        if tracer is not None:
            tracer.request = -1

    world.sim.run = sliced
    return probe_wall


def simulate(workload: SimWorkload, scenario: Scenario, tracer=None) -> Pass:
    """Build a world and run one pass to the horizon."""
    world, _, setup_s = timed_at_nominal(
        lambda: build_world(scenario, workload.protocol)
    )
    raw_ns: list[int] = []
    probes: list[int] = []
    probe_wall = slice_calendar(world, raw_ns, probes, tracer)
    run = world.run
    if tracer is not None:
        run = tracer.wrap("sim.engine", run)
    t0 = time.perf_counter()
    metrics = run(until=scenario.sim_time, protocol_name=workload.protocol)
    run_raw = time.perf_counter() - t0 - probe_wall[0] / 1e9
    slices_ms = [
        ns * scale / 1e6 for ns, scale in zip(raw_ns, bracketed_scales(probes))
    ]
    run_s = run_raw * sum(slices_ms) * 1e6 / sum(raw_ns)
    return Pass(metrics, run_raw, run_s, slices_ms, setup_s, world)


def resume_from_stream(
    workload: SimWorkload,
    scenario: Scenario,
    metrics: SimulationMetrics,
    run_s: float,
    workdir: Path,
    repeats: int,
) -> tuple[list[float], list[str]]:
    """Persist a pass as a one-task campaign stream, then time resumes.

    The single task of ``CampaignSpec(base=scenario, replicates=1)`` is
    the workload's own scenario, so resuming skips it and rebuilds the
    result from the stream: ``run_campaign`` plus
    ``campaign_result_from_stream``, as for a finished campaign.
    """
    spec = CampaignSpec(
        name=workload.name,
        base=scenario,
        protocols=(workload.protocol,),
        replicates=1,
    )
    (label, cell), = spec.cell_specs()
    task, = cell.tasks()
    stream = workdir / "stream.jsonl"
    init_stream(stream, campaign_spec_hash(spec), spec.to_dict())
    append_record(
        stream,
        make_task_record(
            key=task_key(task),
            scenario=task.scenario.name,
            protocol=task.protocol_label,
            replicate=task.replicate,
            seed=task.scenario.seed,
            metrics_json=metrics.to_json(),
            cached=False,
            wall_time_s=run_s,
        ),
    )

    def resume():
        return (
            run_campaign(spec, stream_path=stream),
            campaign_result_from_stream(stream),
        )

    times, problems = [], []
    for _ in range(repeats):
        (resumed, rebuilt), _, scaled = timed_at_nominal(resume)
        times.append(scaled)
        if resumed.stream_hits != 1:
            problems.append("resume ran the task instead of skipping it")
        for result in (resumed, rebuilt):
            problems += identity_problems(
                "resumed", metrics, result.metrics[label][0]
            )
    return times, problems


def measure_simulation(
    workload: SimWorkload, seed: int, seconds: float, workdir: Path
) -> Outcome:
    """Untraced run: the end-to-end metrics.

    A round simulates every replicate once; rounds repeat while another
    one fits in ``seconds``.  ``run_s`` is the median over rounds of the
    round's mean pass time; slices pool every pass.
    """
    out = Outcome()
    scenarios = workload.scenarios(seed)
    first = scenarios[0]
    setups = [
        timed_at_nominal(lambda: build_world(first, workload.protocol))[2]
        for _ in range(SETUP_REPEATS)
    ]
    rounds: list[list[Pass]] = []
    started = time.perf_counter()
    while True:
        passes = []
        for index, scenario in enumerate(scenarios):
            out.attempted += 1
            try:
                run = simulate(workload, scenario)
            except Exception as exc:  # a raising pass is a failed attempt
                out.fail(f"pass {out.attempted}", [repr(exc)])
                break
            out.notes["engine"] = run.world.engine
            run.world = None
            setups.append(run.setup_s)
            problems = metrics_problems(run.metrics, scenario)
            if rounds:
                problems += identity_problems(
                    "repeated pass", rounds[0][index].metrics, run.metrics
                )
            if problems:
                out.fail(f"pass {out.attempted}", problems)
            passes.append(run)
        if len(passes) < len(scenarios):
            break
        rounds.append(passes)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(rounds) > seconds:
            break
    if not rounds:
        return out
    gc.collect()
    resumes, problems = resume_from_stream(
        workload,
        first,
        rounds[0][0].metrics,
        rounds[0][0].run_raw,
        workdir,
        SIM_RESUME_REPEATS,
    )
    out.attempted += 1
    if problems:
        out.fail("stream resume", problems)
    slices = [ms for passes in rounds for p in passes for ms in p.slices_ms]
    run_raw = statistics.median(
        statistics.fmean(p.run_raw for p in passes) for passes in rounds
    )
    run_s = statistics.median(
        statistics.fmean(p.run_s for p in passes) for passes in rounds
    )
    out.notes.update(
        rounds=len(rounds),
        raw_run_s=round(run_raw, 3),
        speed_scale=round(run_s / run_raw, 3),
    )
    out.metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "slice_ms_p50": (statistics.median(slices), "ms"),
        "slice_ms_p95": (quantile(slices, 0.95), "ms"),
        "resume_s": (statistics.median(resumes), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return out


def trace_simulation(
    workload: SimWorkload, seed: int, spans_path: Path
) -> Outcome:
    """Traced run: one traced pass beside one untraced pass."""
    out = Outcome(attempted=2)
    scenario = workload.scenario(seed)
    plain = simulate(workload, scenario)
    world = plain.world
    out.notes["engine"] = world.engine
    protocol_cls = type(next(iter(world.protocols.values())))
    mobility_cls = type(world.mobility)
    plain.world = world = None

    tracer = Tracer()
    with instrument_simulation(
        tracer, workload.protocol, protocol_cls, mobility_cls
    ):
        traced = simulate(workload, scenario, tracer)
    epochs = traced.world.neighbor_service.epoch + 1
    traced.world = None
    for label, run in (("untraced", plain), ("traced", traced)):
        problems = metrics_problems(run.metrics, scenario)
        if problems:
            out.fail(f"{label} pass", problems)
    problems = identity_problems(
        "traced vs untraced", plain.metrics, traced.metrics
    )
    if problems:
        out.fail("trace identity", problems)
    _record_trace(tracer, spans_path, out)

    metrics = traced.metrics
    m = {f"{layer}.self_s": (tracer.self_s(layer), "s") for layer in SIM_LAYERS}
    for layer in ("mobility", "core.protocol", "baselines.epidemic"):
        m[f"{layer}.calls"] = (tracer.calls_of(layer), "count")
    ldt_builds = tracer.calls_of("graphs.ldt")
    m["geometry.delaunay.calls"] = (
        tracer.calls_of("geometry.delaunay"),
        "count",
    )
    for counter in ("geometry.delaunay.points", "geometry.delaunay.in_circle"):
        m[counter] = (tracer.counts[counter], "count")
    m["graphs.ldt.builds"] = (ldt_builds, "count")
    m["graphs.ldt.builds_per_epoch"] = (ldt_builds / epochs, "ratio")
    m["graphs.udg.builds"] = (tracer.calls_of("graphs.udg"), "count")
    m["sim.mac.medium_calls"] = (tracer.counts["sim.mac.medium_calls"], "count")
    m["sim.mac.frames_sent"] = (metrics.frames_sent, "count")
    m["sim.mac.frame_success_ratio"] = (
        metrics.frames_delivered / metrics.frames_sent
        if metrics.frames_sent
        else 0.0,
        "ratio",
    )
    m["sim.mac.retries"] = (metrics.retries, "count")
    m["sim.mac.queue_drops"] = (metrics.frames_dropped_queue, "count")
    m["sim.engine.events"] = (metrics.events_processed, "count")
    m.update(_zero_campaign_layers())
    m["trace.run_s"] = (tracer.traced_ns() / 1e9, "s")
    m["trace.overhead_pct"] = (
        100.0 * (traced.run_s / plain.run_s - 1.0),
        "%",
    )
    out.metrics = m
    return out


def _record_trace(tracer: Tracer, spans_path: Path, out: Outcome) -> None:
    """Check that self times add up to the traced run; write the spans."""
    if tracer.self_total_ns() != tracer.traced_ns():
        out.fail(
            "trace",
            [
                f"self times add up to {tracer.self_total_ns()} ns, "
                f"traced run took {tracer.traced_ns()} ns"
            ],
        )
    tracer.dump(spans_path)
    out.notes["spans"] = tracer.span_count


# ----------------------------------------------------------------------
# Campaign workload
# ----------------------------------------------------------------------


def _zero_sim_layers() -> dict:
    m = {f"{layer}.self_s": (0.0, "s") for layer in SIM_LAYERS}
    for name in (
        "mobility.calls",
        "core.protocol.calls",
        "baselines.epidemic.calls",
        "geometry.delaunay.calls",
        "geometry.delaunay.points",
        "geometry.delaunay.in_circle",
        "graphs.ldt.builds",
        "graphs.udg.builds",
        "sim.mac.medium_calls",
        "sim.mac.frames_sent",
        "sim.mac.retries",
        "sim.mac.queue_drops",
        "sim.engine.events",
    ):
        m[name] = (0, "count")
    m["graphs.ldt.builds_per_epoch"] = (0.0, "ratio")
    m["sim.mac.frame_success_ratio"] = (0.0, "ratio")
    return m


def _zero_campaign_layers() -> dict:
    return {
        "experiments.orchestrator.self_s": (0.0, "s"),
        "experiments.orchestrator.busy_ratio": (0.0, "ratio"),
        "experiments.orchestrator.launches": (0, "count"),
        "experiments.orchestrator.requeues": (0, "count"),
        "experiments.campaign.self_s": (0.0, "s"),
        "experiments.campaign.task_s_p50": (0.0, "s"),
        "experiments.stream.records": (0, "count"),
        "experiments.stream.load_s": (0.0, "s"),
    }


@dataclass
class CampaignCycle:
    """One cold campaign and its resumes, with what they showed.

    ``cold_s``, ``resume_s``, ``setup_s`` and ``task_s`` are scaled to
    the nominal speed; ``cold_raw`` is the cold campaign's host time.
    """

    cold_raw: float
    cold_s: float
    resume_s: list
    setup_s: list
    task_s: list
    launches: int
    requeues: int
    problems: list


def _worker_startups(run_dir: Path, statuses) -> list[tuple[float, float]]:
    """``(launch, first task)`` wall-clock times of every worker launch.

    The supervisor logs each launch; a worker logs a heartbeat as it
    finishes each task, skipped ones included.  A shard's first worker
    ran its first task, which began at that heartbeat less the task's
    ``wall_time_s``; a resumed worker's first task is a skip, which
    takes no time.
    """
    events = load_events(RunLayout(run_dir).events, quarantine=False).records
    beats: dict[int, list[float]] = {}
    for event in events:
        if (
            event["type"] == "heartbeat"
            and event["payload"].get("reason") == "task-done"
        ):
            beats.setdefault(event["shard"], []).append(event["t_wall"])
    first_task_s = {}
    for status in statuses:
        records = load_stream(status.stream, quarantine=False).records
        if records:
            first_task_s[status.index] = records[0]["wall_time_s"]
    startups = []
    for event in events:
        if event["type"] != "launch":
            continue
        shard, launched = event["shard"], event["t_wall"]
        later = [t for t in beats.get(shard, []) if t > launched]
        if not later:
            continue
        first = min(later) - first_task_s.pop(shard, 0.0)
        startups.append((launched, first))
    return startups


def campaign_cycle(
    workload: CampaignWorkload, seed: int, run_dir: Path, resumes: int
) -> CampaignCycle:
    """Run the campaign cold, then resume it ``resumes`` times."""
    spec = workload.spec(seed)
    shutil.rmtree(run_dir, ignore_errors=True)

    def orchestrate():
        return orchestrator_mod.orchestrate_campaign(
            spec,
            shards=workload.shards,
            run_dir=run_dir,
            poll_interval=workload.poll_interval,
        )

    def resume():
        result = orchestrate()
        return result, orchestrator_mod.campaign_result_from_stream(
            result.merged_stream
        )

    def timed(fn):
        w0, t0 = time.time(), time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        return result, raw, raw * speed.scale_between(w0, time.time())

    with SpeedSampler() as speed:
        cold, cold_raw, cold_s = timed(orchestrate)
        merged_bytes = cold.merged_stream.read_bytes()
        records = load_stream(cold.merged_stream, quarantine=False).records
        problems = []
        if len(records) != spec.total_tasks():
            problems.append(
                f"{len(records)} records for {spec.total_tasks()} tasks"
            )
        scenarios = {s.name: s for s in spec.scenarios()}
        for record in records:
            metrics = SimulationMetrics.from_json(record["metrics"])
            scenario = scenarios[record["scenario"]].with_seed(record["seed"])
            problems += metrics_problems(metrics, scenario)
        shard_counts = [
            len(load_stream(s.stream, quarantine=False).records)
            for s in cold.shards
        ]
        resume_s = []
        launches = sum(status.attempts for status in cold.shards)
        requeues = cold.requeues
        for _ in range(resumes):
            (resumed, rebuilt), _, scaled = timed(resume)
            resume_s.append(scaled)
            launches += sum(status.attempts for status in resumed.shards)
            requeues += resumed.requeues
            after = [
                len(load_stream(s.stream, quarantine=False).records)
                for s in resumed.shards
            ]
            if after != shard_counts:
                problems.append("resume ran tasks instead of skipping them")
            if resumed.merged_stream.read_bytes() != merged_bytes:
                problems.append("resume changed the merged stream")
            for label, result in (
                ("resume", resumed.result),
                ("rebuilt", rebuilt),
            ):
                if result.metrics != cold.result.metrics:
                    problems.append(f"{label} aggregate differs from cold")
                if result.render() != cold.result.render():
                    problems.append(f"{label} rendering differs from cold")
    cold_scale = cold_s / cold_raw
    return CampaignCycle(
        cold_raw=cold_raw,
        cold_s=cold_s,
        resume_s=resume_s,
        setup_s=[
            (start - launched) * speed.scale_between(launched, start)
            for launched, start in _worker_startups(run_dir, cold.shards)
        ],
        task_s=[r["wall_time_s"] * cold_scale for r in records],
        launches=launches,
        requeues=requeues,
        problems=problems,
    )


def measure_campaign(
    workload: CampaignWorkload, seed: int, seconds: float, workdir: Path
) -> Outcome:
    """Untraced run: cold campaigns and resumes while time allows."""
    out = Outcome()
    out.notes["engine"] = resolve_engine(None)
    cycles = []
    started = time.perf_counter()
    while True:
        out.attempted += 1
        try:
            cycle = campaign_cycle(
                workload, seed, workdir / "run", CAMPAIGN_RESUMES
            )
        except Exception as exc:  # a raising campaign is a failed attempt
            out.fail(f"campaign {out.attempted}", [repr(exc)])
            break
        if cycle.problems:
            out.fail(f"campaign {out.attempted}", cycle.problems)
        cycles.append(cycle)
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(cycles) > seconds:
            break
    if not cycles or not all(c.setup_s for c in cycles):
        out.fail("campaign", ["worker start-up was not observed"])
        return out
    sim_time = workload.fields["sim_time"]
    per_second = [
        1e3 * t / sim_time for cycle in cycles for t in cycle.task_s
    ]
    run_raw = statistics.median(c.cold_raw for c in cycles)
    run_s = statistics.median(c.cold_s for c in cycles)
    out.notes.update(
        cycles=len(cycles),
        raw_run_s=round(run_raw, 3),
        speed_scale=round(run_s / run_raw, 3),
    )
    out.metrics = {
        "run_s": (run_s, "s"),
        "setup_s": (
            statistics.median(s for c in cycles for s in c.setup_s),
            "s",
        ),
        "slice_ms_p50": (statistics.median(per_second), "ms"),
        "slice_ms_p95": (quantile(per_second, 0.95), "ms"),
        "resume_s": (
            statistics.median(s for c in cycles for s in c.resume_s),
            "s",
        ),
        "peak_rss_mb": (peak_rss_mb(workers=workload.shards), "MB"),
    }
    return out


def trace_campaign(
    workload: CampaignWorkload, seed: int, workdir: Path, spans_path: Path
) -> Outcome:
    """Traced run: one traced cycle beside one untraced cycle."""
    out = Outcome(attempted=2)
    out.notes["engine"] = resolve_engine(None)
    plain = campaign_cycle(workload, seed, workdir / "plain", 1)
    tracer = Tracer()
    with instrument_campaign(tracer):
        traced = campaign_cycle(workload, seed, workdir / "traced", 1)
    for label, cycle in (("untraced", plain), ("traced", traced)):
        if cycle.problems:
            out.fail(f"{label} campaign", cycle.problems)
    _record_trace(tracer, spans_path, out)

    m = _zero_sim_layers()
    m["experiments.orchestrator.self_s"] = (
        tracer.self_s("experiments.orchestrator"),
        "s",
    )
    m["experiments.orchestrator.busy_ratio"] = (
        sum(traced.task_s) / (workload.shards * traced.cold_s),
        "ratio",
    )
    m["experiments.orchestrator.launches"] = (traced.launches, "count")
    m["experiments.orchestrator.requeues"] = (traced.requeues, "count")
    m["experiments.campaign.self_s"] = (
        tracer.self_s("experiments.campaign"),
        "s",
    )
    m["experiments.campaign.task_s_p50"] = (
        statistics.median(traced.task_s),
        "s",
    )
    m["experiments.stream.records"] = (
        tracer.counts["experiments.stream.records"],
        "count",
    )
    m["experiments.stream.load_s"] = (
        tracer.self_s("experiments.stream"),
        "s",
    )
    plain_s = plain.cold_s + sum(plain.resume_s)
    traced_s = traced.cold_s + sum(traced.resume_s)
    m["trace.run_s"] = (tracer.traced_ns() / 1e9, "s")
    m["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
    out.metrics = m
    return out


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, out_dir: Path
) -> Outcome:
    """Measure workload ``name``; working files live under ``out_dir``."""
    workload = WORKLOADS[name]
    workdir = out_dir / f"work-{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = out_dir / "traces" / f"{name}-seed{seed}.spans"
    try:
        if isinstance(workload, SimWorkload):
            if trace:
                return trace_simulation(workload, seed, spans)
            return measure_simulation(workload, seed, seconds, workdir)
        if trace:
            return trace_campaign(workload, seed, workdir, spans)
        return measure_campaign(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: Per-layer self-time metrics; they add up to ``trace.run_s``.
SELF_TIME_METRICS = tuple(f"{layer}.self_s" for layer in SIM_LAYERS) + (
    "experiments.orchestrator.self_s",
    "experiments.campaign.self_s",
    "experiments.stream.load_s",
)
