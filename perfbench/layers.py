"""Where each layer is measured: the attributes the benchmark wraps.

Every wrapper patches the name the *caller* resolves at call time.  The
program uses ``from``-imports, so the LDTG is wrapped as
``repro.sim.neighbors.local_delaunay_graph`` (where the neighbour
service looks it up), the triangulation as
``repro.graphs.ldt.delaunay_edges``, and so on.  Methods are wrapped on
the class before the world is built, so bound methods captured at
construction (the MAC's ``position_fn``) are wrapped too.

Layer names are the program's module names: :data:`SIM_LAYERS` for a
simulation, and ``experiments.orchestrator``, ``experiments.campaign``
and ``experiments.stream`` for an orchestrated campaign.
"""

from __future__ import annotations

from repro.experiments import campaign as campaign_mod
from repro.experiments import orchestrator as orchestrator_mod
from repro.experiments import stream as stream_mod
from repro.geometry import delaunay as delaunay_mod
from repro.graphs import ldt as ldt_mod
from repro.sim import neighbors as neighbors_mod
from repro.sim.arraystate import ArrayState
from repro.sim.mac import Medium, NodeMac
from repro.sim.world import NodeApi

from tracer import Patcher, Tracer

#: Span layers of a simulation run, root first.
SIM_LAYERS = (
    "sim.engine",
    "mobility",
    "graphs.udg",
    "graphs.ldt",
    "geometry.delaunay",
    "sim.mac",
    "core.protocol",
    "baselines.epidemic",
)

#: Protocol name -> the layer its per-node instances belong to.
PROTOCOL_LAYERS = {
    "glr": "core.protocol",
    "epidemic": "baselines.epidemic",
}

#: Entry points of a per-node protocol instance (world -> protocol).
PROTOCOL_ENTRY_POINTS = (
    "start",
    "on_message_created",
    "on_frame",
    "sample_storage",
    "storage_peak",
    "storage_time_average",
)

#: Shared-medium queries; counted, not spanned (they run inside the MAC).
MEDIUM_CALLS = ("register", "contention_at", "busy_until", "interferers_at")


def instrument_simulation(
    tracer: Tracer,
    protocol: str,
    protocol_cls: type,
    mobility_cls: type,
) -> Patcher:
    """Install every simulation-layer wrapper; restore with the patcher."""
    patch = Patcher()
    span = tracer.wrap
    protocol_layer = PROTOCOL_LAYERS[protocol]

    for name in ("position", "positions", "positions_array"):
        patch.wrap(mobility_cls, name, lambda fn: span("mobility", fn))

    patch.wrap(
        neighbors_mod,
        "unit_disk_graph",
        lambda fn: span("graphs.udg", fn),
    )
    patch.wrap(
        ArrayState, "unit_disk_snapshot", lambda fn: span("graphs.udg", fn)
    )

    patch.wrap(
        neighbors_mod,
        "local_delaunay_graph",
        lambda fn: span("graphs.ldt", fn),
    )
    patch.wrap(
        ldt_mod,
        "delaunay_edges",
        lambda fn: span(
            "geometry.delaunay",
            tracer.counted(
                "geometry.delaunay.points", fn, weight=lambda pts: len(pts)
            ),
        ),
    )
    patch.wrap(
        delaunay_mod,
        "in_circle",
        lambda fn: tracer.counted("geometry.delaunay.in_circle", fn),
    )

    # The MAC is entered by a protocol handing it a frame (enqueue) and
    # by the calendar completing a transmission (_complete); backoff
    # and retries run inside those two.
    patch.wrap(NodeMac, "enqueue", lambda fn: span("sim.mac", fn))
    patch.wrap(NodeMac, "_complete", lambda fn: span("sim.mac", fn))
    for name in MEDIUM_CALLS:
        patch.wrap(
            Medium,
            name,
            lambda fn: tracer.counted("sim.mac.medium_calls", fn),
        )

    for name in PROTOCOL_ENTRY_POINTS:
        patch.wrap(protocol_cls, name, lambda fn: span(protocol_layer, fn))

    # Protocol timers: callbacks handed to the node API fire from the
    # calendar, so they are wrapped where the protocol hands them over.
    schedule = NodeApi.schedule
    periodic = NodeApi.periodic

    def traced_schedule(api, delay, callback):
        return schedule(api, delay, span(protocol_layer, callback))

    def traced_periodic(api, interval, callback, jitter=0.0):
        return periodic(
            api, interval, span(protocol_layer, callback), jitter=jitter
        )

    patch.set(NodeApi, "schedule", traced_schedule)
    patch.set(NodeApi, "periodic", traced_periodic)
    return patch


def instrument_campaign(tracer: Tracer) -> Patcher:
    """Install the campaign-layer wrappers; restore with the patcher.

    The supervisor loop is ``experiments.orchestrator``; the stream
    reads, merges and tail counts it makes are ``experiments.stream``;
    task keys, spec hashing and aggregation are
    ``experiments.campaign``.  Task execution happens in worker
    processes and is seen only through the records they write.
    """
    patch = Patcher()
    span = tracer.wrap

    def reading(fn):
        def load(*args, **kwargs):
            info = fn(*args, **kwargs)
            tracer.counts["experiments.stream.records"] += len(info.records)
            return info

        return span("experiments.stream", load)

    patch.wrap(
        orchestrator_mod,
        "orchestrate_campaign",
        lambda fn: span("experiments.orchestrator", fn),
    )
    for owner in (orchestrator_mod, campaign_mod):
        patch.wrap(owner, "load_stream", reading)
    for name in ("merge_streams", "stream_task_count"):
        patch.wrap(
            orchestrator_mod, name, lambda fn: span("experiments.stream", fn)
        )
    patch.wrap(
        stream_mod.StreamTailCounter,
        "count",
        lambda fn: span("experiments.stream", fn),
    )
    for name in ("task_key", "campaign_spec_hash", "campaign_result_from_stream"):
        patch.wrap(
            orchestrator_mod, name, lambda fn: span("experiments.campaign", fn)
        )
    return patch
