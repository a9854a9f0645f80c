"""Microbenchmarks for the substrates on the simulator's hot paths.

These are conventional pytest-benchmark timings (multiple rounds): the
Delaunay construction, LDTG build, RWP position queries and the event
engine dominate the simulation profile, so regressions here translate
directly into slower experiment harness runs.
"""

import random

from repro.geometry.delaunay import delaunay_triangulation
from repro.geometry.primitives import Point
from repro.graphs.ldt import local_delaunay_graph
from repro.graphs.udg import unit_disk_graph
from repro.mobility.base import Region
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.sim.engine import Simulator
from repro.sim.mac import Medium
from repro.sim.radio import RadioConfig


def _points(n, seed, side=1000.0):
    rng = random.Random(seed)
    return [Point(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n)]


def test_delaunay_50_points(benchmark):
    pts = _points(50, 1)
    tri = benchmark(delaunay_triangulation, pts)
    assert len(tri.triangles) > 0


def test_unit_disk_graph_50_nodes(benchmark):
    positions = {i: p for i, p in enumerate(_points(50, 2))}
    graph = benchmark(unit_disk_graph, positions, 200.0)
    assert graph.edge_count() > 0


def test_unit_disk_rebuild_vs_naive_double_discovery(benchmark):
    """Beacon-tick rebuild at paper density (50 nodes, 1500x300, 100 m).

    The rebuild discovers each edge once via forward-cell pair
    iteration (GridIndex.iter_pairs_within); the naive per-node query
    loop it replaced found every edge twice.  Reference numbers on the
    dev container: ~195 us naive vs ~91 us deduped (2.1x) at 100 m,
    2.3x at 250 m.  This runs every beacon interval of every simulated
    second, the hottest loop in the simulator.
    """
    rng = random.Random(7)
    positions = {
        i: Point(rng.uniform(0, 1500.0), rng.uniform(0, 300.0))
        for i in range(50)
    }

    def naive_double_discovery(positions, radius):
        # The pre-dedupe implementation, kept as the comparison baseline.
        from repro.graphs.udg import GridIndex, SpatialGraph

        graph = SpatialGraph()
        index = GridIndex(cell_size=radius)
        for node, p in positions.items():
            graph.add_node(node, p)
            index.insert(node, p)
        for node, p in positions.items():
            for other, _ in index.neighbors_within(p, radius):
                if other != node:
                    graph.adjacency[node].add(other)
        return graph

    deduped = benchmark(unit_disk_graph, positions, 100.0)
    assert deduped.edges() == naive_double_discovery(positions, 100.0).edges()


def _paper_density_mobility(n=800, seed=11):
    """An RWP population at the paper's node density, scaled up to n.

    The paper's Table 1 places 50 nodes on 1500 m x 300 m; scaling both
    region sides by sqrt(n/50) keeps nodes-per-square-metre fixed, so
    the per-tick edge work grows the way a larger paper scenario would.
    """
    import math

    scale = math.sqrt(n / 50)
    region = Region(1500.0 * scale, 300.0 * scale)
    return RandomWaypointMobility(list(range(n)), region, seed=seed)


def test_reference_rebuild_paper_density(benchmark):
    """Beacon rebuild (mobility + UDG) on the pure-Python engine.

    800 nodes at paper density, 100 m range — the reference half of the
    engine comparison; ``test_vectorized_rebuild_paper_density`` times
    the identical work on the numpy core.  Each call advances the clock
    one beacon interval, as the simulator does.
    """
    mobility = _paper_density_mobility()
    clock = {"t": 0.0}

    def rebuild():
        clock["t"] += 1.0
        graph = unit_disk_graph(mobility.positions(clock["t"]), 100.0)
        return graph.edge_count()

    assert benchmark(rebuild) > 0


def test_vectorized_rebuild_paper_density(benchmark):
    """Beacon rebuild (batch mobility + array UDG) on the numpy engine.

    The vectorized counterpart of
    ``test_reference_rebuild_paper_density``: same population, same
    radius, same advancing clock.  The ratio between the two is the
    engine speedup; ``bench_campaign.py`` gates it at paper density.
    """
    from repro.sim.arraystate import ArrayState

    mobility = _paper_density_mobility()
    clock = {"t": 0.0}

    def rebuild():
        clock["t"] += 1.0
        state = ArrayState.from_mobility(mobility, clock["t"])
        return state.unit_disk_snapshot(100.0).edge_count()

    assert benchmark(rebuild) > 0


def test_engines_rebuild_identical_graphs():
    """The two rebuild benchmarks above time *the same* computation."""
    from repro.sim.arraystate import ArrayState

    reference_mobility = _paper_density_mobility(n=200)
    vectorized_mobility = _paper_density_mobility(n=200)
    for t in (1.0, 2.0, 3.0):
        reference = unit_disk_graph(reference_mobility.positions(t), 100.0)
        state = ArrayState.from_mobility(vectorized_mobility, t)
        snapshot = state.unit_disk_snapshot(100.0)
        assert snapshot.positions == reference.positions
        assert snapshot.edges() == reference.edges()


def test_ldtg_50_nodes(benchmark):
    positions = {i: p for i, p in enumerate(_points(50, 3))}
    graph = benchmark(local_delaunay_graph, positions, 200.0, 2)
    assert graph.edge_count() > 0


def test_rwp_position_queries(benchmark):
    region = Region(1500.0, 300.0)
    mobility = RandomWaypointMobility(list(range(50)), region, seed=4)

    def query_sweep():
        total = 0.0
        for t in range(0, 1000, 10):
            total += mobility.position(t % 50, float(t)).x
        return total

    assert benchmark(query_sweep) > 0


def test_event_engine_throughput(benchmark):
    def run_10k_events():
        sim = Simulator()
        count = [0]

        def tick():
            count[0] += 1
            if count[0] < 10_000:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return count[0]

    assert benchmark(run_10k_events) == 10_000


def test_medium_epidemic_window(benchmark):
    """Shared-medium traffic of Table 1 epidemic load, 2 s of it.

    The epidemic Table 1 run puts about 90 frames per second on the air
    (52k frames in 600 s) from 50 nodes on 1500 m x 300 m.  Each attempt
    asks ``contention_at`` and ``busy_until`` and registers its airtime;
    each completion asks ``interferers_at``.  The second simulated
    second runs against a full 1 s window of finished transmissions,
    the records every query used to rescan.
    """
    rng = random.Random(5)
    nodes = [
        Point(rng.uniform(0, 1500.0), rng.uniform(0, 300.0)) for _ in range(50)
    ]
    # (time, sender, backoff): 32 slots of 20 us at most.
    attempts = sorted(
        (rng.uniform(0.0, 2.0), rng.randrange(50), rng.uniform(0, 0.00064))
        for _ in range(180)
    )
    radio = RadioConfig(range_m=100.0)
    airtime = radio.airtime(1032)

    def two_seconds():
        sim = Simulator()
        medium = Medium(sim, radio)
        heard = 0
        for now, node, backoff in attempts:
            sim.now = now
            pos = nodes[node]
            heard += medium.contention_at(pos, exclude=node)
            start = medium.busy_until(pos, exclude=node) + backoff
            medium.register(node, pos, start, start + airtime)
            heard += medium.interferers_at(
                pos, start, start + airtime, exclude=node
            )
        return heard

    assert benchmark(two_seconds) > 0
