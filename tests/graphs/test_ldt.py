"""Tests for the k-local Delaunay triangulation graph (k-LDTG).

The load-bearing claims from the paper that we verify:

- the LDTG is a subgraph of the UDG (links are physical);
- for k = 2 it is planar on random instances (the paper's justification
  for building it the way it does);
- it preserves UDG connectivity (a spanner must not disconnect);
- the node-local computation agrees with the global construction;
- the lazy, memoised LDTG answers exactly what the eager whole-graph
  construction it replaced answered, however it is queried.
"""

import math
import random

import pytest

from repro.geometry.delaunay import delaunay_edges
from repro.geometry.primitives import Point
from repro.graphs import ldt as ldt_mod
from repro.graphs.connectivity import connected_components
from repro.graphs.faces import is_planar_embedding
from repro.graphs.ldt import (
    local_delaunay_edges_of,
    local_delaunay_graph,
    node_local_ldt_neighbors,
)
from repro.graphs.udg import SpatialGraph, unit_disk_graph
from repro.sim.arraystate import numpy_or_none

from tests.conftest import random_points


def positions_of(pts):
    return {i: p for i, p in enumerate(pts)}


def node_sets(components):
    return [frozenset(c) for c in components]


class TestConstruction:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            local_delaunay_graph({0: Point(0, 0)}, radius=10.0, k=0)

    def test_empty_and_singleton(self):
        assert local_delaunay_graph({}, radius=10.0).edge_count() == 0
        g = local_delaunay_graph({0: Point(0, 0)}, radius=10.0)
        assert g.edge_count() == 0

    def test_two_nodes_in_range_connected(self):
        positions = {0: Point(0, 0), 1: Point(5, 0)}
        g = local_delaunay_graph(positions, radius=10.0)
        assert g.neighbors(0) == {1}

    def test_two_nodes_out_of_range_not_connected(self):
        positions = {0: Point(0, 0), 1: Point(50, 0)}
        g = local_delaunay_graph(positions, radius=10.0)
        assert g.edge_count() == 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("radius", [120.0, 200.0])
    def test_subgraph_of_udg(self, seed, radius):
        pts = random_points(35, seed)
        positions = positions_of(pts)
        udg = unit_disk_graph(positions, radius)
        ldt = local_delaunay_graph(positions, radius, k=2, udg=udg)
        for u, v in ldt.edges():
            assert v in udg.neighbors(u)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("radius", [120.0, 200.0, 350.0])
    def test_planar_for_k2(self, seed, radius):
        pts = random_points(35, seed)
        ldt = local_delaunay_graph(positions_of(pts), radius, k=2)
        assert is_planar_embedding(ldt)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("radius", [120.0, 250.0])
    def test_preserves_connectivity(self, seed, radius):
        pts = random_points(35, seed)
        positions = positions_of(pts)
        udg = unit_disk_graph(positions, radius)
        ldt = local_delaunay_graph(positions, radius, k=2, udg=udg)
        assert node_sets(connected_components(udg)) == node_sets(
            connected_components(ldt)
        )

    @pytest.mark.parametrize("seed", [7, 8])
    def test_dense_graph_sparsified(self, seed):
        # At a radius where the UDG is dense, the planar LDTG must have
        # at most 3n - 6 edges; the UDG will have far more.
        pts = random_points(35, seed, side=500.0)
        positions = positions_of(pts)
        udg = unit_disk_graph(positions, 300.0)
        ldt = local_delaunay_graph(positions, 300.0, k=2, udg=udg)
        n = len(pts)
        assert ldt.edge_count() <= 3 * n - 6
        assert ldt.edge_count() < udg.edge_count()


class TestLocalEdges:
    def test_local_edges_restricted_to_udg(self):
        # Distant points may be Delaunay neighbours geometrically but
        # cannot form radio links.
        positions = {
            0: Point(0, 0),
            1: Point(90, 0),
            2: Point(180, 0),
            3: Point(90, 80),
        }
        udg = unit_disk_graph(positions, 100.0)
        edges = local_delaunay_edges_of(udg, 0, k=2)
        for edge in edges:
            u, v = tuple(edge)
            assert v in udg.neighbors(u)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_node_local_matches_global(self, seed):
        pts = random_points(30, seed)
        positions = positions_of(pts)
        radius = 180.0
        udg = unit_disk_graph(positions, radius)
        global_ldt = local_delaunay_graph(positions, radius, k=2, udg=udg)
        for node in udg.nodes():
            local = node_local_ldt_neighbors(udg, node, k=2)
            assert local == global_ldt.neighbors(node), (
                f"node {node}: local {sorted(local)} != "
                f"global {sorted(global_ldt.neighbors(node))}"
            )

    def test_isolated_node_has_no_ldt_neighbors(self):
        positions = {0: Point(0, 0), 1: Point(500, 0), 2: Point(505, 0)}
        udg = unit_disk_graph(positions, 50.0)
        assert node_local_ldt_neighbors(udg, 0, k=2) == set()


class TestAgainstRdgIntuition:
    def test_triangle_fully_kept(self):
        positions = {
            0: Point(0, 0),
            1: Point(10, 0),
            2: Point(5, 8),
        }
        ldt = local_delaunay_graph(positions, radius=20.0, k=1)
        assert ldt.edge_count() == 3

    def test_crossing_edge_eliminated_in_dense_cluster(self):
        # Four nodes in convex position, all mutually in range: the
        # Delaunay triangulation keeps one diagonal only.
        positions = {
            0: Point(0, 0),
            1: Point(10, 0),
            2: Point(10, 10),
            3: Point(0, 10),
        }
        ldt = local_delaunay_graph(positions, radius=30.0, k=2)
        edges = ldt.edges()
        diagonals = [e for e in edges if e in {(0, 2), (1, 3)}]
        assert len(diagonals) <= 1
        assert ldt.edge_count() <= 5


# ----------------------------------------------------------------------
# Differential suite: lazy LDTG against the eager construction
# ----------------------------------------------------------------------


def eager_local_delaunay_edges_of(udg, node, k):
    """Reference: the local Delaunay edge set, as first written."""
    members = sorted(
        udg.k_hop_neighborhood(node, k) | {node}, key=repr
    )
    points = [udg.positions[m] for m in members]
    edges = delaunay_edges(points)
    result: set[frozenset] = set()
    for i, j in edges:
        u, v = members[i], members[j]
        if v in udg.neighbors(u):
            result.add(frozenset((u, v)))
    return result


def eager_local_delaunay_graph(positions, radius, k=2, udg=None):
    """Reference: the eager whole-graph k-LDTG and its vote loop, as
    they were before evaluation became lazy."""
    if k < 1:
        raise ValueError("locality parameter k must be >= 1")
    if udg is None:
        udg = unit_disk_graph(positions, radius)

    local_edges: dict = {
        node: eager_local_delaunay_edges_of(udg, node, k)
        for node in udg.nodes()
    }
    k_hoods: dict = {
        node: udg.k_hop_neighborhood(node, k) | {node} for node in udg.nodes()
    }

    graph = SpatialGraph()
    for node, p in positions.items():
        graph.add_node(node, p)

    for u, v in udg.edges():
        link = frozenset((u, v))
        if link not in local_edges[u] or link not in local_edges[v]:
            continue
        witnesses = (udg.neighbors(u) | udg.neighbors(v)) - {u, v}
        accepted = True
        for w in witnesses:
            if u in k_hoods[w] and v in k_hoods[w]:
                if link not in local_edges[w]:
                    accepted = False
                    break
        if accepted:
            graph.add_edge(u, v)
    return graph


#: Snapshot builders: the reference engine's UDG and the vectorized
#: engine's array-backed UDG over the same positions.
SNAPSHOTS = ["udg"] + (["array"] if numpy_or_none() else [])


def snapshot(kind, positions, radius):
    if kind == "udg":
        return unit_disk_graph(positions, radius)
    from repro.sim.arraystate import ArrayState

    ids = list(positions)
    state = ArrayState(ids, [[positions[i].x, positions[i].y] for i in ids])
    return state.unit_disk_snapshot(radius)


def assert_lazy_matches_eager(positions, radius, k, rng):
    """Per snapshot kind: answer a shuffled prefix of per-node queries
    (empty or complete for some seeds), then every whole-graph read."""
    reference = eager_local_delaunay_graph(positions, radius, k=k)
    expected = {node: reference.neighbors(node) for node in positions}
    for kind in SNAPSHOTS:
        udg = snapshot(kind, positions, radius)
        lazy = local_delaunay_graph(positions, radius, k=k, udg=udg)
        order = list(positions)
        rng.shuffle(order)
        for node in order[: rng.randrange(len(order) + 1)]:
            assert lazy.neighbors(node) == expected[node], (kind, node)
        assert lazy.adjacency == expected, kind
        assert lazy.edges() == reference.edges(), kind
        assert lazy.edge_count() == reference.edge_count(), kind


#: (nodes, radius) in a 1000 m square: mean UDG degree about 2, 4 and 7.5.
DENSITIES = {
    "sparse": (15, 230.0),
    "medium": (15, 370.0),
    "dense": (15, 540.0),
}


class TestLazyMatchesEager:
    @pytest.mark.parametrize("density", sorted(DENSITIES))
    def test_random_placements(self, density):
        n, radius = DENSITIES[density]
        for seed in range(200):
            rng = random.Random(seed)
            positions = positions_of(random_points(n, seed))
            assert_lazy_matches_eager(positions, radius, 2, rng)

    @pytest.mark.parametrize("k", [1, 3])
    def test_other_localities(self, k):
        for seed in range(20):
            rng = random.Random(seed)
            positions = positions_of(random_points(18, seed))
            assert_lazy_matches_eager(positions, 360.0, k, rng)

    def test_colocated_duplicates(self):
        for seed in range(40):
            rng = random.Random(seed)
            pts = random_points(14, seed)
            # Several nodes share another node's exact position.
            for i in range(4):
                pts.append(pts[rng.randrange(len(pts))])
            assert_lazy_matches_eager(positions_of(pts), 360.0, 2, rng)

    @pytest.mark.parametrize("slope", [0.0, 0.5, None])
    def test_collinear_sets(self, slope):
        rng = random.Random(7)
        xs = sorted(rng.uniform(0, 1000) for _ in range(12))
        if slope is None:
            pts = [Point(300.0, x) for x in xs]
        else:
            pts = [Point(x, 100.0 + slope * x) for x in xs]
        for radius in (150.0, 400.0):
            assert_lazy_matches_eager(positions_of(pts), radius, 2, rng)

    def test_collinear_cluster_beside_random_nodes(self):
        for seed in range(20):
            rng = random.Random(seed)
            pts = random_points(10, seed)
            pts += [Point(400.0 + 30.0 * i, 500.0) for i in range(6)]
            assert_lazy_matches_eager(positions_of(pts), 300.0, 2, rng)


def assert_has_matches_triangulation(positions, radius, k):
    """Per snapshot kind: for every UDG link inside every k-hop set, the
    per-link answer is membership in that set's triangulation."""
    for kind in SNAPSHOTS:
        udg = snapshot(kind, positions, radius)
        ldt = local_delaunay_graph(positions, radius, k=k, udg=udg)
        for x in positions:
            hood = udg.k_hop_neighborhood(x, k) | {x}
            expected = eager_local_delaunay_edges_of(udg, x, k)
            for u in hood:
                for v in udg.neighbors(u) & hood:
                    link = frozenset((u, v))
                    assert ldt.has(x, link) == (link in expected), (
                        kind, x, sorted(link)
                    )


class TestPerLinkAnswers:
    @pytest.mark.parametrize("density", sorted(DENSITIES))
    def test_random_placements(self, density):
        n, radius = DENSITIES[density]
        for seed in range(200):
            positions = positions_of(random_points(n, seed))
            assert_has_matches_triangulation(positions, radius, 2)

    @pytest.mark.parametrize("k", [1, 3])
    def test_other_localities(self, k):
        for seed in range(30):
            positions = positions_of(random_points(18, seed))
            assert_has_matches_triangulation(positions, 360.0, k)

    def test_near_cocircular(self):
        # Twelve nodes on a 150 m circle, each nudged by 0 to 1 um:
        # in-circle tests on the edge of the tolerance band.
        for seed in range(30):
            rng = random.Random(seed)
            pts = [
                Point(
                    500.0 + 150.0 * math.cos(a) + rng.uniform(-1e-6, 1e-6),
                    500.0 + 150.0 * math.sin(a) + rng.uniform(-1e-6, 1e-6),
                )
                for a in sorted(rng.uniform(0, 2 * math.pi) for _ in range(12))
            ]
            pts.append(Point(500.0, 500.0))
            for radius in (160.0, 320.0):
                assert_has_matches_triangulation(positions_of(pts), radius, 2)

    def test_flat_strips(self):
        # Nodes along a road 1 m wide: circles through near-collinear
        # triples reach the super-triangle, where the triangulation
        # drops even links whose diameter circle is empty.
        for seed in range(300):
            rng = random.Random(seed)
            pts = [
                Point(rng.uniform(0, 300.0), rng.uniform(0, 1.0))
                for _ in range(rng.randrange(3, 8))
            ]
            assert_has_matches_triangulation(positions_of(pts), 320.0, 2)

    @pytest.mark.parametrize("radius", [75.0, 110.0, 160.0])
    def test_square_lattice(self, radius):
        # Every unit square is an exactly cocircular quadruple.
        pts = [Point(50.0 * i, 50.0 * j) for i in range(5) for j in range(5)]
        assert_has_matches_triangulation(positions_of(pts), radius, 2)

    def test_colocated_duplicates(self):
        for seed in range(40):
            rng = random.Random(seed)
            pts = random_points(14, seed)
            for _ in range(4):
                pts.append(pts[rng.randrange(len(pts))])
            assert_has_matches_triangulation(positions_of(pts), 360.0, 2)

    def test_collinear_clusters(self):
        for seed in range(20):
            pts = random_points(10, seed)
            pts += [Point(400.0 + 30.0 * i, 500.0) for i in range(6)]
            pts += [Point(100.0, 100.0 + 25.0 * i) for i in range(4)]
            assert_has_matches_triangulation(positions_of(pts), 300.0, 2)


class TestMemoisation:
    """Each node's ``τ`` is computed once per link and snapshot, each
    (k-hop set, link) is answered once, and only what is asked costs.

    ``work`` records each ``τ`` fill as its (link ends, node) pair, each
    answer as its (k-hop set, link) pair, each super-triangle decision as
    its link ends, and each fallback triangulation as the size of its
    point set.
    """

    @pytest.fixture
    def work(self, monkeypatch):
        record = {"tau": [], "answers": [], "ghosts": [], "triangulated": []}
        add = ldt_mod.LinkCircles.add
        decide = ldt_mod.LocalDelaunayGraph._decide
        ghosts = ldt_mod.delaunay_link
        triangulate = ldt_mod.delaunay_edges

        def counted_add(circles, nodes, positions):
            ends = frozenset((circles.u, circles.v))
            record["tau"].extend((ends, node) for node in nodes)
            return add(circles, nodes, positions)

        def counted_decide(graph, hood, link):
            record["answers"].append((hood, link))
            return decide(graph, hood, link)

        def counted_ghosts(u, v, left, right, vertices):
            record["ghosts"].append(frozenset((u, v)))
            return ghosts(u, v, left, right, vertices)

        def counted_triangulate(points):
            record["triangulated"].append(len(points))
            return triangulate(points)

        monkeypatch.setattr(ldt_mod.LinkCircles, "add", counted_add)
        monkeypatch.setattr(ldt_mod.LocalDelaunayGraph, "_decide", counted_decide)
        monkeypatch.setattr(ldt_mod, "delaunay_link", counted_ghosts)
        monkeypatch.setattr(ldt_mod, "delaunay_edges", counted_triangulate)
        return record

    #: Four nodes in range of each other, in convex position but not on
    #: one circle: every 2-hop set is all four.  The diagonals are
    #: decided by their circle parameters; each side has an empty side,
    #: whose circle reaches the super-triangle.
    KITE = {0: Point(0, 0), 1: Point(10, 0), 2: Point(12, 12), 3: Point(0, 10)}

    def test_one_tau_per_link_and_node(self, work):
        ldt = local_delaunay_graph(self.KITE, radius=30.0, k=2)
        assert work["tau"] == []
        assert ldt.neighbors(0) == {1, 3}
        assert ldt.edge_count() == 5
        # Six links, each with two other nodes.
        assert len(work["tau"]) == len(set(work["tau"])) == 12
        sides = {
            frozenset((self.KITE[a], self.KITE[b]))
            for a, b in [(0, 1), (1, 2), (2, 3), (3, 0)]
        }
        assert sorted(work["ghosts"], key=repr) == sorted(sides, key=repr)
        assert work["triangulated"] == []

    def test_answers_are_memoised_per_k_hop_set_and_link(self, work):
        ldt = local_delaunay_graph(self.KITE, radius=30.0, k=2)
        for node in self.KITE:
            ldt.neighbors(node)
        # Every node asked about every link (as endpoint or witness), all
        # in the one k-hop set they share.
        assert len(work["answers"]) == len(set(work["answers"])) == 6
        link = frozenset((0, 2))
        assert {ldt.has(node, link) for node in self.KITE} == {False}
        assert len(work["answers"]) == 6
        assert len(work["tau"]) == 12

    def test_unqueried_cluster_costs_nothing(self, work):
        # Two kites far apart and an isolated node: a query in one kite
        # never evaluates the other, and the isolated node evaluates
        # nothing.
        positions = dict(self.KITE)
        positions.update(
            {n + 4: Point(p.x + 500.0, p.y) for n, p in self.KITE.items()}
        )
        positions[8] = Point(900, 900)
        ldt = local_delaunay_graph(positions, radius=30.0, k=2)
        assert ldt.neighbors(5) == {4, 6, 7}
        asked = len(work["tau"])
        assert asked > 0
        assert all(p.x >= 500.0 for ends, _ in work["tau"] for p in ends)
        assert ldt.neighbors(8) == set()
        assert len(work["tau"]) == asked
        assert work["triangulated"] == []

    def test_small_and_duplicate_k_hop_sets_fall_back(self, work):
        pair = {0: Point(0, 0), 1: Point(5, 0)}
        ldt = local_delaunay_graph(pair, radius=10.0, k=2)
        assert ldt.neighbors(0) == {1}
        assert ldt.neighbors(1) == {0}
        assert work["tau"] == [] and work["ghosts"] == []
        assert work["triangulated"] == [2]

        shared = {0: Point(0, 0), 1: Point(10, 0), 2: Point(5, 8), 3: Point(5, 8)}
        ldt = local_delaunay_graph(shared, radius=20.0, k=2)
        reference = eager_local_delaunay_graph(shared, 20.0)
        assert ldt.adjacency == {n: reference.neighbors(n) for n in shared}
        assert work["tau"] == [] and work["ghosts"] == []
        assert work["triangulated"] == [2, 4]

    def test_general_position_never_falls_back(self, work):
        positions = positions_of(random_points(40, 3))
        ldt = local_delaunay_graph(positions, radius=300.0, k=2)
        assert ldt.edge_count() > 0
        assert work["tau"]
        assert work["triangulated"] == []


class TestWorkCounters:
    """The LDTG's deterministic work on a short Table 1 run (60 s, 50
    messages, seed 1), pinned exactly.

    A change that keeps every answer but does more work, such as sending
    more questions to the super-triangle or to the fallback, moves these
    counts even when no metric moves.
    """

    def test_short_table1_run(self, monkeypatch):
        from repro.experiments.runner import run_single
        from repro.experiments.scenarios import PAPER_TABLE1
        from repro.geometry import delaunay as delaunay_mod

        counts = dict.fromkeys(
            ("tau", "answers", "ghosts", "ghost_in_circle", "triangulated"), 0
        )
        add = ldt_mod.LinkCircles.add
        decide = ldt_mod.LocalDelaunayGraph._decide
        ghosts = ldt_mod.delaunay_link
        in_circle = delaunay_mod.in_circle
        triangulate = ldt_mod.delaunay_edges
        deciding_ghosts = []

        def counted_add(circles, nodes, positions):
            counts["tau"] += len(nodes)
            return add(circles, nodes, positions)

        def counted_decide(graph, hood, link):
            counts["answers"] += 1
            return decide(graph, hood, link)

        def counted_ghosts(*args):
            counts["ghosts"] += 1
            deciding_ghosts.append(True)
            try:
                return ghosts(*args)
            finally:
                deciding_ghosts.pop()

        def counted_in_circle(*args):
            counts["ghost_in_circle"] += bool(deciding_ghosts)
            return in_circle(*args)

        def counted_triangulate(points):
            counts["triangulated"] += 1
            return triangulate(points)

        monkeypatch.setattr(ldt_mod.LinkCircles, "add", counted_add)
        monkeypatch.setattr(ldt_mod.LocalDelaunayGraph, "_decide", counted_decide)
        monkeypatch.setattr(ldt_mod, "delaunay_link", counted_ghosts)
        monkeypatch.setattr(delaunay_mod, "in_circle", counted_in_circle)
        monkeypatch.setattr(ldt_mod, "delaunay_edges", counted_triangulate)
        scenario = PAPER_TABLE1.but(
            sim_time=60.0, message_count=50, engine="reference"
        )
        run_single(scenario, "glr")
        assert counts == {
            "tau": 25235,
            "answers": 8663,
            "ghosts": 1069,
            "ghost_in_circle": 1069,
            "triangulated": 17,
        }
