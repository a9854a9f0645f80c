"""k-local Delaunay triangulation graph (k-LDTG) — the paper's spanner.

Construction (paper Section 2.1, after Li, Calinescu & Wan):

    A link ``uv`` is accepted in the final graph if it is in both
    ``A(Nk(u))`` and ``A(Nk(w))`` for all ``w ∈ N1(u)`` with
    ``u ∈ Nk(w)`` and ``v ∈ Nk(w)``,

where ``A(S)`` is the Delaunay triangulation of point set ``S`` and
``Nk(x)`` is the distance-k neighbourhood of ``x`` (including ``x``).
The witness condition over one-hop neighbours is what lets the paper
"obtain a planar graph directly, avoiding the extra time incurred by the
planar process" of the original LDel construction.

Two practical notes reflected below:

- Only UDG edges can be physical links, so every local Delaunay edge set
  is intersected with the UDG before voting.
- We apply the acceptance rule symmetrically (witnesses drawn from
  ``N1(u) ∪ N1(v)``, and ``uv`` must appear in both endpoints' local
  triangulations) so the result is an undirected graph by construction.

Each node's decision uses only its k-hop neighbourhood — the algorithm is
k-local in the paper's sense, and :class:`LocalDelaunayGraph` evaluates
it node by node, the first time a node's adjacency is read.  The
triangulations dominate the cost: before evaluation became lazy they
were 58% of a traced GLR run on the paper's Table 1 scenario (67% at
200 nodes), while only 26–31% of nodes asked for their LDTG neighbours
in an epoch and 25–29% of the triangulations repeated a neighbourhood
already triangulated in the same epoch.  So a snapshot triangulates only
the neighbourhoods the queried nodes' votes need, and each distinct
neighbourhood once.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.geometry.delaunay import delaunay_edges
from repro.geometry.primitives import Point
from repro.graphs.udg import NodeId, SpatialGraph, unit_disk_graph


def _delaunay_links(udg: SpatialGraph, members: Iterable[NodeId]) -> set[frozenset]:
    """Edges of ``A(members)`` restricted to UDG links."""
    members = sorted(members, key=repr)
    positions = udg.positions
    points = [positions[m] for m in members]
    result: set[frozenset] = set()
    for i, j in delaunay_edges(points):
        u, v = members[i], members[j]
        if v in udg.neighbors(u):
            result.add(frozenset((u, v)))
    return result


def local_delaunay_edges_of(
    udg: SpatialGraph, node: NodeId, k: int
) -> set[frozenset]:
    """Edges of ``A(Nk(node))`` restricted to UDG links.

    Returns undirected edges as frozensets of node ids.  ``Nk(node)``
    includes ``node`` itself.
    """
    return _delaunay_links(udg, udg.k_hop_neighborhood(node, k) | {node})


class LocalDelaunayGraph(SpatialGraph):
    """The k-LDTG over one UDG snapshot, evaluated node by node.

    ``neighbors(node)`` runs the symmetric witness vote for ``node`` the
    first time it is asked and caches the answer.  The vote reads the
    k-hop sets and local Delaunay edge sets of ``node``, its UDG
    neighbours and their witnesses.  k-hop sets are cached per node and
    edge sets per distinct k-hop set, so nodes whose k-hop sets coincide
    share one triangulation.  Whole-graph reads (``adjacency``,
    ``edges()``, ``edge_count()``) evaluate every node through the same
    path.

    Like :class:`~repro.graphs.udg.ArraySpatialGraph`, this is a
    read-only snapshot: mutating it is unsupported.
    """

    def __init__(
        self, positions: Mapping[NodeId, Point], udg: SpatialGraph, k: int
    ):
        # No super().__init__(): positions/adjacency are properties.
        self._positions = dict(positions)
        self._udg = udg
        self.k = k
        self._hoods: dict[NodeId, frozenset] = {}
        self._links: dict[frozenset, set[frozenset]] = {}
        self._adjacency: dict[NodeId, set[NodeId]] = {}
        self._complete = False

    @property
    def positions(self) -> dict[NodeId, Point]:
        return self._positions

    @property
    def adjacency(self) -> dict[NodeId, set[NodeId]]:
        if not self._complete:
            self._adjacency = {
                node: self.neighbors(node) for node in self._positions
            }
            self._complete = True
        return self._adjacency

    def neighbors(self, node: NodeId) -> set[NodeId]:
        nbrs = self._adjacency.get(node)
        if nbrs is None:
            if node not in self._positions:
                return set()
            nbrs = self._adjacency[node] = self._vote(node)
        return nbrs

    def degree(self, node: NodeId) -> int:
        return len(self.neighbors(node))

    def _hood(self, node: NodeId) -> frozenset:
        """``Nk(node)``, including ``node``."""
        hood = self._hoods.get(node)
        if hood is None:
            hood = self._hoods[node] = frozenset(
                self._udg.k_hop_neighborhood(node, self.k) | {node}
            )
        return hood

    def _local_links(self, node: NodeId) -> set[frozenset]:
        """``A(Nk(node))`` restricted to UDG links."""
        hood = self._hood(node)
        links = self._links.get(hood)
        if links is None:
            links = self._links[hood] = _delaunay_links(self._udg, hood)
        return links

    def _vote(self, u: NodeId) -> set[NodeId]:
        """LDTG neighbours of ``u``: UDG links every witness accepts."""
        hood = self._hood
        local = self._local_links
        nbrs_u = self._udg.neighbors(u)
        accepted: set[NodeId] = set()
        for v in nbrs_u:
            link = frozenset((u, v))
            if link not in local(u) or link not in local(v):
                continue
            witnesses = (nbrs_u | self._udg.neighbors(v)) - {u, v}
            for w in witnesses:
                if u in hood(w) and v in hood(w) and link not in local(w):
                    break
            else:
                accepted.add(v)
        return accepted


def local_delaunay_graph(
    positions: Mapping[NodeId, Point],
    radius: float,
    k: int = 2,
    udg: SpatialGraph | None = None,
) -> LocalDelaunayGraph:
    """The k-LDTG over ``positions`` with communication ``radius``.

    Args:
        positions: node locations.
        radius: transmission range defining the underlying UDG.
        k: locality parameter (paper experiments use k = 2).
        udg: pre-built unit-disk graph to reuse; built when omitted.

    Returns:
        A :class:`LocalDelaunayGraph`, a subgraph of the UDG whose
        adjacency is evaluated on first read.  For k >= 2 the result is
        planar (verified property-style in the test suite); it preserves
        the connectivity of the UDG.
    """
    if k < 1:
        raise ValueError("locality parameter k must be >= 1")
    if udg is None:
        udg = unit_disk_graph(positions, radius)
    return LocalDelaunayGraph(positions, udg, k)


def node_local_ldt_neighbors(
    udg: SpatialGraph, node: NodeId, k: int = 2
) -> set[NodeId]:
    """LDTG neighbours of ``node`` computed with only local information.

    This is the routine a *node* runs inside the protocol: it sees its
    k-hop neighbourhood (collected via beacons/IMEP), triangulates, and
    asks its one-hop neighbours to veto edges absent from their own local
    triangulations.  Because every participant of the vote is within
    ``k + 1`` hops, the computation is k-local: evaluating one node of a
    :class:`LocalDelaunayGraph` reads nothing else.
    """
    return set(LocalDelaunayGraph(udg.positions, udg, k).neighbors(node))
