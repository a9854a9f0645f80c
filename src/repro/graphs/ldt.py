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
it node by node, the first time a node's adjacency is read.

The vote never needs a whole triangulation: it asks whether one UDG
link ``uv`` is an edge of ``A(Nk(x))``, about 8 times per neighbourhood.
:meth:`LocalDelaunayGraph.has` answers each (k-hop set, link) once:

1. **Gabriel shortcut.**  If no node of ``Nk(x)`` is inside the circle
   on diameter ``uv`` (the candidates are ``u`` and ``v``'s common UDG
   neighbours, cached per link), ``uv`` is Delaunay; one more node with
   a small circle through ``u`` and ``v`` makes sure a triangle without
   super-triangle vertex borders it.
2. **Per-link kernel.**  Otherwise
   :func:`~repro.geometry.delaunay.delaunay_link` runs a few
   empty-circle tests against ``Nk(x)`` and its super-triangle.
3. **Fallback.**  ``Nk(x)`` with fewer than 3 nodes or two nodes at one
   position, an undecided kernel (cocircular or collinear ties), or a
   "no" where ``A(Nk(x))`` might have no triangle at all is answered by
   triangulating ``Nk(x)`` with
   :func:`~repro.geometry.delaunay.delaunay_edges`, as before.

Every answer equals the triangulation's, hull-edge loss included (short
of predicates on the very edge of their tolerance band), so the LDTG is
unchanged.  On the paper's Table 1 scenario (GLR, 600 s,
seed 1) the shortcut answers 86 082 of 122 198 questions, the kernel
35 945, and 171 small neighbourhoods are triangulated, against 15 043
triangulations when every neighbourhood was.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.geometry.delaunay import (
    anchors_real_triangle,
    delaunay_edges,
    delaunay_link,
    super_triangle,
)
from repro.geometry.primitives import Point, distance_sq
from repro.graphs.udg import NodeId, SpatialGraph, unit_disk_graph

#: Relative margin on the squared radius of the circle on diameter uv:
#: a common neighbour counts as outside it only beyond this margin.
_GABRIEL_MARGIN = 1e-9


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
    first time it is asked and caches the answer.  The vote asks
    :meth:`has` whether each link of ``node`` is in the local Delaunay
    triangulation of ``node``, of its UDG neighbour and of their
    witnesses.  k-hop sets are cached per node and answers per distinct
    (k-hop set, link), so nodes whose k-hop sets coincide share them.
    Whole-graph reads (``adjacency``, ``edges()``, ``edge_count()``)
    evaluate every node through the same path.

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
        self._answers: dict[frozenset, dict[frozenset, bool]] = {}
        self._ghosts: dict[frozenset, tuple[Point, ...] | None] = {}
        self._triangulable: dict[frozenset, bool] = {}
        self._blockers: dict[frozenset, set[NodeId]] = {}
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

    def has(self, node: NodeId, link: frozenset) -> bool:
        """Whether the UDG ``link`` is an edge of ``A(Nk(node))``.

        Equal to ``link in local_delaunay_edges_of(udg, node, k)``, short
        of predicates on the very edge of their tolerance band, which
        Bowyer–Watson decides in its own vertex order.
        """
        return self._has(self._hood(node), link)

    def _has(self, hood: frozenset, link: frozenset) -> bool:
        answers = self._answers.get(hood)
        if answers is None:
            answers = self._answers[hood] = {}
        answer = answers.get(link)
        if answer is None:
            answer = answers[link] = self._decide(hood, link)
        return answer

    def _decide(self, hood: frozenset, link: frozenset) -> bool:
        """Gabriel shortcut, then kernel, then fallback (module doc)."""
        u, v = link
        if u not in hood or v not in hood:
            return False
        ghosts = self._ghosts_of(hood)
        if ghosts is None:
            return link in self._local_links(hood)
        positions = self._udg.positions
        pu, pv = positions[u], positions[v]
        if self._gabriel_blockers(link, pu, pv).isdisjoint(hood) and any(
            w != u and w != v and anchors_real_triangle(pu, pv, positions[w])
            for w in hood
        ):
            # The circle on diameter uv is empty, so uv is Delaunay, and
            # the triangle on w's side has no super-triangle vertex.
            return True
        answer = delaunay_link(
            pu,
            pv,
            [positions[w] for w in hood if w != u and w != v],
            ghosts,
        )
        if answer is None or (
            answer is False and not self._has_triangle(hood)
        ):
            # Undecided, or A(hood) may have no triangle at all, in
            # which case delaunay_edges answers with its collinear chain.
            answer = link in self._local_links(hood)
        return answer

    def _hood(self, node: NodeId) -> frozenset:
        """``Nk(node)``, including ``node``."""
        hood = self._hoods.get(node)
        if hood is None:
            hood = self._hoods[node] = frozenset(
                self._udg.k_hop_neighborhood(node, self.k) | {node}
            )
        return hood

    def _ghosts_of(self, hood: frozenset) -> tuple[Point, ...] | None:
        """The super-triangle of ``hood``; None when ``hood`` has fewer
        than 3 nodes or two at one position, which only a whole
        triangulation answers."""
        try:
            return self._ghosts[hood]
        except KeyError:
            pass
        positions = self._udg.positions
        points = [positions[m] for m in hood]
        ghosts = None
        if len(points) >= 3 and len(set(points)) == len(points):
            ghosts = super_triangle(points)
        self._ghosts[hood] = ghosts
        return ghosts

    def _has_triangle(self, hood: frozenset) -> bool:
        """Whether ``A(hood)`` surely has a triangle without a
        super-triangle vertex (so ``delaunay_edges`` reports its edges
        rather than a collinear chain).

        ``a`` and its nearest point ``b`` span a Delaunay edge; a third
        point with a small circle through ``a`` and ``b`` puts a real
        triangle on that side of it.
        """
        known = self._triangulable.get(hood)
        if known is None:
            positions = self._udg.positions
            a, *rest = (positions[m] for m in hood)
            b = min(rest, key=lambda p: distance_sq(a, p))
            known = self._triangulable[hood] = any(
                anchors_real_triangle(a, b, c) for c in rest if c != b
            )
        return known

    def _gabriel_blockers(
        self, link: frozenset, pu: Point, pv: Point
    ) -> set[NodeId]:
        """Common UDG neighbours of ``link`` not clearly outside the
        circle on diameter ``uv`` (every node inside that circle is a
        neighbour of both ends)."""
        blockers = self._blockers.get(link)
        if blockers is None:
            u, v = link
            mid = Point((pu.x + pv.x) / 2.0, (pu.y + pv.y) / 2.0)
            limit = distance_sq(pu, pv) / 4.0 * (1.0 + _GABRIEL_MARGIN)
            positions = self._udg.positions
            blockers = self._blockers[link] = {
                w
                for w in self._udg.neighbors(u) & self._udg.neighbors(v)
                if distance_sq(positions[w], mid) <= limit
            }
        return blockers

    def _local_links(self, hood: frozenset) -> set[frozenset]:
        """``A(hood)`` restricted to UDG links: the fallback."""
        links = self._links.get(hood)
        if links is None:
            links = self._links[hood] = _delaunay_links(self._udg, hood)
        return links

    def _vote(self, u: NodeId) -> set[NodeId]:
        """LDTG neighbours of ``u``: UDG links every witness accepts."""
        hood = self._hood
        has = self._has
        hood_u = hood(u)
        nbrs_u = self._udg.neighbors(u)
        accepted: set[NodeId] = set()
        for v in nbrs_u:
            link = frozenset((u, v))
            if not has(hood_u, link) or not has(hood(v), link):
                continue
            witnesses = (nbrs_u | self._udg.neighbors(v)) - {u, v}
            for w in witnesses:
                hood_w = hood(w)
                if u in hood_w and v in hood_w and not has(hood_w, link):
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
