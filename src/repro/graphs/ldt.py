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

The vote asks whether one UDG link ``uv`` is an edge of ``A(Nk(x))``;
:meth:`LocalDelaunayGraph.has` answers each (k-hop set, link) once.
Circles through ``u`` and ``v`` have their centres at ``m + t·n``, with
``m`` the midpoint of ``uv`` and ``n = perp(v − u)``.  A node ``w`` left
of ``u -> v`` is strictly inside the circle at ``t`` iff ``t > τ(w)``, a
node right of it iff ``t < τ(w)``, with ``τ(w) = (|w−m|² − |u−m|²) /
(2·n·(w−m))``: ``uv`` is a Delaunay edge of a set iff its largest right
``τ`` is below its smallest left one.  A table per link and snapshot
holds ``τ`` once for each node any asking set contains, so a question
reads a min and a max.  Bowyer–Watson's super-triangle takes part in its
circle tests; when an apex circle may reach it (a large ``|t|``, or a
side without nodes), :func:`~repro.geometry.delaunay.delaunay_link`
decides.  Sets of fewer than 3 nodes or with two at one position, a
node within twice ``orientation``'s collinear band of the line ``uv``,
near-ties of the ``τ`` the answer or an apex rests on, and a "no" where
``A(Nk(x))`` may have no triangle at all are answered by triangulating
with :func:`~repro.geometry.delaunay.delaunay_edges`.  So every answer
is the triangulation's, hull-edge loss included, unless one of its
circle tests falls in its tolerance band, where this answer is exact.
On the paper's Table 1 scenario (GLR, 600 s, seed 1) the 122 198
questions fill 362 543 ``τ``, 13 740 ask the super-triangle and 171
small neighbourhoods are triangulated.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Iterable, Mapping

from repro.geometry.delaunay import (
    anchors_real_triangle,
    delaunay_edges,
    delaunay_link,
    super_triangle,
)
from repro.geometry.predicates import _EPS
from repro.geometry.primitives import Point, distance_sq
from repro.graphs.udg import NodeId, SpatialGraph, unit_disk_graph

#: A node is in a link's collinear band when its orientation determinant
#: is within this fraction of the determinant's terms (plus one); the
#: slack of its ``τ``, relative to the terms, is thousands of times a
#: bound on its rounding error.
_BAND, _TIE = 2.0 * _EPS, 1e-12


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


class LinkCircles:
    """The ``τ`` of one link's nodes (module doc), for one snapshot.

    The link runs from ``u`` to ``v``, its ends ordered by the ``repr`` of their ids.  ``left``
    holds ``(τ - slack, τ, slack, node)`` for the nodes left of ``u -> v`` in increasing order,
    ``right`` holds ``(τ + slack, τ, slack, node)`` for those right of it in decreasing order;
    two ``τ`` closer than their summed slacks tie, so a side's first entry that no later one ties
    with is its extreme.  ``band`` holds the collinear band's nodes, ``known`` every node placed.
    """

    __slots__ = ("u", "v", "reach", "known", "left", "right", "band")

    def __init__(self, link: frozenset, positions: Mapping[NodeId, Point]):
        ends = sorted(link, key=repr)
        self.u, self.v = u, v = positions[ends[0]], positions[ends[1]]
        # The circle at t lies within D + (2|t| + 1/2)·|uv| of the centre
        # of the box of a set holding u and v, its super-triangle 200·D
        # away, and D >= max(|uv| / sqrt(2), 1): so |t| < reach misses it.
        length = math.hypot(v.x - u.x, v.y - u.y)
        self.reach = (140.0 * max(length, 1.0) / length - 0.5) / 2.0
        self.known = set(link)
        self.left: list[tuple[float, float, float, NodeId]] = []
        self.right: list[tuple[float, float, float, NodeId]] = []
        self.band: set[NodeId] = set()

    def add(self, nodes: set[NodeId], positions: Mapping[NodeId, Point]) -> None:
        """Place ``nodes``, none of which is known yet."""
        (ux, uy), (vx, vy) = (self.u.x, self.u.y), (self.v.x, self.v.y)
        bx, by = vx - ux, vy - uy
        left, right = self.left, self.right
        for w in nodes:
            p = positions[w]
            ax, ay = p.x - ux, p.y - uy
            # n·(w − m), with n = perp(v − u): orientation_value(u, v, w).
            sl, sr = bx * ay, by * ax
            s = sl - sr
            size = abs(sl) + abs(sr)
            s_abs = abs(s)
            if s_abs <= _BAND * (size + 1.0):
                self.band.add(w)
                continue
            # (w − u)·(w − v) = |w − m|² − |u − m|².
            dx = ax * (p.x - vx)
            dy = ay * (p.y - vy)
            tau = (dx + dy) / (2.0 * s)
            slack = _TIE * (abs(dx) + abs(dy)) * (s_abs + size) / (s_abs * s_abs)
            if s > 0.0:
                left.append((tau - slack, tau, slack, w))
            else:
                right.append((tau + slack, tau, slack, w))
        self.known |= nodes
        left.sort(key=itemgetter(0))
        right.sort(key=itemgetter(0), reverse=True)


def _apex(side: list, hood: frozenset) -> tuple:
    """The ``(τ, slack, node)`` of the first entry of ``side`` whose node is in ``hood`` (None if
    none), and whether the next such entry ties with it."""
    first = None
    for entry in side:
        if entry[3] in hood:
            if first is not None:
                return first[1:], abs(entry[1] - first[1]) <= first[2] + entry[2]
            first = entry
    return first and first[1:], False


class LocalDelaunayGraph(SpatialGraph):
    """The k-LDTG over one UDG snapshot, evaluated node by node.

    ``neighbors(node)`` runs the symmetric witness vote for ``node`` the
    first time it is asked and caches the answer.  The vote asks
    :meth:`has` whether each link of ``node`` is in the local Delaunay
    triangulation of ``node``, of its UDG neighbour and of their
    witnesses.  k-hop sets are cached per node, ``τ`` per (link, node)
    and answers per distinct (k-hop set, link), so nodes whose k-hop
    sets coincide share them.  Whole-graph reads (``adjacency``,
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
        self._answers: dict[frozenset, dict[frozenset, bool]] = {}
        self._shared = len(set(udg.positions.values())) < len(udg.positions)
        self._ghosts: dict[frozenset, tuple[Point, ...]] = {}
        self._triangulable: dict[frozenset, bool] = {}
        self._circles: dict[frozenset, LinkCircles] = {}
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
        """Whether the UDG ``link`` is an edge of ``A(Nk(node))``: equal
        to ``link in local_delaunay_edges_of(udg, node, k)`` unless that
        triangulation errs inside its tolerance band (module doc)."""
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
        u, v = link
        if u not in hood or v not in hood:
            return False
        positions = self._udg.positions
        answer = None  # Fewer than 3 nodes or two at one position: only A(hood) answers.
        if len(hood) >= 3 and not (self._shared and len({positions[m] for m in hood}) < len(hood)):
            answer = self._answer(hood, link, positions)
        if answer is None or not (answer or self._has_triangle(hood)):
            # Undecided, or A(hood) may have no triangle at all, in
            # which case delaunay_edges answers with its collinear chain.
            return link in self._local_links(hood)
        return answer

    def _answer(self, hood: frozenset, link: frozenset, positions: Mapping) -> bool | None:
        """The answer from circle parameters and the super-triangle; None to triangulate."""
        circles = self._circles.get(link)
        if circles is None:
            circles = self._circles[link] = LinkCircles(link, positions)
        if not circles.known.issuperset(hood):
            circles.add(hood - circles.known, positions)
        if not circles.band.isdisjoint(hood):
            return None
        left, left_tie = _apex(circles.left, hood)
        right, right_tie = _apex(circles.right, hood)
        if left and right:
            if abs(left[0] - right[0]) <= left[1] + right[1]:
                return None
            if left[0] < right[0]:
                return False
        if left_tie or right_tie:
            return None
        # uv is a Delaunay edge of hood.  The circle of a side without
        # nodes reaches the super-triangle.
        if left and right and circles.reach > max(abs(left[0]) + left[1], abs(right[0]) + right[1]):
            return True
        ghosts = self._ghosts.get(hood)
        if ghosts is None:
            ghosts = self._ghosts[hood] = super_triangle([positions[m] for m in hood])
        return delaunay_link(
            circles.u,
            circles.v,
            None if left is None else positions[left[2]],
            None if right is None else positions[right[2]],
            ghosts,
        )

    def _hood(self, node: NodeId) -> frozenset:
        """``Nk(node)``, including ``node``."""
        hood = self._hoods.get(node)
        if hood is None:
            hood = self._hoods[node] = frozenset(
                self._udg.k_hop_neighborhood(node, self.k) | {node}
            )
        return hood

    def _has_triangle(self, hood: frozenset) -> bool:
        """Whether ``A(hood)`` surely has a triangle without a super-triangle vertex: ``a`` and
        its nearest point ``b`` span a Delaunay edge, and a third point with a small circle
        through them puts one on its side."""
        known = self._triangulable.get(hood)
        if known is None:
            positions = self._udg.positions
            a, *rest = (positions[m] for m in hood)
            b = min(rest, key=lambda p: distance_sq(a, p))
            known = self._triangulable[hood] = any(
                anchors_real_triangle(a, b, c) for c in rest if c != b
            )
        return known

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
