"""Delaunay triangulation via the Bowyer–Watson incremental algorithm.

This is the ``A(N)`` operator of the paper: the (global) Delaunay
triangulation of a point set ``N``.  The k-LDTG in :mod:`repro.graphs.ldt`
decides its links from per-link circle parameters, and triangulates
only the k-hop neighbourhoods those leave undecided (171 of 122 198
questions on the paper's Table 1 scenario).  The O(n^2) incremental
algorithm below is kept as the textbook states it, so it stays easy to
audit; the conflict scan reads each triangle's vertex points directly,
and :func:`~repro.geometry.predicates.in_circle` rejects a non-positive
determinant before computing its error scale.

Degenerate inputs are handled explicitly:

- fewer than 3 points, or all points collinear, yield a triangulation
  with no triangles (callers use :func:`delaunay_edges` which then falls
  back to the chain of collinear neighbours);
- duplicate points are collapsed before triangulating.

Bowyer–Watson starts from a finite :func:`super_triangle`, and so
loses a convex-hull edge of 0.5–4% of random local point sets;
:func:`delaunay_link` reproduces that loss for the LDTG, so both can be
fixed in one place.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.geometry.predicates import (
    Orientation,
    in_circle,
    orientation,
    orientation_value,
)
from repro.geometry.primitives import Point, distance, distance_sq
from repro.geometry.triangulation import (
    Edge,
    Triangulation,
    normalize_edge,
)


def super_triangle(points: Sequence[Point]) -> tuple[Point, Point, Point]:
    """A triangle that comfortably contains every input point.

    Its vertices lie at least ``200 * max(width, height, 1)`` from the
    centre of the points' bounding box.  Bowyer–Watson starts from it
    and drops every triangle that keeps one of its vertices.
    """
    min_x = min(p.x for p in points)
    max_x = max(p.x for p in points)
    min_y = min(p.y for p in points)
    max_y = max(p.y for p in points)
    dx = max_x - min_x
    dy = max_y - min_y
    delta = max(dx, dy, 1.0) * 100.0
    mid_x = (min_x + max_x) / 2.0
    mid_y = (min_y + max_y) / 2.0
    return (
        Point(mid_x - 2.0 * delta, mid_y - delta),
        Point(mid_x + 2.0 * delta, mid_y - delta),
        Point(mid_x, mid_y + 2.0 * delta),
    )


def _all_collinear(points: Sequence[Point]) -> bool:
    """True when every point lies on one line (or there are < 3 points)."""
    if len(points) < 3:
        return True
    a = points[0]
    b = next((p for p in points[1:] if p != a), None)
    if b is None:
        return True
    return all(
        orientation(a, b, c) == Orientation.COLLINEAR for c in points[1:]
    )


def delaunay_triangulation(points: Iterable[Point]) -> Triangulation:
    """Delaunay triangulation of a point set.

    Returns a :class:`Triangulation` whose ``points`` list contains the
    *distinct* input points in first-seen order.  For degenerate inputs
    (collinear or < 3 points) the triangle set is empty.
    """
    distinct: list[Point] = []
    seen: set[Point] = set()
    for p in points:
        if p not in seen:
            seen.add(p)
            distinct.append(p)

    tri = Triangulation(points=distinct)
    if len(distinct) < 3 or _all_collinear(distinct):
        return tri

    # Indices len(distinct) .. len(distinct)+2 are the super-triangle.
    s0, s1, s2 = super_triangle(distinct)
    vertices = distinct + [s0, s1, s2]
    n = len(distinct)

    # Triangles kept as CCW-ordered index triples during construction so
    # the in_circle predicate sees consistent orientation; each maps to
    # its vertex points, so the conflict scan below does no lookups.
    triangles: dict[tuple[int, int, int], tuple[Point, Point, Point]] = {}

    def add_ccw(a: int, b: int, c: int) -> None:
        pa, pb, pc = vertices[a], vertices[b], vertices[c]
        if orientation(pa, pb, pc) == Orientation.CLOCKWISE:
            triangles[(a, c, b)] = (pa, pc, pb)
        else:
            triangles[(a, b, c)] = (pa, pb, pc)

    add_ccw(n, n + 1, n + 2)

    for idx in range(n):
        p = vertices[idx]
        bad = [t for t, (a, b, c) in triangles.items() if in_circle(a, b, c, p)]

        # Boundary of the cavity: edges belonging to exactly one bad triangle.
        edge_count: dict[Edge, tuple[int, int]] = {}
        counts: dict[Edge, int] = {}
        for t in bad:
            for i in range(3):
                u, v = t[i], t[(i + 1) % 3]
                e = normalize_edge(u, v)
                counts[e] = counts.get(e, 0) + 1
                edge_count[e] = (u, v)
        for t in bad:
            del triangles[t]
        for e, cnt in counts.items():
            if cnt == 1:
                u, v = edge_count[e]
                if len({u, v, idx}) == 3:
                    add_ccw(u, v, idx)

    for t in triangles:
        if all(v < n for v in t):
            tri.add_triangle(*t)
    return tri


def delaunay_edges(points: Sequence[Point]) -> set[Edge]:
    """Undirected Delaunay edge set over ``points`` (by index).

    For degenerate (collinear) inputs, the Delaunay triangulation has no
    triangles but the natural limit graph is the path connecting the
    points in order along the line; that path is returned so that sparse
    collinear neighbourhoods still yield a connected routing structure.
    Indices refer to positions in ``points`` (duplicates map onto the
    first occurrence).
    """
    distinct_index: dict[Point, int] = {}
    order: list[Point] = []
    remap: list[int] = []
    for p in points:
        if p not in distinct_index:
            distinct_index[p] = len(order)
            order.append(p)
        remap.append(distinct_index[p])

    tri = delaunay_triangulation(order)
    edges: set[Edge] = set()
    if tri.triangles:
        compact_edges = tri.edges()
    elif len(order) >= 2:
        # Collinear fallback: chain consecutive points along the line.
        ref = order[0]
        far = max(order, key=lambda q: distance(ref, q))
        direction = far - ref
        norm = direction.norm()
        if norm == 0.0:
            compact_edges = set()
        else:
            keyed = sorted(
                range(len(order)),
                key=lambda i: (order[i] - ref).dot(direction) / norm,
            )
            compact_edges = {
                normalize_edge(keyed[i], keyed[i + 1])
                for i in range(len(keyed) - 1)
            }
    else:
        compact_edges = set()

    # Map compact (deduplicated) indices back to the caller's indexing.
    back: dict[int, int] = {}
    for caller_idx, compact_idx in enumerate(remap):
        back.setdefault(compact_idx, caller_idx)
    for u, v in compact_edges:
        edges.add(normalize_edge(back[u], back[v]))
    return edges


def delaunay_link(
    u: Point, v: Point, left: Point | None, right: Point | None, ghosts: Sequence[Point]
) -> bool | None:
    """Whether Bowyer–Watson keeps ``uv``, a Delaunay link of a point set, as a side of a
    triangle without a :func:`super_triangle` vertex.

    ``left`` and ``right`` are the apexes of ``uv``: on each side of ``u -> v``, the point whose
    circle through ``u`` and ``v`` holds no other point of the set (None for an empty side).  An
    apex's triangle is kept iff its circle holds none of the set's super-triangle ``ghosts``,
    which one in-circle test decides.  None when no circle is clearly free of them and a test
    falls in its tolerance band.
    """
    tie = False
    for a, b, apex in ((u, v, left), (v, u, right)):
        if apex is None:
            continue
        ghost = _first_reached(a, b, apex, ghosts)
        # (b, a, apex) runs clockwise: in_circle then means strictly
        # outside, which the ghost mostly is, so it is asked first.
        if in_circle(b, a, apex, ghost):
            return True
        tie = tie or not in_circle(a, b, apex, ghost)
    return None if tie else False


def _first_reached(a: Point, b: Point, apex: Point, ghosts: Sequence[Point]) -> Point:
    """The ghost that circles through ``a`` and ``b`` take in first as their centre moves out to
    that of the circle through ``apex`` (left of ``a -> b``): that circle holds a ghost iff it
    holds this one.  Its centre is on ``apex``'s side iff the angle at ``apex`` is acute, and a
    ghost on that side is taken in at ``|τ|`` (:mod:`repro.graphs.ldt`)."""
    toward = (apex.x - a.x) * (apex.x - b.x) + (apex.y - a.y) * (apex.y - b.y)

    def taken_in_at(g: Point) -> float:
        s = (b.x - a.x) * (g.y - a.y) - (b.y - a.y) * (g.x - a.x)
        d = (g.x - a.x) * (g.x - b.x) + (g.y - a.y) * (g.y - b.y)
        return d / abs(s) if s * toward > 0.0 else math.inf

    return min(ghosts, key=taken_in_at)


def anchors_real_triangle(u: Point, v: Point, w: Point) -> bool:
    """Whether ``w`` puts a triangle without super-triangle vertex on its side of ``uv``, if ``uv``
    is a Delaunay edge of a set holding ``w``.

    The best apex on ``w``'s side has a circle through ``u`` and ``v`` no larger there than
    ``w``'s.  ``w``'s circumradius is at most 35 times the triangle's longest side, so its circle
    lies within ``70 * sqrt(2)`` box sides of the set's bounding box, while the
    :func:`super_triangle` vertices lie 199 or more away.
    """
    uv = distance_sq(u, v)
    vw = distance_sq(v, w)
    wu = distance_sq(w, u)
    cross = orientation_value(u, v, w)
    # R = |uv| |vw| |wu| / (2 |cross|) <= 35 L, squared and cleared.
    return uv * vw * wu <= 4900.0 * cross * cross * max(uv, vw, wu)


def is_delaunay(tri: Triangulation) -> bool:
    """Check the empty-circumcircle property of every triangle.

    O(t * n) — test-suite oracle, not meant for production paths.
    """
    for a, b, c in tri.triangles:
        pa, pb, pc = tri.points[a], tri.points[b], tri.points[c]
        if orientation(pa, pb, pc) == Orientation.CLOCKWISE:
            pa, pb = pb, pa
        for i, p in enumerate(tri.points):
            if i in (a, b, c):
                continue
            if in_circle(pa, pb, pc, p):
                return False
    return True


def stretch_factor(points: Sequence[Point], edges: set[Edge]) -> float:
    """Maximum graph-distance/Euclidean-distance ratio over point pairs.

    The paper leans on Keil & Gutwin's result that the Delaunay
    triangulation is a constant-factor Euclidean spanner; this utility
    lets the tests confirm small stretch empirically.  Runs Dijkstra from
    every vertex — fine for the test-sized inputs it serves.
    """
    import heapq

    n = len(points)
    if n < 2:
        return 1.0
    adjacency: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
    for u, v in edges:
        w = distance(points[u], points[v])
        adjacency[u].append((v, w))
        adjacency[v].append((u, w))

    worst = 1.0
    for source in range(n):
        dist = [math.inf] * n
        dist[source] = 0.0
        heap: list[tuple[float, int]] = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adjacency[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for target in range(source + 1, n):
            euclid = distance(points[source], points[target])
            if euclid == 0.0:
                continue
            if math.isinf(dist[target]):
                return math.inf
            worst = max(worst, dist[target] / euclid)
    return worst
