"""The triangulation kernel answers exactly as its first version did.

``in_circle`` returns early on a non-positive determinant, and
Bowyer–Watson keeps each triangle's vertex points beside its index
triple.  Both are pure speedups: the previous ``in_circle`` and the
previous Bowyer–Watson loop are kept verbatim below as oracles, and
the properties assert identical answers and identical triangle sets on
random, near-cocircular and grid inputs, where rounding and exact
degeneracies are most likely to expose a difference.
"""

from __future__ import annotations

import math
from typing import Iterable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.delaunay import (
    _all_collinear,
    super_triangle,
    delaunay_triangulation,
)
from repro.geometry.predicates import (
    _EPS,
    Orientation,
    in_circle,
    orientation,
)
from repro.geometry.primitives import Point
from repro.geometry.triangulation import (
    Edge,
    Triangulation,
    normalize_edge,
)


def oracle_in_circle(a: Point, b: Point, c: Point, d: Point) -> bool:
    adx = a.x - d.x
    ady = a.y - d.y
    bdx = b.x - d.x
    bdy = b.y - d.y
    cdx = c.x - d.x
    cdy = c.y - d.y

    ad_sq = adx * adx + ady * ady
    bd_sq = bdx * bdx + bdy * bdy
    cd_sq = cdx * cdx + cdy * cdy

    det = (
        adx * (bdy * cd_sq - cdy * bd_sq)
        - ady * (bdx * cd_sq - cdx * bd_sq)
        + ad_sq * (bdx * cdy - cdx * bdy)
    )
    scale = (
        abs(adx) * (abs(bdy) * cd_sq + abs(cdy) * bd_sq)
        + abs(ady) * (abs(bdx) * cd_sq + abs(cdx) * bd_sq)
        + ad_sq * (abs(bdx) * abs(cdy) + abs(cdx) * abs(bdy))
        + 1.0
    )
    return det > _EPS * scale


def oracle_delaunay_triangulation(points: Iterable[Point]) -> Triangulation:
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
    # the in_circle predicate sees consistent orientation.
    def ccw(a: int, b: int, c: int) -> tuple[int, int, int]:
        if orientation(vertices[a], vertices[b], vertices[c]) == Orientation.CLOCKWISE:
            return (a, c, b)
        return (a, b, c)

    triangles: set[tuple[int, int, int]] = {ccw(n, n + 1, n + 2)}

    for idx in range(n):
        p = vertices[idx]
        bad: list[tuple[int, int, int]] = []
        for t in triangles:
            a, b, c = (vertices[t[0]], vertices[t[1]], vertices[t[2]])
            if oracle_in_circle(a, b, c, p):
                bad.append(t)

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
            triangles.discard(t)
        for e, cnt in counts.items():
            if cnt == 1:
                u, v = edge_count[e]
                if len({u, v, idx}) == 3:
                    triangles.add(ccw(u, v, idx))

    for t in triangles:
        if all(v < n for v in t):
            tri.add_triangle(*t)
    return tri


coords = st.floats(
    min_value=-1e4, max_value=1e4, allow_nan=False, allow_infinity=False
)
random_points = st.builds(Point, coords, coords)


@st.composite
def near_cocircular(draw, min_size: int = 4, max_size: int = 20) -> list[Point]:
    """Points on one circle, each nudged by at most a few ulps-to-nm."""
    cx = draw(st.floats(min_value=-1e3, max_value=1e3))
    cy = draw(st.floats(min_value=-1e3, max_value=1e3))
    radius = draw(st.floats(min_value=1e-2, max_value=1e3))
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    nudge = st.floats(min_value=-1e-9, max_value=1e-9)
    points = []
    for _ in range(size):
        theta = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
        points.append(
            Point(
                cx + radius * math.cos(theta) + radius * draw(nudge),
                cy + radius * math.sin(theta) + radius * draw(nudge),
            )
        )
    return points


@st.composite
def grid(draw, min_size: int = 3, max_size: int = 25) -> list[Point]:
    """Lattice points: exact cocircular and collinear quadruples abound."""
    spacing = draw(st.sampled_from([1.0, 0.1, 7.5, 100.0]))
    cells = st.tuples(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
    )
    ij = draw(st.lists(cells, min_size=min_size, max_size=max_size))
    return [Point(i * spacing, j * spacing) for i, j in ij]


def assert_same_triangulation(points: list[Point]) -> None:
    new = delaunay_triangulation(points)
    old = oracle_delaunay_triangulation(points)
    assert new.points == old.points
    assert new.triangles == old.triangles


def assert_same_in_circle(a: Point, b: Point, c: Point, d: Point) -> None:
    # Both vertex orders: the kernel only passes CCW triangles, but the
    # public predicate must not change for any caller.
    assert in_circle(a, b, c, d) == oracle_in_circle(a, b, c, d)
    assert in_circle(b, a, c, d) == oracle_in_circle(b, a, c, d)


class TestInCircleGuard:
    @settings(max_examples=300, deadline=None)
    @given(random_points, random_points, random_points, random_points)
    def test_random(self, a, b, c, d):
        assert_same_in_circle(a, b, c, d)

    @settings(max_examples=300, deadline=None)
    @given(near_cocircular(min_size=4, max_size=4))
    def test_near_cocircular(self, points):
        assert_same_in_circle(*points)

    @settings(max_examples=300, deadline=None)
    @given(grid(min_size=4, max_size=4))
    def test_grid(self, points):
        assert_same_in_circle(*points)


class TestBowyerWatsonGuard:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(random_points, min_size=0, max_size=25))
    def test_random(self, points):
        assert_same_triangulation(points)

    @settings(max_examples=150, deadline=None)
    @given(near_cocircular())
    def test_near_cocircular(self, points):
        assert_same_triangulation(points)

    @settings(max_examples=150, deadline=None)
    @given(grid())
    def test_grid(self, points):
        assert_same_triangulation(points)
