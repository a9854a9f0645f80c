"""The per-link Delaunay kernel answers what the triangulation answers.

:func:`~repro.geometry.delaunay.delaunay_link` decides whether one link
``uv`` is a Delaunay edge with a handful of empty-circle tests.  Given
the set's super-triangle as ghost points, it must say what
:func:`~repro.geometry.delaunay.delaunay_edges` says whenever it
decides, hull-edge loss included, on random, near-cocircular and
lattice inputs.  The LDTG's Gabriel shortcut (an empty circle on
diameter ``uv`` plus one point with a small circle through ``u`` and
``v``) must never contradict the triangulation either.  A disagreement
is allowed only where some predicate among the points sits on the edge
of its tolerance band, which the two evaluate in different vertex
orders (:func:`on_band_edge`); points a hair apart, which make the
triangulation itself unsound, are left out (:func:`spread_out`).

The Hypothesis properties take their example count from the loaded
profile: ``HYPOTHESIS_PROFILE=ci`` runs five times the default.
"""

from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.delaunay import (
    anchors_real_triangle,
    delaunay_edges,
    delaunay_link,
    delaunay_triangulation,
    super_triangle,
)
from repro.geometry.predicates import _EPS, Orientation, orientation
from repro.geometry.primitives import Point, distance_sq

from tests.conftest import random_points
from tests.geometry.test_kernel_guard import grid, near_cocircular

coords = st.floats(min_value=0.0, max_value=500.0)
scattered = st.lists(st.builds(Point, coords, coords), max_size=20)


def spread_out(points: list[Point], fraction: float = 1e-5) -> list[Point]:
    """``points`` less each one closer than ``fraction`` of their
    diameter to a point kept before it.

    Near-coincident points make Bowyer-Watson unsound: the in-circle
    tests that involve them fall inside the tolerance band in every
    vertex order, and the triangulation can lose a vertex outright
    (pinned in :class:`TestNearCoincidentPoints`).  No per-link test can
    reproduce that, so the properties leave such points out.
    """
    if len(points) < 2:
        return points
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    limit = (fraction * math.hypot(max(xs) - min(xs), max(ys) - min(ys))) ** 2
    kept: list[Point] = []
    for p in points:
        if all(distance_sq(p, q) > limit for q in kept):
            kept.append(p)
    return kept


def pairs(points):
    for i, j in combinations(range(len(points)), 2):
        yield i, j, points[:i] + points[i + 1 : j] + points[j + 1 :]


def band_position(value: float, scale: float) -> float:
    """A determinant's size in units of its tolerance band."""
    return abs(value) / (_EPS * scale)


def in_circle_positions(a: Point, b: Point, c: Point, d: Point) -> list[float]:
    """Band positions of the in-circle test of four points, once per
    point taken as the query (the predicate's scale depends on it)."""
    positions = []
    for q in range(4):
        quad = (a, b, c, d)
        p = quad[q]
        (ax, ay), (bx, by), (cx, cy) = (
            (r.x - p.x, r.y - p.y) for i, r in enumerate(quad) if i != q
        )
        a2, b2, c2 = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
        det = (
            ax * (by * c2 - cy * b2)
            - ay * (bx * c2 - cx * b2)
            + a2 * (bx * cy - cx * by)
        )
        scale = (
            abs(ax) * (abs(by) * c2 + abs(cy) * b2)
            + abs(ay) * (abs(bx) * c2 + abs(cx) * b2)
            + a2 * (abs(bx) * abs(cy) + abs(cx) * abs(by))
            + 1.0
        )
        positions.append(band_position(det, scale))
    return positions


def orientation_positions(a: Point, b: Point, c: Point) -> list[float]:
    """Band positions of the orientation test, once per base point."""
    positions = []
    for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
        value = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
        scale = (
            abs(q.x - p.x) * abs(r.y - p.y)
            + abs(q.y - p.y) * abs(r.x - p.x)
            + 1.0
        )
        positions.append(band_position(value, scale))
    return positions


def straddles(positions: list[float]) -> bool:
    return min(positions) <= 1.001 and max(positions) >= 0.999


def on_band_edge(points: list[Point]) -> bool:
    """Whether some test among the points sits on the edge of the
    tolerance band: inside it with one point as query or base, outside
    it with another (or within rounding of the edge).

    The kernel and Bowyer-Watson may then decide that test differently,
    since each picks its query point by its own logic.  Sets without
    such a test must agree exactly.
    """
    return any(
        straddles(orientation_positions(*triple))
        for triple in combinations(points, 3)
    ) or any(
        straddles(in_circle_positions(*quad)) for quad in combinations(points, 4)
    )


def assert_kernel_matches_triangulation(points: list[Point]) -> None:
    points = spread_out(points)
    if len(points) < 3:
        return
    edges = delaunay_edges(points)
    has_triangle = bool(delaunay_triangulation(points).triangles)
    ghosts = super_triangle(points)
    for i, j, others in pairs(points):
        answer = delaunay_link(points[i], points[j], others, ghosts)
        if answer is None or (answer is False and not has_triangle):
            # Without a triangle delaunay_edges falls back to a chain
            # along the points, which no empty-circle test describes.
            continue
        if answer != ((i, j) in edges):
            assert on_band_edge(points + list(ghosts)), (i, j, answer)


def gabriel_with_witness(u: Point, v: Point, others: list[Point]) -> bool:
    """The LDTG's shortcut, stated over points."""
    mid = Point((u.x + v.x) / 2.0, (u.y + v.y) / 2.0)
    limit = distance_sq(u, v) / 4.0 * (1.0 + 1e-9)
    return all(distance_sq(p, mid) > limit for p in others) and any(
        anchors_real_triangle(u, v, w) for w in others
    )


def assert_gabriel_links_are_edges(points: list[Point]) -> None:
    points = spread_out(points)
    edges = delaunay_edges(points)
    for i, j, others in pairs(points):
        if gabriel_with_witness(points[i], points[j], others):
            if (i, j) not in edges:
                ghosts = list(super_triangle(points))
                assert on_band_edge(points + ghosts), (i, j)


class TestKernelAgainstTriangulation:
    @settings(deadline=None)
    @given(scattered)
    def test_random(self, points):
        assert_kernel_matches_triangulation(points)

    @settings(deadline=None)
    @given(near_cocircular(min_size=3))
    def test_near_cocircular(self, points):
        assert_kernel_matches_triangulation(points)

    @settings(deadline=None)
    @given(grid())
    def test_grid(self, points):
        assert_kernel_matches_triangulation(points)

    @pytest.mark.parametrize("seed", range(40))
    def test_decides_general_position(self, seed):
        # Random points are in general position: nothing is left to
        # the fallback triangulation.
        points = random_points(15, seed)
        ghosts = super_triangle(points)
        edges = delaunay_edges(points)
        for i, j, others in pairs(points):
            answer = delaunay_link(points[i], points[j], others, ghosts)
            assert answer == ((i, j) in edges)

    def test_square_diagonals_are_ties(self):
        square = [Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10)]
        ghosts = super_triangle(square)
        assert delaunay_link(square[0], square[2], square[1::2], ghosts) is None
        assert delaunay_link(square[1], square[3], square[0::2], ghosts) is None
        # The sides tie too: both far corners lie on one circle with them.
        assert delaunay_link(square[0], square[1], square[2:], ghosts) is None
        kite = [Point(0, 0), Point(10, 0), Point(12, 12), Point(0, 10)]
        ghosts = super_triangle(kite)
        assert delaunay_link(kite[0], kite[2], kite[1::2], ghosts) is False
        assert delaunay_link(kite[1], kite[3], kite[0::2], ghosts) is True

    def test_collinear_point_and_empty_side_are_undecided(self):
        u, v = Point(0, 0), Point(10, 0)
        assert delaunay_link(u, v, [Point(20, 0), Point(5, 5)]) is None
        assert delaunay_link(u, v, [Point(5, 5), Point(3, 4)]) is None


class TestGabrielShortcut:
    @settings(deadline=None)
    @given(scattered)
    def test_random(self, points):
        assert_gabriel_links_are_edges(points)

    @settings(deadline=None)
    @given(near_cocircular(min_size=3))
    def test_near_cocircular(self, points):
        assert_gabriel_links_are_edges(points)

    @settings(deadline=None)
    @given(grid())
    def test_grid(self, points):
        assert_gabriel_links_are_edges(points)

    def test_flat_set_needs_the_witness(self):
        # A set 1 m tall and 100 m wide: the circle on diameter 1-3 is
        # empty, yet both triangles on that link keep a super-triangle
        # vertex, so the triangulation drops it.  No point has a small
        # circle through 1 and 3, so the shortcut does not answer.
        points = [
            Point(177.7922731881497, 0.13042279608514273),
            Point(274.78344351929434, 0.47405353654712656),
            Point(174.25562530501676, 0.6055995301393269),
            Point(272.64552005559744, 0.4692323376190216),
        ]
        others = [points[0], points[2]]
        assert bool(delaunay_triangulation(points).triangles)
        assert (1, 3) not in delaunay_edges(points)
        assert not gabriel_with_witness(points[1], points[3], others)
        assert delaunay_link(
            points[1], points[3], others, super_triangle(points)
        ) is False


def subtended(p: Point, u: Point, v: Point) -> float:
    ax, ay = u.x - p.x, u.y - p.y
    bx, by = v.x - p.x, v.y - p.y
    return math.atan2(abs(ax * by - ay * bx), ax * bx + ay * by)


def brute_force_delaunay(points: list[Point], i: int, j: int) -> bool:
    """An empty circle through ``points[i]`` and ``points[j]`` exists iff
    the largest angles they subtend from either side sum below pi."""
    u, v = points[i], points[j]
    left = right = 0.0
    for k, p in enumerate(points):
        if k in (i, j):
            continue
        if orientation(u, v, p) == Orientation.COUNTERCLOCKWISE:
            left = max(left, subtended(p, u, v))
        else:
            right = max(right, subtended(p, u, v))
    return left + right < math.pi


class TestKnownHullEdgeLoss:
    """The super-triangle's known defect, pinned on one seeded set.

    Eight random points in a 300 m square: hull edge 1-4 has an empty
    circle (the angles it subtends sum to pi - 0.003), but every such
    circle holds a super-triangle vertex, so Bowyer-Watson loses it.
    The fix makes the xfail pass (strict, so it must then be flipped).
    """

    POINTS = random_points(8, 253, side=300.0)

    def test_oracle_finds_the_edge(self):
        assert brute_force_delaunay(self.POINTS, 1, 4)

    @pytest.mark.xfail(strict=True, reason="super-triangle hull-edge loss")
    def test_triangulation_keeps_the_hull_edge(self):
        assert (1, 4) in delaunay_edges(self.POINTS)

    def test_kernel_reproduces_the_miss(self):
        others = [p for k, p in enumerate(self.POINTS) if k not in (1, 4)]
        ghosts = super_triangle(self.POINTS)
        assert delaunay_link(self.POINTS[1], self.POINTS[4], others, ghosts) is False


class TestNearCoincidentPoints:
    """Bowyer-Watson's other known defect, pinned on one set.

    Three of these five points on the unit circle lie within a
    nanometre of each other.  Every in-circle test that involves two of
    them falls inside the tolerance band, so inserting the last point
    finds no triangle to replace and the point is left out.
    """

    POINTS = [
        Point(-0.6536436208636119, -0.7568024953079282),
        Point(1.0, 0.0),
        Point(1.0, 8.375203737875196e-10),
        Point(0.9999999994428016, 0.0),
        Point(0.5403023058681398, 0.8414709848078965),
    ]

    @pytest.mark.xfail(strict=True, reason="near-coincident vertex lost")
    def test_triangulation_keeps_every_vertex(self):
        edges = delaunay_edges(self.POINTS)
        assert {i for edge in edges for i in edge} == set(range(5))

    def test_properties_leave_them_out(self):
        assert spread_out(self.POINTS) == [self.POINTS[0], self.POINTS[1], self.POINTS[4]]
