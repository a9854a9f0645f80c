"""Geometric predicates: orientation, in-circle, circumcircle.

The Delaunay construction only needs two predicates — ``orientation`` and
``in_circle`` — evaluated on coordinates that, in this reproduction, come
from continuous random node placements.  Exactly degenerate inputs
(four co-circular points, three collinear points) therefore have measure
zero, and double-precision determinants with a small relative tolerance
are sufficient.  The tolerance handling below keeps the construction
stable when tests *do* feed it structured grids.
"""

from __future__ import annotations

import enum
import math

from repro.geometry.primitives import Point, distance_sq

#: Relative tolerance used to classify near-zero determinants.  The
#: determinants below are sums of products of coordinates, so the natural
#: scale for "zero" is the magnitude of the largest term.
_EPS = 1e-12


class Orientation(enum.IntEnum):
    """Orientation of an ordered point triple ``(a, b, c)``."""

    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


def orientation_value(a: Point, b: Point, c: Point) -> float:
    """Raw signed doubled area of triangle ``abc``.

    Positive for counter-clockwise, negative for clockwise.
    """
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Classify the turn ``a -> b -> c`` with tolerance for collinearity."""
    value = orientation_value(a, b, c)
    scale = (
        abs(b.x - a.x) * abs(c.y - a.y) + abs(b.y - a.y) * abs(c.x - a.x) + 1.0
    )
    if value > _EPS * scale:
        return Orientation.COUNTERCLOCKWISE
    if value < -_EPS * scale:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


def in_circle(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Return True when ``d`` lies strictly inside the circumcircle of ``abc``.

    ``a, b, c`` must be in counter-clockwise order; callers that cannot
    guarantee this should use :func:`in_circle_any_orientation`.
    """
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
    if det <= 0.0:
        # scale > 0, so det > _EPS * scale cannot hold: skip computing it.
        return False
    scale = (
        abs(adx) * (abs(bdy) * cd_sq + abs(cdy) * bd_sq)
        + abs(ady) * (abs(bdx) * cd_sq + abs(cdx) * bd_sq)
        + ad_sq * (abs(bdx) * abs(cdy) + abs(cdx) * abs(bdy))
        + 1.0
    )
    return det > _EPS * scale


def in_circle_any_orientation(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Orientation-independent strict in-circumcircle test."""
    if orientation(a, b, c) == Orientation.CLOCKWISE:
        a, b = b, a
    return in_circle(a, b, c, d)


def circumcircle(a: Point, b: Point, c: Point) -> tuple[Point, float]:
    """Circumcenter and circumradius of triangle ``abc``.

    Raises :class:`ValueError` for (near-)collinear input, where the
    circumcircle degenerates to a line.

    The centre is solved for relative to the vertex opposite the longest
    side, whose angle is the largest: the two sides that meet there are
    then as far from parallel as the triangle allows, so their cross
    product does not cancel when two vertices nearly coincide (solved in
    absolute coordinates, ``(0, 9), (89, 0), (89, 2.4e-9)`` came out with
    its vertices 1e-6 of the radius apart in distance from the centre).
    """
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    scale = abs(a.x * b.y) + abs(b.x * c.y) + abs(c.x * a.y) + 1.0
    if abs(d) <= _EPS * scale:
        raise ValueError("circumcircle of collinear points is undefined")

    ab, bc, ca = distance_sq(a, b), distance_sq(b, c), distance_sq(c, a)
    if ab >= bc and ab >= ca:
        o, p, q = c, a, b
    elif bc >= ca:
        o, p, q = a, b, c
    else:
        o, p, q = b, c, a
    px, py = p.x - o.x, p.y - o.y
    qx, qy = q.x - o.x, q.y - o.y
    cross = 2.0 * (px * qy - py * qx)
    if cross == 0.0:
        raise ValueError("circumcircle of collinear points is undefined")
    p_sq = px * px + py * py
    q_sq = qx * qx + qy * qy
    center = Point(
        o.x + (qy * p_sq - py * q_sq) / cross,
        o.y + (px * q_sq - qx * p_sq) / cross,
    )
    radius = center.distance_to(a)
    return center, radius


def point_in_triangle(p: Point, a: Point, b: Point, c: Point) -> bool:
    """Return True when ``p`` lies inside or on triangle ``abc``."""
    d1 = orientation_value(p, a, b)
    d2 = orientation_value(p, b, c)
    d3 = orientation_value(p, c, a)
    has_neg = (d1 < 0) or (d2 < 0) or (d3 < 0)
    has_pos = (d1 > 0) or (d2 > 0) or (d3 > 0)
    return not (has_neg and has_pos)


def angle_at(vertex: Point, p: Point, q: Point) -> float:
    """Interior angle at ``vertex`` formed by rays toward ``p`` and ``q``."""
    v1 = p - vertex
    v2 = q - vertex
    n1 = v1.norm()
    n2 = v2.norm()
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("angle undefined when a ray has zero length")
    cos_angle = max(-1.0, min(1.0, v1.dot(v2) / (n1 * n2)))
    return math.acos(cos_angle)
