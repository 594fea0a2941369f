"""Planar primitives: circle intersections, annuli, enclosing disks, sampling.

All functions are pure; randomness comes in only through an explicit
``random.Random`` argument. Coordinates are plain floats and the kernel is
tuned for unit-scale inputs (tolerances below are absolute).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence

TAU_GEO = 1e-9  # absolute tolerance: on-circle tests, corner merging
TAU_TAN = 1e-9  # tolerance for classifying circle tangency


class CoincidentCircles(ValueError):
    """Two identical circles intersect in infinitely many points."""


class Point(NamedTuple):
    x: float
    y: float


class Circle(NamedTuple):
    center: Point
    radius: float


class Annulus(NamedTuple):
    """Open ring around `center`: r_lo < distance < r_hi (r_hi may be inf)."""

    center: Point
    r_lo: float
    r_hi: float


class Disk(NamedTuple):
    """Closed disk: distance to `center` at most `radius`."""

    center: Point
    radius: float


@dataclass(frozen=True)
class FreeArea:
    """Intersection of open annuli, one per constrained voter.

    An empty annuli sequence means the whole plane. `infeasible` is set when
    some voter's band collapsed (lower bound >= upper bound), i.e. the region
    is known empty before any geometry is done.
    """

    annuli: tuple[Annulus, ...]
    infeasible: bool = False


def dist(p: Point, q: Point) -> float:
    """Euclidean distance."""
    return math.hypot(p.x - q.x, p.y - q.y)


def circle_intersections(c1: Circle, c2: Circle) -> tuple[Point, ...]:
    """Intersection points of two boundary circles.

    Returns 0 points when separated or nested, 1 when tangent (within
    TAU_TAN), 2 otherwise. Coincident circles raise CoincidentCircles.
    """
    (x1, y1), r1 = c1
    (x2, y2), r2 = c2
    d = math.hypot(x2 - x1, y2 - y1)
    if d <= TAU_GEO and abs(r1 - r2) <= TAU_GEO:
        raise CoincidentCircles(f"coincident circles {c1} and {c2}")
    if d > r1 + r2 + TAU_TAN:
        return ()
    if d < abs(r1 - r2) - TAU_TAN:
        return ()
    # a = signed distance from c1's center to the chord line along the axis
    a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
    ux, uy = (x2 - x1) / d, (y2 - y1) / d
    mx, my = x1 + a * ux, y1 + a * uy
    if abs(d - (r1 + r2)) <= TAU_TAN or abs(d - abs(r1 - r2)) <= TAU_TAN:
        return (Point(mx, my),)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    ox, oy = -uy * h, ux * h
    return (Point(mx + ox, my + oy), Point(mx - ox, my - oy))


def annulus_contains(a: Annulus, p: Point, margin: float = 0.0) -> bool:
    """Open membership with a safety margin (negative margin = closure test)."""
    d = dist(a.center, p)
    if d <= a.r_lo + margin:
        return False
    if math.isfinite(a.r_hi) and d >= a.r_hi - margin:
        return False
    return True


Bounds = list[tuple[float, float, float, float]]


def _bounds(f: FreeArea, margin: float) -> Bounds:
    """Each annulus as (cx, cy, lo, hi); `_inside` tests
    lo < hypot(cx - x, cy - y) < hi, the float operations of
    `annulus_contains` (squared distances would round differently), so the
    two agree bit for bit on every finite distance."""
    return [(a.center.x, a.center.y, a.r_lo + margin, a.r_hi - margin) for a in f.annuli]


def _inside(bounds: Bounds, x: float, y: float) -> bool:
    for cx, cy, lo, hi in bounds:
        if not lo < math.hypot(cx - x, cy - y) < hi:
            return False
    return True


def free_area_contains(f: FreeArea, p: Point, margin: float = 0.0) -> bool:
    """True iff `p` lies in every annulus; vacuously true for no annuli."""
    return not f.infeasible and _inside(_bounds(f, margin), p.x, p.y)


def corners(f: FreeArea) -> tuple[Point, ...]:
    """Pairwise boundary-circle intersections lying on the free area's closure.

    Each bounded annulus contributes its two boundary circles (the inner one
    only when r_lo > 0, a zero-radius circle cannot form a corner); an
    unbounded annulus contributes just the inner circle. Points within
    TAU_GEO of an earlier corner are merged.
    """
    if f.infeasible:
        return ()
    circles: list[Circle] = []
    for a in f.annuli:
        if a.r_lo > 0.0:
            circles.append(Circle(a.center, a.r_lo))
        if math.isfinite(a.r_hi):
            circles.append(Circle(a.center, a.r_hi))
    closure = _bounds(f, -TAU_GEO)
    found: list[Point] = []
    for i in range(len(circles)):
        for j in range(i + 1, len(circles)):
            for p in circle_intersections(circles[i], circles[j]):
                if not _inside(closure, p.x, p.y):
                    continue
                if any(dist(p, q) <= TAU_GEO for q in found):
                    continue
                found.append(p)
    return tuple(found)


def _disk_contains(d: Disk, p: Point) -> bool:
    return dist(d.center, p) <= d.radius * (1 + 1e-14)


def _diameter_disk(a: Point, b: Point) -> Disk:
    c = Point((a.x + b.x) / 2, (a.y + b.y) / 2)
    return Disk(c, max(dist(c, a), dist(c, b)))


def _circumdisk(a: Point, b: Point, c: Point) -> Disk | None:
    # Shift to the bounding-box midpoint for conditioning.
    ox = (min(a.x, b.x, c.x) + max(a.x, b.x, c.x)) / 2
    oy = (min(a.y, b.y, c.y) + max(a.y, b.y, c.y)) / 2
    ax, ay = a.x - ox, a.y - oy
    bx, by = b.x - ox, b.y - oy
    cx, cy = c.x - ox, c.y - oy
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy)
              + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx)
              + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    center = Point(x, y)
    return Disk(center, max(dist(center, a), dist(center, b), dist(center, c)))


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _med_two_boundary(pts: Sequence[Point], p: Point, q: Point) -> Disk:
    circ = _diameter_disk(p, q)
    left: Disk | None = None
    right: Disk | None = None
    for r in pts:
        if _disk_contains(circ, r):
            continue
        cross = _cross(p, q, r)
        d = _circumdisk(p, q, r)
        if d is None:
            continue
        dc = _cross(p, q, d.center)
        if cross > 0 and (left is None or dc > _cross(p, q, left.center)):
            left = d
        elif cross < 0 and (right is None or dc < _cross(p, q, right.center)):
            right = d
    if left is None and right is None:
        return circ
    if left is None:
        return right  # type: ignore[return-value]
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _med_one_boundary(pts: Sequence[Point], p: Point) -> Disk:
    d = Disk(p, 0.0)
    for i, q in enumerate(pts):
        if not _disk_contains(d, q):
            if d.radius == 0.0:
                d = _diameter_disk(p, q)
            else:
                d = _med_two_boundary(pts[: i + 1], p, q)
    return d


@lru_cache(maxsize=64)
def _shuffle_order(n: int) -> tuple[int, ...]:
    """The permutation `Random(0x5EED).shuffle` applies to any n items."""
    order = list(range(n))
    random.Random(0x5EED).shuffle(order)
    return tuple(order)


def min_enclosing_disk(points: Sequence[Point]) -> Disk:
    """Smallest closed disk containing all points.

    Randomized incremental construction, expected near-linear time; the
    internal shuffle is seeded so equal inputs give identical disks.
    """
    pts = [Point(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("min_enclosing_disk: empty point set")
    pts = [pts[i] for i in _shuffle_order(len(pts))]
    d: Disk | None = None
    for i, p in enumerate(pts):
        if d is None or not _disk_contains(d, p):
            d = _med_one_boundary(pts[: i + 1], p)
    assert d is not None
    return d


_RANDOMS_PER_DRAW = 2  # rng.random() calls per `_draws` point: angle, radius


def _draws(d: Disk, rng: random.Random, budget: int) -> Iterator[tuple[float, float]]:
    """Up to `budget` points uniform over the closed disk, as (x, y) floats.

    Each point draws its angle, then its radius as R * sqrt(u). A radius-0
    disk yields its center once and calls `rng` not at all: every draw
    would be that point.
    """
    (x0, y0), radius = d
    if radius == 0.0:
        yield x0, y0
        return
    random_, pi, sqrt, cos, sin = rng.random, math.pi, math.sqrt, math.cos, math.sin
    for _ in range(budget):
        theta = random_() * 2 * pi
        r = radius * sqrt(random_())
        yield x0 + r * cos(theta), y0 + r * sin(theta)


def sample_in_disk(d: Disk, rng: random.Random) -> Point:
    """A point uniform over the closed disk (radius drawn as R * sqrt(u))."""
    return Point(*next(_draws(d, rng, 1)))


def candidate_disk(f: FreeArea) -> Disk:
    """The disk rejection sampling draws from.

    Corner-based when corners exist; otherwise the smallest bounded annulus's
    outer disk; otherwise (everything unbounded) a disk around the centroid of
    the annulus centers, wide enough to reach past every lower bound. The
    first two cases provably meet the free area when it is non-empty; the
    last is a heuristic with room to spare.
    """
    return _disk_around(f, corners(f))


def _disk_around(f: FreeArea, pts: tuple[Point, ...]) -> Disk:
    if pts:
        return min_enclosing_disk(pts)
    bounded = [a for a in f.annuli if math.isfinite(a.r_hi)]
    if bounded:
        a = min(bounded, key=lambda a: a.r_hi)
        return Disk(a.center, a.r_hi)
    if not f.annuli:
        return Disk(Point(0.0, 0.0), 2.0)
    cx = sum(a.center.x for a in f.annuli) / len(f.annuli)
    cy = sum(a.center.y for a in f.annuli) / len(f.annuli)
    max_lo = max(a.r_lo for a in f.annuli)
    spread = max(
        (dist(a.center, b.center) for a in f.annuli for b in f.annuli),
        default=0.0,
    )
    return Disk(Point(cx, cy), 2 * (max_lo + spread + 1.0))


def _provably_empty(f: FreeArea) -> bool:
    """True when a free area without corners has no boundary circle in its
    closure, tested at the point (cx + r, cy) of each circle."""
    closure = _bounds(f, -TAU_GEO)
    return not any(
        _inside(closure, a.center.x + r, a.center.y)
        for a in f.annuli
        for r in (a.r_lo, a.r_hi)
        if math.isfinite(r)
    )


def sample_free_area(
    f: FreeArea, rng: random.Random, budget: int, margin: float
) -> Point | None:
    """Rejection-sample a point of the free area, or None after `budget` tries.

    Any returned point satisfies every annulus with the requested margin.
    The draws are `sample_in_disk`'s over `candidate_disk`: both take them
    from `_draws`.

    Returns None without drawing when the free area is provably empty: it
    has annuli, no corners, and no boundary circle meets its closure. A
    non-empty region that is not the whole plane has a boundary made of
    arcs, and an arc either ends at a corner or is a whole circle, all of
    whose points lie in the closure. The test runs at the closure
    (-TAU_GEO), looser than any margin >= -TAU_GEO the draws use, so it
    skips only regions no draw could hit. It still makes the
    `rng.random()` calls the `budget` failing draws would have made, so
    the caller's later draws are unchanged. A radius-0 candidate disk is
    never skipped: its one draw is tested and uses no randomness.
    """
    if budget < 1:
        raise ValueError(f"need budget >= 1, got {budget}")
    if f.infeasible:
        return None
    pts = corners(f)
    d = _disk_around(f, pts)
    if d.radius != 0.0 and not pts and f.annuli and _provably_empty(f):
        random_ = rng.random
        for _ in range(_RANDOMS_PER_DRAW * budget):
            random_()
        return None
    bounds = _bounds(f, margin)
    for x, y in _draws(d, rng, budget):
        if _inside(bounds, x, y):
            return Point(x, y)
    return None
