"""Planar primitives: circle intersections, annuli, enclosing disks, sampling.

All functions are pure; randomness comes in only through an explicit
``random.Random`` argument. Coordinates are plain floats and the kernel is
tuned for unit-scale inputs (tolerances below are absolute).

A free area, the intersection of open annuli, is its sequence of bands:
each band is laid out as an `Annulus`, (center, lo, hi) for the open ring
lo < distance < hi around center, and the search passes plain tuples
where tests may pass `Annulus` instances. No bands means the whole plane.
`sample_free_area`, the exact distance range `_band_range`, the
circle-pair intersections `_crossings` and `corners` all take bands. Each
rule is written once: the circle-pair intersection in `_crossings`, which
`circle_intersections` calls; ring membership in `_inside`; the margin
rule in `_bounds`, which `free_area_contains` and `sample_free_area` both
call; and the proof that a free area is empty, `_band_range`'s None.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple, Sequence

TAU_GEO = 1e-9  # absolute tolerance: on-circle tests, tangency, corner merging


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


def dist(p: Point, q: Point) -> float:
    """Euclidean distance."""
    return math.hypot(p.x - q.x, p.y - q.y)


def circle_intersections(c1: Circle, c2: Circle) -> tuple[Point, ...]:
    """Intersection points of two boundary circles: the `_crossings` of the
    bands (center, 0.0, radius).

    Returns 0 points when separated or nested, 1 when tangent (within
    TAU_GEO), 2 otherwise, and none when a radius is NaN or infinite.
    Coincident circles raise CoincidentCircles.
    """
    bands = [(center, 0.0, radius) for center, radius in (c1, c2)]
    return tuple(Point(x, y) for x, y in _crossings(bands))


# A band in the layout of `Annulus`: (center, lo, hi).
Band = tuple[tuple[float, float], float, float]
Bounds = list[tuple[float, float, float, float]]


def _bounds(bands: Sequence[Band], margin: float) -> Bounds:
    """Each band shrunk by `margin`, flattened to (cx, cy, lo, hi) for
    `_inside`, the one ring test: lo < hypot(cx - x, cy - y) < hi, which a
    NaN distance fails (squared distances would round differently)."""
    return [(cx, cy, lo + margin, hi - margin) for (cx, cy), lo, hi in bands]


def _inside(bounds: Bounds, x: float, y: float) -> bool:
    for cx, cy, lo, hi in bounds:
        if not lo < math.hypot(cx - x, cy - y) < hi:
            return False
    return True


def free_area_contains(bands: Sequence[Band], p: Point, margin: float = 0.0) -> bool:
    """True iff `p` lies in every band; vacuously true for no bands. One
    ring's membership is `free_area_contains((a,), p, margin)`."""
    return _inside(_bounds(bands, margin), p.x, p.y)


def _crossings(bands: Sequence[Band]) -> list[tuple[float, float]]:
    """Every intersection point of two of the bands' boundary circles, as
    (x, y) floats, before any closure test or merging.

    Each bounded band contributes its two boundary circles (the inner one
    only when r_lo > 0, a zero-radius circle cannot form a corner); an
    unbounded band contributes just the inner circle. Each pair is
    intersected on floats, tangent within TAU_GEO, and a coincident pair
    raises CoincidentCircles.
    """
    circles: list[tuple[float, float, float]] = []
    for (cx, cy), r_lo, r_hi in bands:
        if r_lo > 0.0:
            circles.append((cx, cy, r_lo))
        if math.isfinite(r_hi):
            circles.append((cx, cy, r_hi))
    hypot, sqrt = math.hypot, math.sqrt
    points: list[tuple[float, float]] = []
    for i, (x1, y1, r1) in enumerate(circles):
        for x2, y2, r2 in circles[i + 1:]:
            d = hypot(x2 - x1, y2 - y1)
            if d <= TAU_GEO and abs(r1 - r2) <= TAU_GEO:
                raise CoincidentCircles(
                    f"coincident circles {Circle(Point(x1, y1), r1)} and "
                    f"{Circle(Point(x2, y2), r2)}"
                )
            if d > r1 + r2 + TAU_GEO or d < abs(r1 - r2) - TAU_GEO:
                continue
            a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
            ux, uy = (x2 - x1) / d, (y2 - y1) / d
            mx, my = x1 + a * ux, y1 + a * uy
            if abs(d - (r1 + r2)) <= TAU_GEO or abs(d - abs(r1 - r2)) <= TAU_GEO:
                points.append((mx, my))
            else:
                h = sqrt(max(r1 * r1 - a * a, 0.0))
                ox, oy = -uy * h, ux * h
                points.append((mx + ox, my + oy))
                points.append((mx - ox, my - oy))
    return points


def corners(bands: Sequence[Band]) -> tuple[Point, ...]:
    """Pairwise boundary-circle intersections lying on the free area's closure.

    The points come from `_crossings`; those in the closure (tested at
    -TAU_GEO) are kept, merging any within TAU_GEO of an earlier corner.
    """
    closure = _bounds(bands, -TAU_GEO)
    hypot = math.hypot
    found: list[Point] = []
    for x, y in _crossings(bands):
        if _inside(closure, x, y):
            for qx, qy in found:
                if hypot(x - qx, y - qy) <= TAU_GEO:
                    break
            else:
                found.append(Point(x, y))
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


def min_enclosing_disk(points: Sequence[Point]) -> Disk:
    """Smallest closed disk containing all points.

    Welzl's randomized incremental construction (de Berg et al.,
    *Computational Geometry* §4.7), expected linear time: a point outside
    the disk so far lies on the boundary of the next one, which is found
    with one, then two boundary points fixed. A float-collinear triple
    keeps the current disk. The internal shuffle is seeded so equal inputs
    give identical disks.
    """
    pts = [Point(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("min_enclosing_disk: empty point set")
    random.Random(0x5EED).shuffle(pts)
    d = Disk(pts[0], 0.0)
    for i, p in enumerate(pts):
        if _disk_contains(d, p):
            continue
        d = Disk(p, 0.0)
        for j, q in enumerate(pts[:i]):
            if _disk_contains(d, q):
                continue
            d = _diameter_disk(p, q)
            for r in pts[:j]:
                if not _disk_contains(d, r):
                    d = _circumdisk(p, q, r) or d
    return d


def sample_in_disk(d: Disk, rng: random.Random) -> Point:
    """A point uniform over the closed disk: two `rng.random()` calls, its
    angle, then its radius as R * sqrt(u). A radius-0 disk returns its
    center and calls `rng` not at all."""
    (x0, y0), radius = d
    if radius == 0.0:
        return Point(x0, y0)
    theta = rng.random() * 2 * math.pi
    r = radius * math.sqrt(rng.random())
    return Point(x0 + r * math.cos(theta), y0 + r * math.sin(theta))


def candidate_disk(bands: Sequence[Band]) -> Disk:
    """A disk meeting the free area; an oracle for tests, not search code.

    The smallest disk enclosing the corners when there are any; otherwise
    the smallest bounded band's outer disk. Either provably meets the free
    area when it is non-empty. An area with neither a corner nor a bounded
    band (the whole plane, or all bands unbounded) raises ValueError.
    """
    pts = corners(bands)
    if pts:
        return min_enclosing_disk(pts)
    bounded = [b for b in bands if math.isfinite(b[2])]
    if not bounded:
        raise ValueError("candidate_disk: need a corner or a bounded annulus")
    (cx, cy), _, hi = min(bounded, key=lambda b: b[2])
    return Disk(Point(cx, cy), hi)


_TWO_PI = 2 * math.pi


def _band_range(
    bands: Sequence[Band], k: int, ring_lo: float, ring_hi: float
) -> tuple[float, float] | None:
    """The range of distances from band k's center c0 that points of the
    bands' intersection can have within the ring ring_lo < distance <
    ring_hi, or None when the intersection is provably empty there.

    Over the closure (tested at -TAU_GEO) the distance to c0 is least at c0
    itself or on the closure's boundary, and greatest on the boundary. The
    boundary consists of arcs of boundary circles. On an arc the distance
    to c0 is extreme at an end, which is a corner, or at one of the two
    points of its circle on the line through c0 (any point when the circle
    is centered at c0); a whole circle without ends lies in the closure. So
    the candidates that lie in the closure include both extremes, and none
    of them means an empty closure. The candidates are the pair
    intersection points from `_crossings` and the points c0 + t * u, with
    u the direction from c0 to a band's center at distance d and
    t = d +- r for each of its radii r (band k's own r_lo = 0 gives c0).
    The pair points are not merged, so the range holds the one over
    `corners` and exceeds it by at most TAU_GEO at either end. Clipped to
    the ring, band k shrunk by a margin >= -TAU_GEO, the range holds every
    point of the intersection at that margin; it may be a single radius.

    A candidate skips the closure test when passing it could not change
    the result: when its distance t lies inside the range found so far, or
    when it would only lower lo that is already at or below ring_lo, or
    only raise hi that is already at or above ring_hi. Such a candidate
    leaves max(lo, ring_lo) and min(hi, ring_hi) as they are, and the None
    test too: with lo <= ring_lo, lo < ring_hi holds whenever
    ring_lo < ring_hi does, and with hi >= ring_hi, ring_lo < hi holds
    whenever ring_lo < ring_hi does.

    When band k is unbounded, every band is, and the range runs up to the
    ring's cap (see `sample_free_area`), which exceeds every candidate.
    """
    (x0, y0), _, k_hi = bands[k]
    hypot = math.hypot
    closure = _bounds(bands, -TAU_GEO)
    lo, hi = math.inf, math.inf if k_hi == math.inf else -math.inf
    for x, y in _crossings(bands):
        t = hypot(x - x0, y - y0)
        if ((t < lo and lo > ring_lo) or (t > hi and hi < ring_hi)) and _inside(closure, x, y):
            lo, hi = min(lo, t), max(hi, t)
    for (cx, cy), r_lo, r_hi in bands:
        d = hypot(cx - x0, cy - y0)
        ux, uy = ((cx - x0) / d, (cy - y0) / d) if d else (1.0, 0.0)
        for r in (r_lo, r_hi) if math.isfinite(r_hi) else (r_lo,):
            for t in (d + r, d - r):
                a = abs(t)
                if ((a < lo and lo > ring_lo) or (a > hi and hi < ring_hi)) and _inside(
                    closure, x0 + t * ux, y0 + t * uy
                ):
                    lo, hi = min(lo, a), max(hi, a)
    if not (lo <= hi and ring_lo < hi and lo < ring_hi and ring_lo < ring_hi):
        return None
    return max(lo, ring_lo), min(hi, ring_hi)


def _arcs(rho: float, others) -> list[tuple[float, float]]:
    """Angles in [0, 2pi] around the base center at which the point at
    distance `rho` lies in every other annulus, as intervals with disjoint
    interiors; each of `others` is (D, phi, lo, hi), its center at distance
    D and angle phi in [-pi, pi] from the base center."""
    arcs = None  # the full circle [0, 2pi]
    acos, pi = math.acos, math.pi
    for d, phi, lo, hi in others:
        if rho * d == 0.0:
            # The distance to this center, rho + d, is the same at every angle.
            if not lo < rho + d < hi:
                return []
            continue
        # Law of cosines: the distance exceeds lo where |theta - phi| > a0
        # and stays below hi where |theta - phi| < a1.
        s, rd2 = rho * rho + d * d, 2.0 * rho * d
        c0, c1 = (s - lo * lo) / rd2, (s - hi * hi) / rd2
        a0 = 0.0 if c0 >= 1.0 else pi if c0 <= -1.0 else acos(c0)
        a1 = 0.0 if c1 >= 1.0 else pi if c1 <= -1.0 else acos(c1)
        if a0 >= a1:
            return []
        # Both arcs start in [-2pi, 2pi] and span at most pi: wrap each
        # into [0, 2pi], splitting it at 2pi, and drop what rounding left
        # empty. The cut is then its own intersection with the full circle.
        cut = []
        for b, e in ((phi - a1, phi - a0), (phi + a0, phi + a1)):
            if b < 0.0:
                b, e = b + _TWO_PI, e + _TWO_PI
            if e > _TWO_PI:
                cut.append((0.0, e - _TWO_PI))
                e = _TWO_PI
            if b < e:
                cut.append((b, e))
        if arcs is None:
            arcs = cut
        else:
            arcs = [
                (u, v)
                for p, q in arcs
                for b, e in cut
                if (u := p if p > b else b) < (v := q if q < e else e)
            ]
    return [(0.0, _TWO_PI)] if arcs is None else arcs


# A placement gives up after this many tries land in every band but where
# `sample_free_area`'s `blocked` predicate holds. Of the caps 4, 8, 16, 32
# and 64, 16 searched c5's 5,000 profiles fastest; 4 and 8 let one of the
# six hard profiles of ROADMAP item 3 exhaust at base seeds 1-4, and 32
# and 64 took 12% and 19% longer on c5.
BLOCKED_TRIES = 16


def sample_free_area(
    bands: Sequence[Band],
    rng: random.Random,
    budget: int,
    margin: float,
    blocked: Callable[[float, float], bool] | None = None,
) -> Point | None:
    """Sample a point of the bands' intersection where `blocked`, if given,
    does not hold; None after one ring try and up to `budget` further tries
    miss a band, or after BLOCKED_TRIES tries land in every band where
    `blocked(x, y)` holds.

    Each band (center, lo, hi) is the open ring lo < distance < hi around
    center, hi possibly inf. Any returned point lies in every band with the
    requested margin, which must be below 1 (see the unbounded case below).
    No bands, the whole plane, raises ValueError before any draw, as
    `candidate_disk` refuses it; the search gives its first placement one
    band around a voter.

    A slice sampler runs around the center c0 of the band k with the
    smallest hi^2 - lo^2 (the first on a tie; an unbounded band only when
    all are). Each try draws a radius rho uniform in area over a range of
    distances from c0, then an angle uniform over the arcs every other band
    allows at rho (`_arcs`), and keeps the point if it lies in every band:
    one `rng.random()` call when no arc is left, two otherwise.

    The first try takes rho from band k's ring shrunk by `margin`. Only
    when it misses is the exact range computed, by `_band_range`, and the
    call ends at once when that is None: the one emptiness proof, which
    holds wherever the bands' closures, each widened by TAU_GEO, share no
    point, as when two bands lie apart or one lies inside another's hole.
    The further tries take rho from that exact range. The ring holds the
    exact range and the exact range holds every radius at which a try can
    succeed, so a returned point has the same law either way: rho uniform
    in area over the accepted radii, then the angle uniform over the arcs.
    An intersection proved empty thus costs the ring try alone. Bands with
    coincident boundary circles raise CoincidentCircles after a missed ring
    try, even where another pair of bands lies apart; the search never
    builds them, as its voters lie more than TAU_GEO apart.

    A blocked try, one that lands in every band where `blocked` holds, is
    neither a miss nor a reason to compute the exact range: the next try
    draws from the same range, and only the BLOCKED_TRIES cap ends the
    call. A returned point then has that law restricted to where `blocked`
    does not hold. The search passes a rule that proves some unplaced
    alternative would have no room (see `heuristic._same_side_rule`).

    When band k is unbounded, every band is. With R = max(d + lo) over the
    bands, d the distance from c0 to the band's center, every angle is free
    at distances beyond R + margin, so the ring is capped at R + 1. For any
    margin below 1 the intersection holds every point at a distance in
    (R + margin, R + 1), which neither the least candidate of `_band_range`
    nor band k's shrunk lo can exceed: such an intersection is never
    reported empty.
    """
    if budget < 1:
        raise ValueError(f"need budget >= 1, got {budget}")
    if not margin < 1.0:
        raise ValueError(f"need margin < 1, got {margin}")
    if not bands:
        raise ValueError("sample_free_area: need at least one band")
    random_, sqrt, cos, sin = rng.random, math.sqrt, math.cos, math.sin
    hypot = math.hypot
    # Band k: only a smaller width replaces the one kept, so k is the first
    # thinnest, and an unbounded band (width inf) stays k only when all are.
    k, width = 0, math.inf
    for i, (_, lo, hi) in enumerate(bands):
        w = hi * hi - lo * lo
        if w < width:
            k, width = i, w
    (x0, y0), r_lo, r_hi = bands[k]
    ring_lo, ring_hi = r_lo + margin, r_hi - margin
    if r_hi == math.inf:
        ring_hi = 1.0 + max(hypot(cx - x0, cy - y0) + lo for (cx, cy), lo, _ in bands)
    if not ring_lo < ring_hi:
        return None
    # The bands shrunk by `margin`, and the others as `_arcs` takes them.
    bounds = _bounds(bands, margin)
    others = []
    for i, (cx, cy, a_lo, a_hi) in enumerate(bounds):
        if i != k:
            dx, dy = cx - x0, cy - y0
            others.append((hypot(dx, dy), math.atan2(dy, dx), a_lo, a_hi))
    lo, hi = max(ring_lo, 0.0), ring_hi
    lo2, span = lo * lo, hi * hi - lo * lo
    misses = blocks = 0
    while True:
        rho = sqrt(lo2 + random_() * span)
        arcs = _arcs(rho, others)
        if arcs:
            # A plain loop: from Python 3.12 on, `sum` compensates float
            # rounding, and the angle would differ between interpreters.
            total = 0.0
            for s, e in arcs:
                total += e - s
            t = random_() * total
            for s, e in arcs:
                if t < e - s:
                    break
                t -= e - s  # rounding may leave t at the last arc's end
            x, y = x0 + rho * cos(s + t), y0 + rho * sin(s + t)
            if _inside(bounds, x, y):
                if blocked is None or not blocked(x, y):
                    return Point(x, y)
                blocks += 1
                if blocks == BLOCKED_TRIES:
                    return None
                continue
        misses += 1
        if misses > budget:
            return None
        if misses == 1:
            # The ring try missed.
            rho_range = _band_range(bands, k, ring_lo, ring_hi)
            if rho_range is None:
                return None
            lo, hi = rho_range
            lo2, span = lo * lo, hi * hi - lo * lo

