"""Planar primitives: circle intersections, annuli, enclosing disks, sampling.

All functions are pure; randomness comes in only through an explicit
``random.Random`` argument. Coordinates are plain floats and the kernel is
tuned for unit-scale inputs (tolerances below are absolute).

The search's kernel works on bands, plain tuples (cx, cy, lo, hi) for the
open ring lo < distance < hi around (cx, cy): `sample_bands`, the exact
distance range `_band_range`, the pairwise emptiness proof
`_disjoint_pair` and the circle-pair intersections `_crossings`. The
`FreeArea` functions (`sample_free_area`, `corners`, `_radius_range`)
convert their annuli to bands and run the same code.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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


Band = tuple[float, float, float, float]


def _bands(f: FreeArea) -> list[Band]:
    """The free area's annuli as bands (cx, cy, r_lo, r_hi), the form every
    kernel below works on."""
    return [(cx, cy, r_lo, r_hi) for (cx, cy), r_lo, r_hi in f.annuli]


def _bounds(bands: list[Band], margin: float) -> list[Band]:
    """Each band shrunk by `margin`; `_inside` tests
    lo < hypot(cx - x, cy - y) < hi, the float operations of
    `annulus_contains` (squared distances would round differently), so the
    two agree bit for bit on every finite distance."""
    return [(cx, cy, lo + margin, hi - margin) for cx, cy, lo, hi in bands]


def _inside(bounds: list[Band], x: float, y: float) -> bool:
    for cx, cy, lo, hi in bounds:
        if not lo < math.hypot(cx - x, cy - y) < hi:
            return False
    return True


def free_area_contains(f: FreeArea, p: Point, margin: float = 0.0) -> bool:
    """True iff `p` lies in every annulus; vacuously true for no annuli."""
    return not f.infeasible and _inside(_bounds(_bands(f), margin), p.x, p.y)


def _crossings(bands: list[Band]) -> list[tuple[float, float]]:
    """Every intersection point of two of the bands' boundary circles, as
    (x, y) floats, before any closure test or merging.

    Each bounded band contributes its two boundary circles (the inner one
    only when r_lo > 0, a zero-radius circle cannot form a corner); an
    unbounded band contributes just the inner circle. Each pair is
    intersected with `circle_intersections`' arithmetic, inlined on floats,
    and a coincident pair raises CoincidentCircles.
    """
    circles: list[tuple[float, float, float]] = []
    for cx, cy, r_lo, r_hi in bands:
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
            if d > r1 + r2 + TAU_TAN or d < abs(r1 - r2) - TAU_TAN:
                continue
            a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
            ux, uy = (x2 - x1) / d, (y2 - y1) / d
            mx, my = x1 + a * ux, y1 + a * uy
            if abs(d - (r1 + r2)) <= TAU_TAN or abs(d - abs(r1 - r2)) <= TAU_TAN:
                points.append((mx, my))
            else:
                h = sqrt(max(r1 * r1 - a * a, 0.0))
                ox, oy = -uy * h, ux * h
                points.append((mx + ox, my + oy))
                points.append((mx - ox, my - oy))
    return points


def corners(f: FreeArea) -> tuple[Point, ...]:
    """Pairwise boundary-circle intersections lying on the free area's closure.

    The points come from `_crossings`; those in the closure (tested at
    -TAU_GEO) are kept, merging any within TAU_GEO of an earlier corner.
    """
    if f.infeasible:
        return ()
    bands = _bands(f)
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


def min_enclosing_disk(points: Sequence[Point]) -> Disk:
    """Smallest closed disk containing all points.

    Randomized incremental construction, expected near-linear time; the
    internal shuffle is seeded so equal inputs give identical disks.
    """
    pts = [Point(float(p[0]), float(p[1])) for p in points]
    if not pts:
        raise ValueError("min_enclosing_disk: empty point set")
    random.Random(0x5EED).shuffle(pts)
    d: Disk | None = None
    for i, p in enumerate(pts):
        if d is None or not _disk_contains(d, p):
            d = _med_one_boundary(pts[: i + 1], p)
    assert d is not None
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


def candidate_disk(f: FreeArea) -> Disk:
    """A disk meeting the free area; an oracle for tests, not search code.

    The smallest disk enclosing the corners when there are any; otherwise
    the smallest bounded annulus's outer disk. Either provably meets the
    free area when it is non-empty. An area with neither a corner nor a
    bounded annulus (the whole plane, all annuli unbounded, or infeasible)
    raises ValueError.
    """
    pts = corners(f)
    if pts:
        return min_enclosing_disk(pts)
    bounded = [a for a in f.annuli if math.isfinite(a.r_hi)]
    if f.infeasible or not bounded:
        raise ValueError("candidate_disk: need a corner or a bounded annulus")
    a = min(bounded, key=lambda a: a.r_hi)
    return Disk(a.center, a.r_hi)


_TWO_PI = 2 * math.pi


def _band_range(
    bands: list[Band], k: int, ring_lo: float, ring_hi: float
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
    `corners` and exceeds it by at most TAU_GEO at either end. A candidate
    whose distance lies inside the range found so far cannot widen it and
    skips the closure test. Clipped to the ring, band k shrunk by a margin
    >= -TAU_GEO, the range holds every point of the intersection at that
    margin; it may be a single radius.

    When band k is unbounded, every band is, and the range runs up to the
    ring's cap (see `sample_bands`), which exceeds every candidate.
    """
    x0, y0, _, k_hi = bands[k]
    hypot = math.hypot
    closure = _bounds(bands, -TAU_GEO)
    lo, hi = math.inf, math.inf if k_hi == math.inf else -math.inf
    for x, y in _crossings(bands):
        t = hypot(x - x0, y - y0)
        if (t < lo or t > hi) and _inside(closure, x, y):
            lo, hi = min(lo, t), max(hi, t)
    for cx, cy, r_lo, r_hi in bands:
        d = hypot(cx - x0, cy - y0)
        ux, uy = ((cx - x0) / d, (cy - y0) / d) if d else (1.0, 0.0)
        for r in (r_lo, r_hi) if math.isfinite(r_hi) else (r_lo,):
            for t in (d + r, d - r):
                if (abs(t) < lo or abs(t) > hi) and _inside(closure, x0 + t * ux, y0 + t * uy):
                    lo, hi = min(lo, abs(t)), max(hi, abs(t))
    if not (lo <= hi and ring_lo < hi and lo < ring_hi and ring_lo < ring_hi):
        return None
    return max(lo, ring_lo), min(hi, ring_hi)


def _radius_range(
    f: FreeArea, k: int, ring_lo: float, ring_hi: float
) -> tuple[float, float] | None:
    """`_band_range` over the free area's annuli."""
    return _band_range(_bands(f), k, ring_lo, ring_hi)


# The slack of `_disjoint_pair`'s proof: 2 * TAU_GEO plus rounding, with room.
DISJOINT_SLACK = 10 * TAU_GEO


def _disjoint_pair(bands: list[Band]) -> bool:
    """Whether two of the bands provably share no point of their closures,
    in which case `_band_range` finds no candidate and returns None.

    Take bands 1 and 2 with centers at distance d and write s for
    DISJOINT_SLACK. A candidate passes `_band_range`'s closure test only if
    its distances t1, t2 to the two centers satisfy
    lo - TAU_GEO < t < hi + TAU_GEO for both bands, up to the rounding e of
    a float distance. If d > hi1 + hi2 + s, the outer disks lie apart: the
    triangle inequality d <= t1 + t2 < hi1 + hi2 + 2 TAU_GEO + 2e
    contradicts it. If d + hi2 + s < lo1, band 2's outer disk lies in band
    1's hole: t1 <= d + t2 < lo1 - s + TAU_GEO + e, below lo1 - TAU_GEO - e.
    The same holds with 1 and 2 swapped. Each case needs
    s > 2 TAU_GEO + 3e (one more e for d and the sums), and e stays below
    1e-14 at the unit scale the kernel is tuned for, so s = 10 TAU_GEO
    holds with room. An unbounded band fires neither case as the outer one.
    """
    hypot = math.hypot
    for i, (x1, y1, lo1, hi1) in enumerate(bands):
        for x2, y2, lo2, hi2 in bands[i + 1:]:
            d = hypot(x2 - x1, y2 - y1)
            far, near = d - DISJOINT_SLACK, d + DISJOINT_SLACK
            if far > hi1 + hi2 or near + hi2 < lo1 or near + hi1 < lo2:
                return True
    return False


def _arcs(rho: float, others) -> list[tuple[float, float]]:
    """Angles in [0, 2pi] around the base center at which the point at
    distance `rho` lies in every other annulus, as intervals with disjoint
    interiors; each of `others` is (D, phi, lo, hi), its center at distance
    D and angle phi in [-pi, pi] from the base center."""
    arcs = [(0.0, _TWO_PI)]
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
        # into [0, 2pi], splitting it at 2pi.
        cut = []
        for b, e in ((phi - a1, phi - a0), (phi + a0, phi + a1)):
            if b < 0.0:
                b, e = b + _TWO_PI, e + _TWO_PI
            if e > _TWO_PI:
                cut += [(0.0, e - _TWO_PI), (b, _TWO_PI)]
            else:
                cut.append((b, e))
        arcs = [
            (u, v)
            for p, q in arcs
            for b, e in cut
            if (u := p if p > b else b) < (v := q if q < e else e)
        ]
    return arcs


def sample_bands(
    bands: list[Band], rng: random.Random, budget: int, margin: float
) -> Point | None:
    """Sample a point of the bands' intersection, or None after one ring
    try and up to `budget` further tries.

    Each band (cx, cy, lo, hi) is the open ring lo < distance < hi around
    (cx, cy), hi possibly inf; no bands means the whole plane. Any returned
    point lies in every band with the requested margin.

    A slice sampler runs around the center c0 of the band k with the
    smallest hi^2 - lo^2 (the first on a tie; an unbounded band only when
    all are). Each try draws a radius rho uniform in area over a range of
    distances from c0, then an angle uniform over the arcs every other band
    allows at rho (`_arcs`), and keeps the point if it lies in every band:
    one `rng.random()` call when no arc is left, two otherwise.

    The first try takes rho from band k's ring shrunk by `margin`. Only
    when it misses is the exact range computed: None at once when
    `_disjoint_pair` proves two bands apart, else `_band_range`. The further
    tries take rho from that exact range. The ring holds the exact range and
    the exact range holds every radius at which a try can succeed, so a
    returned point has the same law either way: rho uniform in area over
    the accepted radii, then the angle uniform over the arcs. An
    intersection proved empty thus costs the ring try alone.

    When band k is unbounded, every band is. With R = max(d + lo) over the
    bands, d the distance from c0 to the band's center, every angle is free
    at distances beyond R + margin, so the ring is capped at R + 1. For any
    margin below 1 the intersection holds every point at a distance in
    (R + margin, R + 1), which neither the least candidate of `_band_range`
    nor band k's shrunk lo can exceed, and `_disjoint_pair` never fires
    without a bounded band: such an intersection is never reported empty.
    The whole plane is the ring [0, 2] around the origin, which every try
    hits.
    """
    if budget < 1:
        raise ValueError(f"need budget >= 1, got {budget}")
    hypot = math.hypot
    if bands:
        widths = [hi * hi - lo * lo for _, _, lo, hi in bands]
        k = widths.index(min(widths))
        x0, y0, r_lo, r_hi = bands[k]
        ring_lo, ring_hi = r_lo + margin, r_hi - margin
        if r_hi == math.inf:
            ring_hi = 1.0 + max(hypot(cx - x0, cy - y0) + lo for cx, cy, lo, _ in bands)
        if not ring_lo < ring_hi:
            return None
    else:
        k, x0, y0, ring_lo, ring_hi = -1, 0.0, 0.0, 0.0, 2.0
    bounds = _bounds(bands, margin)
    others = []
    for i, (cx, cy, a_lo, a_hi) in enumerate(bounds):
        if i != k:
            dx, dy = cx - x0, cy - y0
            others.append((hypot(dx, dy), math.atan2(dy, dx), a_lo, a_hi))
    random_, sqrt, cos, sin = rng.random, math.sqrt, math.cos, math.sin
    lo, hi = max(ring_lo, 0.0), ring_hi
    lo2, span = lo * lo, hi * hi - lo * lo
    for i in range(budget + 1):
        if i == 1:
            # The ring try missed; the whole plane never gets here.
            if _disjoint_pair(bands):
                return None
            rho_range = _band_range(bands, k, ring_lo, ring_hi)
            if rho_range is None:
                return None
            lo, hi = rho_range
            lo2, span = lo * lo, hi * hi - lo * lo
        rho = sqrt(lo2 + random_() * span)
        arcs = _arcs(rho, others)
        if not arcs:
            continue
        t = random_() * sum(e - s for s, e in arcs)
        for s, e in arcs:
            if t < e - s:
                break
            t -= e - s  # rounding may leave t at the last arc's end
        x, y = x0 + rho * cos(s + t), y0 + rho * sin(s + t)
        if _inside(bounds, x, y):
            return Point(x, y)
    return None


def sample_free_area(
    f: FreeArea, rng: random.Random, budget: int, margin: float
) -> Point | None:
    """`sample_bands` over the free area's annuli; an infeasible area gives
    None without drawing, and a budget below 1 raises either way."""
    if f.infeasible and budget >= 1:
        return None
    return sample_bands(_bands(f), rng, budget, margin)
