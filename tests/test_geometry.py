import functools
import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, reject, settings, strategies as st

from pref2d import geometry, heuristic
from pref2d import (
    Annulus,
    Circle,
    CoincidentCircles,
    Disk,
    Point,
    Profile,
    candidate_disk,
    circle_intersections,
    corners,
    dist,
    free_area_contains,
    min_enclosing_disk,
    sample_free_area,
    sample_in_disk,
)
from pref2d.geometry import (
    BLOCKED_TRIES,
    TAU_GEO,
    _band_range,
    _bounds,
    _circumdisk,
    _crossings,
    _diameter_disk,
    _inside,
)
from pref2d.heuristic import PLACEMENT_MARGIN

from conftest import random_profile

coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)

INF = float("inf")


def brute_force_enclosing_disk(pts):
    """Independent oracle: best disk over all pairs and triples of points."""
    slack = 1e-12
    candidates = [Disk(pts[0], 0.0)]
    for a, b in combinations(pts, 2):
        candidates.append(_diameter_disk(a, b))
    for a, b, c in combinations(pts, 3):
        d = _circumdisk(a, b, c)
        if d is not None:
            candidates.append(d)
    feasible = [
        d for d in candidates if all(dist(d.center, p) <= d.radius + slack for p in pts)
    ]
    return min(feasible, key=lambda d: d.radius)


def reference_circle_intersections(c1, c2):
    """`circle_intersections` as written before it ran on `_crossings`: a
    reference for both."""
    (x1, y1), r1 = c1
    (x2, y2), r2 = c2
    d = math.hypot(x2 - x1, y2 - y1)
    if d <= TAU_GEO and abs(r1 - r2) <= TAU_GEO:
        raise CoincidentCircles(f"coincident circles {c1} and {c2}")
    if d > r1 + r2 + TAU_GEO:
        return ()
    if d < abs(r1 - r2) - TAU_GEO:
        return ()
    a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
    ux, uy = (x2 - x1) / d, (y2 - y1) / d
    mx, my = x1 + a * ux, y1 + a * uy
    if abs(d - (r1 + r2)) <= TAU_GEO or abs(d - abs(r1 - r2)) <= TAU_GEO:
        return (Point(mx, my),)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    ox, oy = -uy * h, ux * h
    return (Point(mx + ox, my + oy), Point(mx - ox, my - oy))


def reference_annulus_contains(a, p, margin=0.0):
    """The single-ring test as written before `free_area_contains` took its
    place: a reference on every finite distance."""
    d = dist(a.center, p)
    if d <= a.r_lo + margin:
        return False
    if math.isfinite(a.r_hi) and d >= a.r_hi - margin:
        return False
    return True


class TestDist:
    def test_345_triangle(self):
        assert dist(Point(0, 0), Point(3, 4)) == 5.0

    def test_identity(self):
        assert dist(Point(1, 1), Point(1, 1)) == 0.0

    def test_axis_pair(self):
        assert dist(Point(2, 2), Point(0, 2)) == 2.0

    @given(points, points)
    def test_symmetry(self, p, q):
        assert dist(p, q) == dist(q, p)

    @given(points, points, points)
    def test_triangle_inequality(self, p, q, r):
        assert dist(p, r) <= dist(p, q) + dist(q, r) + 1e-9


class TestCircleIntersections:
    def test_two_points_345(self):
        got = circle_intersections(Circle(Point(0, 0), 5), Circle(Point(6, 0), 5))
        assert set(got) == {Point(3, 4), Point(3, -4)}

    def test_external_tangency(self):
        got = circle_intersections(Circle(Point(0, 0), 1), Circle(Point(2, 0), 1))
        assert got == (Point(1, 0),)

    def test_separated(self):
        assert circle_intersections(Circle(Point(0, 0), 1), Circle(Point(5, 0), 1)) == ()

    def test_nested(self):
        assert circle_intersections(Circle(Point(0, 0), 5), Circle(Point(1, 0), 1)) == ()

    def test_internal_tangency(self):
        got = circle_intersections(Circle(Point(0, 0), 3), Circle(Point(1, 0), 2))
        assert got == (Point(3, 0),)

    def test_coincident_is_error(self):
        with pytest.raises(CoincidentCircles):
            circle_intersections(Circle(Point(0, 0), 1), Circle(Point(0, 0), 1))

    @pytest.mark.parametrize("radius", [math.nan, INF])
    def test_non_finite_radius_has_no_points(self, radius):
        for c1, c2 in [(Circle(Point(0, 0), radius), Circle(Point(1, 0), 1)),
                       (Circle(Point(1, 0), 1), Circle(Point(1, 0), radius))]:
            assert circle_intersections(c1, c2) == ()

    def test_matches_the_reference(self):
        # Bit for bit, and the same message where both raise; some pairs are
        # tangent, coincident or have a zero radius.
        def outcome(fn, c1, c2):
            try:
                return [(p.x.hex(), p.y.hex()) for p in fn(c1, c2)]
            except CoincidentCircles as exc:
                return str(exc)

        rng = random.Random(31)
        kinds = Counter()
        for _ in range(20_000):
            radius = lambda: 0.0 if rng.random() < 0.1 else rng.uniform(0, 3)
            c1 = Circle(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)), radius())
            kind = rng.random()
            if kind < 0.05:
                c2 = Circle(c1.center, c1.radius)
            elif kind < 0.3:
                r2 = radius()
                d = rng.choice([c1.radius + r2, abs(c1.radius - r2)])
                t = rng.uniform(0, 2 * math.pi)
                c2 = Circle(Point(c1.center.x + d * math.cos(t), c1.center.y + d * math.sin(t)), r2)
            else:
                c2 = Circle(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)), radius())
            got = outcome(circle_intersections, c1, c2)
            assert got == outcome(reference_circle_intersections, c1, c2)
            kinds["coincident" if isinstance(got, str) else len(got)] += 1
        assert all(kinds[k] > 100 for k in (0, 1, 2, "coincident"))

    def test_points_lie_on_both_circles(self):
        rng = random.Random(7)
        for _ in range(10_000):
            c1 = Circle(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.01, 5))
            c2 = Circle(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.01, 5))
            try:
                pts = circle_intersections(c1, c2)
            except CoincidentCircles:
                continue
            for p in pts:
                assert abs(dist(p, c1.center) - c1.radius) <= 1e-9
                assert abs(dist(p, c2.center) - c2.radius) <= 1e-9


class TestAnnulus:
    def test_inside(self):
        a = Annulus(Point(0, 0), 1, 2)
        assert free_area_contains((a,), Point(1.5, 0))

    def test_open_boundary(self):
        a = Annulus(Point(0, 0), 1, 2)
        assert not free_area_contains((a,), Point(1, 0))
        assert not free_area_contains((a,), Point(2, 0))

    def test_unbounded_above(self):
        a = Annulus(Point(3, 3), 0, INF)
        assert free_area_contains((a,), Point(1000, 1000))
        assert not free_area_contains((a,), Point(3, 3))

    def test_margin_shrinks_band(self):
        a = Annulus(Point(0, 0), 1, 2)
        assert free_area_contains((a,), Point(1.05, 0), margin=0.0)
        assert not free_area_contains((a,), Point(1.05, 0), margin=0.1)

    def test_negative_margin_is_closure(self):
        a = Annulus(Point(0, 0), 1, 2)
        assert free_area_contains((a,), Point(1, 0), margin=-1e-9)

    @pytest.mark.parametrize("a, p", [
        (Annulus(Point(0, 0), 1, 2), Point(math.nan, 0)),
        (Annulus(Point(0, 0), 1, INF), Point(0, math.nan)),
        (Annulus(Point(0, 0), 1, INF), Point(INF, 0)),
        (Annulus(Point(0, 0), 0, INF), Point(-INF, INF)),
    ])
    def test_nan_and_infinitely_far_points_are_outside(self, a, p):
        assert not free_area_contains((a,), p)


class TestFreeArea:
    def test_conjunction(self):
        f = (Annulus(Point(0, 0), 0, 1), Annulus(Point(4, 0), 3, INF))
        assert free_area_contains(f, Point(0.1, 0))
        assert not free_area_contains(f, Point(2, 0))

    def test_empty_sequence_is_whole_plane(self):
        assert free_area_contains((), Point(123, -456))

    def test_agrees_with_annulus_contains_on_the_boundary(self):
        # Points within rounding of a boundary circle, where comparing
        # squared distances would disagree with hypot now and then.
        rng = random.Random(47)
        outside = 0
        for _ in range(2000):
            c = Point(rng.uniform(-2, 2), rng.uniform(-2, 2))
            lo = rng.uniform(0, 1.5)
            a = Annulus(c, lo, lo + rng.uniform(0.01, 2))
            margin = rng.choice([0.0, 1e-6, -1e-9])
            r = rng.choice([a.r_lo + margin, a.r_hi - margin])
            t = rng.uniform(0, 2 * math.pi)
            p = Point(c.x + r * math.cos(t), c.y + r * math.sin(t))
            got = free_area_contains((a,), p, margin)
            assert got == reference_annulus_contains(a, p, margin)
            outside += not got
        assert 200 < outside < 1800


class TestCorners:
    def test_two_overlapping_disks(self):
        f = (Annulus(Point(0, 0), 0, 5), Annulus(Point(6, 0), 0, 5))
        assert set(corners(f)) == {Point(3, 4), Point(3, -4)}

    def test_single_annulus_has_none(self):
        assert corners((Annulus(Point(0, 0), 1, 2),)) == ()

    def test_disjoint_disks_have_none(self):
        f = (Annulus(Point(0, 0), 0, 1), Annulus(Point(5, 0), 0, 1))
        assert corners(f) == ()

    def test_inner_circles_contribute(self):
        # Disk around the origin with a forbidden disk around (2, 0): corners
        # where the outer boundary of one meets the lower bound of the other.
        f = (Annulus(Point(0, 0), 0, 2), Annulus(Point(2, 0), 1, INF))
        got = corners(f)
        assert len(got) == 2
        for p in got:
            assert abs(dist(p, Point(0, 0)) - 2) <= 1e-9 or abs(dist(p, Point(2, 0)) - 1) <= 1e-9

    def test_permutation_invariance(self):
        rng = random.Random(11)
        for _ in range(200)            :
            annuli = []
            for _ in range(3):
                lo = rng.uniform(0, 1)
                annuli.append(
                    Annulus(
                        Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                        lo,
                        lo + rng.uniform(0.1, 2),
                    )
                )
            base = corners(annuli)
            other = corners(annuli[::-1])
            assert len(base) == len(other)
            for p in base:
                assert any(dist(p, q) <= 1e-9 for q in other)

    def test_matches_circle_intersections(self):
        # `corners` must return the corners built from Circle pairs by the
        # reference intersection and ring test, bit for bit, and raise where
        # they raise. Some areas get a tangent or a coincident pair of
        # circles.
        def reference_corners(f):
            circles = []
            for a in f:
                if a.r_lo > 0.0:
                    circles.append(Circle(a.center, a.r_lo))
                if math.isfinite(a.r_hi):
                    circles.append(Circle(a.center, a.r_hi))
            found = []
            for c1, c2 in combinations(circles, 2):
                for p in reference_circle_intersections(c1, c2):
                    if all(reference_annulus_contains(a, p, -1e-9) for a in f) and not any(
                        dist(p, q) <= 1e-9 for q in found
                    ):
                        found.append(p)
            return tuple(found)

        def outcome(fn, f):
            try:
                return [(p.x.hex(), p.y.hex()) for p in fn(f)]
            except CoincidentCircles:
                return "coincident"

        rng = random.Random(73)
        kinds = Counter()
        for _ in range(20_000):
            annuli = list(random_free_area(rng))
            if len(annuli) > 1 and rng.random() < 0.05:
                annuli[1] = annuli[0]
            elif len(annuli) > 1 and rng.random() < 0.3:
                a, b = annuli[0], annuli[1]
                r = rng.choice([a.r_lo, a.r_hi if a.r_hi < INF else a.r_lo])
                s = rng.choice([b.r_lo, b.r_hi if b.r_hi < INF else b.r_lo])
                d = rng.choice([r + s, abs(r - s)])
                t = rng.uniform(0, 2 * math.pi)
                center = Point(a.center.x + d * math.cos(t), a.center.y + d * math.sin(t))
                annuli[1] = Annulus(center, b.r_lo, b.r_hi)
            f = tuple(annuli)
            got = outcome(corners, f)
            assert got == outcome(reference_corners, f)
            kinds[got if got == "coincident" else min(len(got), 2)] += 1
        assert all(kinds[k] > 100 for k in (0, 1, 2, "coincident"))


class TestCandidateDisk:
    @pytest.mark.parametrize("f", [
        (),
        (Annulus(Point(0, 0), 1, INF), Annulus(Point(0.1, 0), 2, INF)),
    ])
    def test_refuses_area_without_corner_or_bounded_annulus(self, f):
        with pytest.raises(ValueError, match="corner or a bounded annulus"):
            candidate_disk(f)


class TestMinEnclosingDisk:
    def test_diameter_pair(self):
        d = min_enclosing_disk([Point(0, 0), Point(2, 0)])
        assert d.center == Point(1, 0) and abs(d.radius - 1) <= 1e-12

    def test_right_triangle(self):
        d = min_enclosing_disk([Point(0, 0), Point(4, 0), Point(0, 4)])
        assert dist(d.center, Point(2, 2)) <= 1e-9
        assert abs(d.radius - 2 * math.sqrt(2)) <= 1e-9

    def test_single_point(self):
        d = min_enclosing_disk([Point(3, -7)])
        assert d == Disk(Point(3, -7), 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            min_enclosing_disk([])

    def test_matches_brute_force(self):
        rng = random.Random(13)

        def uniform(n):
            return [Point(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(n)]

        def grid(n):  # integer points, often repeated and collinear
            return [Point(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]

        def duplicates(n):
            base = uniform(rng.randint(1, n))
            return [rng.choice(base) for _ in range(n)]

        def cocircular(n):
            cx, cy, r = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(0.1, 10)
            return [
                Point(cx + r * math.cos(a), cy + r * math.sin(a))
                for a in (rng.uniform(0, 2 * math.pi) for _ in range(n))
            ]

        cases = [uniform(rng.randint(1, 10)) for _ in range(300)]
        for kind in (grid, duplicates, cocircular):
            cases += [kind(rng.randint(1, 12)) for _ in range(100)]
        for kind in (uniform, grid, duplicates, cocircular):
            cases += [kind(rng.randint(13, 30)) for _ in range(4)]
        for pts in cases:
            got = min_enclosing_disk(pts)
            want = brute_force_enclosing_disk(pts)
            assert abs(got.radius - want.radius) <= 1e-9
            assert dist(got.center, want.center) <= 1e-9
            assert all(dist(got.center, p) <= got.radius * (1 + 1e-12) for p in pts)

    def test_collinear(self):
        pts = [Point(x, 2 * x) for x in range(5)]
        got = min_enclosing_disk(pts)
        want = _diameter_disk(pts[0], pts[-1])
        assert dist(got.center, want.center) <= 1e-9
        assert abs(got.radius - want.radius) <= 1e-9


class TestSampling:
    def test_deterministic(self):
        d = Disk(Point(0, 0), 1)
        assert sample_in_disk(d, random.Random(5)) == sample_in_disk(d, random.Random(5))

    def test_zero_radius_returns_center(self):
        d = Disk(Point(2, 3), 0.0)
        rng = random.Random(5)
        state = rng.getstate()
        assert sample_in_disk(d, rng) == Point(2, 3)
        assert rng.getstate() == state

    def test_draws_follow_the_polar_formula(self):
        # The angle first, then the radius as R * sqrt(u).
        d = Disk(Point(0.3, -1.7), 2.5)
        for seed in range(3):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(1000):
                theta = ref.random() * 2 * math.pi
                r = d.radius * math.sqrt(ref.random())
                x = d.center.x + r * math.cos(theta)
                y = d.center.y + r * math.sin(theta)
                p = sample_in_disk(d, rng)
                assert (p.x.hex(), p.y.hex()) == (x.hex(), y.hex())
            assert rng.getstate() == ref.getstate()

    def test_samples_stay_in_disk(self):
        rng = random.Random(17)
        d = Disk(Point(1, -1), 2.5)
        for _ in range(1000):
            assert dist(sample_in_disk(d, rng), d.center) <= d.radius + 1e-12

    def test_mean_near_center(self):
        rng = random.Random(23)
        d = Disk(Point(0, 0), 1)
        sx = sy = 0.0
        trials = 100_000
        for _ in range(trials):
            p = sample_in_disk(d, rng)
            sx += p.x
            sy += p.y
        assert abs(sx / trials) < 0.02 and abs(sy / trials) < 0.02

    def test_area_uniformity(self):
        # Half the area of a disk lies within R/sqrt(2) of the center.
        rng = random.Random(29)
        d = Disk(Point(0, 0), 1)
        trials = 100_000
        inner = sum(
            1 for _ in range(trials) if dist(sample_in_disk(d, rng), d.center) < 1 / math.sqrt(2)
        )
        assert abs(inner / trials - 0.5) < 0.01


@functools.cache
def unit_disk_points(count):
    rng = random.Random(71)
    return [
        (r * math.cos(t), r * math.sin(t))
        for t, r in ((rng.random() * 2 * math.pi, math.sqrt(rng.random())) for _ in range(count))
    ]


def reference_finds_point(f, budget, margin):
    """Whether `budget` uniform points of `candidate_disk` hit the free area
    under the ring test lo < distance < hi: disk rejection, the search's sampler
    before slices, as a reference for `sample_free_area`.
    The points are one fixed set, scaled to each disk, and are tested a
    whole batch per annulus, so that large budgets stay cheap."""
    (x0, y0), radius = candidate_disk(f)
    pts = [(x0 + radius * u, y0 + radius * v) for u, v in unit_disk_points(budget)]
    for a in f:
        (cx, cy), lo, hi = a.center, a.r_lo + margin, a.r_hi - margin
        pts = [(x, y) for x, y in pts if lo < math.hypot(x - cx, y - cy) < hi]
    return bool(pts)


def random_free_area(rng):
    annuli = []
    for _ in range(rng.randint(1, 4)):
        lo = rng.uniform(0, 1.5) if rng.random() < 0.8 else 0.0
        hi = lo + rng.uniform(0.01, 2) if rng.random() < 0.7 else INF
        annuli.append(Annulus(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)), lo, hi))
    return tuple(annuli)


def after_random_calls(seed, calls):
    rng = random.Random(seed)
    for _ in range(calls):
        rng.random()
    return rng.getstate()


def after_ring_try_alone(rng, seed):
    """Whether `rng`, seeded with `seed`, made only the ring try's calls:
    none (an empty ring), one (no arc) or two."""
    return rng.getstate() in [after_random_calls(seed, calls) for calls in (0, 1, 2)]


def reference_radius_range(f, k, margin):
    """The exact range as first written, a reference for `_band_range`: the
    extremes over the merged `corners` (where `_band_range` takes the
    unmerged `_crossings`) and the points collinear with the base center,
    clipped to the base ring shrunk by `margin`, which runs up to R + 1
    when the base is unbounded."""
    (x0, y0), r_lo, r_hi = f[k]
    dists = [math.hypot(p.x - x0, p.y - y0) for p in corners(f)]
    lo, hi = min(dists, default=INF), max(dists, default=-INF)
    if r_hi == INF:
        hi = 1.0 + max(math.hypot(cx - x0, cy - y0) + a_lo for (cx, cy), a_lo, _ in f)
    for (cx, cy), a_lo, a_hi in f:
        d = math.hypot(cx - x0, cy - y0)
        ux, uy = ((cx - x0) / d, (cy - y0) / d) if d else (1.0, 0.0)
        for r in (a_lo, a_hi) if a_hi < INF else (a_lo,):
            for t in (d + r, d - r):
                if free_area_contains(f, Point(x0 + t * ux, y0 + t * uy), -TAU_GEO):
                    lo, hi = min(lo, abs(t)), max(hi, abs(t))
    ring_lo, ring_hi = r_lo + margin, r_hi - margin
    if not (lo <= hi and ring_lo < hi and lo < ring_hi and ring_lo < ring_hi):
        return None
    return max(lo, ring_lo), min(hi, ring_hi)


def search_free_area(rng):
    """A free area built the way the search builds one: three voters rank
    the placed points and the new one at random, and each voter's radii are
    its distances to the placed points next to the new one in its ranking,
    so that several boundary circles meet at each placed point. None when a
    band collapses."""
    placed = [Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(1, 6))]
    annuli = []
    for _ in range(3):
        v = Point(rng.uniform(-1, 1), rng.uniform(-1, 1))
        better = rng.sample(placed, rng.randint(0, len(placed)))
        worse = [p for p in placed if p not in better]
        lo = max((dist(v, p) for p in better), default=0.0)
        hi = min((dist(v, p) for p in worse), default=INF)
        if lo >= hi:
            return None
        if lo > 0.0 or hi < INF:
            annuli.append(Annulus(v, lo, hi))
    return tuple(annuli)


class FixedRandom:
    """Stands in for `random.Random`, returning the given values in turn."""

    def __init__(self, values):
        self.values = iter(values)
        self.calls = 0

    def random(self):
        self.calls += 1
        return next(self.values)


class TestSampleFreeArea:
    def test_matches_reference_sampler(self):
        # Every area is sampled from its slices: a point must lie in the
        # area, an area given up after the ring try alone must be one the
        # reference finds empty at budget 20,000, and the sampler must hit
        # almost every area the reference finds a point in.
        gen = random.Random(37)
        margin = 1e-6
        unbounded = hits = misses = skips = 0
        for _ in range(3350):
            f = random_free_area(gen)
            seed = gen.random()
            rng = random.Random(seed)
            got = sample_free_area(f, rng, 200, margin)
            unbounded += all(a.r_hi == INF for a in f)
            if got is not None:
                assert free_area_contains(f, got, margin)
                hits += 1
            elif after_ring_try_alone(rng, seed):
                assert not reference_finds_point(f, 20_000, margin)
                skips += 1
            else:
                misses += reference_finds_point(f, 20_000, margin)
        assert unbounded > 300 and skips > 300
        assert hits >= 0.99 * (hits + misses)

    @pytest.mark.parametrize("annuli", [
        # two disjoint disks
        (Annulus(Point(0, 0), 0, 1), Annulus(Point(5, 0), 0, 1)),
        # a disk inside another annulus's hole
        (Annulus(Point(0, 0), 0, 1), Annulus(Point(0.5, 0), 3, 4)),
        # two externally tangent disks: one corner, no interior
        (Annulus(Point(0, 0), 0, 1), Annulus(Point(2, 0), 0, 1)),
    ])
    def test_provably_empty_skips_the_draws(self, annuli):
        # A provably empty area costs the ring try alone: its radius finds
        # no arc, one `random()` call, and the exact range skips the rest.
        rng = random.Random(41)
        assert sample_free_area(annuli, rng, 200, 1e-6) is None
        assert rng.getstate() == after_random_calls(41, 1)

    @pytest.mark.parametrize("annuli", [
        # a single annulus: no corners, but not empty
        (Annulus(Point(0, 0), 1, 2),),
        # nested lower-bound circles, unbounded: no corners, not empty
        (Annulus(Point(0, 0), 1, INF), Annulus(Point(0.1, 0), 2, INF)),
    ])
    def test_areas_that_may_be_non_empty_are_sampled(self, annuli):
        got = sample_free_area(annuli, random.Random(43), 200, 1e-6)
        assert got is not None and free_area_contains(annuli, got, 1e-6)

    def test_concentric_annuli(self):
        # A concentric annulus allows every angle at a radius or none.
        ring = (Annulus(Point(0.5, 0.5), 0, 1), Annulus(Point(0.5, 0.5), 0.5, 2))
        rng = random.Random(59)
        for _ in range(200):
            p = sample_free_area(ring, rng, 1, 1e-6)
            assert p is not None and 0.5 < dist(p, Point(0.5, 0.5)) < 1
        gap = (Annulus(Point(0, 0), 0, 1), Annulus(Point(0, 0), 1.5, 2))
        rng = random.Random(59)
        assert sample_free_area(gap, rng, 200, 0.0) is None
        assert rng.getstate() == after_random_calls(59, 1)

    def test_radius_zero_slice(self):
        # The first try draws the base center itself (rho = 0): the other
        # annulus then allows every angle or none, decided by its distance.
        disk = Annulus(Point(0, 0), 0, 1)
        for other, calls in [(Annulus(Point(0.5, 0), 0.2, 1), 4),
                             (Annulus(Point(0.5, 0), 0.7, 2), 3)]:
            rng = FixedRandom([0.0, 0.25, 0.25, 0.5])
            p = sample_free_area((disk, other), rng, 2, 0.0)
            assert rng.calls == calls
            assert p is not None and free_area_contains((disk, other), p)

    def test_thin_lens_is_found(self):
        # Two disks overlapping by 1e-5: the slices around one disk's center
        # find the lens.
        f = (Annulus(Point(0, 0), 0, 1), Annulus(Point(1.99999, 0), 0, 1))
        p = sample_free_area(f, random.Random(67), 200, 1e-6)
        assert p is not None and free_area_contains(f, p, 1e-6)

    def test_zero_radius_target_is_tested_before_the_skip(self):
        # A point disk with no corners, away from the other disk, is also
        # provably empty: None without a `random()` call.
        f = (Annulus(Point(0, 0), 0, 0), Annulus(Point(5, 0), 0, 1))
        assert corners(f) == () and candidate_disk(f).radius == 0.0
        rng = random.Random(41)
        assert sample_free_area(f, rng, 200, 1e-6) is None
        assert rng.getstate() == after_random_calls(41, 0)

    def test_coincident_circles_raise_after_a_missed_ring_try(self):
        # Band 1's inner circle is band 0's outer one, and band 2 lies apart
        # from both: the ring try finds no arc, then the exact range meets
        # the coincident pair.
        bands = [((0.0, 0.0), 0.5, 1.0), ((0.0, 0.0), 1.0, 2.0), ((5.0, 0.0), 0.0, 1.0)]
        rng = random.Random(41)
        with pytest.raises(CoincidentCircles):
            sample_free_area(bands, rng, 200, 0.0)
        assert rng.getstate() == after_random_calls(41, 1)

    def test_point_in_single_disk(self):
        f = (Annulus(Point(0, 0), 0, 1),)
        p = sample_free_area(f, random.Random(3), 100, 0.0)
        assert p is not None and dist(p, Point(0, 0)) < 1

    def test_empty_intersection_not_found(self):
        f = (Annulus(Point(0, 0), 0, 1), Annulus(Point(5, 0), 0, 1))
        assert sample_free_area(f, random.Random(3), 100, 0.0) is None

    def test_returned_point_satisfies_margin(self):
        rng = random.Random(31)
        for _ in range(500):
            annuli = []
            for _ in range(rng.randint(1, 3)):
                lo = rng.uniform(0, 1.5)
                hi = lo + rng.uniform(0.05, 2) if rng.random() < 0.7 else INF
                annuli.append(
                    Annulus(Point(rng.uniform(-1, 1), rng.uniform(-1, 1)), lo, hi)
                )
            f = tuple(annuli)
            margin = 1e-6
            p = sample_free_area(f, rng, 50, margin)
            if p is not None:
                assert free_area_contains(f, p, margin)

    def test_unbounded_fallback_disk_reaches_free_area(self):
        # All annuli unbounded above with nested lower-bound circles, so no
        # corners exist: the slices around the first center reach past every
        # lower bound, up to the cap R + 1 with R = max(d + r_lo) = 2.1.
        f = (Annulus(Point(0, 0), 1, INF), Annulus(Point(0.1, 0), 2, INF))
        assert corners(f) == ()
        rng = random.Random(3)
        for _ in range(500):
            p = sample_free_area(f, rng, 1, 0.0)
            assert p is not None and free_area_contains(f, p, 0.0)
            assert dist(p, Point(0, 0)) <= 3.1

    def test_unbounded_areas_are_never_missed(self):
        # Finitely many disks cannot cover the plane, so an area whose annuli
        # are all unbounded is never empty and every call must find it.
        rng = random.Random(73)
        for _ in range(2500):
            f = tuple(
                Annulus(Point(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0, 1.5), INF)
                for _ in range(rng.randint(1, 3))
            )
            for margin in (0.0, 1e-6):
                p = sample_free_area(f, rng, 200, margin)
                assert p is not None and free_area_contains(f, p, margin)
        # The cap lies a unit past the farthest forbidden circle; a cap at the
        # margin would pin the points to the circle.
        f = (Annulus(Point(0, 0), 1, INF),)
        gaps = sorted(dist(sample_free_area(f, rng, 200, 1e-6), Point(0, 0)) - 1
                      for _ in range(1000))
        assert gaps[500] > 0.1

    def test_radius_range_holds_the_corner_range(self):
        # Unmerged pair points may widen the range over the merged corners,
        # by at most TAU_GEO at either end, and never narrow it. Half of the
        # areas come from the search's construction, where circles meet.
        gen = random.Random(79)
        checked = widened = 0
        while checked < 20_000:
            f = random_free_area(gen) if checked % 2 else search_free_area(gen)
            if not f:
                continue
            widths = [a.r_hi * a.r_hi - a.r_lo * a.r_lo for a in f]
            k = widths.index(min(widths))
            (x0, y0), r_lo, r_hi = f[k]
            margin = gen.choice([0.0, 1e-6])
            ring_hi = r_hi - margin
            if r_hi == INF:
                ring_hi = 1.0 + max(
                    math.hypot(cx - x0, cy - y0) + a_lo for (cx, cy), a_lo, _ in f
                )
            try:
                want = reference_radius_range(f, k, margin)
            except CoincidentCircles:
                with pytest.raises(CoincidentCircles):
                    _band_range(f, k, r_lo + margin, ring_hi)
                continue
            got = _band_range(f, k, r_lo + margin, ring_hi)
            checked += 1
            if want is None:
                continue
            assert got is not None
            assert want[0] - TAU_GEO <= got[0] <= want[0]
            assert want[1] <= got[1] <= want[1] + TAU_GEO
            widened += got != want
        assert widened > 0

    def test_ring_try_miss_draws_from_the_exact_range(self, monkeypatch):
        # Lens of two unit disks 1.5 apart, sliced around the first center:
        # the ring is [0, 1] and the exact range [0.5, 1]. The ring try at
        # u = 0 (rho = 0) misses, so the next try's u = 0 is the exact lower
        # end; the third try at u = 0.5 lands in the lens.
        rhos = []
        arcs = geometry._arcs
        monkeypatch.setattr(geometry, "_arcs", lambda rho, others: rhos.append(rho) or arcs(rho, others))
        f = (Annulus(Point(0, 0), 0, 1), Annulus(Point(1.5, 0), 0, 1))
        lo, hi = _band_range(f, 0, 0.0, 1.0)
        assert (lo, hi) == (0.5, 1.0)
        rng = FixedRandom([0.0, 0.0, 0.5, 0.5])
        p = sample_free_area(f, rng, 2, 0.0)
        assert rhos == [0.0, lo, math.sqrt(lo * lo + 0.5 * (hi * hi - lo * lo))]
        assert rng.calls == 4 and free_area_contains(f, p)

    def test_unblocking_predicate_changes_nothing(self):
        # A predicate that never holds leaves every point and every draw as
        # it is without one.
        gen = random.Random(83)
        for _ in range(500):
            f = random_free_area(gen)
            seed = gen.random()
            rng_plain, rng_pred = random.Random(seed), random.Random(seed)
            got = sample_free_area(f, rng_pred, 50, 1e-6, lambda x, y: False)
            assert got == sample_free_area(f, rng_plain, 50, 1e-6)
            assert rng_pred.getstate() == rng_plain.getstate()

    def test_blocked_tries_are_capped_and_never_misses(self, monkeypatch):
        # One band: every try lands (no other band cuts an arc), so every try is
        # blocked: the call gives up after BLOCKED_TRIES of them, two draws
        # each, without the exact range that a band miss would compute.
        def no_range(*args):
            raise AssertionError("a blocked try computed the exact range")

        monkeypatch.setattr(geometry, "_band_range", no_range)
        seen = []
        rng = random.Random(89)
        band = (Annulus(Point(0, 0), 0.5, 1),)
        assert sample_free_area(band, rng, 1, 0.0, lambda x, y: not seen.append((x, y))) is None
        assert len(seen) == BLOCKED_TRIES
        assert rng.getstate() == after_random_calls(89, 2 * BLOCKED_TRIES)

    def test_blocked_half_is_avoided(self):
        # Half of a disk is blocked: the points all come from the other half,
        # found after a few blocked tries at most.
        f = (Annulus(Point(0, 0), 0, 1), Annulus(Point(0.5, 0), 0, 1))
        rng = random.Random(97)
        for _ in range(300):
            p = sample_free_area(f, rng, 200, 1e-6, lambda x, y: y < 0.0)
            assert p is not None and p.y >= 0.0 and free_area_contains(f, p, 1e-6)

    def test_bad_budget(self):
        for budget in (0, -1):
            with pytest.raises(ValueError, match="budget"):
                sample_free_area((), random.Random(3), budget, 0.0)
        # The arguments are checked before the band list is.
        for margin in (1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="margin"):
                sample_free_area((), random.Random(3), 200, margin)

    @pytest.mark.parametrize("blocked", [None, lambda x, y: False], ids=["plain", "blocked"])
    def test_refuses_an_empty_band_list(self, blocked):
        # No bands: refused before any draw, with or without a predicate.
        for bands in ((), []):
            rng = random.Random(3)
            state = rng.getstate()
            with pytest.raises(ValueError, match="band"):
                sample_free_area(bands, rng, 200, 1e-6, blocked)
            assert rng.getstate() == state

    def test_margin_must_be_below_one(self):
        # The cap of an unbounded ring, a unit past its farthest lower bound,
        # holds points only for margins below 1: at 1 or more, the band
        # below, far from empty, would be reported empty.
        band = (Annulus(Point(0, 0), 1, INF),)
        for margin in (1.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="margin"):
                sample_free_area(band, random.Random(3), 200, margin)
        p = sample_free_area(band, random.Random(3), 200, 0.99)
        assert p is not None and free_area_contains(band, p, 0.99)


@st.composite
def band_pairs(draw):
    """Two bands placed a few TAU_GEO from touching: outer disks apart,
    nested in the other's hole, either way round, or at a random distance,
    often with a third band. Band 2 may be unbounded and either may have
    no hole. Returns the bands and whether the construction puts the two
    more than 2 TAU_GEO apart, so that their closures share no point."""
    offset = draw(st.sampled_from([-30, -11, -9, -3, -1, 0, 1, 3, 9, 10, 11, 30])) * TAU_GEO
    unit = st.floats(0.05, 1.5)
    hi1, hi2 = draw(unit), draw(st.one_of(unit, st.just(INF)))
    lo1 = draw(st.sampled_from([0.0, 0.5])) * hi1
    lo2 = draw(unit) if hi2 == INF else draw(st.sampled_from([0.0, 0.5])) * hi2
    case = draw(st.sampled_from(["apart", "hole", "hole-swapped", "random"]))
    apart = offset > 2 * TAU_GEO
    if case == "apart" and hi2 < INF:
        d = hi1 + hi2 + offset
    elif case == "hole" and hi2 < INF:
        # band 2's outer disk in band 1's hole
        d = draw(st.floats(0.0, 1.0))
        lo1 = d + hi2 + offset
        hi1 = lo1 + hi1
    elif case == "hole-swapped":
        # band 1's outer disk in band 2's hole
        d = draw(st.floats(0.0, 1.0))
        lo2 = d + hi1 + offset
        hi2 = hi2 if hi2 == INF else lo2 + hi2
    else:
        d = draw(st.floats(0.0, 4.0))
        apart = False
    if lo1 < 0.0 or lo2 < 0.0 or d < 0.0:
        reject()
    x1, y1 = draw(st.floats(-1, 1)), draw(st.floats(-1, 1))
    phi = draw(st.floats(0.0, 2 * math.pi))
    bands = [(Point(x1, y1), lo1, hi1),
             (Point(x1 + d * math.cos(phi), y1 + d * math.sin(phi)), lo2, hi2)]
    if draw(st.booleans()):
        lo3 = draw(st.floats(0.0, 1.0))
        hi3 = draw(st.one_of(st.just(INF), st.floats(0.05, 2.0).map(lambda w: lo3 + w)))
        bands.append((Point(draw(st.floats(-2, 2)), draw(st.floats(-2, 2))), lo3, hi3))
    return draw(st.permutations(bands)), apart


def area_of(bands):
    """The bands as `Annulus` instances."""
    return tuple(Annulus(*b) for b in bands)


def own_ring(bands, k, margin):
    """Band k's ring shrunk by `margin`, as `sample_free_area` hands it to
    `_band_range`: capped a unit past R = max(d + lo) when unbounded."""
    (x0, y0), r_lo, r_hi = bands[k]
    ring_hi = r_hi - margin
    if r_hi == INF:
        ring_hi = 1.0 + max(math.hypot(cx - x0, cy - y0) + lo for (cx, cy), lo, _ in bands)
    return r_lo + margin, ring_hi


def empty_at(bands, k):
    """Whether `_band_range` proves band k's ring empty, checked against the
    corner-based `reference_radius_range`: both are None, or both give a
    range, or only `_band_range` gives one, at most TAU_GEO wide. That last
    case is a closure touching the ring's edge: the unmerged crossings may
    reach past the edge by up to TAU_GEO where the merged corners do not."""
    got = _band_range(bands, k, *own_ring(bands, k, 0.0))
    want = reference_radius_range(bands, k, 0.0)
    if got is None:
        assert want is None, (bands, k, want)
    elif want is None:
        assert got[1] - got[0] <= TAU_GEO, (bands, k, got)
    return got is None


class TestPairwiseEmptinessProof:
    """Two bands whose closures share no point: `_band_range`, the one
    emptiness proof, gives None around every band's center."""

    @settings(max_examples=1500, deadline=None)
    @given(band_pairs())
    def test_a_fired_proof_leaves_no_candidate(self, case):
        # `_band_range` agrees with the reference at every band, and two
        # bands built more than 2 TAU_GEO apart leave none a candidate.
        bands, apart = case
        try:
            for k in range(len(bands)):
                assert empty_at(bands, k) or not apart
                assert _band_range(bands, k, 0.0, 10.0) is None or not apart
        except CoincidentCircles:
            reject()

    def test_the_proof_fires_just_past_the_slack(self):
        # Two unit disks: apart 3 TAU_GEO past tangency, beyond the 2
        # TAU_GEO that the two closures add; tangent at a gap of 0, where
        # the closures touch and the range is the touching radius.
        for gap in (3 * TAU_GEO, 11 * TAU_GEO, 0.0):
            apart = [(Point(0.0, 0.0), 0.0, 1.0), (Point(2.0 + gap, 0.0), 0.0, 1.0)]
            # the same disk in a hole of radius 2 around the origin
            hole = [(Point(0.0, 0.0), 2.0 + gap, 3.0), (Point(1.0, 0.0), 0.0, 1.0)]
            for bands, touching in ((apart, (1.0, 1.0)), (hole, (2.0, 1.0))):
                for k in (0, 1):
                    got = _band_range(bands, k, 0.0, 10.0)
                    if gap:
                        assert got is None
                    else:
                        assert got == pytest.approx((touching[k],) * 2, abs=2 * TAU_GEO)
        # An unbounded band lies apart from no band here: both areas hold
        # points, and each band's range is found.
        for bands in ([(Point(0.0, 0.0), 0.0, 1.0), (Point(9.0, 0.0), 0.0, INF)],
                      [(Point(0.0, 0.0), 5.0, INF), (Point(9.0, 0.0), 8.0, INF)]):
            assert all(_band_range(bands, k, 0.0, 10.0) is not None for k in (0, 1))

    def test_search_areas(self):
        # On areas built as the search builds them, `_band_range` agrees
        # with the reference at every band, and many areas are empty.
        gen = random.Random(83)
        empty = 0
        for _ in range(5000):
            bands = search_free_area(gen)
            if not bands:
                continue
            empty += all([empty_at(bands, k) for k in range(len(bands))])
        assert empty > 100


def parent_band_range(bands, k, ring_lo, ring_hi):
    """`_band_range` before its closure tests were clipped to the ring, an
    oracle: here a candidate skips the test only when its distance lies
    inside the range found so far. It reaches `_inside` as
    `geometry._inside`, so that a test can count its closure tests."""
    (x0, y0), _, k_hi = bands[k]
    hypot = math.hypot
    closure = _bounds(bands, -TAU_GEO)
    lo, hi = INF, INF if k_hi == INF else -INF
    for x, y in _crossings(bands):
        t = hypot(x - x0, y - y0)
        if (t < lo or t > hi) and geometry._inside(closure, x, y):
            lo, hi = min(lo, t), max(hi, t)
    for (cx, cy), r_lo, r_hi in bands:
        d = hypot(cx - x0, cy - y0)
        ux, uy = ((cx - x0) / d, (cy - y0) / d) if d else (1.0, 0.0)
        for r in (r_lo, r_hi) if math.isfinite(r_hi) else (r_lo,):
            for t in (d + r, d - r):
                if (abs(t) < lo or abs(t) > hi) and geometry._inside(
                    closure, x0 + t * ux, y0 + t * uy
                ):
                    lo, hi = min(lo, abs(t)), max(hi, abs(t))
    if not (lo <= hi and ring_lo < hi and lo < ring_hi and ring_lo < ring_hi):
        return None
    return max(lo, ring_lo), min(hi, ring_hi)


def base_ring(bands, margin):
    """Band k and its ring as `sample_free_area` hands them to `_band_range`."""
    widths = [hi * hi - lo * lo for _, lo, hi in bands]
    k = widths.index(min(widths))
    return (k, *own_ring(bands, k, margin))


def placement_bands(gen):
    """One placement's bands as the search builds them: voters from the
    triangle or the square draw, random placed points, and the band rule
    over their distances (`annuli_for_alternative`), so that boundary
    circles meet at placed points. None when a band collapses or no band
    is left."""
    m = gen.randint(2, 7)
    p = random_profile(gen, m, gen.choice([1, 2, 3, 3, 3, 3]) if m > 2 else gen.randint(1, 2))
    kendall = heuristic._kendall_sides(p)
    if kendall is None:
        voters = heuristic._draw_voters(gen, p.n)
    else:
        voters = heuristic._draw_triangle(gen, kendall)
    alt, *rest = gen.sample(range(m), gen.randint(2, m))
    placed = {b: Point(gen.uniform(-2, 2), gen.uniform(-2, 2)) for b in rest}
    return list(heuristic.annuli_for_alternative(p, voters, placed, alt) or ()) or None


def same_range(got, want):
    return (got is None and want is None) or (
        got is not None and want is not None
        and [v.hex() for v in got] == [v.hex() for v in want]
    )


class TestBandRangeMatchesItsParent:
    """Clipping the closure tests to the ring changes no range and no None."""

    def test_search_built_areas(self, monkeypatch):
        tests = [0]
        inside = geometry._inside

        def counting_inside(bounds, x, y):
            tests[0] += 1
            return inside(bounds, x, y)

        monkeypatch.setattr(geometry, "_inside", counting_inside)
        gen = random.Random(101)
        compared = empty = 0
        parent_tests = clipped_tests = 0
        while compared < 2500:
            bands = placement_bands(gen)
            if bands is None:
                continue
            k, ring_lo, ring_hi = base_ring(bands, PLACEMENT_MARGIN)
            tests[0] = 0
            try:
                want = parent_band_range(bands, k, ring_lo, ring_hi)
            except CoincidentCircles:
                with pytest.raises(CoincidentCircles):
                    _band_range(bands, k, ring_lo, ring_hi)
                continue
            parent_tests += tests[0]
            tests[0] = 0
            got = _band_range(bands, k, ring_lo, ring_hi)
            clipped_tests += tests[0]
            assert same_range(got, want), (bands, k, got, want)
            compared += 1
            empty += want is None
        # Both outcomes are well represented (235 of 2,500 are None), and
        # the clip skips a third of the closure tests.
        assert empty > 150 and compared - empty > 1500
        assert clipped_tests < 0.8 * parent_tests

    @pytest.mark.parametrize("bands, k, ring, want", [
        # unbounded bands, the ring capped a unit past R = 0.1 + 2
        ([((0.0, 0.0), 1.0, INF), ((0.1, 0.0), 2.0, INF)], 0, (1.0, 3.1), (1.9, 3.1)),
        # a band with lo = 0: a lens of two unit disks 1.5 apart
        ([((0.0, 0.0), 0.0, 1.0), ((1.5, 0.0), 0.0, 1.0)], 0, (0.0, 1.0), (0.5, 1.0)),
        # a tangent pair: the one corner lies on the ring's edge
        ([((0.0, 0.0), 0.0, 1.0), ((2.0, 0.0), 0.0, 1.0)], 0, (0.0, 1.0), None),
        # internal tangency: the unit disk lies in the disk of radius 2
        ([((0.0, 0.0), 0.0, 2.0), ((1.0, 0.0), 0.0, 1.0)], 0, (1e-6, 2.0 - 1e-6),
         (1e-6, 2.0 - 1e-6)),
        # the closure meets band k only at a placed point (1, 0): each
        # candidate there passes the closure test but misses the ring
        ([((0.0, 0.0), 1.0, 2.0), ((0.5, 0.0), 0.0, 0.5)], 0, (1.0 + 1e-6, 2.0 - 1e-6), None),
        ([((0.0, 0.0), 1.0, 2.0), ((0.5, 0.0), 0.0, 0.5)], 1, (1e-6, 0.5 - 1e-6), None),
    ])
    def test_hand_cases(self, bands, k, ring, want):
        got = _band_range(bands, k, *ring)
        assert same_range(got, parent_band_range(bands, k, *ring))
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=2 * TAU_GEO)

    def test_placed_point_closure(self):
        # The placed-point hand cases built by the band rule: voter 0 ranks
        # the placed point (1, 0) above the new alternative and voter 1
        # below it, so the closure is that point alone, at distance lo of
        # band 0 and hi of band 1.
        voters = (Point(0.0, 0.0), Point(0.5, 0.0))
        p = Profile.of(3, [(0, 1, 2), (1, 0, 2)])
        placed = {0: Point(1.0, 0.0), 2: Point(0.0, 2.0)}
        bands = list(heuristic.annuli_for_alternative(p, voters, placed, 1))
        assert bands == [(Point(0.0, 0.0), 1.0, 2.0), (Point(0.5, 0.0), 0.0, 0.5)]
        for k in (0, 1):
            assert _band_range(bands, k, 0.0, 10.0) == parent_band_range(bands, k, 0.0, 10.0)
            assert _band_range(bands, k, 0.0, 10.0) == (bands[k][1 + k],) * 2
            assert _band_range(bands, k, *base_ring(bands, 1e-6)[1:]) is None
        rng = random.Random(5)
        assert sample_free_area(bands, rng, 200, 1e-6) is None
        assert after_ring_try_alone(rng, 5)

    def test_coincident_circles(self):
        # Band 1's inner circle is band 0's outer one.
        bands = [((0.0, 0.0), 0.5, 1.0), ((0.0, 0.0), 1.0, 2.0)]
        for fn in (parent_band_range, _band_range):
            with pytest.raises(CoincidentCircles):
                fn(bands, 0, 0.5, 1.0)


def parent_arcs(rho, others):
    """`_arcs` before the first cut stood for its intersection with the full
    circle, an oracle."""
    two_pi = 2 * math.pi
    arcs = [(0.0, two_pi)]
    acos, pi = math.acos, math.pi
    for d, phi, lo, hi in others:
        if rho * d == 0.0:
            if not lo < rho + d < hi:
                return []
            continue
        s, rd2 = rho * rho + d * d, 2.0 * rho * d
        c0, c1 = (s - lo * lo) / rd2, (s - hi * hi) / rd2
        a0 = 0.0 if c0 >= 1.0 else pi if c0 <= -1.0 else acos(c0)
        a1 = 0.0 if c1 >= 1.0 else pi if c1 <= -1.0 else acos(c1)
        if a0 >= a1:
            return []
        cut = []
        for b, e in ((phi - a1, phi - a0), (phi + a0, phi + a1)):
            if b < 0.0:
                b, e = b + two_pi, e + two_pi
            if e > two_pi:
                cut += [(0.0, e - two_pi), (b, two_pi)]
            else:
                cut.append((b, e))
        arcs = [
            (u, v)
            for p, q in arcs
            for b, e in cut
            if (u := p if p > b else b) < (v := q if q < e else e)
        ]
    return arcs


class TestArcsMatchItsParent:
    def test_random_and_wrapping_cuts(self):
        # Angles phi a few ulps from +-a0, +-a1 and pi -+ a1, where a cut
        # wraps to a sliver at 0 or 2pi, or to nothing, besides uniform ones.
        gen = random.Random(103)
        slivers = 0
        for _ in range(6000):
            rho = gen.choice([0.0, gen.uniform(0.0, 2.0)])
            others = []
            for _ in range(gen.randint(1, 3)):
                d = gen.choice([0.0, gen.uniform(0.0, 2.0)])
                lo = gen.uniform(0.0, 1.5)
                hi = gen.choice([INF, lo + gen.uniform(1e-6, 2.0)])
                phi = gen.uniform(-math.pi, math.pi)
                if rho * d:
                    s, rd2 = rho * rho + d * d, 2.0 * rho * d
                    c0, c1 = (s - lo * lo) / rd2, (s - hi * hi) / rd2
                    a0 = math.acos(min(max(c0, -1.0), 1.0))
                    a1 = math.acos(min(max(c1, -1.0), 1.0))
                    phi = gen.choice([phi, a0, a1, -a0, -a1, math.pi - a1, a1 - math.pi])
                    for _ in range(gen.randint(0, 3)):
                        phi = math.nextafter(phi, gen.choice([-INF, INF]))
                    phi = min(max(phi, -math.pi), math.pi)
                others.append((d, phi, lo, hi))
            got, want = geometry._arcs(rho, others), parent_arcs(rho, others)
            assert [(b.hex(), e.hex()) for b, e in got] == [(b.hex(), e.hex()) for b, e in want]
            slivers += any(e - b < 1e-12 for b, e in want)
        assert slivers > 10


class TestAdaptersMatchTheBandKernel:
    @settings(max_examples=400, deadline=None)
    @given(band_pairs().map(lambda case: case[0]), st.integers(0, 2**32),
           st.sampled_from([0.0, 1e-6]), st.integers(1, 50))
    def test_bit_identical(self, bands, seed, margin, budget):
        # `Annulus` instances and the search's plain (center, lo, hi) tuples
        # are one layout: the kernel gives the same draws, ranges and
        # corners for both and leaves the rng in the same state.
        annuli = area_of(bands)
        try:
            crossings = _crossings(bands)
        except CoincidentCircles:
            reject()
        assert _crossings(annuli) == crossings
        rng_area, rng_bands = random.Random(seed), random.Random(seed)
        got = sample_free_area(annuli, rng_area, budget, margin)
        assert got == sample_free_area(bands, rng_bands, budget, margin)
        assert rng_area.getstate() == rng_bands.getstate()
        for k in range(len(bands)):
            assert _band_range(annuli, k, margin, 5.0) == _band_range(bands, k, margin, 5.0)
        closure = _bounds(bands, -TAU_GEO)
        assert corners(annuli) == corners(bands)
        for c in corners(annuli):
            assert (c.x, c.y) in crossings and _inside(closure, c.x, c.y)
