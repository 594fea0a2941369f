import functools
import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, reject, settings, strategies as st

from pref2d import geometry
from pref2d import (
    Annulus,
    Circle,
    CoincidentCircles,
    Disk,
    FreeArea,
    Point,
    annulus_contains,
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
    DISJOINT_SLACK,
    TAU_GEO,
    _band_range,
    _bands,
    _bounds,
    _circumdisk,
    _crossings,
    _diameter_disk,
    _disjoint_pair,
    _inside,
    _radius_range,
    sample_bands,
)

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
        assert annulus_contains(a, Point(1.5, 0))

    def test_open_boundary(self):
        a = Annulus(Point(0, 0), 1, 2)
        assert not annulus_contains(a, Point(1, 0))
        assert not annulus_contains(a, Point(2, 0))

    def test_unbounded_above(self):
        a = Annulus(Point(3, 3), 0, INF)
        assert annulus_contains(a, Point(1000, 1000))
        assert not annulus_contains(a, Point(3, 3))

    def test_margin_shrinks_band(self):
        a = Annulus(Point(0, 0), 1, 2)
        assert annulus_contains(a, Point(1.05, 0), margin=0.0)
        assert not annulus_contains(a, Point(1.05, 0), margin=0.1)

    def test_negative_margin_is_closure(self):
        a = Annulus(Point(0, 0), 1, 2)
        assert annulus_contains(a, Point(1, 0), margin=-1e-9)


class TestFreeArea:
    def test_conjunction(self):
        f = FreeArea((Annulus(Point(0, 0), 0, 1), Annulus(Point(4, 0), 3, INF)))
        assert free_area_contains(f, Point(0.1, 0))
        assert not free_area_contains(f, Point(2, 0))

    def test_empty_sequence_is_whole_plane(self):
        assert free_area_contains(FreeArea(()), Point(123, -456))

    def test_infeasible_contains_nothing(self):
        f = FreeArea((), infeasible=True)
        assert not free_area_contains(f, Point(0, 0))

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
            got = free_area_contains(FreeArea((a,)), p, margin)
            assert got == annulus_contains(a, p, margin)
            outside += not got
        assert 200 < outside < 1800


class TestCorners:
    def test_two_overlapping_disks(self):
        f = FreeArea((Annulus(Point(0, 0), 0, 5), Annulus(Point(6, 0), 0, 5)))
        assert set(corners(f)) == {Point(3, 4), Point(3, -4)}

    def test_single_annulus_has_none(self):
        assert corners(FreeArea((Annulus(Point(0, 0), 1, 2),))) == ()

    def test_disjoint_disks_have_none(self):
        f = FreeArea((Annulus(Point(0, 0), 0, 1), Annulus(Point(5, 0), 0, 1)))
        assert corners(f) == ()

    def test_inner_circles_contribute(self):
        # Disk around the origin with a forbidden disk around (2, 0): corners
        # where the outer boundary of one meets the lower bound of the other.
        f = FreeArea((Annulus(Point(0, 0), 0, 2), Annulus(Point(2, 0), 1, INF)))
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
            base = corners(FreeArea(tuple(annuli)))
            perm = annuli[::-1]
            other = corners(FreeArea(tuple(perm)))
            assert len(base) == len(other)
            for p in base:
                assert any(dist(p, q) <= 1e-9 for q in other)

    def test_matches_circle_intersections(self):
        # `corners` inlines circle_intersections' arithmetic on floats; it
        # must return the corners built from Circle pairs, bit for bit, and
        # raise where they raise. Some areas get a tangent or a coincident
        # pair of circles.
        def reference_corners(f):
            circles = []
            for a in f.annuli:
                if a.r_lo > 0.0:
                    circles.append(Circle(a.center, a.r_lo))
                if math.isfinite(a.r_hi):
                    circles.append(Circle(a.center, a.r_hi))
            found = []
            for c1, c2 in combinations(circles, 2):
                for p in circle_intersections(c1, c2):
                    if all(annulus_contains(a, p, -1e-9) for a in f.annuli) and not any(
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
            annuli = list(random_free_area(rng).annuli)
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
            f = FreeArea(tuple(annuli))
            got = outcome(corners, f)
            assert got == outcome(reference_corners, f)
            kinds[got if got == "coincident" else min(len(got), 2)] += 1
        assert all(kinds[k] > 100 for k in (0, 1, 2, "coincident"))


class TestCandidateDisk:
    @pytest.mark.parametrize("f", [
        FreeArea(()),
        FreeArea((Annulus(Point(0, 0), 1, INF), Annulus(Point(0.1, 0), 2, INF))),
        FreeArea((), infeasible=True),
        FreeArea((Annulus(Point(0, 0), 1, 2),), infeasible=True),
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
        for _ in range(300):
            pts = [
                Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
                for _ in range(rng.randint(1, 10))
            ]
            got = min_enclosing_disk(pts)
            want = brute_force_enclosing_disk(pts)
            assert abs(got.radius - want.radius) <= 1e-9
            assert dist(got.center, want.center) <= 1e-9

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
    under `annulus_contains`' rule: disk rejection, the search's sampler
    before slices, as a reference for `sample_free_area`.
    The points are one fixed set, scaled to each disk, and are tested a
    whole batch per annulus, so that large budgets stay cheap."""
    if f.infeasible:
        return False
    (x0, y0), radius = candidate_disk(f)
    pts = [(x0 + radius * u, y0 + radius * v) for u, v in unit_disk_points(budget)]
    for a in f.annuli:
        (cx, cy), lo, hi = a.center, a.r_lo + margin, a.r_hi - margin
        pts = [(x, y) for x, y in pts if lo < math.hypot(x - cx, y - cy) < hi]
    return bool(pts)


def random_free_area(rng):
    annuli = []
    for _ in range(rng.randint(1, 4)):
        lo = rng.uniform(0, 1.5) if rng.random() < 0.8 else 0.0
        hi = lo + rng.uniform(0.01, 2) if rng.random() < 0.7 else INF
        annuli.append(Annulus(Point(rng.uniform(-2, 2), rng.uniform(-2, 2)), lo, hi))
    return FreeArea(tuple(annuli))


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
    """`_radius_range` before its candidates came from `_pair_points`: the
    extremes over the merged `corners` and the points collinear with the
    base center, clipped to the base ring shrunk by `margin`, which runs up
    to R + 1 when the base is unbounded."""
    (x0, y0), r_lo, r_hi = f.annuli[k]
    dists = [math.hypot(p.x - x0, p.y - y0) for p in corners(f)]
    lo, hi = min(dists, default=INF), max(dists, default=-INF)
    if r_hi == INF:
        hi = 1.0 + max(math.hypot(cx - x0, cy - y0) + a_lo for (cx, cy), a_lo, _ in f.annuli)
    for (cx, cy), a_lo, a_hi in f.annuli:
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
    return FreeArea(tuple(annuli))


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
            unbounded += all(a.r_hi == INF for a in f.annuli)
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
        f = FreeArea(annuli)
        rng = random.Random(41)
        assert sample_free_area(f, rng, 200, 1e-6) is None
        assert rng.getstate() == after_random_calls(41, 1)

    @pytest.mark.parametrize("annuli", [
        # a single annulus: no corners, but not empty
        (Annulus(Point(0, 0), 1, 2),),
        # nested lower-bound circles, unbounded: no corners, not empty
        (Annulus(Point(0, 0), 1, INF), Annulus(Point(0.1, 0), 2, INF)),
    ])
    def test_areas_that_may_be_non_empty_are_sampled(self, annuli):
        f = FreeArea(annuli)
        got = sample_free_area(f, random.Random(43), 200, 1e-6)
        assert got is not None and free_area_contains(f, got, 1e-6)

    def test_concentric_annuli(self):
        # A concentric annulus allows every angle at a radius or none.
        ring = (Annulus(Point(0.5, 0.5), 0, 1), Annulus(Point(0.5, 0.5), 0.5, 2))
        rng = random.Random(59)
        for _ in range(200):
            p = sample_free_area(FreeArea(ring), rng, 1, 1e-6)
            assert p is not None and 0.5 < dist(p, Point(0.5, 0.5)) < 1
        gap = FreeArea((Annulus(Point(0, 0), 0, 1), Annulus(Point(0, 0), 1.5, 2)))
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
            p = sample_free_area(FreeArea((disk, other)), rng, 2, 0.0)
            assert rng.calls == calls
            assert p is not None and free_area_contains(FreeArea((disk, other)), p)

    def test_thin_lens_is_found(self):
        # Two disks overlapping by 1e-5: the slices around one disk's center
        # find the lens.
        f = FreeArea((Annulus(Point(0, 0), 0, 1), Annulus(Point(1.99999, 0), 0, 1)))
        p = sample_free_area(f, random.Random(67), 200, 1e-6)
        assert p is not None and free_area_contains(f, p, 1e-6)

    def test_zero_radius_target_is_tested_before_the_skip(self):
        # A point disk with no corners, away from the other disk, is also
        # provably empty: None without a `random()` call.
        f = FreeArea((Annulus(Point(0, 0), 0, 0), Annulus(Point(5, 0), 0, 1)))
        assert corners(f) == () and candidate_disk(f).radius == 0.0
        rng = random.Random(41)
        assert sample_free_area(f, rng, 200, 1e-6) is None
        assert rng.getstate() == after_random_calls(41, 0)

    def test_point_in_single_disk(self):
        f = FreeArea((Annulus(Point(0, 0), 0, 1),))
        p = sample_free_area(f, random.Random(3), 100, 0.0)
        assert p is not None and dist(p, Point(0, 0)) < 1

    def test_empty_intersection_not_found(self):
        f = FreeArea((Annulus(Point(0, 0), 0, 1), Annulus(Point(5, 0), 0, 1)))
        assert sample_free_area(f, random.Random(3), 100, 0.0) is None

    def test_infeasible_not_found(self):
        f = FreeArea((), infeasible=True)
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
            f = FreeArea(tuple(annuli))
            margin = 1e-6
            p = sample_free_area(f, rng, 50, margin)
            if p is not None:
                assert free_area_contains(f, p, margin)

    def test_whole_plane(self):
        # Slices of the disk of radius 2 around the origin, uniform in area:
        # half of them lie within 2 / sqrt(2).
        rng = random.Random(3)
        radii = sorted(dist(sample_free_area(FreeArea(()), rng, 1, 0.0), Point(0, 0))
                       for _ in range(1000))
        assert radii[-1] <= 2 and 1.3 < radii[500] < 1.5

    def test_unbounded_fallback_disk_reaches_free_area(self):
        # All annuli unbounded above with nested lower-bound circles, so no
        # corners exist: the slices around the first center reach past every
        # lower bound, up to the cap R + 1 with R = max(d + r_lo) = 2.1.
        f = FreeArea((Annulus(Point(0, 0), 1, INF), Annulus(Point(0.1, 0), 2, INF)))
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
            f = FreeArea(tuple(
                Annulus(Point(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(0, 1.5), INF)
                for _ in range(rng.randint(1, 3))
            ))
            for margin in (0.0, 1e-6):
                p = sample_free_area(f, rng, 200, margin)
                assert p is not None and free_area_contains(f, p, margin)
        # The cap lies a unit past the farthest forbidden circle; a cap at the
        # margin would pin the points to the circle.
        f = FreeArea((Annulus(Point(0, 0), 1, INF),))
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
            if f is None or not f.annuli:
                continue
            widths = [a.r_hi * a.r_hi - a.r_lo * a.r_lo for a in f.annuli]
            k = widths.index(min(widths))
            (x0, y0), r_lo, r_hi = f.annuli[k]
            margin = gen.choice([0.0, 1e-6])
            ring_hi = r_hi - margin
            if r_hi == INF:
                ring_hi = 1.0 + max(
                    math.hypot(cx - x0, cy - y0) + a_lo for (cx, cy), a_lo, _ in f.annuli
                )
            try:
                want = reference_radius_range(f, k, margin)
            except CoincidentCircles:
                with pytest.raises(CoincidentCircles):
                    _radius_range(f, k, r_lo + margin, ring_hi)
                continue
            got = _radius_range(f, k, r_lo + margin, ring_hi)
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
        f = FreeArea((Annulus(Point(0, 0), 0, 1), Annulus(Point(1.5, 0), 0, 1)))
        lo, hi = _radius_range(f, 0, 0.0, 1.0)
        assert (lo, hi) == (0.5, 1.0)
        rng = FixedRandom([0.0, 0.0, 0.5, 0.5])
        p = sample_free_area(f, rng, 2, 0.0)
        assert rhos == [0.0, lo, math.sqrt(lo * lo + 0.5 * (hi * hi - lo * lo))]
        assert rng.calls == 4 and free_area_contains(f, p)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            sample_free_area(FreeArea(()), random.Random(3), 0, 0.0)


@st.composite
def band_pairs(draw):
    """Two bands placed a few TAU_GEO from touching: outer disks apart,
    nested in the other's hole, either way round, or at a random distance,
    often with a third band. Band 2 may be unbounded and either may have
    no hole."""
    offset = draw(st.sampled_from([-30, -11, -9, -3, -1, 0, 1, 3, 9, 10, 11, 30])) * TAU_GEO
    unit = st.floats(0.05, 1.5)
    hi1, hi2 = draw(unit), draw(st.one_of(unit, st.just(INF)))
    lo1 = draw(st.sampled_from([0.0, 0.5])) * hi1
    lo2 = draw(unit) if hi2 == INF else draw(st.sampled_from([0.0, 0.5])) * hi2
    case = draw(st.sampled_from(["apart", "hole", "hole-swapped", "random"]))
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
    if lo1 < 0.0 or lo2 < 0.0 or d < 0.0:
        reject()
    x1, y1 = draw(st.floats(-1, 1)), draw(st.floats(-1, 1))
    phi = draw(st.floats(0.0, 2 * math.pi))
    bands = [(x1, y1, lo1, hi1), (x1 + d * math.cos(phi), y1 + d * math.sin(phi), lo2, hi2)]
    if draw(st.booleans()):
        lo3 = draw(st.floats(0.0, 1.0))
        hi3 = draw(st.one_of(st.just(INF), st.floats(0.05, 2.0).map(lambda w: lo3 + w)))
        bands.append((draw(st.floats(-2, 2)), draw(st.floats(-2, 2)), lo3, hi3))
    return draw(st.permutations(bands))


def area_of(bands):
    return FreeArea(tuple(Annulus(Point(cx, cy), lo, hi) for cx, cy, lo, hi in bands))


class TestPairwiseEmptinessProof:
    @settings(max_examples=1500, deadline=None)
    @given(band_pairs())
    def test_a_fired_proof_leaves_no_candidate(self, bands):
        # Whenever two bands are proved apart, the corner-based reference
        # range finds no candidate in the closure around any band's center.
        if not _disjoint_pair(bands):
            return
        f = area_of(bands)
        try:
            for k in range(len(bands)):
                assert reference_radius_range(f, k, 0.0) is None
                assert _band_range(bands, k, 0.0, 10.0) is None
        except CoincidentCircles:
            reject()

    def test_the_proof_fires_just_past_the_slack(self):
        # Two unit disks: apart at 2 + slack + 3 TAU_GEO, not at
        # 2 + slack - 3 TAU_GEO, where the closures would still touch.
        for gap, fires in ((DISJOINT_SLACK + 3 * TAU_GEO, True),
                           (DISJOINT_SLACK - 3 * TAU_GEO, False)):
            assert _disjoint_pair([(0.0, 0.0, 0.0, 1.0), (2.0 + gap, 0.0, 0.0, 1.0)]) is fires
            # the same disk in a hole of radius 2 around the origin
            hole = [(0.0, 0.0, 2.0 + gap, 3.0), (1.0, 0.0, 0.0, 1.0)]
            assert _disjoint_pair(hole) is fires
        # An unbounded band is never the outer one.
        assert not _disjoint_pair([(0.0, 0.0, 0.0, 1.0), (9.0, 0.0, 0.0, INF)])
        assert not _disjoint_pair([(0.0, 0.0, 5.0, INF), (9.0, 0.0, 8.0, INF)])

    def test_search_areas(self):
        # On areas built as the search builds them, the proof never fires
        # where the exact range finds a candidate.
        gen = random.Random(83)
        fired = 0
        for _ in range(5000):
            f = search_free_area(gen)
            if f is None or not f.annuli:
                continue
            bands = _bands(f)
            if _disjoint_pair(bands):
                fired += 1
                assert all(_band_range(bands, k, 0.0, 10.0) is None for k in range(len(bands)))
        assert fired > 100


class TestAdaptersMatchTheBandKernel:
    @settings(max_examples=400, deadline=None)
    @given(band_pairs(), st.integers(0, 2**32), st.sampled_from([0.0, 1e-6]),
           st.integers(1, 50))
    def test_bit_identical(self, bands, seed, margin, budget):
        f = area_of(bands)
        assert _bands(f) == bands
        try:
            crossings = _crossings(bands)
        except CoincidentCircles:
            reject()
        rng_area, rng_bands = random.Random(seed), random.Random(seed)
        got = sample_free_area(f, rng_area, budget, margin)
        assert got == sample_bands(bands, rng_bands, budget, margin)
        assert rng_area.getstate() == rng_bands.getstate()
        for k in range(len(bands)):
            assert _radius_range(f, k, margin, 5.0) == _band_range(bands, k, margin, 5.0)
        closure = _bounds(bands, -TAU_GEO)
        for c in corners(f):
            assert (c.x, c.y) in crossings and _inside(closure, c.x, c.y)

    def test_infeasible_area_draws_nothing(self):
        rng = random.Random(5)
        assert sample_free_area(FreeArea((), infeasible=True), rng, 10, 0.0) is None
        assert rng.getstate() == random.Random(5).getstate()
        with pytest.raises(ValueError):
            sample_free_area(FreeArea((), infeasible=True), rng, 0, 0.0)
