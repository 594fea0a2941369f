import errno
import hashlib
import math
import os
import pickle
import random
import select
import signal
import time
from collections import Counter
from dataclasses import asdict, fields, replace

import pytest

from pref2d import (
    Annulus,
    BatchSummary,
    HeuristicConfig,
    Point,
    Profile,
    Status,
    annuli_for_alternative,
    batch_run,
    canonical_profile_at,
    count_canonical,
    derive_profile_seed,
    embed_two_voters,
    enumerate_canonical,
    greedy_embed,
    sample_free_area,
    summary_json,
    verify,
    write_embedding,
)
from pref2d import heuristic
from pref2d.geometry import TAU_GEO, dist
from pref2d.heuristic import PLACEMENT_MARGIN, VERIFY_MARGIN, VOTER_JITTER, VOTER_MEAN_SIDE

from conftest import random_profile

INF = float("inf")


class UnpicklableError(Exception):
    """An error pickle cannot send: it holds a lambda."""

    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None


class _BadProfile:
    """A stream item whose search raises `error`."""

    def __init__(self, error):
        self.error = error

    @property
    def m(self):
        raise self.error


class _KilledProfile:
    """A stream item whose search SIGKILLs the process searching it, unless
    that is the process that made the item."""

    def __init__(self):
        self.pid = os.getpid()

    @property
    def m(self):
        assert os.getpid() != self.pid, "searched by the process that made it"
        os.kill(os.getpid(), signal.SIGKILL)


class _SlowBadProfile(_BadProfile):
    """A stream item whose search sleeps `delay` seconds, then raises `error`."""

    def __init__(self, error, delay):
        super().__init__(error)
        self.delay = delay

    @property
    def m(self):
        time.sleep(self.delay)
        raise self.error


_TEST_PID = os.getpid()


def die_mid_send(fd, *share_args):
    """A stand-in for `heuristic._search_share_and_exit` in a forked child:
    writes the first half of a pickled share to the pipe `fd`, then SIGKILLs
    the child. Like the function it stands in for, it never returns."""
    assert os.getpid() != _TEST_PID, "called in the process that runs the tests"
    try:
        payload = pickle.dumps((Counter({1: 1}), []))
        os.write(fd, payload[: len(payload) // 2])
        os.kill(os.getpid(), signal.SIGKILL)
    finally:
        os._exit(1)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            HeuristicConfig(max_restarts=0)
        with pytest.raises(ValueError):
            HeuristicConfig(samples_per_placement=0)
        # The margins are constants, so a placed point can never flake the
        # final check; only the budget is configurable.
        cfg = HeuristicConfig()
        assert PLACEMENT_MARGIN > cfg.verify_margin == VERIFY_MARGIN >= 0
        assert set(asdict(cfg)) == {"seed", "max_restarts", "samples_per_placement"}

    @pytest.mark.parametrize("field, value", [
        # A float budget crashed the search with a TypeError, a float seed
        # crashed `derive_profile_seed`, and True ran one restart.
        ("max_restarts", 2.5),
        ("samples_per_placement", 2.5),
        ("seed", 1.5),
        ("max_restarts", True),
        ("samples_per_placement", False),
        ("seed", True),
        ("max_restarts", 3.0),
        ("seed", "1"),
    ])
    def test_refuses_non_integer_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            HeuristicConfig(**{field: value})

    def test_refuses_seeds_that_alias_others(self):
        # Random(-5) runs the search of Random(5), and derive_profile_seed
        # sends -5 and 2**64 - 5 to the same profile seeds.
        for seed in (-5, -1, 2**64, 2**64 + 5):
            with pytest.raises(ValueError, match="seed"):
                HeuristicConfig(seed=seed)
        assert HeuristicConfig(seed=2**64 - 1).seed == 2**64 - 1


def definition_bounds(p, voters, placed, alt):
    """`alt`'s (lo, hi) for each voter, by the band rule's definition: the
    greatest distance to a placed alternative the voter ranks above `alt`,
    and the least to one it ranks below; an oracle for `_tighten`."""
    bounds = []
    for v, order in zip(voters, p.orders):
        rank = order.positions[alt]
        ds = [(order.positions[b] < rank, dist(v, pt)) for b, pt in placed.items()]
        bounds.append((
            max((d for above, d in ds if above), default=0.0),
            min((d for above, d in ds if not above), default=INF),
        ))
    return bounds


def widths(p, voters, placed, todo):
    """Each alternative of `todo`'s thinnest band by definition, as
    hi^2 - lo^2."""
    return [
        min(hi * hi - lo * lo for lo, hi in definition_bounds(p, voters, placed, b))
        for b in todo
    ]


def thinnest_first(p, voters, placed, todo):
    """The first alternative of `todo` of least width: the search's next
    placement."""
    w = widths(p, voters, placed, todo)
    return todo[w.index(min(w))]


class TestAnnuliForAlternative:
    def test_definition_unrolled(self):
        # v1 wants the new alternative closer than b; v2 wants it farther.
        p = Profile.of(2, [(1, 0), (0, 1)])
        voters = (Point(0, 0), Point(4, 0))
        placed = {0: Point(1, 0)}
        free = annuli_for_alternative(p, voters, placed, 1)
        assert free is not None
        assert len(free) == 2
        a1, a2 = free
        assert a1.center == Point(0, 0) and a1.r_lo == 0.0 and a1.r_hi == 1.0
        assert a2.center == Point(4, 0) and a2.r_lo == 3.0 and a2.r_hi == INF

    def test_first_placement_unconstrained(self):
        p = Profile.of(3, [(0, 1, 2), (2, 1, 0)])
        voters = (Point(0, 0), Point(1, 1))
        assert annuli_for_alternative(p, voters, {}, 1) == ()

    def test_collapsed_band_is_infeasible(self):
        # Both placed alternatives sit at distance 2 from the voter, one must
        # be closer and the other farther than the new alternative.
        p = Profile.of(3, [(0, 1, 2)])
        voters = (Point(0, 0),)
        placed = {0: Point(2, 0), 2: Point(0, 2)}
        assert annuli_for_alternative(p, voters, placed, 1) is None

    def test_bounds_from_best_and_worst(self):
        p = Profile.of(4, [(0, 1, 2, 3)])
        voters = (Point(0, 0),)
        placed = {0: Point(0.5, 0), 2: Point(2, 0), 3: Point(3, 0)}
        free = annuli_for_alternative(p, voters, placed, 1)
        (a,) = free
        assert a.r_lo == 0.5 and a.r_hi == 2.0

    def test_refuses_a_voter_count_other_than_n(self):
        p = Profile.of(3, [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
        placed = {0: Point(1, 0)}
        for count in (2, 4):
            voters = tuple(Point(float(i), 0.0) for i in range(count))
            with pytest.raises(ValueError, match="voter points"):
                annuli_for_alternative(p, voters, placed, 1)

    @pytest.mark.parametrize("placed, alt", [
        ({0: Point(1, 0)}, -1), ({0: Point(1, 0)}, 3),
        ({-1: Point(1, 0)}, 1), ({3: Point(1, 0)}, 1),
    ])
    def test_refuses_an_alternative_out_of_range(self, placed, alt):
        p = Profile.of(3, [(0, 1, 2), (2, 1, 0)])
        voters = (Point(0, 0), Point(4, 0))
        with pytest.raises(IndexError, match="out of range"):
            annuli_for_alternative(p, voters, placed, alt)

    @pytest.mark.parametrize("placed, alt", [
        ({0: Point(1, 0)}, 1.0), ({0: Point(1, 0)}, True),
        ({0.0: Point(1, 0)}, 1), ({"0": Point(1, 0)}, 1),
    ])
    def test_refuses_an_alternative_that_is_not_an_int(self, placed, alt):
        p = Profile.of(3, [(0, 1, 2), (2, 1, 0)])
        voters = (Point(0, 0), Point(4, 0))
        with pytest.raises(ValueError, match="int"):
            annuli_for_alternative(p, voters, placed, alt)

    def test_refuses_an_alternative_already_placed(self):
        p = Profile.of(3, [(0, 1, 2), (2, 1, 0)])
        voters = (Point(0, 0), Point(4, 0))
        with pytest.raises(ValueError, match="already placed"):
            annuli_for_alternative(p, voters, {0: Point(1, 0), 1: Point(2, 0)}, 1)

    def test_valid_input_keeps_its_bands(self):
        # The checks change no answer: at either end of range(m), with every
        # other alternative placed or none, the bands are the band rule's,
        # built as before the checks.
        p = Profile.of(4, [(0, 1, 2, 3), (3, 1, 0, 2), (2, 3, 1, 0)])
        voters = (Point(0, 0), Point(1.5, 0.2), Point(0.4, 1.3))
        spots = [Point(0.3, 0.1), Point(0.9, 0.7), Point(0.2, 0.8), Point(1.1, 0.3)]
        tables = [o.positions for o in p.orders]
        for alt in (0, 3):
            for placed in ({}, {b: spots[b] for b in range(4) if b != alt}):
                bounds = heuristic._no_bounds(p.n, p.m)
                for b, pt in placed.items():
                    heuristic._tighten(bounds, voters, tables, [alt], b, pt)
                want = heuristic._free_area(voters, bounds, alt)
                got = annuli_for_alternative(p, voters, placed, alt)
                assert got == (None if want is None else tuple(Annulus(*b) for b in want))

    def test_free_area_route_matches_a_placement(self):
        # The band rule applied one placed point at a time, as the search
        # applies it to every unplaced alternative, gives each band its
        # definition and each alternative's width its thinnest band's. With
        # something placed, the search's placement and the route through
        # `annuli_for_alternative` and `sample_free_area` agree bit for bit,
        # random draws included; random placed points collapse many bands,
        # and a collapsed band gives None on both routes without a draw.
        # (With nothing placed the search draws beside a voter: see
        # TestPlacementSeam.)
        gen = random.Random(89)
        collapsed = 0
        for _ in range(2000):
            m = gen.randint(2, 7)
            p = random_profile(gen, m, gen.randint(1, min(3, math.factorial(m))))
            voters = heuristic._draw_voters(gen, p.n)
            alt, *rest = gen.sample(range(m), gen.randint(2, m))
            placed = {b: Point(gen.uniform(-2, 2), gen.uniform(-2, 2)) for b in rest}
            tables = [o.positions for o in p.orders]
            todo = [b for b in range(m) if b not in placed]
            bounds = heuristic._no_bounds(p.n, m)
            for b, pt in placed.items():
                heuristic._tighten(bounds, voters, tables, todo, b, pt)
            los, his, width = bounds
            for b in todo:
                want = definition_bounds(p, voters, placed, b)
                assert [(lo[b], hi[b]) for lo, hi in zip(los, his)] == want
                assert width[b] == min(hi * hi - lo * lo for lo, hi in want)
            free = annuli_for_alternative(p, voters, placed, alt)
            bands = heuristic._free_area(voters, bounds, alt)
            want = definition_bounds(p, voters, placed, alt)
            assert (free is None) == (bands is None) == any(lo >= hi for lo, hi in want)
            if bands is None:
                collapsed += 1
            else:
                assert all(type(a) is Annulus for a in free)
                assert list(free) == bands == [
                    (v, lo, hi) for v, (lo, hi) in zip(voters, want) if (lo, hi) != (0.0, INF)
                ]
            seed = gen.random()
            rng_area, rng_place = random.Random(seed), random.Random(seed)
            got = heuristic._place(voters, tables, bounds, alt, rng_place, 50, None)
            if free is None:
                assert got is None
            else:
                assert got == sample_free_area(free, rng_area, 50, PLACEMENT_MARGIN)
            assert rng_area.getstate() == rng_place.getstate()
        assert collapsed > 100


class TestPlacementSeam:
    """The search reaches its sampler as `heuristic.sample_free_area`, the
    name a tracer wraps to time and count that layer."""

    def test_one_sampler_call_per_placement(self, monkeypatch):
        # c5's first 100 profiles at config seed 0 take 1,387 placements; no
        # band collapses, so every one of them calls the sampler once. No
        # call gets the whole plane, which the sampler refuses: a first
        # placement gets a band around a voter, and a later one a band for
        # each voter whose distance a placed alternative bounds.
        sample = heuristic.sample_free_area
        calls = []

        def counting_sample(bands, rng, budget, margin, blocked=None):
            assert bands, "the sampler got no band"
            calls.append((budget, margin))
            return sample(bands, rng, budget, margin, blocked)

        monkeypatch.setattr(heuristic, "sample_free_area", counting_sample)
        cfg = HeuristicConfig()
        placements = sum(
            greedy_embed(
                canonical_profile_at(7, i), replace(cfg, seed=derive_profile_seed(0, i))
            ).placements_attempted
            for i in random.Random(20240).sample(range(count_canonical(7)), 100)
        )
        assert len(calls) == placements == 1387
        assert set(calls) == {(cfg.samples_per_placement, PLACEMENT_MARGIN)}
        # c6's mix at its budget adds the one- and two-voter placements that
        # c5 never makes.
        gen = random.Random(0xACCE55)
        cfg = HeuristicConfig(max_restarts=2, samples_per_placement=20)
        by_n = Counter()
        for _ in range(4000):
            m = gen.randint(1, 7)
            n = gen.randint(1, min(3, math.factorial(m)))
            p = random_profile(gen, m, n)
            before = len(calls)
            greedy_embed(p, replace(cfg, seed=gen.getrandbits(63)))
            by_n[n] += len(calls) - before
        assert min(by_n[n] for n in (1, 2, 3)) > 0

    @pytest.mark.parametrize(
        "p, favourites",
        [
            # One voter: every alternative is drawn beside it.
            (Profile.of(3, [(2, 0, 1)]), (0, 0, 0)),
            # Three voters (a Kendall triangle); alternative 1 ties voters 0
            # and 2, and alternative 3 ties 0 and 1 below voter 2.
            (
                Profile.of(7, [tuple(range(7)), tuple(reversed(range(7))), (3, 1, 5, 0, 6, 2, 4)]),
                (0, 0, 0, 2, 1, 1, 1),
            ),
            # A tie of voters 1 and 2 for alternative 0 goes to voter 1.
            (Profile.of(3, [(2, 1, 0), (0, 1, 2), (0, 2, 1)]), (1, 0, 0)),
        ],
    )
    def test_first_draw_beside_the_favourite_voter(self, monkeypatch, p, favourites):
        # Each restart's first sampler call gets one band: the disk of radius
        # VOTER_MEAN_SIDE around the voter who ranks that alternative
        # highest, the lowest index on a tie.
        place, sample = heuristic._place, heuristic.sample_free_area
        pending, firsts = [], []

        def recording_place(voters, tables, bounds, alt, rng, budget, blocked):
            # With nothing placed no voter bounds the alternative.
            first = heuristic._free_area(voters, bounds, alt) == []
            pending[:] = [(voters, alt)] if first else []
            return place(voters, tables, bounds, alt, rng, budget, blocked)

        def recording_sample(bands, rng, budget, margin, blocked=None):
            if pending:
                firsts.append((*pending.pop(), bands))
            return sample(bands, rng, budget, margin, blocked)

        monkeypatch.setattr(heuristic, "_place", recording_place)
        monkeypatch.setattr(heuristic, "sample_free_area", recording_sample)
        restarts = sum(
            greedy_embed(p, HeuristicConfig(seed=seed, max_restarts=5)).restarts_used
            for seed in range(20)
        )
        assert len(firsts) == restarts
        for voters, alt, bands in firsts:
            assert bands == [(voters[favourites[alt]], 0.0, VOTER_MEAN_SIDE)]
        assert {alt for _, alt, _ in firsts} == set(range(p.m))

    def test_collapsed_band_skips_the_sampler(self, monkeypatch):
        # Both placed alternatives sit at distance 2 from the voter, who
        # ranks alternative 1 between them: its band collapses.
        def no_sample(*args):
            raise AssertionError("sampler called on a collapsed band")

        monkeypatch.setattr(heuristic, "sample_free_area", no_sample)
        voters = (Point(0.0, 0.0),)
        tables = [(0, 1, 2)]
        bounds = heuristic._no_bounds(1, 3)
        heuristic._tighten(bounds, voters, tables, [1, 2], 0, Point(2.0, 0.0))
        heuristic._tighten(bounds, voters, tables, [1], 2, Point(0.0, 2.0))
        assert bounds[0][0][1] == bounds[1][0][1] == 2.0
        assert bounds[2][1] == 0.0
        assert heuristic._free_area(voters, bounds, 1) is None
        rng = random.Random(7)
        state = rng.getstate()
        assert heuristic._place(voters, tables, bounds, 1, rng, 200, None) is None
        assert rng.getstate() == state

    def test_search_bands_match_annuli(self, monkeypatch):
        # Over a seeded mix (m 1..7, n 1..4), every placement's bands, as
        # the search keeps them, are those `annuli_for_alternative` builds
        # from scratch for the alternatives placed so far in that restart.
        # Each restart draws new voters.
        place = heuristic._place
        log = {"voters": None, "placed": {}}
        checked = Counter()

        def checking_place(voters, tables, bounds, alt, rng, budget, blocked):
            if voters is not log["voters"]:
                log["voters"], log["placed"] = voters, {}
            placed = log["placed"]
            want = annuli_for_alternative(log["p"], voters, placed, alt)
            got = heuristic._free_area(voters, bounds, alt)
            assert got == (None if want is None else list(want))
            checked[len(placed) and ("collapsed" if want is None else "bounded")] += 1
            pt = place(voters, tables, bounds, alt, rng, budget, blocked)
            if pt is not None:
                placed[alt] = pt
            return pt

        monkeypatch.setattr(heuristic, "_place", checking_place)
        gen = random.Random(0xBA2D)
        for _ in range(600):
            m = gen.randint(1, 7)
            log["p"] = p = random_profile(gen, m, gen.randint(1, min(4, math.factorial(m))))
            greedy_embed(p, HeuristicConfig(seed=gen.getrandbits(64), max_restarts=20))
        assert checked[0] > 1500 and checked["bounded"] > 4000
        # Each placed point keeps every voter's distances rising with rank,
        # PLACEMENT_MARGIN apart, so a search's bands never collapse; the
        # stubbed samplers of TestPlacementOrder make them.
        assert checked["collapsed"] == 0


def _orient(a, b, c):
    """Twice the signed area of the triangle abc: > 0 when it turns left."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _in_triangle(q, tri):
    if len(tri) < 3:
        return False
    a, b, c = tri
    turns = (_orient(a, b, q) > 0, _orient(b, c, q) > 0, _orient(c, a, q) > 0)
    return all(turns) or not any(turns)


def _segments_cross(p, q, r, s):
    return (_orient(p, q, r) > 0) != (_orient(p, q, s) > 0) and (
        _orient(r, s, p) > 0
    ) != (_orient(r, s, q) > 0)


def hulls_meet(xs, ys):
    """Whether the convex hulls of two sets of at most three points in
    general position meet: a point of one lies in the other's triangle, or
    two of their segments cross. An empty set's hull meets nothing."""
    if not xs or not ys:
        return False
    if any(_in_triangle(q, ys) for q in xs) or any(_in_triangle(q, xs) for q in ys):
        return True
    segments = lambda pts: [(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]]
    return any(_segments_cross(*e, *f) for e in segments(xs) for f in segments(ys))


def one_pair(gen):
    """Three voters, a point P for alternative 1 and a random set A of the
    voters who rank alternative 0 above it; the rule for placing 1 with 0
    unplaced."""
    voters = heuristic._draw_voters(gen, 3)
    at = Point(gen.uniform(-2, 2), gen.uniform(-2, 2))
    above = {i for i in range(3) if gen.random() < 0.5}
    # With two alternatives each ranking is also its own table of ranks.
    tables = [(0, 1) if i in above else (1, 0) for i in range(3)]
    rule = heuristic._same_side_rule(voters, [heuristic._better_masks(tables)[1], 0b01])
    return voters, at, above, tables, rule


class TestSameSideRule:
    """With b at P, an unplaced a has room iff a line separates the voters
    who rank a above b from the other voters and P."""

    def test_better_masks(self):
        assert heuristic._better_masks([(2, 0, 3, 1), (0, 1, 2, 3)]) == [
            (0b0100, 0b0000), (0b1101, 0b0001), (0b0000, 0b0011), (0b0101, 0b0111)
        ]

    def test_rule_is_hull_separation(self):
        gen = random.Random(71)
        fired = 0
        for _ in range(20_000):
            voters, at, above, _, rule = one_pair(gen)
            others = [v for i, v in enumerate(voters) if i not in above]
            want = hulls_meet([voters[i] for i in sorted(above)], others + [at])
            assert rule(*at) == want
            fired += want
        assert 2000 < fired < 4000

    def test_rule_fires_iff_the_free_area_is_empty(self):
        # a's real bands with b placed: where the rule fires the sampler
        # finds nothing; where it does not, it finds a point. The margin
        # TAU_GEO keeps out the points that rounding finds at P itself,
        # which lies on every band's boundary.
        gen = random.Random(73)
        fired = 0
        for seed in range(3000):
            voters, at, _, tables, rule = one_pair(gen)
            bands = list(annuli_for_alternative(Profile.of(2, tables), voters, {1: at}, 0))
            got = sample_free_area(bands, random.Random(seed), 200, TAU_GEO)
            assert (got is None) == rule(*at)
            fired += got is None
        assert fired > 300

    def test_unplaced_mask_and_placed_alternative(self):
        # Voters 0 and 1 rank 0 above 1, voter 2 ranks it below: with 1 at
        # the far side of edge v0 v1, alternative 0 has no room, and the
        # rule holds only while 0 is unplaced.
        voters = (Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, 1.0))
        placing = [heuristic._better_masks([(0, 1), (0, 1), (1, 0)])[1], 0b01]
        rule = heuristic._same_side_rule(voters, placing)
        assert rule(0.5, -0.5) and not rule(0.5, 0.5) and not rule(2.0, 2.0)
        placing[1] = 0
        assert not rule(0.5, -0.5)
        # Mirrored voters turn the other way round; the rule does not care.
        mirrored = tuple(Point(x, -y) for x, y in voters)
        assert heuristic._same_side_rule(mirrored, [placing[0], 0b01])(0.5, 0.5)


class TestGreedyEmbed:
    def test_single_alternative_first_restart(self):
        p = Profile.of(1, [(0,)])
        out = greedy_embed(p, HeuristicConfig(seed=1))
        assert out.status is Status.SUCCESS
        assert out.restarts_used == 1
        assert out.placements_attempted == 1

    def test_success_reverifies(self):
        p = Profile.of(3, [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
        cfg = HeuristicConfig(seed=5)
        out = greedy_embed(p, cfg)
        assert out.status is Status.SUCCESS
        assert verify(p, out.embedding, cfg.verify_margin).ok

    def test_two_voter_profile_agrees_with_construction(self):
        rng = random.Random(53)
        p = random_profile(rng, 7, 2)
        out = greedy_embed(p, HeuristicConfig(seed=11))
        assert out.status is Status.SUCCESS
        assert verify(p, embed_two_voters(p), 0.0).ok

    def test_deterministic_for_equal_inputs(self):
        p = Profile.of(4, [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2)])
        cfg = HeuristicConfig(seed=99)
        a = greedy_embed(p, cfg)
        b = greedy_embed(p, cfg)
        assert a == b

    def test_exhausted_on_tiny_budget(self):
        # An impossible budget: one restart, one sample per placement, on a
        # profile that usually needs more. Status must be EXHAUSTED, never an
        # impossibility claim.
        p = Profile.of(7, [tuple(range(7)), tuple(reversed(range(7))), (3, 1, 5, 0, 6, 2, 4)])
        out = greedy_embed(p, HeuristicConfig(seed=2, max_restarts=1, samples_per_placement=1))
        assert out.status in (Status.SUCCESS, Status.EXHAUSTED)
        if out.status is Status.EXHAUSTED:
            assert out.embedding is None and out.report is None
            assert out.restarts_used == 1

    def test_small_cases_always_succeed_at_default_budget(self):
        # Exhaustive over the constructive regimes: every profile with
        # m <= 3 (n up to 3 distinct orders) and every 2-voter m = 3 profile
        # must succeed, cross-validated against the closed forms.
        import itertools

        from pref2d import embed_three_alternatives

        cases = []
        orders3 = list(itertools.permutations(range(3)))
        for n in (1, 2, 3):
            for subset in itertools.combinations(orders3, n):
                cases.append(Profile.of(3, subset))
        for m in (1, 2):
            perms = list(itertools.permutations(range(m)))
            for n in range(1, len(perms) + 1):
                for subset in itertools.combinations(perms, n):
                    cases.append(Profile.of(m, subset))
        for i, p in enumerate(cases):
            out = greedy_embed(p, HeuristicConfig(seed=i))
            assert out.status is Status.SUCCESS, p
            if p.n <= 2:
                assert verify(p, embed_two_voters(p), 0.0).ok
            if p.m <= 3:
                assert verify(p, embed_three_alternatives(p), 0.0).ok

    def test_hard_profile_certifies_at_seed_zero(self):
        index = 10597517
        p = canonical_profile_at(7, index)
        out = greedy_embed(p, HeuristicConfig(seed=derive_profile_seed(0, index)))
        assert out.status is Status.SUCCESS

    def test_failure_weighted_order(self, monkeypatch):
        # Placement fails for the alternative at position 3 of restart 1 and
        # at position 5 of restart 2, so their weights become 3 and 5. The
        # stub puts alternative k a fraction (k + 1) / 7 of the way from
        # voter 0 to voter 1, where both voters' orders hold, so no band
        # collapses; it draws nothing from the RNG, so each restart's
        # shuffle can be replayed from the seed. Every alternative on one
        # side of a placed one shares its thinnest band, so the weights
        # decide each restart's first placement and many of the rest.
        p = Profile.of(6, [(0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)])
        cfg = HeuristicConfig(seed=0, max_restarts=3)
        fail_at = {(1, 3), (2, 5)}
        orders: list[list[int]] = []
        voters_seen = []

        def on_segment(voters, alt):
            (x0, y0), (x1, y1) = voters
            t = (alt + 1) / 7
            return Point(x0 + t * (x1 - x0), y0 + t * (y1 - y0))

        def stub_place(voters, tables, bounds, alt, rng, budget, blocked):
            # With nothing placed no voter bounds the alternative.
            if heuristic._free_area(voters, bounds, alt) == []:
                orders.append([])
                voters_seen.append(voters)
            orders[-1].append(alt)
            if (len(orders), len(orders[-1]) - 1) in fail_at:
                return None
            return on_segment(voters, alt)

        monkeypatch.setattr(heuristic, "_place", stub_place)
        out = greedy_embed(p, cfg)
        # The points on the segment embed the profile.
        assert out.status is Status.SUCCESS and out.restarts_used == 3
        assert out.placements_attempted == 4 + 6 + 6

        rng = random.Random(cfg.seed)
        shuffles = []
        for voters in voters_seen:
            assert heuristic._draw_voters(rng, p.n) == voters
            order = list(range(p.m))
            rng.shuffle(order)
            shuffles.append(order)
        first, second = orders[0][3], orders[1][5]
        # Restart 1 starts at the plain shuffle's head; restart 2 at the
        # failed alternative, whose weight alone is not 0.
        assert orders[0][0] == shuffles[0][0]
        assert orders[1][0] == first
        # Restart 3 starts at weight 5, not 3: each weight is the number of
        # alternatives placed before the failure, not a failure count, whose
        # tie would keep the shuffle's order of the two.
        assert shuffles[2].index(first) < shuffles[2].index(second)
        assert orders[2][0] == second
        # Replayed with the weights, every placement is the thinnest.
        weights = [{}, {first: 3}, {first: 3, second: 5}]
        ties = 0
        for r in range(3):
            weighted = sorted(shuffles[r], key=lambda a: -weights[r].get(a, 0))
            placed, todo = {}, weighted[:]
            for alt in orders[r]:
                assert alt == thinnest_first(p, voters_seen[r], placed, todo)
                w = widths(p, voters_seen[r], placed, todo)
                ties += w.count(min(w)) > 1
                todo.remove(alt)
                placed[alt] = on_segment(voters_seen[r], alt)
        assert ties >= 6


    def test_soundness_randomized(self):
        rng = random.Random(61)
        cfg = HeuristicConfig(max_restarts=3, samples_per_placement=25)
        successes = 0
        for trial in range(300):
            m = rng.randint(1, 7)
            n = rng.randint(1, min(3, math.factorial(m)))
            p = random_profile(rng, m, n)
            from dataclasses import replace

            out = greedy_embed(p, replace(cfg, seed=rng.getrandbits(63)))
            if out.status is Status.SUCCESS:
                successes += 1
                assert out.report.ok
                assert verify(p, out.embedding, cfg.verify_margin).ok
        assert successes > 100


class TestPlacementOrder:
    """Each restart places next the unplaced alternative whose thinnest
    band, as hi^2 - lo^2, is smallest; the failure-weighted shuffle decides
    the first placement and every tie."""

    def test_next_is_the_thinnest(self, monkeypatch):
        # A stubbed sampler with its own generator leaves the search's RNG
        # to the voters and the shuffles, which are replayed here. It
        # returns the real sampler's point, or None (a failure), or a random
        # point that breaks the voters' orders, so that later bands
        # collapse. Every placement is checked against the rule written
        # from the bands' definition, and the weights against the failures.
        own = random.Random(0x0DE5)
        sample, place = heuristic.sample_free_area, heuristic._place
        log = []

        def stub_sample(bands, rng, budget, margin, blocked=None):
            log[-1]["sampled"] = True
            u = own.random()
            if u < 0.1:
                return None
            if u < 0.2:
                return Point(own.uniform(-2, 2), own.uniform(-2, 2))
            return sample(bands, own, budget, margin, blocked)

        def logging_place(voters, tables, bounds, alt, rng, budget, blocked):
            if not log or voters is not log[-1]["voters"]:
                placed = {}
            else:
                placed = dict(log[-1]["placed"])
                if log[-1]["result"] is not None:
                    placed[log[-1]["alt"]] = log[-1]["result"]
            log.append({"voters": voters, "alt": alt, "placed": placed, "sampled": False})
            log[-1]["result"] = pt = place(voters, tables, bounds, alt, rng, budget, blocked)
            return pt

        monkeypatch.setattr(heuristic, "sample_free_area", stub_sample)
        monkeypatch.setattr(heuristic, "_place", logging_place)
        gen = random.Random(0x0DE4)
        seen = Counter()
        for _ in range(300):
            m = gen.randint(2, 7)
            p = random_profile(gen, m, gen.randint(1, min(3, math.factorial(m))))
            cfg = HeuristicConfig(seed=gen.getrandbits(64), max_restarts=8)
            log.clear()
            out = greedy_embed(p, cfg)
            rng, weight, kendall = random.Random(cfg.seed), [0] * m, heuristic._kendall_sides(p)
            restarts = []
            for entry in log:
                if not restarts or entry["voters"] is not restarts[-1][0]["voters"]:
                    restarts.append([])
                restarts[-1].append(entry)
            assert len(restarts) == out.restarts_used
            for entries in restarts:
                voters = entries[0]["voters"]
                if kendall is None:
                    assert heuristic._draw_voters(rng, p.n) == voters
                else:
                    assert heuristic._draw_triangle(rng, kendall) == voters
                order = list(range(m))
                rng.shuffle(order)
                weighted = sorted(order, key=lambda a: -weight[a])
                seen["head moved"] += weighted[0] != order[0]
                todo = weighted[:]
                for k, entry in enumerate(entries):
                    alt, placed = entry["alt"], entry["placed"]
                    assert len(placed) == k
                    assert alt == thinnest_first(p, voters, placed, todo)
                    seen["not first"] += alt != todo[0]
                    collapsed = any(
                        lo >= hi for lo, hi in definition_bounds(p, voters, placed, alt)
                    )
                    assert entry["sampled"] is not collapsed
                    seen["collapsed"] += collapsed
                    todo.remove(alt)
                    if entry["result"] is None:
                        assert k == len(entries) - 1
                        weight[alt] += k
        # Each case is well represented: a first placement moved by the
        # weights, a later one that is not the first unplaced in weighted
        # order, and a collapsed band.
        assert min(seen.values()) > 50, seen

    def test_collapsed_band_adds_the_placed_count(self, monkeypatch):
        # One voter ranks 0, 1, 2 and the stub puts every alternative at the
        # same point. Restart 1's shuffle puts 0 first; with 0 placed the
        # other two tie, unbounded, and 2 comes next in weighted order; then
        # 1's band closes at that one distance: its placement fails without
        # a sampler call and adds 2 to its weight, so restart 2 starts at 1.
        p = Profile.of(3, [(0, 1, 2)])

        def shuffle_of(seed):
            rng = random.Random(seed)
            heuristic._draw_voters(rng, 1)
            order = [0, 1, 2]
            rng.shuffle(order)
            return order

        seed = next(s for s in range(100) if shuffle_of(s) == [0, 2, 1])
        calls = []

        def stub_sample(bands, rng, budget, margin, blocked=None):
            (x, y), _, _ = bands[0]
            calls.append(len(bands))
            return Point(x + 0.5, y + 0.25)

        place = heuristic._place
        orders = []

        def recording_place(voters, tables, bounds, alt, rng, budget, blocked):
            if heuristic._free_area(voters, bounds, alt) == []:
                orders.append([])
            orders[-1].append(alt)
            return place(voters, tables, bounds, alt, rng, budget, blocked)

        monkeypatch.setattr(heuristic, "sample_free_area", stub_sample)
        monkeypatch.setattr(heuristic, "_place", recording_place)
        out = greedy_embed(p, HeuristicConfig(seed=seed, max_restarts=2))
        # Restart 2 puts 1 first, then 0, whose band [0, d) is thinner than
        # 2's [d, inf); three points at one spot embed nothing.
        assert orders == [[0, 2, 1], [1, 0, 2]]
        assert out.status is Status.EXHAUSTED and out.placements_attempted == 6
        assert len(calls) == 2 + 3


def voters_per_restart(monkeypatch, p, cfg):
    """The voters of each restart of `greedy_embed(p, cfg)`, with every first
    placement failing and drawing nothing from the RNG."""
    voters_seen = []

    def stub_place(voters, tables, bounds, alt, rng, budget, blocked):
        voters_seen.append(voters)
        return None

    monkeypatch.setattr(heuristic, "_place", stub_place)
    out = greedy_embed(p, cfg)
    assert out.status is Status.EXHAUSTED
    return voters_seen


def sides(pts):
    return dist(pts[0], pts[1]), dist(pts[0], pts[2]), dist(pts[1], pts[2])


def parent_draw_triangle(rng, kendall):
    """`_draw_triangle` as written with `Point`s and `dist`, an oracle."""
    while True:
        d01, d02, d12 = [k * math.exp(VOTER_JITTER * rng.gauss(0.0, 1.0)) for k in kendall]
        if not (d01 < d02 + d12 and d02 < d01 + d12 and d12 < d01 + d02):
            continue
        scale = 3.0 * VOTER_MEAN_SIDE / (d01 + d02 + d12)
        d01, d02, d12 = d01 * scale, d02 * scale, d12 * scale
        x = (d01 * d01 + d02 * d02 - d12 * d12) / (2.0 * d01)
        y = math.sqrt(max(d02 * d02 - x * x, 0.0))
        cx, cy = (d01 + x) / 3.0, y / 3.0
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        pts = tuple(
            Point(c * (px - cx) - s * (py - cy), s * (px - cx) + c * (py - cy))
            for px, py in ((0.0, 0.0), (d01, 0.0), (x, y))
        )
        if all(dist(pts[i], pts[j]) > TAU_GEO for i in range(3) for j in range(i + 1, 3)):
            return pts


class TestVoterDraw:
    @pytest.mark.parametrize(
        "p, shaped",
        [
            (Profile.of(4, [(0, 1, 2, 3)]), False),
            (Profile.of(4, [(0, 1, 2, 3), (3, 2, 1, 0)]), False),
            (Profile.of(4, [(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1)]), False),
            # Three voters with a repeated order, as strict=False or restrict
            # produce them.
            (Profile.of(3, [(0, 1, 2), (0, 1, 2), (2, 1, 0)]), False),
            (Profile.of(1, [(0,), (0,), (0,)]), False),
            (canonical_profile_at(7, 10597517), True),
        ],
        ids=["n1", "n2", "n4", "n3-repeat", "n3-m1", "n3-distinct"],
    )
    def test_square_draw_unless_three_distinct_orders(self, monkeypatch, p, shaped):
        kendall = heuristic._kendall_sides(p)
        assert (kendall is not None) == shaped
        cfg = HeuristicConfig(seed=17, max_restarts=5)
        seen = voters_per_restart(monkeypatch, p, cfg)
        rng = random.Random(cfg.seed)
        expected = []
        for _ in range(cfg.max_restarts):
            if shaped:
                expected.append(heuristic._draw_triangle(rng, kendall))
            else:
                expected.append(heuristic._draw_voters(rng, p.n))
            rng.shuffle(list(range(p.m)))
        assert seen == expected

    def test_kendall_sides(self):
        p = Profile.of(3, [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
        assert heuristic._kendall_sides(p) == (1, 3, 2)
        assert heuristic._kendall_sides(canonical_profile_at(7, 10597517)) == (12, 12, 8)
        assert heuristic._kendall_sides(Profile.of(3, [(0, 1, 2), (2, 1, 0)])) is None
        assert heuristic._kendall_sides(Profile.of(2, [(0, 1), (1, 0), (1, 0)])) is None

    @pytest.mark.parametrize("kendall", [(6, 8, 10), (1, 3, 2), (21, 21, 2), (1, 1, 1)])
    def test_shape_centroid_and_scale(self, kendall):
        rng = random.Random(5)
        for _ in range(500):
            pts = heuristic._draw_triangle(rng, kendall)
            d = sides(pts)
            assert min(d) > TAU_GEO
            assert max(d) < sum(d) - max(d)
            assert abs(sum(d) / 3 - VOTER_MEAN_SIDE) < 1e-12
            assert abs(sum(q.x for q in pts)) < 1e-12
            assert abs(sum(q.y for q in pts)) < 1e-12

    def test_side_ratios_follow_kendall_within_the_jitter(self):
        # Far from flat, the triangle inequality almost never rejects a
        # draw, so the log of each ratio of normalized sides is the
        # difference of two independent N(0, VOTER_JITTER^2) draws. Sides
        # proportional to sqrt(K) would put a median at 0.11.
        kendall = (8, 9, 10)
        rng = random.Random(11)
        logs = {(0, 1): [], (0, 2): [], (1, 2): []}
        for _ in range(4000):
            d = sides(heuristic._draw_triangle(rng, kendall))
            q = [d[i] / kendall[i] for i in range(3)]
            for i, j in logs:
                logs[i, j].append(math.log(q[i] / q[j]))
        for values in logs.values():
            values.sort()
            assert abs(values[len(values) // 2]) < 0.025
            sd = math.sqrt(sum(v * v for v in values) / len(values))
            assert abs(sd / (VOTER_JITTER * math.sqrt(2)) - 1) < 0.1

    def test_rotation_is_uniform(self):
        rng = random.Random(3)
        quadrants = [0] * 4
        for _ in range(4000):
            v0 = heuristic._draw_triangle(rng, (6, 8, 10))[0]
            quadrants[(v0.x < 0) + 2 * (v0.y < 0)] += 1
        assert min(quadrants) > 900

    def test_triangle_matches_the_point_formula(self):
        # The coordinate-only draw makes the same draws and the same floats
        # as the formula written with `Point`s and `dist`, over 1,000
        # generator states, flat triples (many rejected draws) included.
        triples = [(6, 8, 10), (1, 2, 1), (21, 21, 2), (1, 1, 1), (12, 12, 8)]
        for state in range(1000):
            kendall = triples[state % len(triples)]
            rng, oracle = random.Random(state), random.Random(state)
            for _ in range(3):
                got = heuristic._draw_triangle(rng, kendall)
                want = parent_draw_triangle(oracle, kendall)
                assert all(type(q) is Point for q in got)
                assert [c.hex() for q in got for c in q] == [c.hex() for q in want for c in q]
            assert rng.getstate() == oracle.getstate()

    def test_flat_kendall_triple_certifies(self):
        # Voter 1's order lies between the others': K02 = K01 + K12.
        p = Profile.of(3, [(0, 1, 2), (1, 0, 2), (1, 2, 0)])
        assert heuristic._kendall_sides(p) == (1, 2, 1)
        pts = heuristic._draw_triangle(random.Random(0), (1, 2, 1))
        d01, d02, d12 = sides(pts)
        assert d02 < d01 + d12
        out = greedy_embed(p, HeuristicConfig(seed=4))
        assert out.status is Status.SUCCESS


class TestSeedDerivation:
    def test_stable_values(self):
        assert derive_profile_seed(0, 0) == derive_profile_seed(0, 0)
        assert derive_profile_seed(0, 0) != derive_profile_seed(0, 1)
        assert derive_profile_seed(0, 5) != derive_profile_seed(1, 5)

    def test_64_bit_range(self):
        for seed in (0, 1, 2**63):
            for idx in (0, 1, 10**7):
                v = derive_profile_seed(seed, idx)
                assert 0 <= v < 2**64


class TestBatchRun:
    def test_all_m3_profiles_succeed(self):
        cfg = HeuristicConfig(seed=0)
        summary = batch_run(enumerate(enumerate_canonical(3)), cfg)
        assert summary.total == 10
        assert summary.successes == 10
        assert summary.exhausted == 0
        assert summary.exhausted_indices == ()
        assert sum(summary.restart_histogram.values()) == 10

    def test_empty_stream(self):
        summary = batch_run([], HeuristicConfig(seed=0))
        assert summary.total == 0 and summary.successes == 0 and summary.exhausted == 0

    def test_workers_do_not_change_outcomes(self):
        cfg = HeuristicConfig(seed=3)
        one = batch_run(enumerate(enumerate_canonical(3)), cfg, workers=1)
        two = batch_run(enumerate(enumerate_canonical(3)), cfg, workers=2)
        assert summary_json(one) == summary_json(two)

    def test_range_partition_matches_full(self):
        cfg = HeuristicConfig(seed=8)
        full = batch_run(enumerate(enumerate_canonical(3)), cfg)
        lo = batch_run(enumerate(enumerate_canonical(3, 0, 4)), cfg)
        hi = batch_run(enumerate(enumerate_canonical(3, 4), 4), cfg)
        assert full.successes == lo.successes + hi.successes
        merged = {}
        for part in (lo, hi):
            for k, v in part.restart_histogram.items():
                merged[k] = merged.get(k, 0) + v
        assert merged == full.restart_histogram

    def test_documents_byte_identical_across_workers(self, tmp_path):
        cfg = HeuristicConfig(seed=6)
        dirs = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            batch_run(
                enumerate(enumerate_canonical(3)), cfg, workers=workers, out_dir=str(out)
            )
            dirs[workers] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert dirs[1] == dirs[2]
        assert len(dirs[1]) == 10

    def test_workers_do_not_change_weighted_restarts(self, tmp_path):
        # At m = 7, 240 of these 400 profiles need more than one restart, so
        # the failure weights shape most outcomes.
        cfg = HeuristicConfig(seed=0)
        summaries, dirs = {}, {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            out.mkdir()
            summaries[workers] = summary_json(
                batch_run(
                    enumerate(enumerate_canonical(7, 1_000_000, 1_000_400), 1_000_000),
                    cfg,
                    workers=workers,
                    out_dir=str(out),
                )
            )
            dirs[workers] = {f.name: f.read_bytes() for f in out.iterdir()}
        assert summaries[1] == summaries[2]
        assert summaries[1]["total"] - summaries[1]["restart_histogram"]["1"] > 150
        assert dirs[1] == dirs[2]
        assert len(dirs[1]) == 400

    def test_kendall_triangle_placement_budget(self, monkeypatch):
        # The first 100 profiles of c5's draw at config seed 0 take 1,387
        # placements (2,571 when each restart placed its alternatives in
        # weighted order, and 3,200 before that, with voters drawn uniformly
        # in the square). PLACEMENT_MARGIN keeps each voter's placed
        # distances strictly rising with rank, so no band collapses.
        place = heuristic._place
        bands = []

        def recording_place(voters, tables, bounds, alt, rng, budget, blocked):
            bands.append(heuristic._free_area(voters, bounds, alt))
            return place(voters, tables, bounds, alt, rng, budget, blocked)

        monkeypatch.setattr(heuristic, "_place", recording_place)
        indices = random.Random(20240).sample(range(count_canonical(7)), 100)
        placements = sum(
            greedy_embed(
                canonical_profile_at(7, i), HeuristicConfig(seed=derive_profile_seed(0, i))
            ).placements_attempted
            for i in indices
        )
        assert placements <= 1500
        assert len(bands) == placements
        assert None not in bands

    def test_c5_head_outcomes_are_pinned(self):
        # The determinism contract: c5's first 100 profiles at config seed 0
        # take exactly these restarts and placements and write exactly these
        # certificates. A change meant to keep the search bit for bit, such
        # as a faster kernel, must keep all three; one that changes the
        # search on purpose updates them. The floats come from libm's
        # acos, atan2, cos and sin as well as from Python.
        h = hashlib.sha256()
        restarts = placements = 0
        for i in random.Random(20240).sample(range(count_canonical(7)), 100):
            p = canonical_profile_at(7, i)
            cfg = HeuristicConfig(seed=derive_profile_seed(0, i))
            out = greedy_embed(p, cfg)
            assert out.status is Status.SUCCESS
            restarts += out.restarts_used
            placements += out.placements_attempted
            doc = write_embedding(
                p, out.embedding, out.report,
                metadata={"seed": cfg.seed, "config": asdict(cfg)},
            )
            h.update(doc.encode())
        assert (restarts, placements) == (248, 1387)
        assert h.hexdigest() == (
            "e7c96e0b52f6d174aa6acbc52a1dcb6b70ad61c24f8380ee064579ee5477e8dc"
        )

    def test_searches_without_three_voters_are_pinned(self):
        # The same-side rule serves three voters only, so searches with one,
        # two or four never meet it; the most-constrained order serves every
        # n, and this digest was taken with it.
        gen = random.Random(2029)
        h = hashlib.sha256()
        for n in (1, 2, 4):
            for _ in range(40):
                p = random_profile(gen, gen.randint(3, 7), n)
                out = greedy_embed(p, HeuristicConfig(seed=gen.getrandbits(64), max_restarts=50))
                e = out.embedding
                h.update(repr((
                    out.status.value, out.restarts_used, out.placements_attempted,
                    e and (e.voter_points, e.alt_points),
                )).encode())
        assert h.hexdigest() == (
            "144aef0f3d914e2ae94b81081dfe9ca60b5849dec46d13b342a324619a994cd5"
        )

    def test_documents_written(self, tmp_path):
        cfg = HeuristicConfig(seed=0)
        out = tmp_path / "docs"
        out.mkdir()
        summary = batch_run(enumerate(enumerate_canonical(3, 0, 3)), cfg, out_dir=str(out))
        files = sorted(f.name for f in out.iterdir())
        assert files == ["0.json", "1.json", "2.json"]
        from pref2d import read_embedding, profile_from_document

        emb, doc = read_embedding((out / "1.json").read_text())
        assert doc["seed"] == derive_profile_seed(0, 1)
        assert doc["config"]["profile_index"] == 1
        p = profile_from_document(doc)
        assert verify(p, emb, cfg.verify_margin).ok

    def test_exhausted_indices_are_stream_indices(self):
        cfg = HeuristicConfig(seed=0, max_restarts=1, samples_per_placement=1)
        summary = batch_run(enumerate(enumerate_canonical(4, 100, 140), 100), cfg)
        expected = tuple(
            i
            for i in range(100, 140)
            if greedy_embed(
                canonical_profile_at(4, i),
                replace(cfg, seed=derive_profile_seed(cfg.seed, i)),
            ).status
            is Status.EXHAUSTED
        )
        assert expected
        assert summary.exhausted_indices == expected
        assert summary_json(summary)["exhausted_indices"] == list(expected)

    def test_bad_workers(self):
        # A bool or a float is refused like 0, by its exact type.
        for workers in (0, True, 2.0):
            with pytest.raises(ValueError, match="integer workers"):
                batch_run([], HeuristicConfig(), workers=workers)

    def test_workers_capped_at_usable_cpus(self, monkeypatch):
        # The count is worked out without starting a process.
        monkeypatch.setattr(
            heuristic.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert [heuristic._usable_workers(w) for w in (2, 3, 1000)] == [2, 3, 3]
        # Without sched_getaffinity the cap is os.cpu_count(), or 1 when unknown.
        monkeypatch.delattr(heuristic.os, "sched_getaffinity")
        for cpus, count in ((4, 4), (None, 1)):
            monkeypatch.setattr(heuristic.os, "cpu_count", lambda: cpus)
            assert heuristic._usable_workers(1000) == count
        # Without fork there is one worker, so batch_run searches in this
        # process whatever it is asked for. Windows has neither fork nor
        # select.poll, so one worker must not poll.
        monkeypatch.setattr(heuristic.os, "cpu_count", lambda: 4)
        monkeypatch.delattr(heuristic.os, "fork")
        monkeypatch.delattr(select, "poll", raising=False)
        assert heuristic._usable_workers(1000) == 1
        stream = list(enumerate(enumerate_canonical(3)))
        want = summary_json(batch_run(stream, HeuristicConfig(seed=3)))
        assert summary_json(batch_run(stream, HeuristicConfig(seed=3), workers=1000)) == want

    def test_exhausted_indices_keep_stream_order(self, monkeypatch):
        # Each worker reports its failures with their stream positions; the
        # merge must put them back in the order of a shuffled stream, not
        # in index order or worker by worker.
        monkeypatch.setattr(
            heuristic.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        cfg = HeuristicConfig(seed=0, max_restarts=1)
        stream = list(enumerate(enumerate_canonical(4)))
        random.Random(5).shuffle(stream)
        expected = [
            i
            for i, p in stream
            if greedy_embed(p, replace(cfg, seed=derive_profile_seed(cfg.seed, i))).status
            is Status.EXHAUSTED
        ]
        assert len(expected) > 10 and expected != sorted(expected)
        summaries = [summary_json(batch_run(stream, cfg, workers=w)) for w in (1, 2, 3)]
        assert summaries[0]["exhausted_indices"] == expected
        assert summaries[1] == summaries[0] and summaries[2] == summaries[0]

    def test_summary_counts_follow_from_indices_and_histogram(self):
        summary = BatchSummary((4, 9), {1: 5, 20000: 2}, elapsed=1.0)
        assert [f.name for f in fields(BatchSummary)] == [
            "exhausted_indices",
            "restart_histogram",
            "elapsed",
        ]
        assert (summary.total, summary.successes, summary.exhausted) == (7, 5, 2)
        assert summary == BatchSummary((4, 9), {1: 5, 20000: 2}, elapsed=2.0)
        assert summary != BatchSummary((4, 9), {1: 4, 20000: 2}, elapsed=1.0)

    def test_error_stops_the_workers(self, tmp_path):
        # The first document write fails; the workers must not go on to
        # search (and so pull) the rest of the stream before the error
        # surfaces.
        stream_length = 20000
        pulled = 0

        def pairs():
            nonlocal pulled
            p = canonical_profile_at(3, 0)
            for i in range(stream_length):
                pulled += 1
                yield i, p

        with pytest.raises(OSError):
            batch_run(
                pairs(), HeuristicConfig(), workers=2, out_dir=str(tmp_path / "missing")
            )
        assert pulled < stream_length // 2

    @pytest.mark.parametrize(
        "position, error, raised, match",
        [
            (1, LookupError("bad item"), LookupError, "bad item"),
            # An error that cannot be pickled arrives as a RuntimeError
            # carrying its repr.
            (1, UnpicklableError("no pickle"), RuntimeError, "UnpicklableError"),
            (0, LookupError("bad item"), LookupError, "bad item"),
        ],
        ids=["child", "child-unpicklable", "parent"],
    )
    def test_error_in_a_share_stops_every_worker(
        self, monkeypatch, position, error, raised, match
    ):
        # Position 1 is in the one child's share and position 0 in this
        # process's; every share is long. An error in either must stop the
        # call long before a share would end and leave no process behind.
        monkeypatch.setattr(
            heuristic.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        stream_length = 20000
        pulled = 0

        def pairs():
            nonlocal pulled
            p = canonical_profile_at(3, 0)
            for i in range(stream_length):
                pulled += 1
                yield i, _BadProfile(error) if i == position else p

        with pytest.raises(raised, match=match):
            batch_run(pairs(), HeuristicConfig(), workers=2)
        assert pulled < stream_length // 4
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_killed_child_stops_every_worker(self, monkeypatch):
        # The one child is killed by its first item, at position 1, and so
        # sends nothing; then, in the second case, it is killed half-way
        # through sending a share. Either way the call must raise
        # ChildProcessError naming its exit code long before this process's
        # share would end, unpickle nothing, and leave no process behind.
        monkeypatch.setattr(
            heuristic.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        stream_length = 20000
        pulled = 0
        killer = _KilledProfile()

        def pairs():
            nonlocal pulled
            p = canonical_profile_at(3, 0)
            for i in range(stream_length):
                pulled += 1
                yield i, killer if i == 1 else p

        for mid_send in (False, True):
            if mid_send:
                monkeypatch.setattr(heuristic, "_search_share_and_exit", die_mid_send)
            pulled = 0
            with pytest.raises(ChildProcessError, match="-9"):
                batch_run(pairs(), HeuristicConfig(), workers=2)
            assert pulled < stream_length // 4
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

    def test_first_error_sent_is_raised_at_once(self, monkeypatch):
        # Three workers, one item each: child 1's item sleeps and then
        # raises, child 2's raises at once. Child 2's error must surface at
        # once, though child 1 was forked first, and child 1 must be killed.
        monkeypatch.setattr(
            heuristic.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        stream = [
            (0, canonical_profile_at(3, 0)),
            (1, _SlowBadProfile(LookupError("slow"), 3.0)),
            (2, _BadProfile(LookupError("bad item"))),
        ]
        t0 = time.perf_counter()
        with pytest.raises(LookupError, match="bad item"):
            batch_run(stream, HeuristicConfig(), workers=3)
        assert time.perf_counter() - t0 < 1.5
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_many_open_files(self, monkeypatch):
        # With 1,100 more descriptors open, the children's pipes get numbers
        # above FD_SETSIZE (1,024), which select() refuses; the wait must
        # still see them.
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if hard != resource.RLIM_INFINITY and hard < 1200:
            pytest.skip(f"the hard limit on open files is {hard}")
        monkeypatch.setattr(
            heuristic.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False
        )
        stream = [(i, canonical_profile_at(4, 0)) for i in range(50)]
        want = summary_json(batch_run(stream, HeuristicConfig()))
        resource.setrlimit(resource.RLIMIT_NOFILE, (hard, hard))
        held = []
        try:
            held.extend(os.open(os.devnull, os.O_RDONLY) for _ in range(1100))
            assert summary_json(batch_run(stream, HeuristicConfig(), workers=2)) == want
        finally:
            for fd in held:
                os.close(fd)
            resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))

    def test_failed_fork_stops_every_worker(self, monkeypatch):
        # The second of two forks fails (simulated: no process is started
        # for it). The call must raise that error, kill and reap the first
        # child, and close every pipe it opened.
        monkeypatch.setattr(
            heuristic.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        fork = os.fork
        forks = 0

        def fork_once():
            nonlocal forks
            forks += 1
            if forks == 2:
                raise OSError(errno.EAGAIN, "simulated fork failure")
            return fork()

        monkeypatch.setattr(heuristic.os, "fork", fork_once)
        stream = [(i, canonical_profile_at(3, 0)) for i in range(20000)]
        fd_dir = "/proc/self/fd"
        open_fds = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
        with pytest.raises(OSError, match="simulated") as exc:
            batch_run(stream, HeuristicConfig(), workers=3)
        assert exc.value.errno == errno.EAGAIN and forks == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        if open_fds is not None:
            assert len(os.listdir(fd_dir)) == open_fds
