import itertools
import json
import math
import random
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from pref2d import (
    DocumentParseError,
    Embedding,
    Point,
    Profile,
    VerificationReport,
    Violation,
    dist,
    distance_matrix,
    embed_three_alternatives,
    embed_two_voters,
    profile_from_document,
    read_embedding,
    render_svg,
    restrict,
    restrict_embedding,
    verify,
    write_embedding,
)
from pref2d.embedding import encode_report

from conftest import profiles, random_profile

ALL_SIX_ORDERS = list(itertools.permutations(range(3)))

# Voter 1 ranks alternative 1 first, but alternative 2 is nearer. Both
# distances overflow to inf, so their difference is NaN, which no margin
# check catches.
OVERFLOW_DOCUMENT = json.dumps(
    {
        "m": 2,
        "n": 1,
        "profile": [[1, 2]],
        "voters": [[1e308, 1e308]],
        "alternatives": [[-1e308, -1e308], [-9e307, -9e307]],
    }
)


@st.composite
def random_documents(draw):
    """Arguments of write_embedding: finite coordinates of every kind,
    reports with violations or an infinite slack, scalar seeds, and flat,
    empty, nested or key-converting configs."""
    p = draw(profiles(max_m=5, max_n=3))
    number = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e308, -1e308]),
        st.integers(-(2**60), 2**60),
    )
    point = st.builds(Point, number, number)
    e = Embedding(
        tuple(draw(point) for _ in range(p.n)), tuple(draw(point) for _ in range(p.m))
    )
    violation = st.builds(
        Violation,
        st.integers(0, p.n - 1), st.integers(0, p.m - 1), st.integers(0, p.m - 1),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    report = VerificationReport(
        draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.inf))),
        tuple(draw(st.lists(violation, max_size=3))),
    )
    # Strings that json escapes, or writes as non-ASCII \u escapes.
    text = st.text(st.sampled_from('az"\\/\n\t\x00\x7f\u00e9\u20ac\u2028\U0001f600'))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    scalar = st.none() | st.booleans() | st.integers() | text | finite
    value = st.recursive(
        scalar,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(text, inner, max_size=3),
        max_leaves=8,
    )
    # Flat objects with str keys are laid out by write_embedding itself;
    # keys that json converts (int, float, bool, None) and nesting are not.
    config = st.one_of(
        value,
        st.dictionaries(text, scalar, min_size=1, max_size=4),
        st.dictionaries(st.none() | st.booleans() | st.integers() | finite | text, scalar,
                        min_size=1, max_size=4),
        st.just({}),
        st.just([]),
    )
    metadata = draw(
        st.fixed_dictionaries({}, optional={"seed": scalar, "config": config, "other": value})
    )
    return p, e, report, metadata


_NUMBER = st.one_of(
    st.integers(),
    st.sampled_from([10**400, -(10**400)]),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf]),
)
_ITEM = st.one_of(
    _NUMBER, st.booleans(), st.text(max_size=2), st.none(), st.lists(_NUMBER, max_size=2)
)
# One entry of a document's point list: a pair of numbers (which the reader
# accepts when both are finite), a list of 0-3 items of any kind, an object,
# a string or null.
COORDINATE_ENTRY = st.one_of(
    st.lists(_NUMBER, min_size=2, max_size=2),
    st.lists(_ITEM, max_size=3),
    st.dictionaries(st.text(max_size=1), _NUMBER, max_size=2),
    st.text(max_size=2),
    st.none(),
)


def three_alt_profile(orders):
    return Profile.of(3, orders)


class TestVerify:
    def test_table_voter_passes(self):
        p = three_alt_profile([(0, 1, 2)])
        e = Embedding((Point(2, 2),), (Point(0, 2), Point(2, -1), Point(-2, -1)))
        report = verify(p, e, 0.0)
        assert report.ok
        assert report.min_slack == 1.0
        assert distance_matrix(p, e)[0] == (2.0, 3.0, 5.0)

    def test_contradicted_order_fails(self):
        p = three_alt_profile([(0, 2, 1)])
        e = Embedding((Point(2, 2),), (Point(0, 2), Point(2, -1), Point(-2, -1)))
        report = verify(p, e, 0.0)
        assert not report.ok
        assert any(v.preferred == 2 and v.other == 1 for v in report.violations)

    def test_shared_point_is_violation(self):
        p = Profile.of(2, [(0, 1)])
        e = Embedding((Point(0, 0),), (Point(1, 1), Point(1, 1)))
        report = verify(p, e, 0.0)
        assert not report.ok
        assert report.min_slack == 0.0

    def test_dimension_mismatch(self):
        p = three_alt_profile([(0, 1, 2)])
        e = Embedding((Point(0, 0),), (Point(1, 0), Point(2, 0)))
        with pytest.raises(ValueError):
            verify(p, e, 0.0)

    def test_non_finite_coordinate_rejected(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="non-finite"):
                Embedding((Point(0, bad),), (Point(1, 0),))
            with pytest.raises(ValueError, match="non-finite"):
                Embedding((Point(0, 0),), (Point(1, 0), Point(bad, 0)))

    def test_int_coordinates_stored_as_floats(self):
        e = Embedding((Point(1, 2),), (Point(-3, 0.5),))
        assert e.voter_points == (Point(1.0, 2.0),)
        assert [type(c) for p in (*e.voter_points, *e.alt_points) for c in p] == [float] * 4

    @pytest.mark.parametrize("bad", [True, "1", 10**400], ids=["bool", "str", "huge-int"])
    def test_non_number_coordinate_rejected(self, bad):
        with pytest.raises(ValueError):
            Embedding((Point(bad, 0.0),), (Point(1.0, 0.0),))
        with pytest.raises(ValueError):
            Embedding((Point(0.0, 0.0),), (Point(0.0, bad),))

    def test_margin_turns_small_slack_into_violation(self):
        p = Profile.of(2, [(0, 1)])
        e = Embedding((Point(0, 0),), (Point(1, 0), Point(1.5, 0)))
        assert verify(p, e, 0.4).ok
        assert not verify(p, e, 0.5).ok
        assert not verify(p, e, 0.6).ok

    def test_negative_or_nan_margin_rejected(self):
        # A fully reversed embedding: every consecutive slack is -1, so a
        # margin below -1 would accept it.
        p = Profile.of(3, [(0, 1, 2)])
        e = Embedding((Point(0, 0),), (Point(3, 0), Point(2, 0), Point(1, 0)))
        assert not verify(p, e, 0.0).ok
        for margin in (-5.0, -1e-12, math.nan):
            with pytest.raises(ValueError):
                verify(p, e, margin)

    def test_overflowing_distance_rejected(self):
        e, doc = read_embedding(OVERFLOW_DOCUMENT)
        p = profile_from_document(doc)
        for margin in (0.0, 1.0):
            with pytest.raises(ValueError, match="overflow"):
                verify(p, e, margin)

    def test_one_overflow_refusal(self):
        # distance_matrix refuses the overflow for both of its callers.
        e, doc = read_embedding(OVERFLOW_DOCUMENT)
        p = profile_from_document(doc)

        def write(p, e):
            return write_embedding(p, e, VerificationReport(1.0, ()))

        messages = set()
        for call in (distance_matrix, verify, write):
            with pytest.raises(ValueError, match="overflow") as info:
                call(p, e)
            messages.add(str(info.value))
        assert len(messages) == 1 and "non-finite" in messages.pop()

    def test_report_stores_only_slack_and_violations(self):
        p = Profile.of(2, [(0, 1)])
        good = verify(p, Embedding((Point(0, 0),), (Point(1, 0), Point(2, 0))), 0.0)
        bad = verify(p, Embedding((Point(0, 0),), (Point(2, 0), Point(1, 0))), 0.0)
        assert [f.name for f in fields(VerificationReport)] == ["min_slack", "violations"]
        assert good.ok and good.violations == ()
        assert not bad.ok and len(bad.violations) == 1

    def test_single_alternative_trivially_ok(self):
        p = Profile.of(1, [(0,)])
        e = Embedding((Point(0, 0),), (Point(1, 0),))
        report = verify(p, e, 0.0)
        assert report.ok and report.min_slack == math.inf

    def test_exact_equidistance_is_violation(self):
        # Distinct points, bit-identical distances: no tie may pass.
        p = Profile.of(2, [(0, 1)])
        e = Embedding((Point(0, 0),), (Point(1, 0), Point(0, 1)))
        report = verify(p, e, 0.0)
        assert not report.ok
        assert report.min_slack == 0.0

    @given(profiles(max_m=6, max_n=3), st.data(), st.sampled_from([0.0, 1e-7, 0.5]))
    def test_report_matches_reference(self, p, data, margin):
        # Small-integer coordinates make exact ties; the reference walks
        # each order's consecutive pairs over distance_matrix.
        coord = st.integers(-3, 3).map(float) | st.floats(-10, 10)
        point = st.builds(Point, coord, coord)
        e = Embedding(
            tuple(data.draw(point) for _ in range(p.n)),
            tuple(data.draw(point) for _ in range(p.m)),
        )
        rows = distance_matrix(p, e)
        slacks, violations = [], []
        for i, order in enumerate(p.orders):
            for a, b in zip(order.ranking, order.ranking[1:]):
                slack = rows[i][b] - rows[i][a]
                slacks.append(slack)
                if slack <= margin:
                    violations.append(Violation(i, a, b, rows[i][a], rows[i][b]))
        report = verify(p, e, margin)
        assert repr(report.min_slack) == repr(min(slacks, default=math.inf))
        assert report.violations == tuple(violations)

    @given(profiles(max_m=5, max_n=2), st.floats(-50, 50), st.floats(-50, 50), st.floats(0, 2 * math.pi))
    @settings(max_examples=60)
    def test_rigid_motion_invariance(self, p, dx, dy, theta):
        e = embed_two_voters(p)
        c, s = math.cos(theta), math.sin(theta)

        def move(q):
            return Point(c * q.x - s * q.y + dx, s * q.x + c * q.y + dy)

        moved = Embedding(
            tuple(move(q) for q in e.voter_points),
            tuple(move(q) for q in e.alt_points),
        )
        base = verify(p, e, 0.0)
        got = verify(p, moved, 0.0)
        assert got.ok == base.ok
        if math.isinf(base.min_slack):
            assert math.isinf(got.min_slack)
        else:
            assert abs(got.min_slack - base.min_slack) <= 1e-9


class TestTwoVoterConstruction:
    def test_worked_example(self):
        p = Profile.of(3, [(0, 1, 2), (2, 1, 0)])
        e = embed_two_voters(p)
        assert e.voter_points == (Point(-9, 0), Point(0, -9))
        assert e.alt_points == (Point(0, 2), Point(1, 1), Point(2, 0))
        row = distance_matrix(p, e)[0]
        assert row == (math.sqrt(85), math.sqrt(101), 11.0)
        assert verify(p, e, 0.0).ok

    def test_single_alternative(self):
        p = Profile.of(1, [(0,)])
        e = embed_two_voters(p)
        assert e.voter_points == (Point(-1, 0),)
        assert e.alt_points == (Point(0, 0),)
        assert verify(p, e, 0.0).ok

    def test_single_voter(self):
        p = Profile.of(4, [(3, 1, 0, 2)])
        e = embed_two_voters(p)
        assert verify(p, e, 0.0).ok

    def test_identical_orders_lenient(self):
        p = Profile.of(3, [(1, 0, 2), (1, 0, 2)])
        e = embed_two_voters(p)
        assert e.alt_points == (Point(1, 1), Point(0, 0), Point(2, 2))
        assert verify(p, e, 0.0).ok

    def test_rejects_three_voters(self):
        p = Profile.of(2, [(0, 1), (1, 0)])
        bigger = Profile.of(3, [(0, 1, 2), (1, 0, 2), (2, 1, 0)])
        embed_two_voters(p)
        with pytest.raises(ValueError):
            embed_two_voters(bigger)

    def rank_band_holds(self, p, e):
        m = p.m
        for i, v in enumerate(e.voter_points):
            for a in range(m):
                rk = p.orders[i].rank_of(a)
                d = dist(v, e.alt_points[a])
                assert m * m + rk <= d < m * m + rk + 1

    def test_band_exhaustive_small(self):
        for m in (2, 3):
            perms = list(itertools.permutations(range(m)))
            for r1, r2 in itertools.combinations(perms, 2):
                p = Profile.of(m, [r1, r2])
                e = embed_two_voters(p)
                assert verify(p, e, 0.0).ok
                self.rank_band_holds(p, e)

    def test_band_sampled_larger(self):
        rng = random.Random(41)
        for m in (6, 7, 8):
            for _ in range(30):
                p = random_profile(rng, m, 2)
                e = embed_two_voters(p)
                assert verify(p, e, 0.0).ok
                self.rank_band_holds(p, e)


class TestThreeAlternativeConstruction:
    def test_paper_distances(self):
        p = three_alt_profile([(0, 1, 2)])
        e = embed_three_alternatives(p)
        assert distance_matrix(p, e)[0] == (2.0, 3.0, 5.0)

    def test_all_six_orders_verify(self):
        p = three_alt_profile(ALL_SIX_ORDERS)
        e = embed_three_alternatives(p)
        assert verify(p, e, 0.0).ok
        assert len(set(e.voter_points)) == 6

    def test_every_subset_verifies(self):
        for r in range(1, 7):
            for subset in itertools.combinations(ALL_SIX_ORDERS, r):
                p = three_alt_profile(subset)
                assert verify(p, embed_three_alternatives(p), 0.0).ok

    def test_m2(self):
        # (1, 0) extends to (1, 0, 2): the m = 3 table's point, restricted.
        p = Profile.of(2, [(1, 0)])
        e = embed_three_alternatives(p)
        assert e.voter_points == (Point(2, 0),)
        assert e.alt_points == (Point(0, 2), Point(2, -1))
        d = distance_matrix(p, e)[0]
        assert d == (math.sqrt(8), 1.0)
        assert verify(p, e, 0.0).ok

    def test_m1(self):
        p = Profile.of(1, [(0,)])
        e = embed_three_alternatives(p)
        assert verify(p, e, 0.0).ok

    def test_fewer_alternatives_restrict_the_table(self):
        # Every tuple of 1-4 orders over m <= 3, repeats allowed: 1,588
        # profiles. Below m = 3 the points are the m = 3 table's for the
        # orders extended by the missing alternatives in index order.
        checked = 0
        for m in (1, 2, 3):
            missing = tuple(range(m, 3))
            orders = list(itertools.permutations(range(m)))
            for n in range(1, 5):
                for rankings in itertools.product(orders, repeat=n):
                    p = Profile.of(m, rankings)
                    e = embed_three_alternatives(p)
                    assert verify(p, e, 0.0).ok
                    full = Profile.of(3, [r + missing for r in rankings])
                    assert e == restrict_embedding(
                        embed_three_alternatives(full), range(m)
                    )
                    checked += 1
        assert checked == 1588

    def test_rejects_m4(self):
        p = Profile.of(4, [(0, 1, 2, 3)])
        with pytest.raises(ValueError):
            embed_three_alternatives(p)


class TestRestrictionMonotonicity:
    @given(profiles(max_m=6, max_n=2), st.data())
    @settings(max_examples=100)
    def test_restriction_still_verifies(self, p, data):
        e = embed_two_voters(p)
        assert verify(p, e, 0.0).ok
        keep = data.draw(st.sets(st.integers(0, p.m - 1), min_size=1))
        q = restrict(p, keep)
        f = restrict_embedding(e, keep)
        assert verify(q, f, 0.0).ok

    def test_empty_keep_rejected(self):
        e = Embedding((Point(0, 0),), (Point(1, 0), Point(2, 0)))
        with pytest.raises(ValueError, match="non-empty"):
            restrict_embedding(e, [])

    def test_keep_out_of_range_rejected(self):
        # As profiles.restrict: -1 does not wrap to the last alternative.
        e = Embedding((Point(0, 0),), (Point(1, 0), Point(2, 0), Point(3, 0)))
        for keep in ([3], [0, -1]):
            with pytest.raises(ValueError, match="out of range"):
                restrict_embedding(e, keep)


class TestDocuments:
    def make(self):
        p = Profile.of(3, [(0, 1, 2), (2, 1, 0)])
        e = embed_two_voters(p)
        report = verify(p, e, 0.0)
        return p, e, report

    def test_roundtrip_bit_exact(self):
        p, e, report = self.make()
        text = write_embedding(p, e, report, metadata={"seed": 7, "config": {"k": 1}})
        emb, doc = read_embedding(text)
        assert emb == e
        assert doc["m"] == p.m and doc["n"] == p.n
        assert doc["seed"] == 7 and doc["config"] == {"k": 1}
        assert doc["distances"] == [list(r) for r in distance_matrix(p, e)]
        assert profile_from_document(doc) == p

    def test_document_profile_is_one_based(self):
        p, e, report = self.make()
        _, doc = read_embedding(write_embedding(p, e, report))
        assert doc["profile"] == [[1, 2, 3], [3, 2, 1]]

    def test_failed_verification_carries_violations(self):
        p = Profile.of(2, [(0, 1)])
        e = Embedding((Point(0, 0),), (Point(2, 0), Point(1, 0)))
        report = verify(p, e, 0.0)
        text = write_embedding(p, e, report)
        _, doc = read_embedding(text)
        assert doc["ok"] is False
        assert doc["violations"], "violation list must be present"

    def test_truncated_document(self):
        p, e, report = self.make()
        text = write_embedding(p, e, report)
        with pytest.raises(DocumentParseError):
            read_embedding(text[: len(text) // 2])

    def test_missing_field(self):
        with pytest.raises(DocumentParseError):
            read_embedding('{"m": 1, "n": 1, "voters": [[0, 0]]}')

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            pytest.param("[1, 2]", "JSON object", id="not-an-object"),
            pytest.param("[" * 100_000, "nested too deeply", id="deeply-nested"),
            pytest.param(
                '{"m": 0, "n": 1, "voters": [[0, 0]], "alternatives": []}',
                "bad dimensions", id="bad-dimensions",
            ),
            pytest.param(
                '{"m": true, "n": true, "profile": [[1]], "voters": [[0, 0]], '
                '"alternatives": [[1, 0]]}',
                "bad dimensions", id="boolean-dimensions",
            ),
            pytest.param(
                '{"m": 1, "n": 2, "voters": [[0, 0]], "alternatives": [[1, 0]]}',
                "must list", id="wrong-point-count",
            ),
            pytest.param(
                '{"m": 1, "n": 1, "voters": [[0, "x"]], "alternatives": [[1, 0]]}',
                "bad coordinate", id="bad-coordinate",
            ),
            pytest.param(
                '{"m": 1, "n": 1, "profile": [[1]], "voters": [[true, false]], '
                '"alternatives": [[1, 0]]}',
                "bad coordinate", id="boolean-coordinate",
            ),
            pytest.param(
                '{"m": 1, "n": 1, "profile": [[1]], "voters": [[1%s, 0]], '
                '"alternatives": [[1, 0]]}' % ("0" * 400),
                "bad coordinate", id="huge-integer-coordinate",
            ),
            *(
                pytest.param(
                    '{"m": 1, "n": 1, "profile": [[1]], "voters": [[%s, 0.5]], '
                    '"alternatives": [[1.0, 0.0]]}' % token,
                    "bad coordinate", id=f"{token}-coordinate",
                )
                for token in ("NaN", "Infinity", "-Infinity")
            ),
            pytest.param(
                '{"m": 1, "n": 1, "profile": [[1]], "voters": [[0.5, 0.5, 0.5]], '
                '"alternatives": [[1.0, 0.0]]}',
                "bad coordinate", id="three-element-point",
            ),
            pytest.param(
                '{"m": 1, "n": 1, "profile": [[1]], "voters": [{"x": 0, "y": 0}], '
                '"alternatives": [[1.0, 0.0]]}',
                "bad coordinate", id="object-point",
            ),
            pytest.param(
                '{"m": 1.0, "n": 1, "profile": [[1]], "voters": [[0.5, 0.5]], '
                '"alternatives": [[1.0, 0.0]]}',
                "bad dimensions", id="float-dimension",
            ),
            pytest.param(
                '{"m": 2, "n": 1, "profile": [[1, 1]], "voters": [[0, 0]], '
                '"alternatives": [[1, 0], [2, 0]]}',
                "bad profile field", id="bad-profile",
            ),
            pytest.param(
                '{"m": 1, "n": 1, "profile": [[true]], "voters": [[0, 0]], '
                '"alternatives": [[1, 0]]}',
                "bad profile field", id="boolean-profile-id",
            ),
            pytest.param(
                '{"m": 1, "n": 1, "profile": [[1], [1]], "voters": [[0.0, 0.0]], '
                '"alternatives": [[1.0, 0.0]]}',
                "bad profile field", id="profile-rows-not-n",
            ),
        ],
    )
    def test_malformed_document_rejected(self, text, message):
        with pytest.raises(DocumentParseError, match=message):
            _, doc = read_embedding(text)
            profile_from_document(doc)

    @given(st.lists(COORDINATE_ENTRY, min_size=1, max_size=3))
    @settings(max_examples=500)
    def test_reader_keeps_the_per_entry_coordinate_rule(self, voters):
        # The reference rule, written out entry by entry: a list of two
        # ints or floats, no bool, each within the float range.
        def reference(entry):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(type(c) in (int, float) for c in entry)
                or not all(abs(c) <= sys.float_info.max for c in entry)
            ):
                return None
            return (float(entry[0]), float(entry[1]))

        # json.dumps writes NaN and Infinity tokens, which json.loads reads.
        text = json.dumps({
            "m": 1, "n": len(voters), "profile": [[1]] * len(voters),
            "voters": voters, "alternatives": [[1.0, 0.0]],
        })
        expected = [reference(entry) for entry in json.loads(text)["voters"]]
        if None in expected:
            with pytest.raises(DocumentParseError):
                read_embedding(text)
        else:
            e, _ = read_embedding(text)
            assert [tuple(map(float.hex, v)) for v in e.voter_points] == [
                tuple(map(float.hex, v)) for v in expected
            ]

    def test_write_refuses_mismatched_point_counts(self):
        p = Profile.of(2, [(0, 1)])
        for e in (
            Embedding((Point(0.0, 0.0),), (Point(1.0, 0.0),)),
            Embedding((Point(0.0, 0.0),) * 2, (Point(1.0, 0.0), Point(2.0, 0.0))),
        ):
            with pytest.raises(ValueError, match="profile needs 1 / 2"):
                write_embedding(p, e, VerificationReport(1.0, ()))

    def test_mismatched_m_fails_on_verify(self):
        p, e, report = self.make()
        emb, doc = read_embedding(write_embedding(p, e, report))
        other = Profile.of(4, [(0, 1, 2, 3)])
        with pytest.raises(ValueError):
            verify(other, emb, 0.0)

    @given(random_documents())
    @settings(max_examples=300)
    def test_layout_is_json_dumps(self, args):
        # The reference: the document dict through json's own indenting
        # encoder, which writes Infinity where write_embedding must refuse.
        p, e, report, metadata = args
        rows = [
            [math.hypot(vx - ax, vy - ay) for ax, ay in e.alt_points]
            for vx, vy in e.voter_points
        ]
        doc = {
            "m": p.m,
            "n": p.n,
            "profile": [[a + 1 for a in o.ranking] for o in p.orders],
            "voters": [list(v) for v in e.voter_points],
            "alternatives": [list(a) for a in e.alt_points],
            "distances": [list(row) for row in rows],
            "min_slack": report.min_slack if math.isfinite(report.min_slack) else None,
            "ok": report.ok,
            "violations": [
                [v.voter + 1, v.preferred + 1, v.other + 1, v.d_preferred, v.d_other]
                for v in report.violations
            ],
            **{k: metadata[k] for k in ("seed", "config") if k in metadata},
        }
        if all(math.isfinite(d) for row in rows for d in row):
            assert write_embedding(p, e, report, metadata) == json.dumps(doc, indent=2) + "\n"
        else:
            with pytest.raises(ValueError, match="non-finite"):
                write_embedding(p, e, report, metadata)

    def test_non_finite_number_refused(self):
        # Both distances overflow to inf; strict JSON has no token for it.
        p = Profile.of(2, [(0, 1)])
        e = Embedding((Point(-1e308, 0.0),), (Point(1e308, 0.0), Point(1e308, 1.0)))
        report = VerificationReport(1.0, ())
        with pytest.raises(ValueError, match="non-finite"):
            write_embedding(p, e, report)
        bad_slack = Violation(0, 0, 1, 1.0, math.nan)
        with pytest.raises(ValueError):
            write_embedding(p, embed_two_voters(p), VerificationReport(1.0, (bad_slack,)))
        with pytest.raises(ValueError):
            write_embedding(p, embed_two_voters(p), report, {"config": {"x": math.inf}})
        text = write_embedding(p, embed_two_voters(p), VerificationReport(math.inf, ()))
        assert json.loads(text, parse_constant=pytest.fail)["min_slack"] is None

    def test_only_an_infinite_slack_is_null(self):
        # null stands for m = 1's inf; NaN and -inf reach the strict encoder.
        p = Profile.of(2, [(0, 1)])
        for slack in (math.nan, -math.inf):
            report = VerificationReport(slack, ())
            with pytest.raises(ValueError):
                write_embedding(p, embed_two_voters(p), report)
            with pytest.raises(ValueError):
                json.dumps(encode_report(report), allow_nan=False)
        one = Profile.of(1, [(0,), (0,)])
        e = embed_two_voters(one)
        report = verify(one, e)
        assert report.min_slack == math.inf and encode_report(report)["min_slack"] is None
        text = write_embedding(one, e, report)
        assert json.loads(text, parse_constant=pytest.fail)["min_slack"] is None

    @given(profiles(max_m=5, max_n=2))
    @settings(max_examples=50)
    def test_roundtrip_random_profiles(self, p):
        e = embed_two_voters(p)
        report = verify(p, e, 0.0)
        emb, doc = read_embedding(write_embedding(p, e, report))
        assert emb == e
        assert doc["min_slack"] == report.min_slack or (
            doc["min_slack"] is None and report.min_slack == math.inf
        )


class TestRenderSvg:
    def test_structure(self):
        p = three_alt_profile(ALL_SIX_ORDERS)
        e = embed_three_alternatives(p)
        svg = render_svg(p, e)
        assert svg.startswith("<svg")
        assert svg.count("<circle") == p.m
        assert svg.count("<rect") == p.n
        assert svg.count("<text") == p.n + p.m
        assert ">a1<" in svg and ">v6<" in svg

    def test_deterministic(self):
        p = three_alt_profile([(0, 1, 2)])
        e = embed_three_alternatives(p)
        assert render_svg(p, e) == render_svg(p, e)

    def test_six_distinct_voter_positions(self):
        p = three_alt_profile(ALL_SIX_ORDERS)
        e = embed_three_alternatives(p)
        assert len(set(e.voter_points)) == 6

    def test_dimension_mismatch(self):
        p = three_alt_profile([(0, 1, 2)])
        e = Embedding((Point(0, 0), Point(1, 1)), (Point(0, 2), Point(2, -1), Point(-2, -1)))
        with pytest.raises(ValueError):
            render_svg(p, e)

    def test_overflowing_extent_rejected(self):
        e, doc = read_embedding(OVERFLOW_DOCUMENT)
        with pytest.raises(ValueError, match="overflow"):
            render_svg(profile_from_document(doc), e)
