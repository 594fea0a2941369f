import math
import os
import subprocess
import sys
from dataclasses import fields
from functools import cache
from itertools import accumulate, combinations, permutations

import pytest
from hypothesis import given, strategies as st

import pref2d
from pref2d import (
    Embedding,
    Point,
    PreferenceOrder,
    Profile,
    ProfileParseError,
    canonical_profile_at,
    canonicalize,
    count_canonical,
    enumerate_canonical,
    kendall_distance,
    parse_profile,
    rank,
    restrict,
    restrict_embedding,
    serialize_profile,
)
from pref2d.profiles import _order_at

from conftest import profiles


@cache
def _stream(m):
    return list(enumerate_canonical(m))


class TestRank:
    def test_top_ranked_is_zero(self):
        p = Profile.of(3, [(0, 1, 2)])
        assert rank(p, 0, 0) == 0

    def test_bottom_ranked(self):
        p = Profile.of(3, [(0, 1, 2)])
        assert rank(p, 0, 2) == 2

    def test_by_position_count(self):
        p = Profile.of(3, [(2, 0, 1)])
        assert rank(p, 0, 0) == 1

    def test_out_of_range(self):
        p = Profile.of(3, [(0, 1, 2)])
        with pytest.raises(IndexError):
            rank(p, 1, 0)
        with pytest.raises(IndexError):
            rank(p, 0, 3)
        with pytest.raises(IndexError):
            rank(p, -1, 0)

    @given(profiles())
    def test_strict_total_order(self, p):
        for i in range(p.n):
            for a in range(p.m):
                for b in range(a + 1, p.m):
                    assert (rank(p, i, a) < rank(p, i, b)) != (
                        rank(p, i, b) < rank(p, i, a)
                    )


class TestConstruction:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            PreferenceOrder((0, 0, 1))
        with pytest.raises(ValueError):
            PreferenceOrder((1, 2, 3))

    def test_strict_rejects_duplicates(self):
        # The model admits repeated orders; strict parsing is the one check.
        p = Profile.of(2, [(0, 1), (0, 1)])
        with pytest.raises(ProfileParseError, match="line 3"):
            parse_profile(serialize_profile(p))

    def test_lenient_flags_relaxation(self):
        p = Profile.of(2, [(0, 1), (0, 1)])
        assert p.n == 2 and p.orders[0] == p.orders[1]
        assert [f.name for f in fields(Profile)] == ["m", "orders"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Profile(3, (PreferenceOrder((0, 1)),))

    def test_empty(self):
        with pytest.raises(ValueError):
            Profile.of(3, [])
        with pytest.raises(ValueError, match="at least one alternative"):
            Profile(0, (PreferenceOrder(()),))

    def test_m_must_be_an_int(self):
        # Each m equals its order's length, so only the type is wrong.
        for m, ranking in ((2.0, (0, 1)), (True, (0,))):
            with pytest.raises(ValueError, match="int m"):
                Profile(m, (PreferenceOrder(ranking),))

    def test_ids_must_be_ints(self):
        # bool is an int subclass; the ids, like m, must be exactly ints.
        with pytest.raises(ValueError, match="not a permutation"):
            PreferenceOrder((True, False))
        with pytest.raises(ValueError, match="not a permutation"):
            Profile.of(2, [(False, True)])


class TestParseSerialize:
    def test_direct_transcription(self):
        p = parse_profile("3 2\n1 2 3\n3 2 1\n")
        assert p.m == 3 and p.n == 2
        assert [o.ranking for o in p.orders] == [(0, 1, 2), (2, 1, 0)]

    def test_not_a_permutation(self):
        with pytest.raises(ProfileParseError, match="line 2"):
            parse_profile("3 1\n1 1 2\n")

    def test_duplicate_order_strict(self):
        with pytest.raises(ProfileParseError, match="line 3"):
            parse_profile("2 2\n1 2\n1 2\n")

    def test_duplicate_order_lenient(self):
        p = parse_profile("2 2\n1 2\n1 2\n", strict=False)
        assert p == Profile.of(2, [(0, 1), (0, 1)])

    def test_comments_and_blanks_ignored(self):
        p = parse_profile("# header\n\n2 1\n# voter\n1 2\n")
        assert p.m == 2 and p.n == 1

    def test_malformed_header(self):
        cases = [
            ("3\n1 2 3\n", 1),
            ("# m n\nx 1\n1\n", 2),
            ("0 1\n1\n", 1),
            ("3 1\n1 2\n", 2),
            ("2 1\n\n1 b\n", 3),
            ("# nothing\n\n", None),
        ]
        for text, line in cases:
            with pytest.raises(ProfileParseError) as exc:
                parse_profile(text)
            assert exc.value.line == line, text

    def test_missing_voters(self):
        with pytest.raises(ProfileParseError):
            parse_profile("3 2\n1 2 3\n")

    def test_trailing_content(self):
        with pytest.raises(ProfileParseError, match="line 3"):
            parse_profile("2 1\n1 2\n2 1\n")

    def test_serialize_single_voter(self):
        assert serialize_profile(Profile.of(2, [(0, 1)])) == "2 1\n1 2\n"

    @given(profiles())
    def test_parse_of_serialize_is_identity(self, p):
        assert parse_profile(serialize_profile(p)) == p

    @given(profiles())
    def test_serialize_of_parse_is_identity(self, p):
        text = serialize_profile(p)
        assert serialize_profile(parse_profile(text)) == text


class TestCanonicalize:
    def test_relabeling_example(self):
        # Relabel 2->0, 0->1, 1->2 so voter 0 becomes the identity.
        p = Profile.of(3, [(2, 0, 1), (1, 0, 2)])
        q = canonicalize(p)
        assert [o.ranking for o in q.orders] == [(0, 1, 2), (2, 1, 0)]

    def test_identity_first_fixed_point(self):
        p = Profile.of(3, [(0, 1, 2), (2, 1, 0), (1, 0, 2)])
        q = canonicalize(p)
        assert q.orders[0].ranking == (0, 1, 2)
        assert sorted(o.ranking for o in q.orders[1:]) == [(1, 0, 2), (2, 1, 0)]

    @given(profiles())
    def test_idempotent(self, p):
        q = canonicalize(p)
        assert canonicalize(q) == q

    @given(profiles())
    def test_voter0_pinned_to_identity(self, p):
        q = canonicalize(p)
        assert q.orders[0].ranking == tuple(range(p.m))


class TestEnumeration:
    def test_count_closed_form(self):
        assert count_canonical(1) == 0
        assert count_canonical(2) == 0
        assert count_canonical(3) == 10
        assert count_canonical(4) == 253
        assert count_canonical(7) == 12_693_241

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_stream_length_matches_count(self, m):
        assert sum(1 for _ in enumerate_canonical(m)) == count_canonical(m)

    def test_m2_empty(self):
        assert list(enumerate_canonical(2)) == []

    def test_emitted_profiles_are_canonical(self):
        for p in enumerate_canonical(4):
            assert p.n == 3
            assert p.orders[0].ranking == (0, 1, 2, 3)
            assert p.orders[1].ranking < p.orders[2].ranking
            assert len({o.ranking for o in p.orders}) == 3
            assert canonicalize(p) == p

    def test_stream_is_lexicographic_and_complete(self):
        for m in (3, 4, 5):
            got = [
                (p.orders[1].ranking, p.orders[2].ranking)
                for p in enumerate_canonical(m)
            ]
            rest = [r for r in permutations(range(m))][1:]
            expect = [
                (rest[i], rest[j])
                for i in range(len(rest))
                for j in range(i + 1, len(rest))
            ]
            assert got == expect

    @pytest.mark.parametrize("m", range(1, 8))
    def test_order_at_unranks_lexicographically(self, m):
        got = [_order_at(m, i).ranking for i in range(math.factorial(m))]
        assert got == list(permutations(range(m)))

    def test_random_access_unranks_only_its_orders(self):
        # A fresh interpreter, so no earlier test has filled the cache: one
        # profile at the largest m costs its three orders, not all m! of them.
        src = os.path.dirname(os.path.dirname(pref2d.__file__))
        code = (
            "import sys; sys.path.insert(0, sys.argv[1]); "
            "from pref2d import profiles; profiles.canonical_profile_at(9, 10**9); "
            "print(profiles._order_at.cache_info().currsize)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code, src], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) <= 3

    def test_range_splitting(self):
        full = list(enumerate_canonical(4))
        pieces = (
            list(enumerate_canonical(4, 0, 100))
            + list(enumerate_canonical(4, 100, 200))
            + list(enumerate_canonical(4, 200))
        )
        assert pieces == full

    def test_profile_at_matches_stream(self):
        for m, total in ((4, 253), (5, 7021)):
            full = list(enumerate_canonical(m))
            assert len(full) == total
            for idx in range(total):
                assert canonical_profile_at(m, idx) == full[idx]
            with pytest.raises(IndexError):
                canonical_profile_at(m, total)

    def test_stream_profiles_equal_validated_ones(self):
        # The stream builds its profiles without Profile's checks; each must
        # equal the checked construction, positions included.
        for m in (4, 5):
            for p in enumerate_canonical(m):
                q = Profile.of(m, [o.ranking for o in p.orders])
                assert p == q and hash(p) == hash(q)
                assert [o.positions for o in p.orders] == [o.positions for o in q.orders]

    @pytest.mark.parametrize("m", [4, 5])
    @pytest.mark.parametrize("kind", ["empty", "single", "mid-row", "row-spanning"])
    @given(data=st.data())
    def test_window_is_slice_of_stream(self, m, kind, data):
        # Row r pairs order r + 1 with orders r + 2..k - 1; its entries are
        # starts[r]..starts[r + 1] - 1.
        full = _stream(m)
        k = math.factorial(m)
        starts = list(accumulate(range(k - 2, 0, -1), initial=0))
        total = starts[-1]
        if kind == "empty":
            a = data.draw(st.integers(0, total + 1))
            b = data.draw(st.integers(0, a))
        elif kind == "single":
            a = data.draw(st.integers(0, total - 1))
            b = a + 1
        elif kind == "mid-row":
            # Rows of three or more entries, without their first and last.
            r = data.draw(st.integers(0, k - 5))
            a = data.draw(st.integers(starts[r] + 1, starts[r + 1] - 2))
            b = data.draw(st.integers(a + 1, starts[r + 1] - 1))
        else:
            r = data.draw(st.integers(0, k - 4))
            a = data.draw(st.integers(starts[r], starts[r + 1] - 1))
            b = data.draw(st.integers(starts[r + 1] + 1, total + 2))
        assert list(enumerate_canonical(m, a, b)) == full[a:b]

    def test_bad_args(self):
        with pytest.raises(ValueError):
            count_canonical(0)
        with pytest.raises(ValueError):
            list(enumerate_canonical(3, start=-1))
        # bool is an int: an unchecked m=True counts 0 profiles; 3.0 fails in factorial.
        for bad in (True, False, 3.0):
            with pytest.raises(ValueError, match="int m"):
                count_canonical(bad)
            with pytest.raises(ValueError, match="int m"):
                list(enumerate_canonical(bad))

    def test_args_checked_at_call(self):
        # No iteration: the stream refuses its arguments when it is built.
        for args in ((3, -1), (4, True), (4, 0, 1.0), (True,), (10,)):
            with pytest.raises(ValueError):
                enumerate_canonical(*args)
        # An empty range yields nothing before the order-table bound is checked.
        assert list(enumerate_canonical(10, 0, 0)) == []

    @pytest.mark.parametrize("bad", [True, False, 1.0, 2.5], ids=["true", "false", "1.0", "2.5"])
    def test_stream_indices_must_be_ints(self, bad):
        with pytest.raises(ValueError, match="int"):
            canonical_profile_at(4, bad)
        with pytest.raises(ValueError, match="int"):
            list(enumerate_canonical(4, bad))
        with pytest.raises(ValueError, match="int"):
            list(enumerate_canonical(4, 0, bad))


class TestRestrict:
    def test_relative_order_preserved(self):
        p = Profile.of(3, [(0, 1, 2)])
        q = restrict(p, {0, 2})
        assert q.m == 2
        assert q.orders[0].ranking == (0, 1)

    def test_keep_all_is_identity(self):
        p = Profile.of(3, [(2, 0, 1), (1, 0, 2)])
        assert restrict(p, range(3)) == p

    def test_empty_keep_rejected(self):
        p = Profile.of(3, [(0, 1, 2)])
        with pytest.raises(ValueError):
            restrict(p, set())

    def test_keep_out_of_range_rejected(self):
        p = Profile.of(3, [(0, 1, 2)])
        for keep in ([p.m], [0, -1]):
            with pytest.raises(ValueError, match="out of range"):
                restrict(p, keep)

    @pytest.mark.parametrize("bad", [True, False, 1.0, 0.0], ids=["true", "false", "1.0", "0.0"])
    def test_alternative_and_voter_indices_must_be_ints(self, bad):
        # bool is an int: an unchecked restrict(p, [True]) keeps alternative 1.
        p = Profile.of(3, [(0, 1, 2), (2, 1, 0)])
        e = Embedding((Point(0, 0),), (Point(1, 0), Point(2, 0), Point(3, 0)))
        for call in (
            lambda: rank(p, bad, 0),
            lambda: rank(p, 0, bad),
            lambda: restrict(p, [bad]),
            lambda: restrict(p, [0, bad]),
            lambda: restrict_embedding(e, [bad]),
        ):
            with pytest.raises(ValueError, match="int"):
                call()

    def test_restriction_may_merge_orders(self):
        p = Profile.of(3, [(0, 1, 2), (0, 2, 1)])
        q = restrict(p, {0})
        assert q == Profile.of(1, [(0,), (0,)])

    @given(profiles(), st.data())
    def test_restrict_agrees_with_original_comparisons(self, p, data):
        keep = sorted(
            data.draw(
                st.sets(st.integers(0, p.m - 1), min_size=1, max_size=p.m)
            )
        )
        q = restrict(p, keep)
        for i in range(p.n):
            for ka, a in enumerate(keep):
                for kb, b in enumerate(keep):
                    if a == b:
                        continue
                    assert (rank(p, i, a) < rank(p, i, b)) == (
                        rank(q, i, ka) < rank(q, i, kb)
                    )


def orders(m: int, count: int):
    """`count` orders over the same m alternatives, repeats allowed."""
    return st.lists(
        st.permutations(list(range(m))).map(lambda r: PreferenceOrder(tuple(r))),
        min_size=count,
        max_size=count,
    )


def discordant_pairs(a: PreferenceOrder, b: PreferenceOrder) -> int:
    return sum(
        (a.rank_of(x) < a.rank_of(y)) != (b.rank_of(x) < b.rank_of(y))
        for x, y in combinations(range(len(a)), 2)
    )


class TestKendallDistance:
    def test_examples(self):
        ident = PreferenceOrder((0, 1, 2, 3))
        assert kendall_distance(ident, ident) == 0
        assert kendall_distance(ident, PreferenceOrder((1, 0, 2, 3))) == 1
        assert kendall_distance(ident, PreferenceOrder((3, 0, 1, 2))) == 3
        assert kendall_distance(PreferenceOrder((0,)), PreferenceOrder((0,))) == 0

    @pytest.mark.parametrize("m", range(1, 8))
    def test_reversed_order_disagrees_on_every_pair(self, m):
        a = PreferenceOrder(tuple(range(m)))
        b = PreferenceOrder(tuple(reversed(range(m))))
        assert kendall_distance(a, b) == math.comb(m, 2)

    @given(st.integers(1, 9).flatmap(lambda m: orders(m, 2)))
    def test_symmetric_zero_iff_equal_brute_force(self, pair):
        a, b = pair
        k = kendall_distance(a, b)
        assert k == kendall_distance(b, a) == discordant_pairs(a, b)
        assert (k == 0) == (a == b)

    @given(st.integers(1, 9).flatmap(lambda m: orders(m, 3)))
    def test_triangle_inequality(self, triple):
        a, b, c = triple
        assert kendall_distance(a, c) <= kendall_distance(a, b) + kendall_distance(b, c)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kendall_distance(PreferenceOrder((0, 1)), PreferenceOrder((0, 1, 2)))
