"""Preference profiles: strict rankings, text I/O, canonical forms, enumeration.

Alternatives and voters are indexed from 0 internally. The text format
(see :func:`parse_profile`) is 1-based, matching the usual convention of
writing an order as 1 > 2 > ... > m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Iterator, Sequence

# A rank is the 0-based position of an alternative in a voter's order:
# 0 = most preferred, m-1 = least preferred.
Rank = int


class ProfileParseError(ValueError):
    """Malformed profile text. Carries the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class PreferenceOrder:
    """A strict total order over alternatives 0..m-1, most preferred first."""

    ranking: tuple[int, ...]
    positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ranking = tuple(self.ranking)
        object.__setattr__(self, "ranking", ranking)
        m = len(ranking)
        pos = [-1] * m
        for k, a in enumerate(ranking):
            if type(a) is not int or not 0 <= a < m or pos[a] != -1:
                raise ValueError(
                    f"ranking {ranking!r} is not a permutation of 0..{m - 1}"
                )
            pos[a] = k
        object.__setattr__(self, "positions", tuple(pos))

    def __len__(self) -> int:
        return len(self.ranking)

    def rank_of(self, alt: int) -> Rank:
        """Number of alternatives strictly preferred to `alt` (0 = favorite)."""
        return self.positions[alt]


@dataclass(frozen=True)
class Profile:
    """n voters, each holding a strict order over the same m alternatives.

    Two voters may hold the same order, as in a profile restricted to fewer
    alternatives; the enumerator never produces such repeats, and
    parse_profile refuses them unless told otherwise.
    """

    m: int
    orders: tuple[PreferenceOrder, ...]

    def __post_init__(self):
        object.__setattr__(self, "orders", tuple(self.orders))
        # Exact type: a float or bool m would be written into documents.
        if type(self.m) is not int or self.m < 1:
            raise ValueError(f"need an int m, at least one alternative; got m={self.m!r}")
        if not self.orders:
            raise ValueError("need at least one voter")
        for o in self.orders:
            if len(o.ranking) != self.m:
                raise ValueError(
                    f"order {o.ranking!r} has length {len(o.ranking)}, expected m={self.m}"
                )

    @property
    def n(self) -> int:
        return len(self.orders)

    @classmethod
    def of(cls, m: int, rankings: Iterable[Sequence[int]]) -> "Profile":
        """Constructor from raw 0-based rankings."""
        return cls(m, tuple(PreferenceOrder(tuple(r)) for r in rankings))


def rank(p: Profile, voter: int, alt: int) -> Rank:
    """Rank of `alt` for `voter`: how many alternatives the voter likes better."""
    if type(voter) is not int or type(alt) is not int:
        raise ValueError(f"need int voter and alt, got {voter!r} and {alt!r}")
    if not 0 <= voter < p.n:
        raise IndexError(f"voter index {voter} out of range(0, {p.n})")
    if not 0 <= alt < p.m:
        raise IndexError(f"alternative index {alt} out of range(0, {p.m})")
    return p.orders[voter].rank_of(alt)


def parse_profile(text: str, strict: bool = True) -> Profile:
    """Parse the profile text format.

    Line 1 is ``m n``; each of the next n lines lists one voter's m
    alternative ids (1-based, most preferred first). Lines starting with
    ``#`` and blank lines are ignored. A voter line repeating an earlier
    one is an error unless ``strict=False``.
    """
    header: tuple[int, int] | None = None
    rankings: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise ProfileParseError("header must be 'm n'", lineno)
            try:
                m, n = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ProfileParseError("header must be two integers", lineno) from None
            if m < 1 or n < 1:
                raise ProfileParseError(f"need m >= 1 and n >= 1, got m={m} n={n}", lineno)
            header = (m, n)
            continue
        m, n = header
        if len(rankings) == n:
            raise ProfileParseError(f"unexpected content after {n} voter lines", lineno)
        if len(tokens) != m:
            raise ProfileParseError(f"expected {m} alternatives, got {len(tokens)}", lineno)
        try:
            ids = tuple(int(t) for t in tokens)
        except ValueError:
            raise ProfileParseError("alternative ids must be integers", lineno) from None
        if sorted(ids) != list(range(1, m + 1)):
            raise ProfileParseError(
                f"{' '.join(tokens)} is not a permutation of 1..{m}", lineno
            )
        ranking = tuple(a - 1 for a in ids)
        if strict and ranking in seen:
            raise ProfileParseError(
                f"duplicate of voter line {seen[ranking]}", lineno
            )
        seen.setdefault(ranking, lineno)
        rankings.append(ranking)
    if header is None:
        raise ProfileParseError("empty input: missing 'm n' header")
    m, n = header
    if len(rankings) != n:
        raise ProfileParseError(f"expected {n} voter lines, found {len(rankings)}")
    orders = tuple(PreferenceOrder(r) for r in rankings)
    return Profile(m, orders)


def serialize_profile(p: Profile) -> str:
    """Canonical text form; round-trips bit-exactly through parse_profile."""
    lines = [f"{p.m} {p.n}"]
    for o in p.orders:
        lines.append(" ".join(str(a + 1) for a in o.ranking))
    return "\n".join(lines) + "\n"


def canonicalize(p: Profile) -> Profile:
    """Relabel alternatives so voter 0's order is 0 > 1 > ... > m-1.

    The relabeling sends the alternative at position k of voter 0's order
    to label k; remaining voters are relabeled consistently and then sorted
    lexicographically. Idempotent.
    """
    sigma = p.orders[0].positions
    relabeled = [tuple(sigma[a] for a in o.ranking) for o in p.orders]
    rest = sorted(relabeled[1:])
    orders = tuple(PreferenceOrder(r) for r in [relabeled[0], *rest])
    return Profile(p.m, orders)


def kendall_distance(a: PreferenceOrder, b: PreferenceOrder) -> int:
    """Number of pairs of alternatives that `a` and `b` order differently.

    Walks a's order keeping a bitmask of b's positions seen so far; each
    alternative disagrees with the seen ones that b puts after it. That is
    m steps on m-bit integers, O(m^2) at worst.
    """
    if len(a) != len(b):
        raise ValueError(f"orders over {len(a)} and {len(b)} alternatives")
    positions = b.positions
    seen = 0
    discordant = 0
    for x in a.ranking:
        bit = 1 << positions[x]
        discordant += (seen & ~(bit - 1)).bit_count()
        seen |= bit
    return discordant


def count_canonical(m: int) -> int:
    """Number of 3-voter canonical profiles over m alternatives: C(m!-1, 2).

    Exact for any m (Python integers do not overflow).
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"need an int m >= 1, got {m!r}")
    return math.comb(math.factorial(m) - 1, 2)


# Largest m the stream serves. `_order_at`'s cache is the order table, filled
# as the stream reaches orders: random access adds three, a walk adds each
# order once, and a walk through every row holds all m! of them. Filled at
# m = 9 with 362,880 orders, it grows a process by about 170 MB (CPython
# 3.11.7); at m = 10 it would need about 1.7 GB. The bound also keeps counts in a
# machine word: `batch --sample` takes len(range(count_canonical(m))), which
# overflows from m = 13.
MAX_TABLE_M = 9


def check_order_table(m: int) -> None:
    """Refuse an m whose order table the stream cannot build."""
    if m > MAX_TABLE_M:
        raise ValueError(f"need m <= {MAX_TABLE_M} to build the order table, got m={m}")


@lru_cache(maxsize=None)
def _order_at(m: int, i: int) -> PreferenceOrder:
    """The i-th order over m alternatives in lexicographic order, so i = 0 is
    the identity.

    i's factorial-base digits, most significant first, are the order's Lehmer
    code: digit d at place k! picks the d-th smallest alternative not yet
    placed (Knuth, TAOCP 4A, 7.2.1.2).
    """
    rest = list(range(m))
    ranking = []
    for k in range(m - 1, -1, -1):
        d, i = divmod(i, math.factorial(k))
        ranking.append(rest.pop(d))
    return PreferenceOrder(tuple(ranking))


def _pair_at(k: int, t: int) -> tuple[int, int]:
    """The t-th pair (i, j), i < j < k, in lexicographic order, in O(1)."""
    # pairs with first index < i: c(i) = i*(2k - i - 1)/2; invert by isqrt.
    # isqrt floors, so the estimate is never below the answer, and the
    # numerator's error is below 1 before halving, so it is at most 1 above.
    disc = (2 * k - 1) ** 2 - 8 * t
    i = ((2 * k - 1) - math.isqrt(disc)) // 2
    if i * (2 * k - i - 1) // 2 > t:
        i -= 1
    return i, i + 1 + (t - i * (2 * k - i - 1) // 2)


def enumerate_canonical(m: int, start: int = 0, stop: int | None = None) -> Iterator[Profile]:
    """Stream every canonical 3-voter profile over m alternatives.

    Voter 0 is the identity order; voters 1 and 2 are an unordered pair of
    distinct non-identity orders, emitted with the lexicographically smaller
    order first. The stream is lexicographic and deterministic; `start`/`stop`
    select the half-open index range [start, stop) for splitting long runs.
    The arguments are checked at the call, before the first profile.
    """
    total = count_canonical(m)
    # Exact types, as for every other integer input: bool is an int.
    if type(start) is not int or not (stop is None or type(stop) is int):
        raise ValueError(f"need int start and stop, got {start!r} and {stop!r}")
    if start < 0:
        raise ValueError(f"need start >= 0, got {start}")
    stop = total if stop is None else min(stop, total)
    if start >= stop:
        return iter(())
    check_order_table(m)
    return _walk(m, start, stop - start)


def _walk(m: int, start: int, left: int) -> Iterator[Profile]:
    """`left` profiles of the stream from index `start`, arguments checked."""
    k = math.factorial(m)
    # Voter 0 holds order 0, the identity; the pair indexes orders 1..k-1.
    i, j = _pair_at(k - 1, start)
    i, j = i + 1, j + 1
    identity = _order_at(m, 0)
    # Orders from _order_at pass Profile's checks by construction; skipping
    # them halves the stream's time per profile.
    new, put = object.__new__, object.__setattr__
    while left:
        # Row i pairs order i with orders j..k-1.
        first = _order_at(m, i)
        row = min(k - j, left)
        for second in map(_order_at, repeat(m, row), range(j, j + row)):
            p = new(Profile)
            put(p, "m", m)
            put(p, "orders", (identity, first, second))
            yield p
        left -= row
        i += 1
        j = i + 1


def canonical_profile_at(m: int, index: int) -> Profile:
    """The profile at a given position of the enumerate_canonical stream."""
    if type(index) is not int:
        raise ValueError(f"need an int index, got {index!r}")
    total = count_canonical(m)
    if not 0 <= index < total:
        raise IndexError(f"index {index} out of range(0, {total})")
    return next(enumerate_canonical(m, index, index + 1))


def kept_alternatives(keep: Iterable[int], m: int) -> list[int]:
    """`keep` as a sorted list of distinct int indices, each in range(0, m)."""
    keep = list(keep)
    if not keep:
        raise ValueError("keep set must be non-empty")
    for a in keep:
        if type(a) is not int:
            raise ValueError(f"need int alternative indices, got {a!r}")
        if not 0 <= a < m:
            raise ValueError(f"alternative index {a} out of range(0, {m})")
    return sorted(set(keep))


def restrict(p: Profile, keep: Iterable[int]) -> Profile:
    """Delete all alternatives outside `keep` and renumber the kept ones.

    Kept alternatives are renumbered 0..|keep|-1 in ascending original-index
    order; each voter's relative order is preserved. Restriction can merge
    previously distinct orders into repeats.
    """
    kept = kept_alternatives(keep, p.m)
    relabel = {old: new for new, old in enumerate(kept)}
    rankings = [
        tuple(relabel[a] for a in o.ranking if a in relabel) for o in p.orders
    ]
    orders = tuple(PreferenceOrder(r) for r in rankings)
    return Profile(len(kept), orders)
