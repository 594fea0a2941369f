"""Embeddings of preference profiles in the plane, and their verification.

An embedding assigns a point to every voter and every alternative. It
certifies a profile when each voter's ranking agrees with strictly
increasing distance. The verifier checks consecutive ranking pairs only;
transitivity of < on the reals extends the guarantee to all pairs.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Any, Iterable, Mapping, NamedTuple

from .geometry import Point
from .profiles import PreferenceOrder, Profile, kept_alternatives


class DocumentParseError(ValueError):
    """Malformed embedding document."""


class Violation(NamedTuple):
    """One failed comparison: the voter does not sit closer to `preferred`."""

    voter: int
    preferred: int
    other: int
    d_preferred: float
    d_other: float


@dataclass(frozen=True)
class Embedding:
    """Points for all voters and all alternatives of one profile, with each
    coordinate stored as a float by _coordinate's rule."""

    voter_points: tuple[Point, ...]
    alt_points: tuple[Point, ...]

    def __post_init__(self):
        voters, alts = self.voter_points, self.alt_points
        # Tuples of Points with finite float coordinates, as the search, the
        # constructions and read_embedding build them, are kept as they are.
        if type(voters) is tuple and type(alts) is tuple:
            pts = voters + alts
            coords = [*chain.from_iterable(pts)]
            if (
                {*map(type, pts)} <= {Point}
                and {*map(type, coords)} <= {float}
                and all(map(math.isfinite, coords))
            ):
                return
        for name, pts in (("voter_points", voters), ("alt_points", alts)):
            object.__setattr__(self, name, tuple(Point(*map(_coordinate, p)) for p in pts))


def _coordinate(c: Any) -> float:
    """A finite int or float as a float; anything else raises ValueError.
    Exact types, since bool is a subclass of int; abs(c) <= max is exact
    for an int and false for NaN."""
    if type(c) not in (int, float) or not abs(c) <= sys.float_info.max:
        raise ValueError(f"non-finite or non-numeric coordinate {c!r}")
    return float(c)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verify run.

    `min_slack` is the smallest distance gap over all voters and
    consecutive-in-ranking pairs (inf when m = 1); ok holds exactly when
    violations is empty, i.e. min_slack exceeds the margin the check ran at.
    """

    min_slack: float
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_dimensions(p: Profile, e: Embedding) -> None:
    if len(e.voter_points) != p.n or len(e.alt_points) != p.m:
        raise ValueError(
            f"embedding has {len(e.voter_points)} voters / {len(e.alt_points)} "
            f"alternatives, profile needs {p.n} / {p.m}"
        )


def distance_matrix(p: Profile, e: Embedding) -> tuple[tuple[float, ...], ...]:
    """n x m matrix of voter-to-alternative distances, each as dist computes
    it. Raises ValueError when the point counts do not match the profile or
    a distance overflows to inf, which no check can compare or JSON hold."""
    _check_dimensions(p, e)
    alts = e.alt_points
    rows = tuple([
        tuple([math.hypot(vx - ax, vy - ay) for ax, ay in alts])
        for vx, vy in e.voter_points
    ])
    if math.inf in chain.from_iterable(rows):
        raise ValueError("a voter-alternative distance overflows to a non-finite number")
    return rows


def verify(p: Profile, e: Embedding, margin: float = 0.0) -> VerificationReport:
    """Check that every voter ranks alternatives by strictly increasing distance.

    For each voter and each consecutively ranked pair (a better than b) the
    check is dist(voter, b) - dist(voter, a) > margin, in floats; the sum
    form dist(voter, a) + margin < dist(voter, b) can round the other way.
    Ties and near-ties within the margin are violations; there is no
    tolerance in the other direction. A negative or NaN margin raises
    ValueError: checking only consecutive pairs is sound just for
    margin >= 0. So does a distance that overflows (see distance_matrix).
    """
    if not margin >= 0.0:
        raise ValueError(f"need margin >= 0, got {margin}")
    min_slack = math.inf
    violations: list[Violation] = []
    for i, (order, row) in enumerate(zip(p.orders, distance_matrix(p, e))):
        ranking = order.ranking
        d_prev = row[ranking[0]]
        for k in range(1, p.m):
            d_next = row[ranking[k]]
            slack = d_next - d_prev
            if slack < min_slack:
                min_slack = slack
            if slack <= margin:
                violations.append(
                    Violation(i, ranking[k - 1], ranking[k], d_prev, d_next)
                )
            d_prev = d_next
    return VerificationReport(min_slack, tuple(violations))


def embed_two_voters(p: Profile) -> Embedding:
    """Closed-form embedding for profiles with at most two voters.

    Voters go far out on the axes, alternatives at their rank pairs; each
    alternative's distance to a voter then falls in a band of width 1 that
    is disjoint from the bands of differently ranked alternatives. One
    voter keeps the first voter's half of this layout, every alternative at
    y = 0.0.
    """
    if p.n > 2:
        raise ValueError(f"construction requires n <= 2 voters, got n={p.n}")
    far = -float(p.m * p.m)
    voters = (Point(far, 0.0), Point(0.0, far))[: p.n]
    ranks = [o.positions for o in p.orders] + [(0,) * p.m]
    alts = tuple(Point(float(x), float(y)) for x, y in zip(ranks[0], ranks[1]))
    return Embedding(voters, alts)


_THREE_ALT_POINTS = (Point(0.0, 2.0), Point(2.0, -1.0), Point(-2.0, -1.0))

_THREE_ALT_VOTER = {
    (0, 1, 2): Point(2.0, 2.0),
    (1, 0, 2): Point(2.0, 0.0),
    (1, 2, 0): Point(1.0, -1.0),
    (2, 1, 0): Point(-1.0, -1.0),
    (2, 0, 1): Point(-2.0, 0.0),
    (0, 2, 1): Point(-2.0, 2.0),
}


def embed_three_alternatives(p: Profile) -> Embedding:
    """Fixed-coordinate embedding for profiles with at most three alternatives.

    The three alternatives sit at fixed spots and each of the six possible
    orders has a pre-assigned voter position; any number of voters works.
    Fewer alternatives extend each order by the missing ones in index
    order and keep the first m points: a restriction of a certificate.
    """
    if p.m > 3:
        raise ValueError(f"construction requires m <= 3 alternatives, got m={p.m}")
    missing = tuple(range(p.m, 3))
    voters = tuple(_THREE_ALT_VOTER[o.ranking + missing] for o in p.orders)
    return Embedding(voters, _THREE_ALT_POINTS[: p.m])


def restrict_embedding(e: Embedding, keep: Iterable[int]) -> Embedding:
    """Drop alternative points outside `keep`; companion of profiles.restrict."""
    kept = kept_alternatives(keep, len(e.alt_points))
    return Embedding(e.voter_points, tuple(e.alt_points[a] for a in kept))


def encode_report(report: VerificationReport) -> dict[str, Any]:
    """JSON fields of a report: min_slack (None when inf), ok, violations
    with 1-based voter and alternative ids."""
    return {
        "min_slack": None if report.min_slack == math.inf else report.min_slack,
        "ok": report.ok,
        "violations": [
            [v.voter + 1, v.preferred + 1, v.other + 1, v.d_preferred, v.d_other]
            for v in report.violations
        ],
    }


# json's encoder runs in C only without an indent. This one writes a scalar
# as json.dumps does, escaping strings alike and refusing NaN and inf. Its
# item separator turns a flat object of scalars into the lines that
# json.dumps(indent=2) writes for it one level down, since JSON text holds
# no raw newline.
_encode = json.JSONEncoder(allow_nan=False, separators=(",\n    ", ": ")).encode
_SCALARS = {str, int, float, bool, type(None)}


def _value(value: Any) -> str:
    """json.dumps(value, indent=2, allow_nan=False) as the value of a
    top-level key. Scalars and non-empty flat objects of scalars with str
    keys go through _encode; anything else goes through json's indenting
    encoder, each of its lines moved two spaces in."""
    if type(value) in _SCALARS:
        return _encode(value)
    # An empty object fails the key test.
    if (
        type(value) is dict
        and {*map(type, value)} == {str}
        and {*map(type, value.values())} <= _SCALARS
    ):
        return "{\n    " + _encode(value)[1:-1] + "\n  }"
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")


def _layout(rows: int, count: int) -> str:
    """json.dumps(indent=2)'s layout of `rows` >= 1 equal non-empty lists of
    `count` numbers in all, as the value of a top-level key, with %r for
    each number."""
    row = "[\n      " + ",\n      ".join(["%r"] * (count // rows)) + "\n    ]"
    return "[\n    " + ",\n    ".join([row] * rows) + "\n  ]"


@lru_cache(maxsize=64)
def _head(m: int, n: int) -> str:
    """The document through "distances" for n voters and m alternatives,
    with %r for each number after n."""
    return (
        f'{{\n  "m": {m},\n  "n": {n},\n'
        f'  "profile": {_layout(n, n * m)},\n'
        f'  "voters": {_layout(n, n * 2)},\n'
        f'  "alternatives": {_layout(m, m * 2)},\n'
        f'  "distances": {_layout(n, n * m)}'
    )


def write_embedding(
    p: Profile,
    e: Embedding,
    report: VerificationReport,
    metadata: Mapping[str, Any] | None = None,
) -> str:
    """Serialize profile, coordinates, distances and the audit trail as JSON.

    The document is self-contained: it repeats the profile (1-based ids, as
    in the text format), the full distance matrix used for verification, and
    the report. `metadata` may carry "seed" and "config" for reproducibility.
    Floats round-trip bit-exactly through read_embedding.

    The text is exactly json.dumps(doc, indent=2) + "\n" of the document
    dict, and strict JSON: a non-finite number anywhere raises ValueError
    (a min_slack of inf is written as null), as do point counts that do not
    match the profile. It is laid out here, since json's indenting encoder
    is pure Python before 3.13; only a non-empty violations list, and a
    seed or config that nests or has keys json converts, still go through
    it.
    """
    dists = [*chain.from_iterable(distance_matrix(p, e))]
    ids = [a + 1 for o in p.orders for a in o.ranking]
    coords = [*chain.from_iterable(e.voter_points), *chain.from_iterable(e.alt_points)]
    slack = report.min_slack
    violations = _value(encode_report(report)["violations"]) if report.violations else "[]"
    fields = [
        _head(p.m, p.n) % (*ids, *coords, *dists),
        f'"min_slack": {"null" if slack == math.inf else _encode(slack)}',
        f'"ok": {"true" if report.ok else "false"}',
        f'"violations": {violations}',
    ]
    if metadata:
        fields += [f'"{k}": {_value(metadata[k])}' for k in ("seed", "config") if k in metadata]
    return ",\n  ".join(fields) + "\n}\n"


def read_embedding(text: str) -> tuple[Embedding, dict[str, Any]]:
    """Parse an embedding document; inverse of write_embedding on its output.

    Returns the embedding and the full document dict (profile, distances,
    report fields, optional seed/config) for callers that need the context.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentParseError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise DocumentParseError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentParseError("document must be a JSON object")
    for key in ("m", "n", "voters", "alternatives"):
        if key not in doc:
            raise DocumentParseError(f"missing field {key!r}")
    # Exact type checks: JSON true and false load as bool, a subclass of int.
    m, n = doc["m"], doc["n"]
    if not (type(m) is int and type(n) is int and m >= 1 and n >= 1):
        raise DocumentParseError(f"bad dimensions m={m!r} n={n!r}")

    def points(name: str, count: int) -> tuple[Point, ...]:
        raw = doc[name]
        if not isinstance(raw, list) or len(raw) != count:
            raise DocumentParseError(f"{name!r} must list {count} points")
        if not ({*map(type, raw)} == {list} and {*map(len, raw)} == {2}):
            raise DocumentParseError(f"bad coordinate in {name!r}: need [x, y] pairs")
        return tuple(map(Point._make, raw))

    voters, alts = points("voters", n), points("alternatives", m)
    # Embedding holds the coordinate rule: finite ints and floats, no bool.
    try:
        return Embedding(voters, alts), doc
    except ValueError as exc:
        raise DocumentParseError(f"bad coordinate: {exc}") from None


def profile_from_document(doc: Mapping[str, Any]) -> Profile:
    """Rebuild the profile recorded in an embedding document; voters may
    repeat an order."""
    try:
        rows = doc["profile"]
        if not {*map(type, chain.from_iterable(rows))} <= {int}:
            raise ValueError("alternative ids must be integers")
        orders = tuple(PreferenceOrder(tuple(a - 1 for a in row)) for row in rows)
        if len(orders) != doc["n"]:
            raise ValueError(f"{len(orders)} rows, need n={doc['n']}")
        return Profile(doc["m"], orders)
    except (KeyError, TypeError, ValueError) as exc:
        raise DocumentParseError(f"bad profile field: {exc}") from None


def _fmt(v: float) -> str:
    return format(v, ".6g")


def render_svg(p: Profile, e: Embedding) -> str:
    """Draw the embedding: voters as labeled squares, alternatives as circles.

    The y axis is flipped to the usual mathematical orientation and the
    viewBox auto-fits all points with 10% padding. Output is deterministic.
    A viewBox that overflows a float raises ValueError.
    """
    _check_dimensions(p, e)
    pts = [(q.x, -q.y) for q in (*e.voter_points, *e.alt_points)]
    xs = [q[0] for q in pts]
    ys = [q[1] for q in pts]
    w = max(xs) - min(xs)
    h = max(ys) - min(ys)
    pad = 0.1 * max(w, h, 1.0)
    box = (min(xs) - pad, min(ys) - pad, w + 2 * pad, h + 2 * pad)
    if not all(map(math.isfinite, box)):
        raise ValueError("the drawing's extent overflows a float")
    span = max(w, h) + 2 * pad
    marker = 0.02 * span
    font = 0.05 * span
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{" ".join(map(_fmt, box))}">'
    ]
    for i, v in enumerate(e.voter_points):
        x, y = v.x, -v.y
        lines.append(
            f'  <rect x="{_fmt(x - marker)}" y="{_fmt(y - marker)}" '
            f'width="{_fmt(2 * marker)}" height="{_fmt(2 * marker)}" '
            'fill="steelblue"/>'
        )
        lines.append(
            f'  <text x="{_fmt(x + 1.5 * marker)}" y="{_fmt(y - 1.5 * marker)}" '
            f'font-size="{_fmt(font)}" fill="steelblue">v{i + 1}</text>'
        )
    for a, q in enumerate(e.alt_points):
        x, y = q.x, -q.y
        lines.append(
            f'  <circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{_fmt(marker)}" '
            'fill="firebrick"/>'
        )
        lines.append(
            f'  <text x="{_fmt(x + 1.5 * marker)}" y="{_fmt(y - 1.5 * marker)}" '
            f'font-size="{_fmt(font)}" fill="firebrick">a{a + 1}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
