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
from itertools import chain
from typing import Any, Iterable, Mapping, NamedTuple

from .geometry import Point, dist
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
    """Points for all voters and all alternatives of one profile."""

    voter_points: tuple[Point, ...]
    alt_points: tuple[Point, ...]

    def __post_init__(self):
        voters, alts = self.voter_points, self.alt_points
        # Tuples of Points with finite float coordinates, as the search and
        # read_embedding build them, are kept as they are.
        if type(voters) is tuple and type(alts) is tuple:
            pts = voters + alts
            if {*map(type, pts)} <= {Point} and _finite_floats([*chain.from_iterable(pts)]):
                return
        object.__setattr__(self, "voter_points", tuple(Point(*p) for p in voters))
        object.__setattr__(self, "alt_points", tuple(Point(*p) for p in alts))
        for p in (*self.voter_points, *self.alt_points):
            if not (math.isfinite(p.x) and math.isfinite(p.y)):
                raise ValueError(f"non-finite coordinate {p}")


def _finite_floats(values: list[Any]) -> bool:
    """Whether every value is a float (not a subclass) and finite."""
    return {*map(type, values)} <= {float} and all(map(math.isfinite, values))


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


def distance_matrix(p: Profile, e: Embedding) -> tuple[tuple[float, ...], ...]:
    """n x m matrix of voter-to-alternative distances."""
    return tuple(
        tuple(dist(v, a) for a in e.alt_points) for v in e.voter_points
    )


def _check_dimensions(p: Profile, e: Embedding) -> None:
    if len(e.voter_points) != p.n or len(e.alt_points) != p.m:
        raise ValueError(
            f"embedding has {len(e.voter_points)} voters / {len(e.alt_points)} "
            f"alternatives, profile needs {p.n} / {p.m}"
        )


def verify(p: Profile, e: Embedding, margin: float = 0.0) -> VerificationReport:
    """Check that every voter ranks alternatives by strictly increasing distance.

    For each voter and each consecutively ranked pair (a better than b) the
    check is dist(voter, a) + margin < dist(voter, b). Ties and near-ties
    within the margin are violations; there is no tolerance in the other
    direction. A negative or NaN margin raises ValueError: checking only
    consecutive pairs is sound just for margin >= 0. So does a distance that
    overflows to inf: two infinite distances cannot be compared.
    """
    if not margin >= 0.0:
        raise ValueError(f"need margin >= 0, got {margin}")
    _check_dimensions(p, e)
    min_slack = math.inf
    violations: list[Violation] = []
    for i, order in enumerate(p.orders):
        v = e.voter_points[i]
        row = [dist(v, a) for a in e.alt_points]
        if math.inf in row:
            raise ValueError("a voter-alternative distance overflows to inf")
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
    is disjoint from the bands of differently ranked alternatives.
    """
    if p.n > 2:
        raise ValueError(f"construction requires n <= 2 voters, got n={p.n}")
    m = p.m
    if p.n == 1:
        voters = (Point(-float(m * m), 0.0),)
        alts = tuple(Point(float(p.orders[0].rank_of(a)), 0.0) for a in range(m))
    else:
        voters = (Point(-float(m * m), 0.0), Point(0.0, -float(m * m)))
        alts = tuple(
            Point(float(p.orders[0].rank_of(a)), float(p.orders[1].rank_of(a)))
            for a in range(m)
        )
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
        "min_slack": report.min_slack if math.isfinite(report.min_slack) else None,
        "ok": report.ok,
        "violations": [
            [v.voter + 1, v.preferred + 1, v.other + 1, v.d_preferred, v.d_other]
            for v in report.violations
        ],
    }


def _tokens(values: list[Any]) -> list[str]:
    """The JSON tokens json.dumps writes for these numbers.

    json writes an int or a float with int.__repr__ or float.__repr__; any
    other type goes through json itself. Raises ValueError on inf or NaN,
    which strict JSON cannot hold.
    """
    if {*map(type, values)} <= {int, float}:
        if not all(map(math.isfinite, values)):
            raise ValueError("the document would hold a non-finite number")
        return list(map(repr, values))
    return [json.dumps(v, allow_nan=False) for v in values]


def _layout(rows: int, count: int) -> str:
    """json.dumps(indent=2)'s layout of `rows` equal lists of `count` numbers
    in all, as the value of a top-level key, with %s for each number."""
    if not rows:
        return "[]"
    width = count // rows
    row = "[\n      " + ",\n      ".join(["%s"] * width) + "\n    ]" if width else "[]"
    return "[\n    " + ",\n    ".join([row] * rows) + "\n  ]"


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
    (a min_slack of inf is written as null). The four number arrays are
    laid out here, since json's indenting encoder is pure Python before
    3.13; the short tail from min_slack on is left to json.
    """
    voters, alts = e.voter_points, e.alt_points
    ids = [a + 1 for o in p.orders for a in o.ranking]
    coords = [*chain.from_iterable(voters), *chain.from_iterable(alts)]
    dists = [math.hypot(vx - ax, vy - ay) for vx, vy in voters for ax, ay in alts]
    head = (
        '{\n  "m": %s,\n  "n": %s,\n'
        f'  "profile": {_layout(p.n, len(ids))},\n'
        f'  "voters": {_layout(len(voters), len(voters) * 2)},\n'
        f'  "alternatives": {_layout(len(alts), len(alts) * 2)},\n'
        f'  "distances": {_layout(len(voters), len(dists))}'
    ) % tuple(_tokens([p.m, p.n, *ids, *coords, *dists]))
    tail = encode_report(report)
    if metadata:
        if "seed" in metadata:
            tail["seed"] = metadata["seed"]
        if "config" in metadata:
            tail["config"] = metadata["config"]
    # The tail's own "{" gives way to the comma that follows "distances".
    return head + "," + json.dumps(tail, indent=2, allow_nan=False)[1:] + "\n"


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
        # Pairs of finite floats, as write_embedding writes them, in one pass.
        if (
            {*map(type, raw)} == {list}
            and {*map(len, raw)} == {2}
            and _finite_floats([*chain.from_iterable(raw)])
        ):
            return tuple(map(Point._make, raw))
        pts = []
        for entry in raw:
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(type(c) in (int, float) for c in entry)
                # Exact: refuses inf, NaN and an int too large for a float.
                or not all(abs(c) <= sys.float_info.max for c in entry)
            ):
                raise DocumentParseError(f"bad coordinate {entry!r} in {name!r}")
            pts.append(Point(float(entry[0]), float(entry[1])))
        return tuple(pts)

    e = Embedding(points("voters", n), points("alternatives", m))
    return e, doc


def profile_from_document(doc: Mapping[str, Any]) -> Profile:
    """Rebuild the profile recorded in an embedding document; voters may
    repeat an order."""
    try:
        rows = doc["profile"]
        if not {*map(type, chain.from_iterable(rows))} <= {int}:
            raise ValueError("alternative ids must be integers")
        orders = tuple(PreferenceOrder(tuple(a - 1 for a in row)) for row in rows)
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
