"""Randomized greedy search for planar embeddings, with restarts.

One restart: draw the voters, order the alternatives, and place them one
at a time. Three voters with distinct orders are drawn as a triangle with
sides proportional to their orders' Kendall distances, up to a random
jitter: voters i and j disagree on a pair exactly when the pair's bisector
separates them, and a random line crosses a segment with probability
proportional to its length (Crofton's formula). The search does not change
under rotation and scale, so the triangle's shape is all the draw decides.
Other voters are scattered uniformly in a square. Each unplaced alternative
must land in its free area, the intersection of one open annulus per voter
(already-placed alternatives bound the feasible distance from below and
above). The first alternative's free area is the whole plane; it is drawn
within VOTER_MEAN_SIDE of the voter who ranks it highest, as a certificate
puts each voter's favourite nearest to them. With three voters a point is
also refused, and drawn again, where it would leave some unplaced
alternative no room at all (`_same_side_rule`); after
`geometry.BLOCKED_TRIES` such points the placement fails. Each restart
keeps a band (lo, hi) per voter for every unplaced alternative and narrows
them with each placed point (`_tighten`, the band rule, with which
`annuli_for_alternative` also builds its `Annulus` instances); a placement
passes its own to `geometry.sample_free_area` as plain (voter, lo, hi)
tuples. The order is most-constrained-first, the fail-first rule of
constraint search: the next alternative is the unplaced one whose thinnest
band, as hi^2 - lo^2 (the measure by which the sampler picks its base
band), is smallest, so a collapsed band (lo >= hi) is met at once and fails
without a draw. The first placement and every tie follow the
failure-weighted order: a fresh shuffle, stably sorted by decreasing
weight, where a failed placement adds to its alternative's weight the
number of alternatives placed before it in that restart. The weights live
in one profile's search, so its first restart starts at the plain
shuffle's head. A placement that cannot be sampled kills the whole
restart; fresh randomness starts the next one. The search is one-sided:
running out of restarts says nothing about the profile.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace, asdict
from enum import Enum
from itertools import islice
from random import Random
from typing import Any, BinaryIO, Callable, ClassVar, Iterable, Mapping, NoReturn

from .embedding import Embedding, VerificationReport, verify, write_embedding
from .geometry import (
    TAU_GEO,
    Annulus,
    Band,
    Point,
    sample_free_area,
)
from .profiles import Profile, kendall_distance

_MASK64 = (1 << 64) - 1

# Voters are scattered uniformly in the square [-VOTER_BOX, VOTER_BOX]^2,
# unless they are three with distinct orders.
VOTER_BOX = 1.0

# Three voters with distinct orders form a triangle: side ij is the Kendall
# distance of orders i and j times exp(VOTER_JITTER * gauss), and the whole
# is scaled to a mean side of VOTER_MEAN_SIDE, the mean distance between two
# uniform points of the square, so the unit-scale tolerances still hold.
# Each restart's first alternative is drawn within VOTER_MEAN_SIDE of a voter.
VOTER_JITTER = 0.2
VOTER_MEAN_SIDE = 1.04

# Alternatives are sampled PLACEMENT_MARGIN inside their annuli, and every
# consecutive distance gap of a finished embedding is checked against
# VERIFY_MARGIN. PLACEMENT_MARGIN > VERIFY_MARGIN >= 0 must hold, so a placed
# point can never flake the final check on an annulus boundary.
PLACEMENT_MARGIN = 1e-6
VERIFY_MARGIN = 1e-7


def derive_profile_seed(seed: int, index: int) -> int:
    """Per-profile seed for batch runs: splitmix64 finalizer over seed + index.

    Deterministic and independent of worker count or chunking, so ranged and
    partitioned runs reproduce the exact per-profile outcomes of a full run.
    """
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class HeuristicConfig:
    """Search budget; all randomness flows from `seed`.

    Successes are verified at `verify_margin`, the constant VERIFY_MARGIN.

    `samples_per_placement` caps the slice tries drawn from a free area's
    exact distance range, which follow one try from its base ring when
    that misses (see `geometry.sample_free_area`).

    No field shapes the voter draw: three voters with distinct orders
    always get a Kendall-shaped triangle (see `_draw_triangle`).

    Typical 3-voter / 7-alternative profiles finish in a few restarts,
    but the cap is no guarantee: README names the hard cases. None of
    them exhausts the 20,000 restarts at base seeds 0-4; the slowest
    needs 1,009, at base seed 1.
    """

    seed: int = 0
    max_restarts: int = 20000
    samples_per_placement: int = 200
    verify_margin: ClassVar[float] = VERIFY_MARGIN

    def __post_init__(self):
        # Exact type checks: a bool or a float would pass the comparisons
        # below and fail, or silently change the search, later.
        for name in ("seed", "max_restarts", "samples_per_placement"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"need an integer {name}, got {value!r}")
        # Random(seed) drops an int's sign and derive_profile_seed keeps its
        # low 64 bits, so a seed outside this range would alias another.
        if not 0 <= self.seed <= _MASK64:
            raise ValueError(f"need 0 <= seed < 2**64, got {self.seed}")
        if self.max_restarts < 1:
            raise ValueError(f"need max_restarts >= 1, got {self.max_restarts}")
        if self.samples_per_placement < 1:
            raise ValueError(
                f"need samples_per_placement >= 1, got {self.samples_per_placement}"
            )


class Status(Enum):
    SUCCESS = "success"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class HeuristicOutcome:
    status: Status
    embedding: Embedding | None
    restarts_used: int
    placements_attempted: int
    report: VerificationReport | None


# A restart's bands as (lo, hi, width): voter i's band for alternative b is
# the open ring lo[i][b] < distance < hi[i][b] around voter i, and width[b]
# is the smallest hi^2 - lo^2 of b's bands.
Bounds = tuple[list[list[float]], list[list[float]], list[float]]


def _no_bounds(n: int, m: int) -> Bounds:
    """The bands of n voters for m alternatives with nothing placed."""
    inf = math.inf
    return [[0.0] * m for _ in range(n)], [[inf] * m for _ in range(n)], [inf] * m


def _tighten(
    bounds: Bounds,
    voters: tuple[Point, ...],
    tables: list[tuple[int, ...]],
    todo: list[int],
    a: int,
    at: Point,
) -> int:
    """The band rule, one placed point at a time, and the next placement.

    With alternative `a` placed at `at`, voter i's distance to it bounds
    each b in `todo` from below when voter i ranks a above b, from above
    otherwise (`tables[i]` maps an alternative to voter i's rank). A
    narrowed band's new width replaces a larger width[b]; a band only
    narrows, so width[b] stays the smallest width of b's bands. Returns
    the b in `todo`, which must not be empty, of least width[b], the first
    on a tie.
    """
    los, his, width = bounds
    px, py = at
    hypot = math.hypot
    for (vx, vy), table, lo, hi in zip(voters, tables, los, his):
        d = hypot(vx - px, vy - py)
        dd = d * d
        rank = table[a]
        for b in todo:
            if rank < table[b]:
                if d > lo[b]:
                    lo[b] = d
                    r = hi[b]
                    w = r * r - dd
                    if w < width[b]:
                        width[b] = w
            elif d < hi[b]:
                hi[b] = d
                r = lo[b]
                w = dd - r * r
                if w < width[b]:
                    width[b] = w
    pick = todo[0]
    least = width[pick]
    for b in todo:
        if width[b] < least:
            pick, least = b, width[b]
    return pick


def _free_area(voters: tuple[Point, ...], bounds: Bounds, alt: int) -> list[Band] | None:
    """`alt`'s bands as the sampler takes them, (voter, lo, hi): None when
    one has collapsed (lo >= hi); voters that bound nothing are omitted, so
    with nothing placed the list is empty.

    A search never collapses a band, as PLACEMENT_MARGIN keeps each voter's
    distances to the placed points rising with rank. The branch stays for
    `annuli_for_alternative`, whose placed points are the caller's, and for
    samplers stubbed to return points that break the orders (the tests of
    the placement order use them)."""
    area = []
    los, his, _ = bounds
    for v, lo, hi in zip(voters, los, his):
        lo, hi = lo[alt], hi[alt]
        if lo >= hi:
            return None
        if lo > 0.0 or hi != math.inf:
            area.append((v, lo, hi))
    return area


def annuli_for_alternative(
    p: Profile,
    voter_points: tuple[Point, ...],
    placed: Mapping[int, Point],
    alt: int,
) -> tuple[Annulus, ...] | None:
    """The free area of `alt` given the placed alternatives, as annuli: the
    search's bands, built by `_tighten` from nothing with each placed point
    in turn; None when a band collapses.

    Raises ValueError unless there is one voter point per voter of `p`, or
    when `alt` is already placed; `alt` and each placed alternative must be
    an int (else ValueError) in range(p.m) (else IndexError).
    """
    if len(voter_points) != p.n:
        raise ValueError(f"need {p.n} voter points, got {len(voter_points)}")
    for a in (alt, *placed):
        if type(a) is not int:
            raise ValueError(f"need int alternatives, got {a!r}")
        if not 0 <= a < p.m:
            raise IndexError(f"alternative index {a} out of range(0, {p.m})")
    if alt in placed:
        raise ValueError(f"alternative {alt} is already placed")
    tables = [o.positions for o in p.orders]
    bounds = _no_bounds(p.n, p.m)
    for b, pt in placed.items():
        _tighten(bounds, voter_points, tables, [alt], b, pt)
    bands = _free_area(voter_points, bounds, alt)
    if bands is None:
        return None
    return tuple(Annulus(*b) for b in bands)


def _place(
    voters: tuple[Point, ...],
    tables: list[tuple[int, ...]],
    bounds: Bounds,
    alt: int,
    rng: Random,
    budget: int,
    blocked: Callable[[float, float], bool] | None,
) -> Point | None:
    """One placement: `alt`'s bands from `_free_area`, then a point of
    their intersection from `sample_free_area` at PLACEMENT_MARGIN, outside
    where `blocked` holds; None, without a draw, when a band collapses, or
    when the sampler gives up.

    With nothing placed, the point is drawn within VOTER_MEAN_SIDE of the
    voter who ranks `alt` highest, the first such voter on a tie."""
    area = _free_area(voters, bounds, alt)
    if area is None:
        return None
    if not area:
        ranks = [table[alt] for table in tables]
        area = [(voters[ranks.index(min(ranks))], 0.0, VOTER_MEAN_SIDE)]
    return sample_free_area(area, rng, budget, PLACEMENT_MARGIN, blocked)


def _better_masks(rankings: Iterable[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """`better[b][i]`: the bitmask of the alternatives voter i ranks above b,
    the prefix of voter i's ranking before b."""
    columns = []
    for ranking in rankings:
        masks = [0] * len(ranking)
        above = 0
        for b in ranking:
            masks[b] = above
            above |= 1 << b
        columns.append(masks)
    return list(zip(*columns))


def _same_side_rule(
    voters: tuple[Point, ...], placing: list
) -> Callable[[float, float], bool]:
    """The pairwise block for three voters, as `sample_free_area`'s
    `blocked` predicate for one restart.

    Voter i ranks a above b iff i lies on a's side of their bisector. So
    with b at P, an unplaced a has a point only if a line separates A, the
    voters who rank a above b, from the other voters and P; reflecting P in
    such a line gives one. For three voters that fails exactly when A is
    S(P), the voters i such that P lies on v_i's side of the line through
    the other two: all three when P is inside the triangle, an edge's two
    ends when P is across that edge's line alone, and the vertex two
    crossed edges share otherwise. `placing` holds `_better_masks`'s entry
    for the alternative being placed and the mask of the alternatives
    still unplaced after it; a point is blocked when some unplaced a has
    A = S(P), so with none left no point is. Rounding may misjudge a point
    on a line, which costs a draw at most: the verifier still checks every
    certificate.
    """
    (x0, y0), (x1, y1), (x2, y2) = voters
    # Each edge is turned so that its opposite voter lies on its left.
    turn = 1.0 if (x1 - x0) * (y2 - y0) > (y1 - y0) * (x2 - x0) else -1.0
    dx0, dy0 = turn * (x2 - x1), turn * (y2 - y1)
    dx1, dy1 = turn * (x0 - x2), turn * (y0 - y2)
    dx2, dy2 = turn * (x1 - x0), turn * (y1 - y0)

    def blocked(x: float, y: float) -> bool:
        (b0, b1, b2), left = placing
        left &= b0 if dx0 * (y - y1) > dy0 * (x - x1) else ~b0
        left &= b1 if dx1 * (y - y2) > dy1 * (x - x2) else ~b1
        left &= b2 if dx2 * (y - y0) > dy2 * (x - x0) else ~b2
        return left != 0

    return blocked


def _draw_voters(rng: Random, n: int) -> tuple[Point, ...]:
    while True:
        pts = tuple(
            Point(rng.uniform(-VOTER_BOX, VOTER_BOX), rng.uniform(-VOTER_BOX, VOTER_BOX))
            for _ in range(n)
        )
        if _separated(pts):
            return pts


def _separated(pts: tuple[tuple[float, float], ...]) -> bool:
    """Whether every two of the (x, y) points lie more than TAU_GEO apart:
    the one separation test, for both voter draws."""
    hypot = math.hypot
    for i, (x1, y1) in enumerate(pts):
        for x2, y2 in pts[i + 1:]:
            if not hypot(x1 - x2, y1 - y2) > TAU_GEO:
                return False
    return True


def _kendall_sides(p: Profile) -> tuple[int, int, int] | None:
    """Kendall distances (K01, K02, K12) of a 3-voter profile, or None when
    there are not three voters or two of them hold the same order."""
    if p.n != 3:
        return None
    o0, o1, o2 = p.orders
    sides = (kendall_distance(o0, o1), kendall_distance(o0, o2), kendall_distance(o1, o2))
    return sides if all(sides) else None


def _draw_triangle(rng: Random, kendall: tuple[int, int, int]) -> tuple[Point, ...]:
    """Three voters with sides v0v1, v0v2, v1v2 proportional to `kendall`
    times independent lognormal jitter, centroid at the origin, mean side
    VOTER_MEAN_SIDE and a uniform rotation."""
    k01, k02, k12 = kendall
    exp, gauss = math.exp, rng.gauss
    while True:
        d01 = k01 * exp(VOTER_JITTER * gauss(0.0, 1.0))
        d02 = k02 * exp(VOTER_JITTER * gauss(0.0, 1.0))
        d12 = k12 * exp(VOTER_JITTER * gauss(0.0, 1.0))
        if not (d01 < d02 + d12 and d02 < d01 + d12 and d12 < d01 + d02):
            continue
        scale = 3.0 * VOTER_MEAN_SIDE / (d01 + d02 + d12)
        d01, d02, d12 = d01 * scale, d02 * scale, d12 * scale
        # v0 at the origin, v1 on the x-axis, v2 by the law of cosines; then
        # the centroid moves to the origin and the triangle turns by theta.
        x = (d01 * d01 + d02 * d02 - d12 * d12) / (2.0 * d01)
        y = math.sqrt(max(d02 * d02 - x * x, 0.0))
        cx, cy = (d01 + x) / 3.0, y / 3.0
        theta = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(theta), math.sin(theta)
        # Each vertex (px, py) turns as (px - cx, py - cy); v0 and v1 share
        # py = 0.0.
        x0, y0, x1, x2, y2 = 0.0 - cx, 0.0 - cy, d01 - cx, x - cx, y - cy
        pts = (
            (c * x0 - s * y0, s * x0 + c * y0),
            (c * x1 - s * y0, s * x1 + c * y0),
            (c * x2 - s * y2, s * x2 + c * y2),
        )
        if _separated(pts):
            return tuple(Point(px, py) for px, py in pts)


def greedy_embed(p: Profile, cfg: HeuristicConfig) -> HeuristicOutcome:
    """Run the restart loop on one profile.

    A successful restart yields an embedding that is re-verified at
    VERIFY_MARGIN before being reported (SUCCESS implies report.ok).
    Equal (profile, config) pairs give identical outcomes.
    """
    rng = Random(cfg.seed)
    placements_attempted = 0
    weight = [0] * p.m
    kendall = _kendall_sides(p)
    tables = [o.positions for o in p.orders]
    better = _better_masks(o.ranking for o in p.orders) if p.n == 3 else None
    placing: list = [None, 0]
    blocked = None
    for restart in range(1, cfg.max_restarts + 1):
        if kendall is None:
            voters = _draw_voters(rng, p.n)
        else:
            voters = _draw_triangle(rng, kendall)
        if better is not None:
            blocked = _same_side_rule(voters, placing)
            placing[1] = (1 << p.m) - 1
        order = list(range(p.m))
        rng.shuffle(order)
        order.sort(key=weight.__getitem__, reverse=True)
        bounds = _no_bounds(p.n, p.m)
        placed: dict[int, Point] = {}
        # `order` keeps the unplaced alternatives in weighted order, so the
        # first of them takes a tie, and the first placement.
        alt = order[0]
        while alt is not None:
            order.remove(alt)
            placements_attempted += 1
            if better is not None:
                placing[0] = better[alt]
                placing[1] ^= 1 << alt
            pt = _place(
                voters, tables, bounds, alt, rng, cfg.samples_per_placement, blocked
            )
            if pt is None:
                weight[alt] += len(placed)
                break
            placed[alt] = pt
            alt = _tighten(bounds, voters, tables, order, alt, pt) if order else None
        else:
            e = Embedding(voters, tuple(placed[a] for a in range(p.m)))
            report = verify(p, e, VERIFY_MARGIN)
            if report.ok:
                return HeuristicOutcome(
                    Status.SUCCESS, e, restart, placements_attempted, report
                )
    return HeuristicOutcome(
        Status.EXHAUSTED, None, cfg.max_restarts, placements_attempted, None
    )


@dataclass(frozen=True)
class BatchSummary:
    """Exhausted stream indices and restarts used per profile; the counts follow."""

    exhausted_indices: tuple[int, ...]
    restart_histogram: dict[int, int]
    elapsed: float = field(compare=False)

    @property
    def total(self) -> int:
        return sum(self.restart_histogram.values())

    @property
    def exhausted(self) -> int:
        return len(self.exhausted_indices)

    @property
    def successes(self) -> int:
        return self.total - self.exhausted


def summary_json(summary: BatchSummary) -> dict[str, Any]:
    """Deterministic JSON mirror of a summary.

    Wall time is deliberately excluded so repeated runs are byte-identical;
    report it separately from `summary.elapsed`.
    """
    return {
        "total": summary.total,
        "successes": summary.successes,
        "exhausted": summary.exhausted,
        "restart_histogram": {
            str(k): summary.restart_histogram[k]
            for k in sorted(summary.restart_histogram)
        },
        "exhausted_indices": list(summary.exhausted_indices),
    }


def _search_share(
    indexed_profiles: Iterable[tuple[int, Profile]],
    cfg: HeuristicConfig,
    out_dir: str | None,
    share: int,
    workers: int,
    between: Callable[[], None] = lambda: None,
) -> tuple[Counter, list[tuple[int, int]]]:
    """Search the pairs at stream positions share, share + workers, ...,
    calling `between` before each and writing each success's document to
    `out_dir`, if set; returns the restarts histogram and the (stream
    position, stream index) of each profile that exhausted."""
    histogram: Counter[int] = Counter()
    failed: list[tuple[int, int]] = []
    for pos, (index, p) in islice(enumerate(indexed_profiles), share, None, workers):
        between()
        seed = derive_profile_seed(cfg.seed, index)
        outcome = greedy_embed(p, replace(cfg, seed=seed))
        histogram[outcome.restarts_used] += 1
        if outcome.status is not Status.SUCCESS:
            failed.append((pos, index))
        elif out_dir is not None:
            doc = write_embedding(
                p,
                outcome.embedding,
                outcome.report,
                metadata={"seed": seed, "config": {**asdict(cfg), "profile_index": index}},
            )
            with open(f"{out_dir}/{index}.json", "w") as fh:
                fh.write(doc)
    return histogram, failed


def _search_share_and_exit(fd: int, *share_args) -> NoReturn:
    """In a forked child: send the share, or the error that stopped it, as
    one pickled object to the pipe `fd` (an error that does not survive
    pickling goes as a RuntimeError carrying its repr); then leave by
    `os._exit`, 0 once sent and 1 if not, so no atexit hook runs and none
    of the parent's stdio buffers is flushed twice."""
    import pickle

    try:
        try:
            payload = pickle.dumps(_search_share(*share_args))
        except Exception as exc:
            try:
                payload = pickle.dumps(exc)
                pickle.loads(payload)
            except Exception:
                payload = pickle.dumps(RuntimeError(repr(exc)))
        with open(fd, "wb") as fh:
            fh.write(payload)
        os._exit(0)
    finally:
        os._exit(1)


def _usable_workers(workers: int) -> int:
    """`workers`, capped at one per usable CPU; one where there is no fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(workers, len(os.sched_getaffinity(0)))
    return min(workers, os.cpu_count() or 1)


def batch_run(
    indexed_profiles: Iterable[tuple[int, Profile]],
    cfg: HeuristicConfig,
    workers: int = 1,
    out_dir: str | None = None,
) -> BatchSummary:
    """Run greedy_embed over (global stream index, profile) pairs.

    Each profile gets its own seed from (cfg.seed, stream index), so the
    outcome per profile does not depend on `workers`, on how the stream is
    partitioned, or on which indices are sampled. Failures are reported by
    stream index, in stream order. With `out_dir` set, every success is
    written there as an embedding document named by its index, by the
    worker that searched it.

    With W workers this process forks W - 1 children and is worker 0
    itself; worker w searches the pairs at stream positions w, w + W, ...
    Each worker walks its own forked copy of `indexed_profiles` from the
    start, so it must be a sequence, or a generator that computes its items
    in this process (not one that reads a file offset the workers would
    share). A child sends its counts once, through a pipe, when its share
    is done. An error stops the workers at once: between its own profiles
    and as soon as its share is done, this process takes whichever child
    sends first and re-raises a child's error; a child that exits non-zero,
    killed before or during its send, raises ChildProcessError. When this
    process raises or is interrupted it kills every child; no child
    outlives the call. W is at most one per usable CPU, whatever `workers`
    asks for, and 1 on a platform without `os.fork`.
    """
    if type(workers) is not int or workers < 1:
        raise ValueError(f"need an integer workers >= 1, got {workers!r}")
    workers = _usable_workers(workers)
    t0 = time.perf_counter()
    children: dict[int, tuple[BinaryIO, int]] = {}  # pipe fd -> (pipe, pid), unreaped
    if workers > 1:  # deferred like SIGKILL: one worker neither polls nor unpickles
        import pickle
        import select
        waiter = select.poll()
    shares: list[tuple[Counter, list[tuple[int, int]]]] = []

    def collect(timeout: int | None = 0) -> None:
        """Handle each child whose pipe is ready within `timeout` ms (None: until
        one is): read the pipe to its end, reap the child, then keep its share or
        raise its error. A child exits 0 only after sending one whole object, so
        any other exit raises ChildProcessError before anything is unpickled."""
        for fd, _ in waiter.poll(timeout) if children else ():
            pipe, pid = children[fd]
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[fd]
            waiter.unregister(fd)
            pipe.close()
            result = pickle.loads(data) if code == 0 else ChildProcessError(
                f"a batch worker exited with code {code} before sending its result"
            )
            if isinstance(result, BaseException):
                raise result
            shares.append(result)

    try:
        for share in range(1, workers):
            r, w = os.pipe()
            pipe = open(r, "rb")
            try:
                if (pid := os.fork()) == 0:
                    _search_share_and_exit(
                        w, indexed_profiles, cfg, out_dir, share, workers
                    )
                children[r] = pipe, pid
            except BaseException:
                pipe.close()
                raise
            finally:
                os.close(w)
            waiter.register(r, select.POLLIN)
        shares.append(_search_share(indexed_profiles, cfg, out_dir, 0, workers, collect))
        while children:
            collect(None)
    finally:
        for pipe, pid in children.values():
            from signal import SIGKILL  # deferred like pickle: a clean run kills nothing
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)
            pipe.close()
    histogram: Counter[int] = Counter()
    for share_histogram, _ in shares:
        histogram.update(share_histogram)
    failed = sorted(pair for _, share_failed in shares for pair in share_failed)
    return BatchSummary(
        exhausted_indices=tuple(index for _, index in failed),
        restart_histogram=histogram,
        elapsed=time.perf_counter() - t0,
    )
