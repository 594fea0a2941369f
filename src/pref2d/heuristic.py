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
above). Each restart keeps, per voter, a (rank, distance) pair for every
placed alternative; a placement reads its bands off these lists and passes
them to `geometry.sample_bands` as plain tuples, and
`annuli_for_alternative` is the same band rule returning a `FreeArea`. A
placement that cannot be sampled kills the whole restart; fresh
randomness starts the next one. The order is failure-weighted: a fresh
shuffle, stably sorted by decreasing weight, where a failed placement adds
to its alternative's weight the number of alternatives placed before it in
that restart. The weights live in one profile's search, so its first
restart takes the plain shuffle. The search is one-sided: running out of
restarts says nothing about the profile.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass, field, replace, asdict
from enum import Enum
from random import Random
from typing import Any, ClassVar, Iterable, Iterator, Mapping

from .embedding import Embedding, VerificationReport, verify, write_embedding
from .geometry import (
    TAU_GEO,
    Annulus,
    Band,
    FreeArea,
    Point,
    dist,
    sample_bands,
    sample_free_area,  # not called here; perfbench traces this name
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
    that misses (see `sample_free_area`).

    No field shapes the voter draw: three voters with distinct orders
    always get a Kendall-shaped triangle (see `_draw_triangle`).

    Typical 3-voter / 7-alternative profiles finish in a few dozen
    restarts, but the cap is no guarantee. Canonical profile 10597517
    (`5 1 7 4 6 2 3` / `5 6 2 4 1 7 3`), the hardest seen under uniform
    voter draws, needs 29, 114, 62 and 326 restarts at batch seeds 0-3.
    The slowest of c5's sample, 10741314 (`5 2 4 6 3 7 1` /
    `7 1 5 6 3 4 2`), needs 1,048, 234, 80 and 242.
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


def _free_bands(
    voters: tuple[Point, ...],
    tables: list[tuple[int, ...]],
    rows: list[list[tuple[int, float]]],
    alt: int,
) -> list[Band] | None:
    """The band rule: `alt`'s band (vx, vy, lo, hi) for each voter.

    `tables[i]` maps an alternative to voter i's rank for it, and `rows[i]`
    holds a (rank, distance) pair per placed alternative. Placed
    alternatives the voter likes better than `alt` bound its distance from
    below, worse ones from above. A collapsed band (lo >= hi) returns
    None; unconstrained voters are omitted.
    """
    bands = []
    for (vx, vy), table, row in zip(voters, tables, rows):
        rank = table[alt]
        lo, hi = 0.0, math.inf
        for r, d in row:
            if r < rank:
                if d > lo:
                    lo = d
            elif d < hi:
                hi = d
        if lo >= hi:
            return None
        if lo > 0.0 or hi != math.inf:
            bands.append((vx, vy, lo, hi))
    return bands


def annuli_for_alternative(
    p: Profile,
    voter_points: tuple[Point, ...],
    placed: Mapping[int, Point],
    alt: int,
) -> FreeArea:
    """`_free_bands` as a free area: feasible region for the next
    alternative given the placed ones, flagged infeasible when a band
    collapses."""
    tables = [o.positions for o in p.orders]
    rows = [
        [(table[b], dist(v, pt)) for b, pt in placed.items()]
        for v, table in zip(voter_points, tables)
    ]
    bands = _free_bands(voter_points, tables, rows, alt)
    if bands is None:
        return FreeArea((), infeasible=True)
    return FreeArea(tuple(Annulus(Point(cx, cy), lo, hi) for cx, cy, lo, hi in bands))


def _place(
    voters: tuple[Point, ...],
    tables: list[tuple[int, ...]],
    rows: list[list[tuple[int, float]]],
    alt: int,
    rng: Random,
    budget: int,
) -> Point | None:
    """One placement: `alt`'s bands from `_free_bands`, then a point of
    their intersection from `sample_bands` at PLACEMENT_MARGIN; None when a
    band collapses or the sampler gives up."""
    bands = _free_bands(voters, tables, rows, alt)
    if bands is None:
        return None
    return sample_bands(bands, rng, budget, PLACEMENT_MARGIN)


def _draw_voters(rng: Random, n: int) -> tuple[Point, ...]:
    while True:
        pts = tuple(
            Point(rng.uniform(-VOTER_BOX, VOTER_BOX), rng.uniform(-VOTER_BOX, VOTER_BOX))
            for _ in range(n)
        )
        if _separated(pts):
            return pts


def _separated(pts: tuple[Point, ...]) -> bool:
    return all(
        dist(pts[i], pts[j]) > TAU_GEO
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
    )


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
    while True:
        d01, d02, d12 = [k * math.exp(VOTER_JITTER * rng.gauss(0.0, 1.0)) for k in kendall]
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
        pts = tuple(
            Point(c * (px - cx) - s * (py - cy), s * (px - cx) + c * (py - cy))
            for px, py in ((0.0, 0.0), (d01, 0.0), (x, y))
        )
        if _separated(pts):
            return pts


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
    for restart in range(1, cfg.max_restarts + 1):
        if kendall is None:
            voters = _draw_voters(rng, p.n)
        else:
            voters = _draw_triangle(rng, kendall)
        order = list(range(p.m))
        rng.shuffle(order)
        order.sort(key=weight.__getitem__, reverse=True)
        placed: dict[int, Point] = {}
        rows: list[list[tuple[int, float]]] = [[] for _ in voters]
        for alt in order:
            placements_attempted += 1
            pt = _place(voters, tables, rows, alt, rng, cfg.samples_per_placement)
            if pt is None:
                weight[alt] += len(placed)
                break
            placed[alt] = pt
            for v, table, row in zip(voters, tables, rows):
                row.append((table[alt], dist(v, pt)))
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


def _batch_task(
    args: tuple[int, Profile, HeuristicConfig],
) -> tuple[int, int, Profile, HeuristicOutcome]:
    index, profile, cfg = args
    seed = derive_profile_seed(cfg.seed, index)
    outcome = greedy_embed(profile, replace(cfg, seed=seed))
    return index, seed, profile, outcome


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
    stream index. With `out_dir` set, every success is written there as an
    embedding document named by its index. An error stops the workers at
    once instead of letting them search the rest of the stream. The pool
    has at most one process per usable CPU, whatever `workers` asks for.
    """
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    if hasattr(os, "sched_getaffinity"):
        workers = min(workers, len(os.sched_getaffinity(0)))
    else:
        workers = min(workers, os.cpu_count() or 1)
    t0 = time.perf_counter()
    tasks = ((index, p, cfg) for index, p in indexed_profiles)
    results: Iterator[tuple[int, int, Profile, HeuristicOutcome]]
    pool = None
    if workers == 1:
        results = map(_batch_task, tasks)
    else:
        pool = multiprocessing.Pool(workers)
        results = pool.imap(_batch_task, tasks, chunksize=16)
    failed: list[int] = []
    histogram: Counter[int] = Counter()
    try:
        for index, seed, profile, outcome in results:
            histogram[outcome.restarts_used] += 1
            if outcome.status is Status.SUCCESS:
                if out_dir is not None:
                    doc = write_embedding(
                        profile,
                        outcome.embedding,
                        outcome.report,
                        metadata={
                            "seed": seed,
                            "config": {**asdict(cfg), "profile_index": index},
                        },
                    )
                    with open(f"{out_dir}/{index}.json", "w") as fh:
                        fh.write(doc)
            else:
                failed.append(index)
    finally:
        if pool is not None:
            pool.terminate()
    return BatchSummary(
        exhausted_indices=tuple(failed),
        restart_histogram=histogram,
        elapsed=time.perf_counter() - t0,
    )
