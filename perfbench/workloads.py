"""The benchmark's three closed-loop workloads and their correctness gates.

Every workload calls pref2d only through its public functions, looked up on
the module at call time so that a ``Tracer`` can wrap them, and checks every
result it gets back:

* each SUCCESS and each closed-form certificate is written as a document,
  read back, rebuilt into a profile and verified again (at the search's
  ``verify_margin``, or at 0 for the constructions); the profile must come
  back equal and every coordinate bit for bit;
* an exception, a rejected certificate or (on the m=7 workloads) an
  EXHAUSTED outcome at the default budget counts as a failed operation;
* a deterministic digest over each profile's outcome and document bytes must
  repeat across the passes of one run.

See ``perfbench/README.md`` for why each workload exists and which layers it
stresses.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import struct
import tempfile
from array import array
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Any

import pref2d.cli as cli
from pref2d import embedding, geometry, heuristic, profiles

M7_PROFILES = profiles.count_canonical(7)

# sample-m7: the first 300 profiles of acceptance c5's draw (sample seed
# 20240, config seed 0), the sample the ROADMAP baseline was profiled on.
SAMPLE_SEED = 20240
SAMPLE_SIZE = 300

# range-m7: the 32-profile ranges that start at the first indices of that
# draw; twelve calls per pass, so the speed reference (speed.py), sampled
# between calls, sees the machine often enough. Profile 10597517 (in the
# first range) exhausts the default budget of 20000 restarts at config seed
# 0, although other seeds certify it, so its range is skipped: a timed run
# cannot include a 20 s failing search.
RANGE_LEN = 32
RANGE_COUNT = 12
KNOWN_EXHAUSTED = (10_597_517,)

# mixed-small: acceptance c6's distribution and budget.
MIXED_BLOCK = 500
MIXED_FIXED = 4000  # profiles in the digest and in the traced pass
MIXED_CONFIG = {"max_restarts": 2, "samples_per_placement": 20}

# The m=7 workloads audit each certificate this many times (a few ms per
# profile, about 1 s per pass), so audit_docs_per_s is timed over enough work.
AUDIT_ROUNDS_M7 = 10


class Tally:
    """Operations attempted and failed; keeps the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


@dataclass
class Cert:
    """One certificate to audit: a search result, a construction to run
    (``construct`` names the pref2d.embedding function) or, on range-m7, a
    document the batch wrote (``text``)."""

    key: Any
    profile: Any
    margin: float
    embedding: Any = None
    report: Any = None
    metadata: dict | None = None
    construct: str | None = None
    text: str | None = None


@dataclass
class Pass:
    """What one pass over a workload's inputs produced."""

    profiles: int = 0
    successes: int = 0
    search_s: float = 0.0
    latencies: array = field(default_factory=lambda: array("d"))
    outcomes: dict[Any, bytes] = field(default_factory=dict)
    docs: dict[Any, bytes] = field(default_factory=dict)
    restarts: int = 0
    restarts_max: int = 0
    placements: int = 0
    audit_docs: int = 0
    audit_s: float = 0.0
    samples: int = 0
    p50: float = 0.0
    p95: float = 0.0
    digest: str = ""

    @property
    def rate(self) -> float:
        return self.profiles / self.search_s

    def seal(self) -> None:
        """Take the latency percentiles and the digest over outcomes and
        first-audit document bytes, then drop the raw data so a run's
        memory does not grow with its pass count."""
        self.samples = len(self.latencies)
        self.p50 = percentile(self.latencies, 0.50)
        self.p95 = percentile(self.latencies, 0.95)
        h = hashlib.sha256()
        for key in sorted(self.outcomes.keys() | self.docs.keys(), key=str):
            h.update(self.outcomes.get(key, b""))
            h.update(self.docs.get(key, b""))
        self.digest = h.hexdigest()
        self.latencies, self.outcomes, self.docs = array("d"), {}, {}


def _bits(e) -> bytes:
    return b"".join(struct.pack("<2d", *pt) for pt in (*e.voter_points, *e.alt_points))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(math.ceil(q * len(s)) - 1, 0)]


def audit_round(certs: list[Cert], tally: Tally, docs: dict | None = None) -> float:
    """Write, read back, rebuild and verify each certificate once.

    Returns the seconds spent in pref2d calls; the equality checks run
    outside the timed interval. With ``docs`` given, records each
    certificate's document bytes under its key.
    """
    spent = 0.0
    for c in certs:
        try:
            t0 = perf_counter()
            if c.text is not None:
                e, doc = embedding.read_embedding(c.text)
                p = embedding.profile_from_document(doc)
                report = embedding.verify(p, e, c.margin)
                text = embedding.write_embedding(
                    p, e, report, {"seed": doc["seed"], "config": doc["config"]}
                )
                t1 = perf_counter()
                ok = report.ok and p == c.profile and text == c.text
            else:
                e, report = c.embedding, c.report
                if e is None:
                    e = getattr(embedding, c.construct)(c.profile)
                    report = embedding.verify(c.profile, e, c.margin)
                text = embedding.write_embedding(c.profile, e, report, c.metadata)
                e2, doc = embedding.read_embedding(text)
                p2 = embedding.profile_from_document(doc)
                r2 = embedding.verify(p2, e2, c.margin)
                t1 = perf_counter()
                ok = report.ok and r2.ok and p2 == c.profile and _bits(e2) == _bits(e)
        except Exception as exc:  # a crash is a failed operation, not an abort
            tally.op(False, f"audit {c.key}: {exc!r}")
            continue
        spent += t1 - t0
        tally.op(ok, f"audit {c.key}: certificate rejected or not read back bit for bit")
        if docs is not None:
            docs[c.key] = text.encode()
    return spent


class Auditor:
    """Audits each unit's certificates (a profile's, a range's, a block's)
    right after the unit is searched, so audit time is sampled across the
    whole run rather than in one burst; ``rounds`` repeats each audit to
    time enough work. ``between`` runs after every unit."""

    def __init__(self, tally: Tally, rounds: int = 1, between=None) -> None:
        self.tally = tally
        self.rounds = rounds
        self.between = between

    def __call__(self, p: Pass, certs: list[Cert]) -> None:
        for r in range(self.rounds):
            p.audit_s += audit_round(certs, self.tally, p.docs if r == 0 else None)
            p.audit_docs += len(certs)
        if self.between is not None:
            self.between()


def _record(p: Pass, key, out, dt: float) -> None:
    p.profiles += 1
    p.latencies.append(dt)
    p.restarts += out.restarts_used
    p.restarts_max = max(p.restarts_max, out.restarts_used)
    p.placements += out.placements_attempted
    p.outcomes[key] = (
        f"{key} {out.status.value} {out.restarts_used} {out.placements_attempted}\n".encode()
    )


class SampleM7:
    """One process runs greedy_embed over a fixed uniform m=7 sample, as c5 does."""

    def __init__(self, seed: int) -> None:
        self.cfg = heuristic.HeuristicConfig()
        self.indices = sample_draw()
        self.order_rng = random.Random(seed)

    def search(self, auditor: Auditor, tracer=None) -> Pass:
        tally = auditor.tally
        order = self.indices[:]
        self.order_rng.shuffle(order)
        p = Pass()
        for idx in order:
            seed = heuristic.derive_profile_seed(self.cfg.seed, idx)
            cfg = replace(self.cfg, seed=seed)
            if tracer is not None:
                tracer.profile = idx
            try:
                t0 = perf_counter()
                prof = profiles.canonical_profile_at(7, idx)
                t1 = perf_counter()
                out = heuristic.greedy_embed(prof, cfg)
                t2 = perf_counter()
            except Exception as exc:
                tally.op(False, f"profile {idx}: {exc!r}")
                continue
            p.search_s += t2 - t0
            _record(p, idx, out, t2 - t1)
            ok = out.status is heuristic.Status.SUCCESS
            tally.op(ok, f"profile {idx}: exhausted at the default budget")
            if ok:
                p.successes += 1
                auditor(p, [Cert(
                    idx, prof, self.cfg.verify_margin, out.embedding, out.report,
                    {"seed": seed, "config": {**asdict(self.cfg), "profile_index": idx}},
                )])
        p.seal()
        return p


def sample_draw() -> list[int]:
    """The first SAMPLE_SIZE indices of c5's draw, in draw order."""
    return random.Random(SAMPLE_SEED).sample(range(M7_PROFILES), SAMPLE_SIZE)


def range_starts() -> list[tuple[int, int]]:
    ranges = []
    for lo in sample_draw():
        hi = lo + RANGE_LEN
        if not any(lo <= bad < hi for bad in KNOWN_EXHAUSTED):
            ranges.append((lo, hi))
        if len(ranges) == RANGE_COUNT:
            return ranges
    raise AssertionError("not enough ranges")


class RangeM7:
    """`pref2d batch --range LO..HI --workers W --out DIR` over fixed ranges."""

    def __init__(self, seed: int, workers: int, scratch: Path) -> None:
        self.cfg = heuristic.HeuristicConfig()
        self.ranges = range_starts()
        self.order_rng = random.Random(seed)
        self.workers = workers
        self.scratch = scratch

    def search(self, auditor: Auditor, tracer=None) -> Pass:
        tally = auditor.tally
        order = self.ranges[:]
        self.order_rng.shuffle(order)
        p = Pass()
        for lo, hi in order:
            if tracer is not None:
                tracer.profile = f"{lo}..{hi}"
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=self.scratch) as out_dir:
                argv = ["batch", "--m", "7", "--range", f"{lo}..{hi}",
                        "--workers", str(self.workers), "--out", out_dir]
                stdout, stderr = io.StringIO(), io.StringIO()
                try:
                    t0 = perf_counter()
                    with redirect_stdout(stdout), redirect_stderr(stderr):
                        code = cli.main(argv)
                    t1 = perf_counter()
                    summary = json.loads(stdout.getvalue())
                except Exception as exc:
                    tally.op(False, f"range {lo}..{hi}: {exc!r}")
                    continue
                p.search_s += t1 - t0
                p.latencies.append(t1 - t0)
                certs = self._collect(p, tally, lo, hi, code, summary, Path(out_dir))
            auditor(p, certs)
        p.seal()
        return p

    def _collect(self, p: Pass, tally: Tally, lo, hi, code, summary, out_dir: Path) -> list[Cert]:
        n = hi - lo
        p.profiles += n
        p.successes += summary["successes"]
        histogram = {int(k): v for k, v in summary["restart_histogram"].items()}
        p.restarts += sum(k * v for k, v in histogram.items())
        p.restarts_max = max(p.restarts_max, max(histogram))
        p.outcomes[(lo, -1)] = json.dumps(summary, sort_keys=True).encode()
        tally.op(code == 0 and summary["total"] == n and summary["exhausted"] == 0,
                 f"range {lo}..{hi}: exit {code}, {summary['exhausted']} exhausted")
        certs = []
        for idx in range(lo, hi):
            path = out_dir / f"{idx}.json"
            if not path.exists():
                tally.op(False, f"profile {idx}: no document")
                continue
            text = path.read_text()
            doc_seed = json.loads(text).get("seed")
            tally.op(doc_seed == heuristic.derive_profile_seed(self.cfg.seed, idx),
                     f"profile {idx}: document seed {doc_seed}")
            certs.append(Cert((lo, idx), profiles.canonical_profile_at(7, idx),
                              self.cfg.verify_margin, text=text))
        return certs


class MixedSmall:
    """Random strict profiles, m in 1..7 and n in 1..min(3, m!), as in c6,
    searched at a tiny budget in blocks; each block's certificates are then
    audited together with a closed-form one for every profile with n <= 2
    or m <= 3."""

    def __init__(self, seed: int) -> None:
        self.cfg = heuristic.HeuristicConfig(**MIXED_CONFIG)
        self.rng = random.Random(seed)
        self.next_key = 0

    def _profile(self):
        rng = self.rng
        m = rng.randint(1, 7)
        n = rng.randint(1, min(3, math.factorial(m)))
        rankings: list[tuple[int, ...]] = []
        while len(rankings) < n:
            r = list(range(m))
            rng.shuffle(r)
            if tuple(r) not in rankings:
                rankings.append(tuple(r))
        return profiles.Profile.of(m, rankings), rng.getrandbits(63)

    def search(self, auditor: Auditor, tracer=None) -> Pass:
        tally = auditor.tally
        block = []
        for _ in range(MIXED_BLOCK):
            block.append((self.next_key, *self._profile()))
            self.next_key += 1
        p = Pass()
        certs = []
        for key, prof, seed in block:
            cfg = replace(self.cfg, seed=seed)
            if tracer is not None:
                tracer.profile = key
            try:
                t0 = perf_counter()
                out = heuristic.greedy_embed(prof, cfg)
                t1 = perf_counter()
            except Exception as exc:
                tally.op(False, f"profile {key}: {exc!r}")
                continue
            p.search_s += t1 - t0
            _record(p, key, out, t1 - t0)
            tally.op(True, "")
            if out.status is heuristic.Status.SUCCESS:
                p.successes += 1
                certs.append(Cert(key, prof, cfg.verify_margin, out.embedding, out.report,
                                  {"seed": seed, "config": asdict(cfg)}))
            if prof.n <= 2 or prof.m <= 3:
                construct = "embed_two_voters" if prof.n <= 2 else "embed_three_alternatives"
                certs.append(Cert((key, "closed"), prof, 0.0, construct=construct))
        auditor(p, certs)
        p.seal()
        return p


def merge(passes: list[Pass]) -> Pass:
    """Totals over sealed passes (mixed-small blocks, or m=7 passes); the
    digest chains the passes' digests in order."""
    out = Pass()
    h = hashlib.sha256()
    for p in passes:
        out.profiles += p.profiles
        out.successes += p.successes
        out.search_s += p.search_s
        out.restarts += p.restarts
        out.restarts_max = max(out.restarts_max, p.restarts_max)
        out.placements += p.placements
        out.audit_docs += p.audit_docs
        out.audit_s += p.audit_s
        h.update(p.digest.encode())
    out.digest = h.hexdigest()
    return out


# ---------------------------------------------------------------- tracing

def trace_search(tracer) -> None:
    """Wrap the in-process search path: heuristic and geometry layers."""
    draws = tracer.label("geometry.sample_in_disk")
    corner_state = {"empty": False}

    def corners_after(result, _token):
        if not result:
            tracer.count("geometry.corners.empty")
            corner_state["empty"] = True

    def sample_before():
        corner_state["empty"] = False
        return draws.calls

    def sample_after(result, drawn_before):
        drawn = draws.calls - drawn_before
        if result is None:
            tracer.count("geometry.sample_free_area.miss")
            if corner_state["empty"]:
                tracer.count("geometry.draws_no_corner", drawn)
        else:
            tracer.count("geometry.hits")

    def annuli_after(result, _token):
        if result.infeasible:
            tracer.count("heuristic.band_collapse")

    tracer.wrap(heuristic, "greedy_embed", "heuristic.greedy_embed", span=True)
    tracer.wrap(heuristic, "annuli_for_alternative", "heuristic.annuli_for_alternative",
                after=annuli_after)
    tracer.wrap(heuristic, "sample_free_area", "geometry.sample_free_area",
                before=sample_before, after=sample_after)
    tracer.wrap(heuristic, "verify", "embedding.verify")
    tracer.wrap(geometry, "candidate_disk", "geometry.candidate_disk")
    tracer.wrap(geometry, "corners", "geometry.corners", after=corners_after)
    tracer.wrap(geometry, "min_enclosing_disk", "geometry.min_enclosing_disk")
    tracer.wrap(geometry, "circle_intersections", "geometry.circle_intersections")
    tracer.wrap(geometry, "sample_in_disk", "geometry.sample_in_disk")
    tracer.wrap(geometry, "free_area_contains", "geometry.free_area_contains")
    tracer.wrap(profiles, "canonical_profile_at", "profiles.canonical_profile_at", span=True)


def _count_doc_bytes(tracer):
    return lambda text, _token: tracer.count("embedding.doc_bytes", len(text.encode()))


def trace_batch(tracer) -> None:
    """Wrap the parent side of `pref2d batch`; the forked workers' search is
    out of reach, so the geometry and search layers stay unwrapped."""
    tracer.wrap(cli, "main", "cli.main", span=True)
    tracer.wrap(cli, "batch_run", "heuristic.batch_run", span=True)
    tracer.wrap_iter(cli, "enumerate_canonical", "profiles.enumerate_canonical")
    tracer.wrap(heuristic, "write_embedding", "embedding.write_embedding",
                after=_count_doc_bytes(tracer))


def trace_audit(tracer) -> None:
    """Wrap the embedding functions the audit calls."""
    tracer.wrap(embedding, "write_embedding", "embedding.write_embedding", span=True,
                after=_count_doc_bytes(tracer))
    tracer.wrap(embedding, "read_embedding", "embedding.read_embedding", span=True)
    tracer.wrap(embedding, "verify", "embedding.verify", span=True)
    tracer.wrap(embedding, "embed_two_voters", "embedding.construct", span=True)
    tracer.wrap(embedding, "embed_three_alternatives", "embedding.construct", span=True)


def layer_metrics(tracer, traced: Pass, untraced: Pass, order_table_s: float) -> dict[str, float]:
    """Per-layer values from one traced pass; a layer the workload does not
    reach reads 0."""
    s = tracer.stats
    c = tracer.counters

    def calls(label):
        return s[label].calls if label in s else 0

    def self_s(label):
        return s[label].self_s if label in s else 0.0

    out: dict[str, float] = {}
    for label in (
        "geometry.sample_in_disk", "geometry.sample_free_area",
        "geometry.free_area_contains", "geometry.corners", "geometry.min_enclosing_disk",
        "heuristic.greedy_embed", "heuristic.annuli_for_alternative", "embedding.verify",
        "embedding.read_embedding", "embedding.construct", "embedding.write_embedding",
        "profiles.canonical_profile_at",
    ):
        out[f"{label}.calls"] = calls(label)
        out[f"{label}.self_s"] = self_s(label)
    draws = calls("geometry.sample_in_disk")
    out["geometry.sample_free_area.miss"] = c.get("geometry.sample_free_area.miss", 0)
    out["geometry.draw_hit_rate"] = c.get("geometry.hits", 0) / draws if draws else 0.0
    out["geometry.corners.empty"] = c.get("geometry.corners.empty", 0)
    out["geometry.draws_no_corner_share"] = (
        c.get("geometry.draws_no_corner", 0) / draws if draws else 0.0
    )
    out["geometry.candidate_disk.self_s"] = self_s("geometry.candidate_disk")
    out["geometry.circle_intersections.calls"] = calls("geometry.circle_intersections")
    out["heuristic.restarts"] = traced.restarts
    out["heuristic.restarts_max"] = traced.restarts_max
    out["heuristic.placements"] = traced.placements
    out["heuristic.band_collapse"] = c.get("heuristic.band_collapse", 0)
    batch = s.get("heuristic.batch_run")
    out["heuristic.batch_run.s"] = batch.total_s if batch else 0.0
    out["heuristic.batch_run.wait_s"] = (
        batch.self_s - self_s("profiles.enumerate_canonical") if batch else 0.0
    )
    out["embedding.doc_bytes"] = c.get("embedding.doc_bytes", 0)
    out["profiles.order_table_s"] = order_table_s
    out["profiles.enumerate_canonical.self_s"] = self_s("profiles.enumerate_canonical")
    out["cli.main.self_s"] = self_s("cli.main")
    out["trace.untraced_profiles_per_s"] = untraced.rate
    out["trace.traced_profiles_per_s"] = traced.rate
    out["trace.overhead_profiles_per_s"] = untraced.rate - traced.rate
    return out

