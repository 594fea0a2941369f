"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the slow criteria (full m=7 stream, 5000-profile batch, 1e5 soundness
trials) together take a few minutes on one core.
"""

import io
import itertools
import json
import math
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

from pref2d import (
    HeuristicConfig,
    Point,
    Profile,
    Status,
    count_canonical,
    dist,
    embed_three_alternatives,
    embed_two_voters,
    enumerate_canonical,
    greedy_embed,
    min_enclosing_disk,
    restrict,
    restrict_embedding,
    sample_in_disk,
    verify,
)
from pref2d.cli import main
from pref2d.geometry import Circle, Disk, CoincidentCircles, circle_intersections

from conftest import random_profile
from test_geometry import brute_force_enclosing_disk


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_c1_enumeration_count_m7():
    t0 = time.time()
    closed_form = count_canonical(7)
    streamed = sum(1 for _ in enumerate_canonical(7))
    elapsed = time.time() - t0
    ok = closed_form == 12_693_241 == streamed and elapsed < 600
    report(
        "1 (m=7 enumeration count)",
        ok,
        f"count_canonical(7)={closed_form}, stream length={streamed}, {elapsed:.0f}s",
    )


def test_c2_closed_form_agreement_small_m():
    expected = {1: 0, 2: 0, 3: 10, 4: 253}
    results = {}
    for m, want in expected.items():
        closed = count_canonical(m)
        streamed = sum(1 for _ in enumerate_canonical(m))
        results[m] = (closed, streamed, want)
    ok = all(c == s == w for c, s, w in results.values())
    report(
        "2 (closed form vs enumeration, m<=4)",
        ok,
        ", ".join(f"m={m}: {c}/{s} (want {w})" for m, (c, s, w) in results.items()),
    )


def test_c3_two_voter_construction_exhaustive():
    t0 = time.time()
    checked = 0
    band_ok = verify_ok = True
    for m in (2, 3, 4, 5):
        for r1, r2 in itertools.combinations(itertools.permutations(range(m)), 2):
            p = Profile.of(m, [r1, r2])
            e = embed_two_voters(p)
            if not verify(p, e, 0.0).ok:
                verify_ok = False
            for i, v in enumerate(e.voter_points):
                for a in range(m):
                    rk = p.orders[i].rank_of(a)
                    d = dist(v, e.alt_points[a])
                    if not (m * m + rk <= d < m * m + rk + 1):
                        band_ok = False
            checked += 1
    elapsed = time.time() - t0
    ok = verify_ok and band_ok and checked == 1 + 15 + 276 + 7140 and elapsed < 60
    report(
        "3 (two-voter construction, exhaustive m=2..5)",
        ok,
        f"{checked} profiles, verify_ok={verify_ok}, band_ok={band_ok}, {elapsed:.1f}s",
    )


def test_c4_three_alternative_construction_all_subsets():
    t0 = time.time()
    orders = list(itertools.permutations(range(3)))
    all_ok = True
    count = 0
    for r in range(1, 7):
        for subset in itertools.combinations(orders, r):
            p = Profile.of(3, subset)
            if not verify(p, embed_three_alternatives(p), 0.0).ok:
                all_ok = False
            count += 1
    single = Profile.of(3, [(0, 1, 2)])
    e = embed_three_alternatives(single)
    v = e.voter_points[0]
    distances = tuple(dist(v, a) for a in e.alt_points)
    exact = distances == (2.0, 3.0, 5.0)
    elapsed = time.time() - t0
    ok = all_ok and exact and count == 63 and elapsed < 1.0
    report(
        "4 (three-alternative construction, all 63 subsets)",
        ok,
        f"{count} subsets verified, single-voter distances={distances}, {elapsed:.2f}s",
    )


def run_cli(argv):
    """Run the CLI in-process; returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def test_c5_sampled_three_by_seven_experiment():
    t0 = time.time()
    sample_size = 5000
    code, out = run_cli(["batch", "--m", "7", "--sample", str(sample_size)])
    elapsed = time.time() - t0
    summary = json.loads(out)
    failures = summary["exhausted_indices"]
    histogram = {int(k): n for k, n in summary["restart_histogram"].items()}
    buckets = {"1": 0, "2-10": 0, "11-100": 0, "101-1000": 0, ">1000": 0}
    for restarts, n in histogram.items():
        if restarts == 1:
            buckets["1"] += n
        elif restarts <= 10:
            buckets["2-10"] += n
        elif restarts <= 100:
            buckets["11-100"] += n
        elif restarts <= 1000:
            buckets["101-1000"] += n
        else:
            buckets[">1000"] += n
    print(f"\n  restart histogram over {sample_size} profiles: {buckets}")
    ok = code == 0 and summary["successes"] == sample_size and elapsed < 1800
    report(
        "5 (seeded 5000-profile 3x7 sample, default config)",
        ok,
        f"{sample_size - len(failures)}/{sample_size} SUCCESS, "
        f"failures at {failures or 'none'}, max restarts "
        f"{max(histogram)}, {elapsed:.0f}s",
    )


def test_c5b_range_mode_is_resumable():
    # The full 12.7M run stays possible: adjacent --range pieces must agree
    # with the one-shot run per profile.
    args = ["batch", "--m", "7", "--seed", "0"]
    code_full, full = run_cli(args + ["--range", "1000..1030"])
    code_lo, lo = run_cli(args + ["--range", "1000..1015"])
    code_hi, hi = run_cli(args + ["--range", "1015..1030"])
    full_s, lo_s, hi_s = json.loads(full), json.loads(lo), json.loads(hi)
    merged = Counter(lo_s["restart_histogram"]) + Counter(hi_s["restart_histogram"])
    same_outcomes = (
        full_s["restart_histogram"] == merged
        and full_s["exhausted_indices"]
        == lo_s["exhausted_indices"] + hi_s["exhausted_indices"]
    )
    ok = (
        code_full == code_lo == code_hi == 0
        and full_s["successes"] == lo_s["successes"] + hi_s["successes"]
        and full_s["total"] == lo_s["total"] + hi_s["total"] == 30
        and same_outcomes
    )
    report(
        "5b (resumable --range mode)",
        ok,
        f"full {full_s['successes']}/30, split {lo_s['successes']}+{hi_s['successes']}, "
        f"restart histogram and exhausted indices {'match' if same_outcomes else 'differ'}",
    )


def test_c6_heuristic_soundness_100k_trials():
    t0 = time.time()
    trials = 100_000
    rng = random.Random(0xACCE55)
    cfg = HeuristicConfig(max_restarts=2, samples_per_placement=20)
    successes = 0
    unsound = 0
    for _ in range(trials):
        m = rng.randint(1, 7)
        n = rng.randint(1, min(3, math.factorial(m)))
        p = random_profile(rng, m, n)
        out = greedy_embed(p, replace(cfg, seed=rng.getrandbits(63)))
        if out.status is Status.SUCCESS:
            successes += 1
            if not verify(p, out.embedding, cfg.verify_margin).ok:
                unsound += 1
    elapsed = time.time() - t0
    ok = unsound == 0 and successes > trials // 4
    report(
        "6 (soundness over 1e5 randomized trials)",
        ok,
        f"{trials} trials, {successes} successes, {unsound} unsound, "
        f"0 exceptions, {elapsed:.0f}s",
    )


def test_c7_geometry_oracles():
    rng = random.Random(0x9E0)
    worst_residual = 0.0
    for _ in range(10_000):
        c1 = Circle(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.01, 5))
        c2 = Circle(Point(rng.uniform(-5, 5), rng.uniform(-5, 5)), rng.uniform(0.01, 5))
        try:
            pts = circle_intersections(c1, c2)
        except CoincidentCircles:
            continue
        for p in pts:
            worst_residual = max(
                worst_residual,
                abs(dist(p, c1.center) - c1.radius),
                abs(dist(p, c2.center) - c2.radius),
            )
    circles_ok = worst_residual <= 1e-9

    worst_med = 0.0
    for _ in range(1000):
        pts = [
            Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            for _ in range(rng.randint(1, 10))
        ]
        got = min_enclosing_disk(pts)
        want = brute_force_enclosing_disk(pts)
        worst_med = max(
            worst_med, abs(got.radius - want.radius), dist(got.center, want.center)
        )
    med_ok = worst_med <= 1e-9

    d = Disk(Point(0, 0), 1.0)
    trials = 100_000
    inner = sum(
        1
        for _ in range(trials)
        if dist(sample_in_disk(d, rng), d.center) < 1 / math.sqrt(2)
    )
    frac = inner / trials
    sampling_ok = abs(frac - 0.5) < 0.01

    ok = circles_ok and med_ok and sampling_ok
    report(
        "7 (geometry oracles)",
        ok,
        f"circle residual {worst_residual:.2e} (<=1e-9), enclosing-disk gap "
        f"{worst_med:.2e} (<=1e-9), inner-disk fraction {frac:.4f} (0.5 +/- 0.01)",
    )


def test_c8_byte_identical_determinism(tmp_path):
    ppath = tmp_path / "p.txt"
    ppath.write_text("7 3\n1 2 3 4 5 6 7\n7 6 5 4 3 2 1\n2 4 6 1 3 5 7\n")
    _, search_a = run_cli(["search", str(ppath), "--seed", "9"])
    _, search_b = run_cli(["search", str(ppath), "--seed", "9"])
    search_ok = search_a == search_b and search_a != ""

    batch_args = ["batch", "--m", "4", "--range", "0..40", "--seed", "3"]
    _, batch_a = run_cli(batch_args + ["--workers", "1"])
    _, batch_b = run_cli(batch_args + ["--workers", "1"])
    _, batch_c = run_cli(batch_args + ["--workers", "4"])
    batch_ok = batch_a == batch_b == batch_c and batch_a != ""

    ok = search_ok and batch_ok
    report(
        "8 (byte-identical determinism)",
        ok,
        f"search repeat identical={search_ok}, batch repeat+workers identical={batch_ok}",
    )


def test_c9_monotonicity_of_embedded_profiles():
    t0 = time.time()
    rng = random.Random(0x40170)
    cases = []
    for _ in range(600):
        m = rng.randint(2, 7)
        n = rng.randint(1, 2)
        p = random_profile(rng, m, n)
        cases.append((p, embed_two_voters(p), 0.0))
    orders = list(itertools.permutations(range(3)))
    for _ in range(200):
        k = rng.randint(1, 6)
        subset = rng.sample(orders, k)
        p = Profile.of(3, subset)
        cases.append((p, embed_three_alternatives(p), 0.0))
    cfg = HeuristicConfig()
    while len(cases) < 1000:
        m = rng.randint(4, 7)
        p = random_profile(rng, m, 3)
        out = greedy_embed(p, replace(cfg, seed=rng.getrandbits(63)))
        if out.status is Status.SUCCESS:
            cases.append((p, out.embedding, cfg.verify_margin))

    checked = 0
    bad = 0
    for p, e, margin in cases:
        assert verify(p, e, margin).ok
        for r in range(1, p.m + 1):
            for keep in itertools.combinations(range(p.m), r):
                q = restrict(p, keep)
                f = restrict_embedding(e, keep)
                if not verify(q, f, margin).ok:
                    bad += 1
                checked += 1
    elapsed = time.time() - t0
    ok = bad == 0 and len(cases) == 1000
    report(
        "9 (restriction monotonicity, 1000 embedded profiles)",
        ok,
        f"{checked} restrictions over {len(cases)} profiles, {bad} failures, {elapsed:.0f}s",
    )
