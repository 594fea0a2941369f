#!/usr/bin/env python3
"""pref2d benchmark: one workload per invocation.

    python3 perfbench/run.py --workload sample-m7 --seed 1 --seconds 20 --trace 0

Run it from the root of a pref2d checkout; it imports pref2d from that
checkout's ``src`` directory (pure Python, nothing to build) and refuses to
run without it. Workloads: ``sample-m7``, ``range-m7``, ``mixed-small``
(see README.md in this directory).

``--trace 0`` measures for ``--seconds`` with no wrappers installed and
reports the end-to-end metrics. ``--trace 1`` runs one untraced pass and then
the same inputs again with every layer wrapped, and reports the per-layer
metrics and the tracing overhead; its spans go to
``.perfbench-trace/<workload>.spans.jsonl`` in the checkout.

Human-readable lines (all starting with ``#``) come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 0 when every output was correct, 1 when some
check failed (the result is still printed) and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import REF_NOMINAL_S, SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sample-m7", "range-m7", "mixed-small")
SETUP_PROBES = 9
MAX_WORKERS = 8


def load_program():
    """Import the checkout's pref2d, never an installed copy."""
    package = SRC / "pref2d"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from the root of a pref2d checkout")
    sys.path.insert(0, str(SRC))
    import pref2d

    if Path(pref2d.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported pref2d from {pref2d.__file__}, not {package}")
    import workloads

    return workloads


def declared_metrics() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {"end_to_end": spec["end_to_end"], "per_layer": spec["per_layer"]}


class SetupProbes:
    """Cold set-up times, each from a fresh interpreter running
    setup_probe.py, in wall seconds and in reference seconds (scaled by the
    reference kernel timed in the same probe). ``between`` takes one
    whenever another share of the run window has passed, so the probes
    sample the machine across the run; ``finish`` takes whatever is still
    missing."""

    def __init__(self, workload: str, count: int, seconds: float) -> None:
        self.workload = workload
        self.count = count
        self.interval = seconds / count
        self.next_at = perf_counter()
        self.setup_s: list[float] = []
        self.setup_ref_s: list[float] = []
        self.order_table_s: list[float] = []

    def probe(self) -> None:
        res = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), self.workload],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        probe = json.loads(res.stdout.splitlines()[-1])
        self.setup_s.append(probe["setup_s"])
        self.setup_ref_s.append(probe["setup_s"] * REF_NOMINAL_S / probe["ref_s"])
        self.order_table_s.append(probe["order_table_s"])

    def between(self) -> None:
        if len(self.setup_s) < self.count and perf_counter() >= self.next_at:
            self.probe()
            self.next_at += self.interval

    def finish(self) -> None:
        while len(self.setup_s) < self.count:
            self.probe()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child
    (a pool worker on range-m7, a set-up probe elsewhere); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024


def make_workload(wl, name: str, seed: int, workers: int):
    if name == "sample-m7":
        return wl.SampleM7(seed)
    if name == "range-m7":
        return wl.RangeM7(seed, workers, ROOT)
    return wl.MixedSmall(seed)


def run_passes(w, auditor, seconds: float, min_passes: int = 1, tracer=None):
    """Run at least ``min_passes`` passes, and whole passes until the run
    has lasted about ``seconds``: the m=7 workloads compare the same inputs
    across passes and commits, so a pass is never cut short."""
    passes = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes
        passes.append(w.search(auditor, tracer))


def summarize(wl, name: str, passes, tally, workers: int, scale: float,
              probes: SetupProbes) -> tuple[dict[str, float], list[str]]:
    """End-to-end metrics over a run's passes, plus the descriptive lines.

    The gated time metrics are converted to reference seconds (see
    speed.py); the printed-only ones stay in wall-clock time."""
    total = wl.merge(passes)
    if name == "mixed-small":
        # Blocks are distinct inputs: pool them; the digest covers the fixed prefix.
        digest = wl.merge(passes[: wl.MIXED_FIXED // wl.MIXED_BLOCK]).digest
        rate = total.rate
    else:
        # Passes repeat the same inputs: their digests must agree.
        digests = {p.digest for p in passes}
        tally.op(len(digests) == 1, f"passes disagree: {len(digests)} distinct digests")
        digest = wl.merge(passes[:1]).digest
        rate = statistics.median(p.rate for p in passes)
    p50 = statistics.median(p.p50 for p in passes)
    p95 = statistics.median(p.p95 for p in passes)
    samples = passes[0].samples
    audit_rate = total.audit_docs / total.audit_s
    metrics = {
        "profiles_per_s": rate / scale,
        "cert_share": total.successes / total.profiles,
        "audit_docs_per_s": audit_rate / scale,
        "setup_s": statistics.median(probes.setup_ref_s),
    }
    beyond = samples - -(-95 * samples // 100)
    unit = "range_call" if name == "range-m7" else "profile"
    lines = [
        f"wall clock: profiles_per_s {rate:.6g} profiles/s, audit_docs_per_s "
        f"{audit_rate:.6g} docs/s, setup_s {statistics.median(probes.setup_s):.6g} s; "
        f"reference seconds per wall "
        f"second {scale:.6g}",
        f"{unit}_p50_ms {p50 * 1e3:.6g} ms, {unit}_p95_ms {p95 * 1e3:.6g} ms wall clock "
        f"(medians over {len(passes)} {'blocks' if name == 'mixed-small' else 'passes'} "
        f"of {samples} samples, {beyond} beyond p95)",
        f"profiles {total.profiles} in {len(passes)} "
        f"{'blocks' if name == 'mixed-small' else 'passes'}; "
        f"restarts {total.restarts} (max {total.restarts_max}), placements {total.placements}",
    ]
    if name == "sample-m7":
        lines.append(f"full_stream_core_h {wl.M7_PROFILES / rate / 3600:.2f} core-h "
                     "(12,693,241 profiles at this rate on one core)")
    elif name == "range-m7":
        lines.append(f"full_stream_wall_h {wl.M7_PROFILES / rate / 3600:.2f} h "
                     f"(12,693,241 profiles at this rate with {workers} workers)")
    lines.append(f"digest {digest}")
    return metrics, lines


def run_traced(wl, name: str, w_factory, tally, order_table_s: float):
    """One untraced pass, then the same inputs with every layer wrapped and
    each certificate audited once, so the per-layer counts repeat exactly."""
    from tracer import Tracer

    passes = wl.MIXED_FIXED // wl.MIXED_BLOCK if name == "mixed-small" else 1
    untraced = wl.merge(run_passes(w_factory(), wl.Auditor(tally), 0, passes))
    tracer = Tracer()
    try:
        if name == "range-m7":
            wl.trace_batch(tracer)
        else:
            wl.trace_search(tracer)
        wl.trace_audit(tracer)
        traced = wl.merge(run_passes(w_factory(), wl.Auditor(tally), 0, passes, tracer))
    finally:
        tracer.close()
    tally.op(traced.digest == untraced.digest, "traced and untraced digests differ")
    spans = Path(".perfbench-trace") / f"{name}.spans.jsonl"
    tracer.write_spans(ROOT / spans)
    values = wl.layer_metrics(tracer, traced, untraced, order_table_s)
    lines = [
        f"traced pass: {traced.profiles} profiles; restarts {traced.restarts} "
        f"(max {traced.restarts_max}), placements {traced.placements}",
        f"tracing overhead: {untraced.rate:.6g} untraced vs {traced.rate:.6g} traced profiles/s",
        f"digest {traced.digest} (traced pass; equal to the untraced pass: "
        f"{traced.digest == untraced.digest})",
        f"{len(tracer.spans)} spans written to {spans}",
    ]
    if name == "range-m7":
        lines.append("the search runs in forked pool workers whose calls never reach the "
                     "parent: only parent-side layers (cli, batch_run, enumeration, document "
                     "writes, audit) are traced; geometry.* and search counters read 0, "
                     "restarts come from the batch summaries and placements are not reported")
    return values, lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = load_program()
    declared = declared_metrics()
    nproc = len(os.sched_getaffinity(0))
    workers = min(nproc, MAX_WORKERS) if args.workload == "range-m7" else 1
    tally = wl.Tally()
    probes = SetupProbes(args.workload, SETUP_PROBES, args.seconds)
    meter = SpeedMeter()

    def factory():
        return make_workload(wl, args.workload, args.seed, workers)

    if args.trace:
        probes.finish()
        values, lines = run_traced(wl, args.workload, factory, tally,
                                   statistics.median(probes.order_table_s))
        wanted = declared["per_layer"]
    else:
        def between():
            meter.sample()
            probes.between()

        mixed = args.workload == "mixed-small"
        auditor = wl.Auditor(tally, 1 if mixed else wl.AUDIT_ROUNDS_M7, between)
        between()
        passes = run_passes(factory(), auditor, args.seconds,
                            wl.MIXED_FIXED // wl.MIXED_BLOCK if mixed else 1)
        probes.finish()
        meter.finish()
        values, lines = summarize(wl, args.workload, passes, tally, workers, meter.scale(),
                                  probes)
        values["peak_rss_mb"] = peak_rss_mb()
        lines.insert(0, f"fail_share {tally.failed / tally.attempted:.6g} "
                        f"({tally.failed} of {tally.attempted} operations)")
        wanted = declared["end_to_end"]

    print(f"# perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={platform.python_version()} nproc={nproc} workers={workers}")
    for line in lines:
        print(f"# {line}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"# {m['name']} {values[m['name']]:.6g} {m['unit']}")
    for note in tally.notes:
        print(f"perfbench: FAILED {note}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
