"""Command-line front end.

Machine-readable output (documents, reports, summaries, profile records)
goes to stdout as JSON or profile text; human diagnostics go to stderr.
Exit codes: 0 verified success, 1 well-formed negative result (failed
verification, exhausted search, incomplete batch), 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from random import Random

from .embedding import (
    DocumentParseError,
    embed_three_alternatives,
    embed_two_voters,
    encode_report,
    read_embedding,
    render_svg,
    verify,
    write_embedding,
)
from .heuristic import (
    HeuristicConfig,
    Status,
    batch_run,
    greedy_embed,
    summary_json,
)
from .profiles import (
    ProfileParseError,
    canonical_profile_at,
    check_order_table,
    count_canonical,
    enumerate_canonical,
    parse_profile,
    serialize_profile,
)

# Seed of the uniform stream-index draw behind `batch --sample`.
SAMPLE_SEED = 20240


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _parse_range(text: str, total: int) -> tuple[int, int]:
    """LO..HI within a stream of `total` profiles; a range past the end is
    refused, not clipped, so a partition never silently covers less."""
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError:
        raise ValueError(f"range must be LO..HI, got {text!r}") from None
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"need 0 <= LO <= HI <= {total}, got {text!r}")
    return lo, hi


def _cmd_verify(args) -> int:
    profile = parse_profile(_read_text(args.profile), strict=False)
    emb, _ = read_embedding(_read_text(args.embedding))
    report = verify(profile, emb, args.margin)
    print(json.dumps(encode_report(report), indent=2))
    return 0 if report.ok else 1


def _cmd_embed(args) -> int:
    profile = parse_profile(_read_text(args.profile))
    if profile.n <= 2:
        emb = embed_two_voters(profile)
    elif profile.m <= 3:
        emb = embed_three_alternatives(profile)
    else:
        print(
            f"no construction covers n={profile.n}, m={profile.m}; "
            "use `search` for the randomized heuristic",
            file=sys.stderr,
        )
        return 2
    report = verify(profile, emb, 0.0)
    sys.stdout.write(write_embedding(profile, emb, report))
    return 0 if report.ok else 1


def _config_from_args(args) -> HeuristicConfig:
    return HeuristicConfig(
        seed=args.seed,
        max_restarts=args.max_restarts,
        samples_per_placement=args.samples,
    )


def _cmd_search(args) -> int:
    profile = parse_profile(_read_text(args.profile))
    cfg = _config_from_args(args)
    outcome = greedy_embed(profile, cfg)
    if outcome.status is Status.SUCCESS:
        sys.stdout.write(
            write_embedding(
                profile,
                outcome.embedding,
                outcome.report,
                metadata={"seed": cfg.seed, "config": asdict(cfg)},
            )
        )
        return 0
    print(
        json.dumps(
            {
                "status": "exhausted",
                "restarts_used": outcome.restarts_used,
                "placements_attempted": outcome.placements_attempted,
            }
        ),
        file=sys.stderr,
    )
    return 1


def _cmd_enumerate(args) -> int:
    check_order_table(args.m)
    total = count_canonical(args.m)
    lo, hi = _parse_range(args.range, total) if args.range else (0, total)
    for index, p in enumerate(enumerate_canonical(args.m, lo, hi), lo):
        sys.stdout.write(f"# {index}\n{serialize_profile(p)}")
    return 0


def _cmd_count(args) -> int:
    # str() of an int refuses more than sys.get_int_max_str_digits() digits
    # (4300 by default, passed from m = 860); Decimal converts exactly. Only
    # `count` needs it, so the other commands do not pay for its import.
    from decimal import Decimal

    print(Decimal(count_canonical(args.m)))
    return 0


def _cmd_batch(args) -> int:
    cfg = _config_from_args(args)
    # Before counting, which is slow for huge m and overflows --sample.
    check_order_table(args.m)
    total = count_canonical(args.m)
    if args.sample is not None:
        if args.sample < 0:
            raise ValueError(f"need --sample N >= 0, got {args.sample}")
        indices = sorted(Random(SAMPLE_SEED).sample(range(total), min(args.sample, total)))
        pairs = ((i, canonical_profile_at(args.m, i)) for i in indices)
    else:
        lo, hi = _parse_range(args.range, total) if args.range else (0, total)
        pairs = enumerate(enumerate_canonical(args.m, lo, hi), lo)
    summary = batch_run(pairs, cfg, workers=args.workers, out_dir=args.out)
    print(json.dumps(summary_json(summary), indent=2))
    print(f"elapsed: {summary.elapsed:.2f}s", file=sys.stderr)
    return 0 if summary.exhausted == 0 else 1


def _cmd_render(args) -> int:
    profile = parse_profile(_read_text(args.profile), strict=False)
    emb, _ = read_embedding(_read_text(args.embedding))
    svg = render_svg(profile, emb)
    with open(args.out, "w") as fh:
        fh.write(svg)
    return 0


_DEFAULT_CFG = HeuristicConfig()


def _add_heuristic_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=_DEFAULT_CFG.seed)
    sub.add_argument("--max-restarts", type=int, default=_DEFAULT_CFG.max_restarts)
    sub.add_argument(
        "--samples",
        type=int,
        default=_DEFAULT_CFG.samples_per_placement,
        help="samples per placement",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pref2d",
        description="Construct, search for, verify and enumerate planar preference embeddings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check an embedding document against a profile")
    p.add_argument("profile")
    p.add_argument("embedding")
    p.add_argument("--margin", type=float, default=0.0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("embed", help="closed-form construction (n <= 2 or m <= 3)")
    p.add_argument("profile")
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("search", help="randomized greedy search with restarts")
    p.add_argument("profile")
    _add_heuristic_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("enumerate", help="stream canonical 3-voter profiles")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--range", help="half-open stream index range LO..HI")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", help="number of canonical 3-voter profiles")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("batch", help="run the search over the canonical stream")
    p.add_argument("--m", type=int, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--range", help="half-open stream index range LO..HI")
    which.add_argument(
        "--sample", type=int, metavar="N", help="N uniform stream indices (fixed seed)"
    )
    p.add_argument("--out", help="directory for success documents")
    p.add_argument("--workers", type=int, default=1)
    _add_heuristic_flags(p)
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser("render", help="draw a profile embedding as SVG")
    p.add_argument("profile")
    p.add_argument("embedding")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ProfileParseError, DocumentParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
