"""Planar Euclidean embeddings of preference profiles.

A profile is a set of voters, each ranking the same alternatives. An
embedding places voters and alternatives in the plane so that every voter
ranks by increasing distance. This package provides the data model, closed
form constructions for the small cases, a randomized greedy search with
restarts for the rest, exhaustive enumeration of canonical 3-voter
profiles, and a verifier producing auditable certificates.
"""

from .embedding import (
    DocumentParseError,
    Embedding,
    VerificationReport,
    Violation,
    distance_matrix,
    embed_three_alternatives,
    embed_two_voters,
    profile_from_document,
    read_embedding,
    render_svg,
    restrict_embedding,
    verify,
    write_embedding,
)
from .geometry import (
    Annulus,
    Circle,
    CoincidentCircles,
    Disk,
    Point,
    candidate_disk,
    circle_intersections,
    corners,
    dist,
    free_area_contains,
    min_enclosing_disk,
    sample_free_area,
    sample_in_disk,
)
from .heuristic import (
    BatchSummary,
    HeuristicConfig,
    HeuristicOutcome,
    Status,
    annuli_for_alternative,
    batch_run,
    derive_profile_seed,
    greedy_embed,
    summary_json,
)
from .profiles import (
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
    serialize_profile,
)

__version__ = "0.1.0"
