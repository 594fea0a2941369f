"""Time pref2d's cold set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py SRC_DIR WORKLOAD

Measures from before ``import pref2d`` to the point where the workload could
dispatch its first profile: the package and CLI imports (with the standard
library modules they pull in) and, for the m=7 workloads, the first build of
the table of 5,039 non-identity orders. Then times the reference kernel
(speed.py) in the same process, so the caller can convert the set-up time
to reference seconds at the speed this process actually ran. Prints one
JSON line.
"""

import sys
from time import perf_counter

PROBE_REF_RUNS = 5


def main() -> None:
    src, workload = sys.argv[1], sys.argv[2]
    t0 = perf_counter()
    sys.path.insert(0, src)
    import pref2d
    import pref2d.cli  # noqa: F401  (range-m7 enters through the CLI)

    t1 = perf_counter()
    if workload in ("sample-m7", "range-m7"):
        pref2d.canonical_profile_at(7, 0)
    t2 = perf_counter()
    import json  # only now, so pref2d's own imports were all timed

    from speed import reference_kernel

    ref = []
    for _ in range(PROBE_REF_RUNS):
        t3 = perf_counter()
        reference_kernel()
        ref.append(perf_counter() - t3)
    print(json.dumps({"setup_s": t2 - t0, "import_s": t1 - t0, "order_table_s": t2 - t1,
                      "ref_s": sum(ref) / len(ref)}))


if __name__ == "__main__":
    main()
