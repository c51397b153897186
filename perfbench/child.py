"""One pass of one workload, in a fresh interpreter.

Started by run.py.  It imports cycrep from the checkout's ``src``, builds
the workload's inputs, writes ``ready`` on its result channel (the parent
times set-up from spawn to that line), times the reference loop, runs the
operations, times the reference loop again, and writes one JSON line with
the pass's wall time, reference time, peak RSS, operation counts and, when
traced, the per-layer spans.

    python3 perfbench/child.py --workload ext_two_ways --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop of Fraction products and dict
    updates, the kind of work cycrep does, without cycrep: a reading of the
    host's speed at that moment.  Part of the benchmark's definition; do not
    change it (see NOTES.md, "Host speed")."""
    t0 = time.perf_counter()
    n = 24
    a = [[Fraction(i * j % 7 - 3, (i + j) % 5 + 1) for j in range(n)] for i in range(n)]
    [[sum((a[i][k] * a[k][j] for k in range(n)), Fraction(0)) for j in range(n)]
     for i in range(n)]
    counts: dict[int, int] = {}
    for x in range(80000):
        counts[x % 997] = counts.get(x % 997, 0) + x
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # Results go to the original stdout; anything the library prints goes
    # to stderr so it cannot corrupt the channel.
    channel = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    sys.path.insert(0, str(SRC))
    import cycrep
    import cycrep.cli  # noqa: F401  (the workloads call cycrep.cli.run)
    if Path(cycrep.__file__).resolve().parent != SRC / "cycrep":
        print(f"cycrep imported from {cycrep.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import spans
    import workloads

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.setup(cycrep, args.seed)
    if tracer:
        tracer.reset()
    channel.write("ready\n")
    channel.flush()

    ref_before = reference_loop()
    rec = workloads.Recorder()
    t0 = time.perf_counter()
    c0 = time.process_time()
    wl.run(cycrep, inputs, rec)
    cpu = time.process_time() - c0
    wall = time.perf_counter() - t0
    ref_after = reference_loop()

    out = {
        "wall_s": wall,
        "cpu_s": cpu,
        "ref_s": (ref_before + ref_after) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": rec.attempted,
        "failures": rec.failures,
    }
    if tracer:
        out["spans"] = tracer.report()
        out["shapes"] = tracer.shape_table()
        out["gens"] = tracer.gens
    channel.write(json.dumps(out) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
