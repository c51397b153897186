"""cycrep benchmark runner (standard library only).

    python3 perfbench/run.py --workload ext_two_ways --seed 1 --seconds 30 --trace 0

Runs one workload for about ``--seconds`` seconds as a closed loop of
passes, one at a time, each in a fresh interpreter (child.py): the CLI runs
one process per command, so every pass pays the cold caches a user pays.
Every result is checked by an oracle (workloads.py).

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end medians over the passes: ``wall_s`` (first operation to
last verified result), ``setup_s`` (spawn to the child's ready mark:
interpreter start, ``import cycrep`` and the input modules) and
``peak_rss_mb`` (the child's ru_maxrss).  The two times are rescaled to a
nominal host speed with a reference loop timed in every pass, because the
host's own speed drifts by 30 % over minutes; the raw medians are printed
on the line before.  With ``--trace 1`` the run alternates untraced and
traced passes and the metrics are the per-layer span statistics (medians
over the traced passes, not rescaled), the share of operations that
failed, and the traced and untraced wall times, whose ratio is the tracing
overhead.  A traced run also writes the elimination shapes,
generator counts and run metadata to ``perfbench/out/``.

Exits 2 without a result when the checkout has no cycrep sources, a pass
cannot start, or no pass of some kind completes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "cycrep"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3           # per kind of pass, unless LAST_START_S has passed
LAST_START_S = 60.0      # no pass starts later than this (or --seconds) into a run
PASS_TIMEOUT_S = 100.0   # a pass that takes longer is killed and counted failed
READY_TIMEOUT_S = 30.0


END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# Nominal time of child.reference_loop; wall_s and setup_s are reported at
# the host speed where the loop takes this long (NOTES.md, "Host speed").
# Part of the benchmark's definition: changing it moves every baseline.
REF_S = 0.1


def per_layer_specs() -> list[tuple[str, str]]:
    """Metrics of a traced run, as (name, unit)."""
    return spans.metric_specs() + [
        ("ops_failed", "share"), ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"), ("trace.overhead", "ratio")]


class PassError(RuntimeError):
    """A pass that could not start or set up: the program is not runnable."""


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_hash() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_pass(workload: str, seed: int, trace: int) -> dict:
    """Spawn one child pass and collect its result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    err_path = OUT / f"{workload}.stderr"

    def stderr_tail() -> str:
        return err_path.read_text(errors="replace").strip()[-2000:]

    with open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                cwd=str(ROOT), env=env, bufsize=0)
        try:
            got = b""
            fd = proc.stdout.fileno()
            while b"\n" not in got:
                readable, _, _ = select.select([fd], [], [], READY_TIMEOUT_S)
                chunk = os.read(fd, 4096) if readable else b""
                if not chunk:
                    break
                got += chunk
            setup = time.perf_counter() - t_spawn
            line, _, rest = got.partition(b"\n")
            if line != b"ready":
                proc.kill()
                proc.wait()
                raise PassError(f"pass did not become ready: {stderr_tail()}")
            try:
                more, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return {"setup_s": setup,
                        "crashed": f"timed out after {PASS_TIMEOUT_S} s"}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = (rest + more).decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"setup_s": setup,
                "crashed": f"exit {proc.returncode}: {stderr_tail()}"}
    result = json.loads(lines[-1])
    result["setup_s"] = setup
    return result


def host_adjusted(passes: list[dict], key: str) -> float:
    """Median over passes of ``key`` rescaled to the nominal host speed, using
    the reference loop timed in the same process."""
    return REF_S * statistics.median([r[key] / r["ref_s"] for r in passes])


class Tally:
    """Operation counts over every pass of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ops_per_pass: int | None = None

    def add(self, result: dict) -> None:
        if "crashed" in result:
            # every operation of a pass that died counts as attempted and failed
            n = self.ops_per_pass or 1
            self.attempted += n
            self.failed += n
            self.failures.append(result["crashed"])
            return
        self.ops_per_pass = result["attempted"]
        self.attempted += result["attempted"]
        self.failed += len(result["failures"])
        self.failures += result["failures"]


def measure(args) -> tuple[Tally, dict, dict]:
    """Closed loop of passes for about ``args.seconds``; returns the tally,
    the metrics and the details for the output file."""
    tally = Tally()
    kinds = [0, 1] if args.trace else [0]
    done: dict[int, list[dict]] = {k: [] for k in kinds}
    durations: list[float] = []
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        elapsed = time.perf_counter() - start
        enough = all(len(done[k]) >= MIN_PASSES for k in kinds)
        # stop when the next pass would end after the time is up; the hard
        # limit keeps a run on a very slow host within three minutes
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break
        if elapsed > max(args.seconds, LAST_START_S):
            break
        t = time.perf_counter()
        result = run_pass(args.workload, args.seed, kind)
        durations.append(time.perf_counter() - t)
        tally.add(result)
        done[kind].append(result)
        i += 1

    ok = {k: [r for r in done[k] if "crashed" not in r] for k in kinds}
    if not all(ok.values()):
        raise PassError(f"no pass of some kind completed: {tally.failures[-1:]}")
    details: dict = {
        "passes": {str(k): len(done[k]) for k in kinds},
        "pass_wall_s": {str(k): [r["wall_s"] for r in ok[k]] for k in kinds},
        "pass_cpu_s": {str(k): [r["cpu_s"] for r in ok[k]] for k in kinds},
        "pass_setup_s": {str(k): [r["setup_s"] for r in ok[k]] for k in kinds},
        "pass_ref_s": {str(k): [r["ref_s"] for r in ok[k]] for k in kinds},
        "raw_median": {key: statistics.median([r[key] for r in ok[0]])
                       for key in ("wall_s", "setup_s", "ref_s")},
    }
    if not args.trace:
        values = {
            "wall_s": host_adjusted(ok[0], "wall_s"),
            "setup_s": host_adjusted(ok[0], "setup_s"),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in ok[0]]),
        }
        return tally, {name: (values[name], unit) for name, unit in END_TO_END}, details

    traced = ok[1]
    untraced_wall = host_adjusted(ok[0], "wall_s")
    traced_wall = host_adjusted(traced, "wall_s")
    values = {name: statistics.median([r["spans"][name] for r in traced])
              for name, _ in spans.metric_specs()}
    values["ops_failed"] = tally.failed / tally.attempted
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead"] = traced_wall / untraced_wall
    metrics = {name: (values[name], unit) for name, unit in per_layer_specs()}
    first = traced[0]
    details["counts_repeat"] = all(
        r["shapes"] == first["shapes"] and r["gens"] == first["gens"]
        and all(r["spans"][k] == first["spans"][k]
                for k in first["spans"] if not k.endswith("_s"))
        for r in traced)
    details["elimination_shapes"] = {
        "columns": ["span", "rows", "cols", "nnz", "max_bits", "calls"],
        "rows": first["shapes"]}
    details["resolution_gens_per_degree"] = first["gens"]
    return tally, metrics, details


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (SRC / "__init__.py").is_file():
        print(f"no cycrep sources under {SRC.parent}; nothing to benchmark",
              file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_hash(),
        "src_sha256": source_digest(),
    }
    print(json.dumps({"meta": meta}), flush=True)
    OUT.mkdir(exist_ok=True)
    try:
        tally, metrics, details = measure(args)
    except PassError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    for failure in tally.failures:
        print(f"FAILED {failure}", flush=True)
    if args.trace:
        path = OUT / f"trace_{args.workload}_seed{args.seed}.json"
        record = dict(meta, failures=tally.failures, **details,
                      metrics={k: v for k, (v, _) in metrics.items()})
        # one top-level key per line keeps the file diffable between runs
        path.write_text("{\n" + ",\n".join(
            f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
            for k, v in sorted(record.items())) + "\n}\n")
        print(f"trace written to {path.relative_to(ROOT)}", flush=True)
    print(json.dumps({k: details[k] for k in
                      ("passes", "raw_median", "pass_wall_s", "pass_cpu_s", "pass_setup_s", "pass_ref_s")}), flush=True)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
