"""Alternated benchmark pairs: a base revision against the working tree.

    python3 tools/pairs.py --base HEAD --workload sure-grid --seeds 601-610
    python3 tools/pairs.py --base HEAD --workload sure-grid --seeds 611-614 --trace

The script measures the checkout it lives in.  The base revision's
committed files are exported with `git archive` into a temporary
directory, removed when the run ends; unlike a `git worktree`, the export
registers nothing in the repository, so a killed run leaves nothing behind
there.  The working tree is measured as it is, uncommitted changes
included.  For each seed, `perfbench/run.py --workload W --seed N
--seconds S --trace 0` runs once on each side, the side that goes first
alternating from seed to seed.  For every end-to-end metric in
BENCHMARK.json the script prints each side's median and quartiles, the
change of the medians, and the pairs in which the working tree did
better and those in which both sides read the same.  With --trace the
runs are `--trace 1` and the same lines cover BENCHMARK.json's per-layer
metrics instead, so a stage's change shows beside the totals.  Two more
lines follow, read from `getrusage(RUSAGE_CHILDREN)` around each run: the
minor page faults and the system CPU milliseconds per op attempted, over
the whole run (imports and set-up processes included).  They show an
allocator that returns memory to the OS and faults it back, which costs
ops/s without showing in any metric of the benchmark.  Standard library
only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list:
    """'1,2,5-7' -> [1, 2, 5, 6, 7]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def export(revision: str, directory: str) -> None:
    """Write the committed files of revision into directory."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision], cwd=ROOT, check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory)


# Per-op costs of a whole run read from getrusage, printed after the metrics.
RUSAGE_METRICS = (
    {"name": "minor_faults_per_op", "unit": "1/op", "better": "lower"},
    {"name": "sys_cpu_ms_per_op", "unit": "ms", "better": "lower"},
)


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run; returns the JSON record of its last output line,
    with the run's environment (its line before) under "env" and its
    RUSAGE_METRICS under "rusage"."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(command, cwd=checkout, check=True, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-1])
    record["env"] = json.loads(lines[-2])["env"]
    ops = max(record["attempted"], 1)
    record["rusage"] = {
        "minor_faults_per_op": (after.ru_minflt - before.ru_minflt) / ops,
        "sys_cpu_ms_per_op": 1e3 * (after.ru_stime - before.ru_stime) / ops,
    }
    return record


def value(record: dict, name: str) -> float:
    """A metric of a run_once record, or one of its RUSAGE_METRICS."""
    if name in record["rusage"]:
        return record["rusage"][name]
    return record["metrics"][name]["value"]


def quartiles(values: list) -> tuple:
    """(q1, median, q3), inclusive quartiles; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


def summary(values: list) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 601-610 or 1,4,9")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true",
                        help="traced runs, reporting the per-layer metrics")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        metrics = json.load(stream)["per_layer" if args.trace else "end_to_end"]
    runs = {"base": [], "tree": []}
    base_dir = tempfile.mkdtemp(prefix="pairs-base-")
    try:
        export(args.base, base_dir)
        for k, seed in enumerate(args.seeds):
            order = ("base", "tree") if k % 2 == 0 else ("tree", "base")
            for side in order:
                record = run_once(base_dir if side == "base" else ROOT, args.workload, seed, args.seconds,
                                  args.trace)
                runs[side].append(record)
                print(f"seed {seed} {side}: failed {record['failed']} of {record['attempted']} ops",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    print(f"{args.workload}, {len(args.seeds)} pairs, seeds {args.seeds}, base {args.base}"
          + (", traced" if args.trace else ""))
    for side in ("base", "tree"):
        failed = sum(record["failed"] for record in runs[side])
        attempted = sum(record["attempted"] for record in runs[side])
        print(f"{side}: {failed} of {attempted} ops failed")
    print("metric: base median [q1, q3] -> tree median [q1, q3], change, pairs better / equal")
    for metric in metrics + list(RUSAGE_METRICS):
        name = metric["name"]
        base = [value(record, name) for record in runs["base"]]
        tree = [value(record, name) for record in runs["tree"]]
        lower = metric["better"] == "lower"
        won = sum((t < b) if lower else (t > b) for b, t in zip(base, tree))
        tied = sum(t == b for b, t in zip(base, tree))
        change = statistics.median(tree) / statistics.median(base) - 1.0 if statistics.median(base) else 0.0
        print(f"{name}: {summary(base)} -> {summary(tree)}, {change:+.1%}, {won}/{len(base)} better, {tied} equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
