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
metrics instead, so a stage's change shows beside the totals.  Standard
library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
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


def run_once(checkout: str, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One perfbench run; returns the JSON record of its last output line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(command, cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


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
    for metric in metrics:
        name = metric["name"]
        base = [record["metrics"][name]["value"] for record in runs["base"]]
        tree = [record["metrics"][name]["value"] for record in runs["tree"]]
        lower = metric["better"] == "lower"
        won = sum((t < b) if lower else (t > b) for b, t in zip(base, tree))
        tied = sum(t == b for b, t in zip(base, tree))
        change = statistics.median(tree) / statistics.median(base) - 1.0 if statistics.median(base) else 0.0
        print(f"{name}: {summary(base)} -> {summary(tree)}, {change:+.1%}, {won}/{len(base)} better, {tied} equal")
    return 0


if __name__ == "__main__":
    sys.exit(main())
