"""Acceptance criterion 10's timing order: a base revision against the working tree.

    python3 tools/criterion10.py --base HEAD --runs 20
    python3 tools/criterion10.py --base HEAD~1 --seeds 20260818,7 --runs 10

Criterion 10 asks that the median 50x50 times, SVD included, order
svlet < svst-sure < atn-sure < svlt-sure, as `bench.timing_report` measures
them on `paper_preset(seed)["timing"]`.  Its gaps are thin beside a loaded
machine's noise, so one run of the test cannot say how often a revision
keeps the order.  This script runs that report many times on each side.
Both sides are `git archive` exports made as tools/pairs.py makes them: the
base revision's committed files, and the working tree with its uncommitted
changes and untracked files that .gitignore does not name.  Each run is a
fresh `python -B` process with the side's src on its path and BLAS on one
thread, as tools/bench_record.py runs its probes, and the side that goes
first alternates from run to run.  --runs pairs run per seed of --seeds,
whose default is the criterion's own seed.  Per side the script prints how
many runs kept the order, and the median over runs of each method's time
and of the three gaps between neighbours in the order, in microseconds,
each gap with the count of runs that reversed it.
Standard library only.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import tempfile

from bench_record import fresh_runs
from pairs import export, parse_seeds, working_tree_id

ORDER = ("svlet(C=10,K=2)", "svst-sure", "atn-sure", "svlt-sure")
CRITERION_SEED = "20260818"
CODE = """
import json, sys
from svshrink.bench import paper_preset, timing_report

rows = timing_report(paper_preset(json.loads(sys.argv[1]))["timing"])
print(json.dumps({row.method: row.median_seconds for row in rows}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds(CRITERION_SEED),
                        help=f"paper_preset seeds, e.g. 1-3 (default {CRITERION_SEED})")
    parser.add_argument("--runs", type=int, default=20, help="alternated pairs per seed")
    args = parser.parse_args(argv)
    runs = {"base": [], "tree": []}
    dirs = {side: tempfile.mkdtemp(prefix=f"criterion10-{side}-") for side in runs}
    try:
        export(args.base, dirs["base"])
        export(working_tree_id(), dirs["tree"])
        pairs = [seed for seed in args.seeds for _ in range(args.runs)]
        for k, seed in enumerate(pairs):
            for side in ("base", "tree") if k % 2 == 0 else ("tree", "base"):
                runs[side] += fresh_runs(dirs[side], ("src",), CODE, seed, 1)
    finally:
        for directory in dirs.values():
            shutil.rmtree(directory, ignore_errors=True)
    print(f"criterion 10, {len(pairs)} runs per side, seeds {args.seeds}, base {args.base}")
    gaps = list(zip(ORDER, ORDER[1:]))
    for side, medians in runs.items():
        passed = sum(all(run[a] < run[b] for a, b in gaps) for run in medians)
        times = ", ".join(f"{label} {1e6 * statistics.median(run[label] for run in medians):.1f}"
                          for label in ORDER)
        steps = ", ".join(f"{b} - {a} {1e6 * statistics.median(run[b] - run[a] for run in medians):.1f}"
                          f" ({sum(run[b] <= run[a] for run in medians)} reversed)" for a, b in gaps)
        print(f"{side}: {passed} of {len(medians)} passed; median us: {times}; median gaps us: {steps}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
