"""Record the benchmark's end-to-end metrics of one revision in BENCH_<n>.json.

    python3 tools/bench_record.py --number 26 --seeds 2801-2805
    python3 tools/bench_record.py --number 25 --revision HEAD~1 --seeds 2801-2805

The script measures the checkout it lives in: the working tree as it is,
uncommitted changes and untracked files that .gitignore does not name
included, or with --revision that revision's committed files.  Either is
exported into a temporary directory as tools/pairs.py exports its two
sides, so every record measures a fresh export.  For each workload of
BENCHMARK.json, `perfbench/run.py --workload W --seed N --seconds S
--trace 0` runs once per seed, through pairs.py's runner, with S the
run_seconds of BENCHMARK.json, so every record's runs have the length the
benchmark's own runs have.  BENCH_<n>.json, written at the root of the
checkout, holds per workload the median and quartiles over the seeds of
every end-to-end metric in BENCHMARK.json and of pairs.py's minor faults
and system CPU time per op, each seed's value, and the ops attempted and
failed.  It also holds the git revision measured, whether the tree had
uncommitted changes, the git tree ids of the directories the runs build
from (SOURCES), the environment perfbench reports and whether every run
pinned BLAS to one thread before numpy was loaded.  A tree id is the one
`git rev-parse <commit>:src` prints once the measured files are committed,
so a record made from a dirty tree can be matched to the commit that holds
its code.  Under "stages" it also holds the median and quartiles of the
read, fit and write seconds that `svshrink denoise --method opt-shrink`
prints for one seeded 1000x1000 CSV, over STAGE_RUNS runs of the command,
each in a fresh process with BLAS on one thread, and beside them each
run's minor page faults and system CPU seconds, read from
`getrusage(RUSAGE_CHILDREN)` around the run as pairs.py reads them: a
block size that makes the allocator return memory to the OS and fault it
back shows there.  Under "shell" it holds, for each method of the
`paper-closed-form` workload, the median time of a 50x50 op with the SVD
computed once and left out (the problem's checks, the fit, the rule and
the rebuild), beside the median times of `np.linalg.svd` and of
`svshrink.svd` on the same matrices: one fresh process per run, SHELL_RUNS
runs, each value a process's median over the workload's 200 cells, each
cell's time the fastest of SHELL_REPEATS calls.  "previous" names the
highest-numbered BENCH file below <n> that the checkout holds, the record
this one is compared with.  "src_lines" is the measured tree's source line
count, the total `wc -l src/svshrink/*.py` prints.  "yardstick" times the
machine with code that imports nothing from svshrink, so records made on
different machines or under different load can be compared: over
YARDSTICK_RUNS fresh processes with BLAS on one thread, the median,
quartiles and values of perfbench's speed probe (`probe_seconds()` of
perfbench/speed.py, the median of YARDSTICK_PROBES calls after a first
one that pays the process's set-up) and of the fastest of
YARDSTICK_REPEATS `np.linalg.svd` calls on one seeded YARDSTICK_SHAPE
standard normal matrix, both in CPU seconds.  Each workload's record
also holds under "yardstick" the same two times from one such process
run right after each of its seeds' runs, so the machine is timed in the
state the workload met; the median, quartiles and values are over its
seeds.  "memory" holds, per
workload, the median, quartiles and values over MEMORY_RUNS fresh
processes of the peak resident set size (`ru_maxrss`) after MEMORY_OPS
ops of the workload's pool for seed MEMORY_SEED, each op run on
`library_calls()` and left unchecked, and of the `tracemalloc` peak of one
more op, both in MB: a fixed count of ops, so the peak does not grow with
the ops a faster tree completes.  "quality" holds the mean NMSE that
`bench.run_sweep` gives each of QUALITY_METHODS on each of QUALITY_CELLS,
QUALITY_TRIALS trials from QUALITY_SEED, scored in one fresh process with
BLAS on one thread, beside each method's ratio to QUALITY_BASE in the same
cell (criterion 8's ratio is svlet's in the first cell) and a SHA-256 of
the values: unlike a time, NMSE is deterministic on one BLAS build, so a
changed digest is a quality change.  The shell, yardstick, memory and
quality processes run with `-B`, so none writes into the export.  Standard
library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile

from pairs import ROOT, RUSAGE_METRICS, export, git, parse_seeds, quartiles, run_once, value, working_tree_id


# The directories whose files the benchmark's runs build and run.
SOURCES = ("src", "perfbench")


# The stage record: one seeded CSV of standard normal entries, denoised
# with sigma 1 by the checkout's CLI.
STAGE_SHAPE = (1000, 1000)
STAGE_SEED = 27
STAGE_RUNS = 5
STAGE_METHOD = "opt-shrink"


def stage_record(checkout: str) -> dict:
    """Median and quartiles of the stage seconds, minor faults and system
    CPU seconds of STAGE_RUNS runs of `svshrink denoise` on one seeded
    STAGE_SHAPE CSV."""
    rows, cols = STAGE_SHAPE
    draw = random.Random(STAGE_SEED)
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src"), "OPENBLAS_NUM_THREADS": "1"}
    stages = {}
    with tempfile.TemporaryDirectory(prefix="bench-record-stages-") as scratch:
        path = os.path.join(scratch, "Y.csv")
        with open(path, "w") as stream:
            for _ in range(rows):
                stream.write(",".join("%.17g" % draw.gauss(0.0, 1.0) for _ in range(cols)) + "\n")
        command = [sys.executable, "-m", "svshrink.cli", "denoise", path, "--sigma", "1",
                   "--method", STAGE_METHOD, "--output", os.path.join(scratch, "X.csv")]
        for _ in range(STAGE_RUNS):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            done = subprocess.run(command, cwd=checkout, env=env, check=True, capture_output=True, text=True)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            for stage, seconds in json.loads(done.stdout.strip().splitlines()[-1])["stages"].items():
                stages.setdefault((stage, "s"), []).append(seconds)
            stages.setdefault(("minor_faults", "1/run"), []).append(after.ru_minflt - before.ru_minflt)
            stages.setdefault(("sys_cpu_s", "s"), []).append(after.ru_stime - before.ru_stime)
    record = {"command": f"svshrink denoise --sigma 1 --method {STAGE_METHOD}",
              "shape": list(STAGE_SHAPE), "seed": STAGE_SEED, "runs": STAGE_RUNS}
    for (stage, unit), values in stages.items():
        q1, median, q3 = quartiles(values)
        record[stage] = {"unit": unit, "median": median, "q1": q1, "q3": q3, "values": values}
    return record


# The shell record: the paper-closed-form workload's 50x50 cells and
# methods, drawn as perfbench draws them (seed, rank index, SNR index,
# trial 0), timed in a fresh process that imports the checkout's svshrink.
SHELL_METHODS = ("svlet(C=10,K=2)", "opt-shrink", "svht-4sqrt3", "svst-bulk")
SHELL_SNRS = (0.5, 1.0, 2.0, 4.0)
SHELL_SEED = 30
SHELL_RUNS = 5
SHELL_REPEATS = 3
SHELL_CODE = """
import json, statistics, sys
from time import perf_counter
import numpy as np
from svshrink import DenoiseProblem, svd
from svshrink.bench import METHOD_RUNNERS, generate_problem, parse_method

methods, snrs, seed, repeats = json.loads(sys.argv[1])
specs = [parse_method(label) for label in methods]


def fastest(call):
    times = []
    for _ in range(repeats):
        started = perf_counter()
        call()
        times.append(perf_counter() - started)
    return min(times)


samples = {name: [] for name in ("np.linalg.svd", "svd", *methods)}
for r_idx, rank in enumerate(range(1, 51)):
    for s_idx, snr in enumerate(snrs):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r_idx, s_idx, 0]))
        problem = generate_problem(50, 50, rank, snr, rng)[1]
        Y, sigma = problem.Y, problem.sigma
        samples["np.linalg.svd"].append(fastest(lambda: np.linalg.svd(Y, full_matrices=False)))
        samples["svd"].append(fastest(lambda: svd(Y)))
        factors = svd(Y)
        for label, spec in zip(methods, specs):
            run = METHOD_RUNNERS[spec.family]
            samples[label].append(fastest(lambda: run(DenoiseProblem(Y=Y, sigma=sigma), factors, spec, rank)))
print(json.dumps({name: statistics.median(values) for name, values in samples.items()}))
"""


def shell_record(checkout: str) -> dict:
    """Median and quartiles over SHELL_RUNS fresh processes of the median
    50x50 op time without the SVD per method, and of the SVD's."""
    runs = fresh_runs(checkout, ("src",), SHELL_CODE, [SHELL_METHODS, SHELL_SNRS, SHELL_SEED, SHELL_REPEATS],
                      SHELL_RUNS)
    record = {"shape": [50, 50], "methods": list(SHELL_METHODS), "snrs": list(SHELL_SNRS), "seed": SHELL_SEED,
              "runs": SHELL_RUNS, "repeats": SHELL_REPEATS}
    return {**record, **summarised(runs, "s")}


# The yardstick: perfbench's speed probe and one LAPACK SVD, each process
# run with perfbench/ on its path and nothing of svshrink imported.
YARDSTICK_RUNS = 5
YARDSTICK_REPEATS = 3
YARDSTICK_PROBES = 9
YARDSTICK_SHAPE = (1000, 1000)
YARDSTICK_SEED = 33
YARDSTICK_CODE = """
import json, statistics, sys
from time import process_time
import numpy as np
from speed import probe_seconds

shape, seed, repeats, probes = json.loads(sys.argv[1])
Y = np.random.default_rng(seed).standard_normal(shape)
probe_seconds()  # the first call also pays for one-time set-up
probe = statistics.median(probe_seconds() for _ in range(probes))
times = []
for _ in range(repeats):
    started = process_time()
    np.linalg.svd(Y, full_matrices=False)
    times.append(process_time() - started)
print(json.dumps({"probe_s": probe, "np.linalg.svd_s": min(times)}))
"""


def yardstick_runs(checkout: str, count: int) -> list:
    """The speed probe's and the fastest SVD's CPU times in each of count
    fresh yardstick processes."""
    return fresh_runs(checkout, ("perfbench",), YARDSTICK_CODE,
                      [YARDSTICK_SHAPE, YARDSTICK_SEED, YARDSTICK_REPEATS, YARDSTICK_PROBES], count)


def yardstick_record(checkout: str) -> dict:
    """Median, quartiles and values over YARDSTICK_RUNS fresh processes of
    the speed probe's CPU time and the fastest SVD's."""
    runs = yardstick_runs(checkout, YARDSTICK_RUNS)
    record = {"shape": list(YARDSTICK_SHAPE), "seed": YARDSTICK_SEED, "runs": YARDSTICK_RUNS,
              "repeats": YARDSTICK_REPEATS, "probes": YARDSTICK_PROBES}
    return {**record, **summarised(runs, "s")}


# The memory probe: a fixed count of a workload's ops in a fresh process, so
# that, unlike perfbench's peak_rss_mb, the peak does not grow with the ops a
# faster tree completes in a run.
MEMORY_RUNS = 3
MEMORY_OPS = 200
MEMORY_SEED = 34
MEMORY_CODE = """
import json, os, resource, sys, tempfile, tracemalloc
from contextlib import redirect_stdout
import workloads

name, seed, count = json.loads(sys.argv[1])
lib = workloads.library_calls()
# The CLI prints a JSON summary per op.
with tempfile.TemporaryDirectory() as workdir, open(os.devnull, "w") as sink, redirect_stdout(sink):
    ops = workloads.WORKLOADS[name].prepare(seed, workdir).ops
    for index in range(count):
        ops[index % len(ops)].run(lib)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracemalloc.start()
    ops[count % len(ops)].run(lib)
    traced = tracemalloc.get_traced_memory()[1] / 2.0**20
    tracemalloc.stop()
print(json.dumps({"peak_rss_mb": rss, "op_traced_peak_mb": traced}))
"""


def memory_record(checkout: str, names: list) -> dict:
    """Per workload, median, quartiles and values over MEMORY_RUNS fresh
    processes of the peak RSS after MEMORY_OPS ops and of the tracemalloc
    peak of one more op."""
    record = {"ops": MEMORY_OPS, "seed": MEMORY_SEED, "runs": MEMORY_RUNS}
    for name in names:
        runs = fresh_runs(checkout, SOURCES, MEMORY_CODE, [name, MEMORY_SEED, MEMORY_OPS], MEMORY_RUNS)
        record[name] = summarised(runs, "MB")
    return record


# The quality record: NMSE per method and cell, (n, m, rank, snr) each, from
# the harness's own sweep.
QUALITY_CELLS = ((50, 50, 2, 4.0), (50, 50, 25, 2.0), (100, 100, 2, 4.0), (200, 100, 2, 4.0), (100, 200, 2, 4.0),
                 (20, 20, 2, 2.0), (100, 400, 5, 1.0), (400, 400, 5, 1.0))
QUALITY_METHODS = ("svlet(C=10,K=2)", "opt-shrink", "svst-sure")
QUALITY_BASE = "opt-shrink"
QUALITY_TRIALS = 20
QUALITY_SEED = 20260818
QUALITY_CODE = """
import json, sys
from svshrink.bench import ExperimentGrid, run_sweep

cells, methods, trials, seed = json.loads(sys.argv[1])
nmse = []
for n, m, rank, snr in cells:
    grid = ExperimentGrid(n=n, m=m, ranks=(rank,), snrs=(snr,), methods=methods, trials=trials, seed=seed)
    rows = {row.method: row.nmse for row in run_sweep(grid).rows}
    nmse.append([rows[method] for method in methods])
print(json.dumps(nmse))
"""


def quality_record(checkout: str) -> dict:
    """Mean NMSE of each QUALITY_METHODS on each QUALITY_CELLS, its ratio
    to QUALITY_BASE's, and a SHA-256 of the NMSE values as JSON."""
    nmse, = fresh_runs(checkout, ("src",), QUALITY_CODE,
                       [QUALITY_CELLS, QUALITY_METHODS, QUALITY_TRIALS, QUALITY_SEED], 1)
    cells = []
    for (n, m, rank, snr), values in zip(QUALITY_CELLS, nmse):
        by_method = dict(zip(QUALITY_METHODS, values))
        base = by_method[QUALITY_BASE]
        # An error row's NMSE is None, and so is every ratio it enters.
        ratios = {method: None if value is None or base is None else value / base
                  for method, value in by_method.items()}
        cells.append({"n": n, "m": m, "rank": rank, "snr": snr, "nmse": by_method,
                      f"ratio_vs_{QUALITY_BASE}": ratios})
    return {"methods": list(QUALITY_METHODS), "trials": QUALITY_TRIALS, "seed": QUALITY_SEED, "cells": cells,
            "sha256": hashlib.sha256(json.dumps(nmse).encode()).hexdigest()}


def fresh_runs(checkout: str, paths: tuple, code: str, argument, count: int) -> list:
    """The JSON last lines of count fresh `python -B -c code` processes in
    the checkout, with its paths on PYTHONPATH, BLAS on one thread and the
    argument as JSON in argv[1]."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(os.path.join(checkout, path) for path in paths),
           "OPENBLAS_NUM_THREADS": "1"}
    runs = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-B", "-c", code, json.dumps(argument)], cwd=checkout, env=env,
                              check=True, capture_output=True, text=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return runs


def summarised(runs: list, unit: str) -> dict:
    """For each key of the runs' dicts, its median, quartiles and values."""
    record = {}
    for name in runs[0]:
        values = [run[name] for run in runs]
        q1, median, q3 = quartiles(values)
        record[name] = {"unit": unit, "median": median, "q1": q1, "q3": q3, "values": values}
    return record


def src_lines(checkout: str) -> int:
    """The newlines in the checkout's src/svshrink/*.py, which wc -l counts."""
    package = os.path.join(checkout, "src", "svshrink")
    total = 0
    for name in os.listdir(package):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as stream:
                total += stream.read().count(b"\n")
    return total


def previous_record(number: int) -> str | None:
    """The highest-numbered BENCH_<k>.json below number in the checkout."""
    numbers = [int(name[6:-5]) for name in os.listdir(ROOT)
               if name.startswith("BENCH_") and name.endswith(".json") and name[6:-5].isdigit()]
    below = [k for k in numbers if k < number]
    return f"BENCH_{max(below)}.json" if below else None


def workload_record(runs: list, metrics: list, yardsticks: list) -> dict:
    """The medians, quartiles and values of one workload's runs and of the
    yardstick processes run beside them."""
    record = {
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {},
        "yardstick": summarised(yardsticks, "s"),
    }
    for metric in metrics + list(RUSAGE_METRICS):
        values = [value(run, metric["name"]) for run in runs]
        q1, median, q3 = quartiles(values)
        record["metrics"][metric["name"]] = {
            "unit": metric["unit"], "better": metric["better"],
            "median": median, "q1": q1, "q3": q3, "values": values,
        }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", required=True, type=int, help="n in BENCH_<n>.json")
    parser.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 2801-2805 or 1,4,9")
    parser.add_argument("--revision", help="git revision to measure instead of the working tree")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        benchmark = json.load(stream)
    seconds = benchmark["run_seconds"]
    if args.revision:
        revision, dirty = git("rev-parse", "--verify", f"{args.revision}^{{commit}}"), False
        trees = {path: git("rev-parse", f"{revision}:{path}") for path in SOURCES}
    else:
        revision, dirty = git("rev-parse", "HEAD"), bool(git("status", "--porcelain"))
        trees = {path: working_tree_id(path) for path in SOURCES}
    checkout = tempfile.mkdtemp(prefix="bench-record-")
    runs, yardsticks = {}, {}
    try:
        export(revision if args.revision else working_tree_id(), checkout)
        for workload in (entry["name"] for entry in benchmark["workloads"]):
            runs[workload], yardsticks[workload] = [], []
            for seed in args.seeds:
                run = run_once(checkout, workload, seed, seconds, False)
                runs[workload].append(run)
                yardsticks[workload] += yardstick_runs(checkout, 1)
                print(f"{workload} seed {seed}: failed {run['failed']} of {run['attempted']} ops",
                      file=sys.stderr, flush=True)
        stages = stage_record(checkout)
        shell = shell_record(checkout)
        yardstick = yardstick_record(checkout)
        memory = memory_record(checkout, list(runs))
        quality = quality_record(checkout)
        lines = src_lines(checkout)
    finally:
        shutil.rmtree(checkout, ignore_errors=True)
    every = [run for workload_runs in runs.values() for run in workload_runs]
    environment = {key: item for key, item in every[0]["env"].items() if key != "seed"}
    record = {
        "revision": revision,
        "dirty": dirty,
        "trees": trees,
        "seeds": args.seeds,
        "seconds": seconds,
        "blas_pinned": all(run["env"]["blas_threads"] == 1 and run["env"]["blas_pinned_before_numpy_import"]
                           for run in every),
        "environment": environment,
        "workloads": {name: workload_record(workload_runs, benchmark["end_to_end"], yardsticks[name])
                      for name, workload_runs in runs.items()},
        "stages": stages,
        "shell": shell,
        "yardstick": yardstick,
        "memory": memory,
        "quality": quality,
        "src_lines": lines,
        "previous": previous_record(args.number),
    }
    path = os.path.join(ROOT, f"BENCH_{args.number}.json")
    with open(path, "w") as stream:
        json.dump(record, stream, indent=1)
        stream.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
