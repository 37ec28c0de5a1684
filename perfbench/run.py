"""svshrink benchmark: one process, one closed-loop client, BLAS on one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its `src/`.
With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it runs half the time untraced and half traced, and reports
the per-layer metrics and the tracing overhead.  Every op is checked; the
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The workloads, metrics and the
layer-to-end-to-end predictions are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter, process_time

# BLAS reads its thread count when numpy loads it, so pin it before any
# module that imports numpy.
BLAS_PINNED_BEFORE_IMPORT = "numpy" not in sys.modules
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from speed import PROBE_NOMINAL_S, probe_seconds, scale  # noqa: E402  (imports numpy)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("paper-closed-form", "sure-grid", "cli-file")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 10
WALL_CAP_S = 120.0  # a run's timed loops stop here even with the pool unfinished
BLOCK_S = 0.05  # op wall time between two speed probes
TAIL_MIN_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# A fresh process imports the package and denoises one tiny matrix, then
# reports its CPU time so far and the speed probe's time (see speed.py).
SETUP_CODE = """
import time, numpy as np, svshrink
Y = np.random.default_rng(0).standard_normal((8, 6))
problem = svshrink.DenoiseProblem(Y=Y, sigma=0.5)
factors = svshrink.svd(Y)
solved = svshrink.solve_svlet(problem, factors, K=2, C=10.0)
Xhat = svshrink.reconstruct(factors, svshrink.apply(solved.rule, factors.S))
if not np.all(np.isfinite(Xhat)):
    raise SystemExit("non-finite estimate")
cpu = time.process_time()
import speed
print(svshrink.__file__, cpu, speed.probe_seconds())
"""


def import_package():
    """Import svshrink from this checkout's src/, or explain why not."""
    if not os.path.isdir(os.path.join(SRC, "svshrink")):
        raise ImportError(f"no svshrink package under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import svshrink

    if not in_src(svshrink.__file__):
        raise ImportError(f"svshrink was imported from {svshrink.__file__}, not from {SRC}")
    return svshrink


def in_src(path: str) -> bool:
    return os.path.realpath(path).startswith(os.path.realpath(SRC) + os.sep)


def blas_runtime() -> dict:
    """OpenBLAS's own report of its version and thread count, if it has one."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None or config is None:
                continue
            threads.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {"config": config().decode(), "threads": threads()}
    return {"config": None, "threads": None}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = blas_runtime()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas["config"],
        "blas_threads": blas["threads"],
        "blas_pinned_before_numpy_import": BLAS_PINNED_BEFORE_IMPORT,
        "seed": seed,
    }


def measure_setup() -> tuple:
    """A fresh process imports svshrink and denoises one tiny matrix,
    SETUP_REPEATS times; returns the median of its CPU seconds scaled to the
    reference speed by its own probe, the median wall seconds, and any
    problems."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    scaled, wall, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        started = perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            problems.append(f"set-up process took over {SETUP_TIMEOUT_S} s")
            continue
        wall.append(perf_counter() - started)
        fields = done.stdout.rsplit(maxsplit=2)
        if done.returncode != 0 or len(fields) != 3 or not in_src(fields[0]):
            problems.append(f"set-up process failed ({done.returncode}): {done.stderr.strip()[-200:]}")
            continue
        scaled.append(float(fields[1]) * PROBE_NOMINAL_S / float(fields[2]))
    # 0 only when every set-up process failed, which fails the run.
    return (statistics.median(scaled) if scaled else 0.0,
            statistics.median(wall) if wall else 0.0, problems)


@dataclass
class Phase:
    """One timed loop: op times (CPU time scaled to the reference speed, see
    speed.py), raw CPU and wall times, speed probes, failures, and the NMSE
    of the first pass over the pool."""

    times: list = field(default_factory=list)
    cpu_times: list = field(default_factory=list)
    wall_times: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    nmse: list = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times)

    def close_block(self, start: int) -> None:
        """Probe the speed and scale the ops run since the previous probe."""
        self.probes.append(probe_seconds())
        factor = scale(self.probes[-2], self.probes[-1])
        self.times.extend(cpu * factor for cpu in self.cpu_times[start:])


def run_op(call, op) -> tuple:
    """Time one op, then check it; returns (cpu s, wall s, failure, nmse).

    The CPU time is the process's (all threads, user and system); with BLAS
    on one thread and no blocking I/O in an op it equals the wall time on an
    idle host, and unlike wall time it leaves out what the hypervisor steals."""
    cpu_start, wall_start = process_time(), perf_counter()
    try:
        result = call(op)
    except Exception as exc:  # a failing op is counted, never fatal
        failure, value = f"{type(exc).__name__}: {exc}", None
        return process_time() - cpu_start, perf_counter() - wall_start, failure, value
    cpu, wall = process_time() - cpu_start, perf_counter() - wall_start
    try:
        failure, value = op.check(result)
    except Exception as exc:  # a check that cannot run is a failed check
        failure, value = f"check raised {type(exc).__name__}: {exc}", None
    return cpu, wall, failure, value


def run_loop(ops, seconds: float, lib, tracer=None, wall_cap: float = WALL_CAP_S) -> Phase:
    """Closed loop over the op pool, in whole passes, until the ops have
    taken `seconds` of wall time, so every run times the same mix of ops.
    Check time is not op time.  The speed probe runs after every BLOCK_S of
    op wall time."""
    from tracing import ROOT as ROOT_SPAN

    call = lambda op: op.run(lib)  # noqa: E731
    if tracer is not None:
        call = tracer.wrap(ROOT_SPAN, call)
    phase = Phase(probes=[probe_seconds()])
    measured = block = 0.0
    started = perf_counter()
    index = block_start = 0
    sink = io.StringIO()
    with redirect_stdout(sink):  # the CLI prints a JSON summary per op
        while (measured < seconds or index % len(ops)) and perf_counter() - started < wall_cap:
            if tracer is not None:
                tracer.op = index
            cpu, wall, failure, value = run_op(call, ops[index % len(ops)])
            measured += wall
            block += wall
            phase.cpu_times.append(cpu)
            phase.wall_times.append(wall)
            if failure is not None:
                phase.failures.append((index, failure))
            elif index < len(ops):
                phase.nmse.append(value)
            sink.seek(0)
            sink.truncate()
            index += 1
            if block >= BLOCK_S:
                phase.close_block(block_start)
                block, block_start = 0.0, index
    if block_start < index:
        phase.close_block(block_start)
    return phase


def warm_up(prepared, lib) -> list:
    """Run the first op of each method once, untimed, and cross-check it
    against run_sweep where the workload has one; returns problems."""
    problems = []
    nmse_by_label = {}
    with redirect_stdout(io.StringIO()):
        for op in prepared.ops[: prepared.methods]:
            _, _, failure, value = run_op(lambda o: o.run(lib), op)
            if failure is not None:
                problems.append(f"warm-up {op.method}: {failure}")
            nmse_by_label[getattr(op.method, "label", op.method)] = value
    if prepared.cross_check is not None:
        problems.extend(prepared.cross_check(nmse_by_label))
    return problems


def tail(times: list, percentile: float) -> tuple:
    """Nearest-rank percentile with at least TAIL_MIN_BEYOND samples beyond
    it, stepping down TAIL_LADDER when a run has too few ops; returns
    (seconds, percentile used, samples beyond)."""
    ordered = sorted(times)
    n = len(ordered)
    for q in [percentile] + [p for p in TAIL_LADDER if p < percentile]:
        rank = max(1, math.ceil(q * n / 100.0 - 1e-9))
        if n - rank >= TAIL_MIN_BEYOND or q == TAIL_LADDER[-1]:
            return ordered[rank - 1], q, n - rank
    raise AssertionError("unreachable")


def end_to_end(phase: Phase, workload, setup: tuple) -> tuple:
    """The end-to-end metrics and the notes printed next to them, which
    carry the unscaled counterparts of the timings."""
    setup_s, setup_wall_s = setup
    value, q, beyond = tail(phase.times, workload.tail_percentile)

    def raw(times: list) -> dict:
        return {
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * tail(times, q)[0],
        }

    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (phase.ops_per_s, "1/s"),
        "op_p50_ms": (1e3 * statistics.median(phase.times), "ms"),
        "op_tail_ms": (1e3 * value, "ms"),
        # 0 only when no op of the first pass succeeded, which fails the run.
        "nmse_mean": (statistics.fmean(phase.nmse) if phase.nmse else 0.0, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "op_tail_percentile": q,
        "op_tail_samples_beyond": beyond,
        "ops": len(phase.times),
        "probe_median_ms": 1e3 * statistics.median(phase.probes),
        "cpu": raw(phase.cpu_times),
        "wall": dict(raw(phase.wall_times), setup_s=setup_wall_s),
    }
    return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run(workload_name: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the result record (see main)."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS, library_calls

    workload = WORKLOADS[workload_name]
    problems = []
    if not trace:
        *setup, problems = measure_setup()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload_name}-", dir=OUT)
    try:
        prepared = workload.prepare(seed, workdir)
        problems.extend(prepared.problems)
        lib = library_calls()
        problems.extend(warm_up(prepared, lib))
        if not trace:
            phases = [run_loop(prepared.ops, seconds, lib)]
            metrics, notes = end_to_end(phases[0], workload, setup)
        else:
            tracer = Tracer()
            untraced = run_loop(prepared.ops, seconds / 2, lib, wall_cap=WALL_CAP_S / 2)
            with tracer.patched():
                traced = run_loop(prepared.ops, seconds / 2, tracer.library_calls(), tracer,
                                  wall_cap=WALL_CAP_S / 2)
            phases = [untraced, traced]
            metrics = layer_metrics(tracer)
            metrics["trace.untraced_ops_per_s"] = (untraced.ops_per_s, "1/s")
            metrics["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
            metrics["trace.ops_per_s_ratio"] = (traced.ops_per_s / untraced.ops_per_s, "ratio")
            notes = {"ops": len(untraced.times) + len(traced.times),
                     "spans": os.path.relpath(span_path(workload_name, seed), ROOT)}
            tracer.write(span_path(workload_name, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(len(phase.times) for phase in phases)
    failures = [reason for phase in phases for _, reason in phase.failures]
    notes["fail_ratio"] = len(failures) / attempted
    notes["failures"] = failures[:5]
    notes["problems"] = problems
    return {
        "workload": workload_name,
        "trace": trace,
        "env": environment(seed),
        "notes": notes,
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def span_path(workload_name: str, seed: int) -> str:
    return os.path.join(OUT, f"spans-{workload_name}-seed{seed}.csv")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import svshrink: {exc}", file=sys.stderr)
        return 2
    record = run(args.workload, args.seed, args.seconds, args.trace)
    for name, (value, unit) in record["metrics"].items():
        print(f"{name} = {value:.6g} {unit}")
    notes = record["notes"]
    print(f"fail_ratio = {notes['fail_ratio']:.6g} ratio ({record['failed']} of {record['attempted']} ops)")
    print(json.dumps({"env": record["env"], "notes": notes}))
    result_path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as stream:
        json.dump(record, stream, indent=1)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
