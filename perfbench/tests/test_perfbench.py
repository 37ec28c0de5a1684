"""Tests of the benchmark itself: every workload passes its checks on a tiny
run, bad ops are counted instead of crashing the run, traced self times
partition op wall time, and the output matches BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)

import run as bench_run  # noqa: E402

bench_run.import_package()

import svshrink  # noqa: E402
from svshrink import ContractError, cli, spectral  # noqa: E402
from tracing import SPANNED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_SECONDS = 0.05
with open(os.path.join(bench_run.ROOT, "BENCHMARK.json")) as _stream:
    BENCHMARK = json.load(_stream)


def fail_on_call(fn, which, make_failure):
    """Wrap fn so that its `which`-th call (1-based) misbehaves."""
    calls = {"n": 0}

    def wrapped(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == which:
            return make_failure(*args, **kwargs)
        return fn(*args, **kwargs)

    return wrapped


@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_tiny_run_passes_every_check(workload, monkeypatch):
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)
    record = bench_run.run(workload, seed=3, seconds=TINY_SECONDS, trace=0)
    assert record["correct"], record["notes"]
    assert record["failed"] == 0
    assert record["attempted"] >= 1
    assert {name: unit for name, (_, unit) in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    for value, _ in record["metrics"].values():
        assert np.isfinite(value) and value > 0.0


def test_nan_estimate_is_counted_not_raised(monkeypatch):
    nan_estimate = lambda factors, s_new: np.full((factors.U.shape[0], factors.V.shape[0]), np.nan)  # noqa: E731
    monkeypatch.setattr(spectral, "reconstruct", fail_on_call(spectral.reconstruct, 5, nan_estimate))
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)
    record = bench_run.run("paper-closed-form", seed=3, seconds=TINY_SECONDS, trace=0)
    assert record["failed"] == 1
    assert not record["correct"]
    assert "non-finite" in record["notes"]["failures"][0]
    assert record["attempted"] > 1


def test_raising_op_is_counted_not_raised(monkeypatch):
    def explode(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(spectral, "svd", fail_on_call(spectral.svd, 7, explode))
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)
    record = bench_run.run("paper-closed-form", seed=3, seconds=TINY_SECONDS, trace=0)
    assert record["failed"] == 1
    assert record["notes"]["failures"] == ["RuntimeError: injected"]


@pytest.mark.parametrize("trace", [0, 1])
def test_nonzero_cli_exit_is_counted_not_raised(trace, monkeypatch):
    def refuse(path, M):
        raise ContractError("injected write failure")

    # The first three ops are the untimed warm-up; the fifth write fails.
    monkeypatch.setattr(cli, "write_matrix", fail_on_call(cli.write_matrix, 5, refuse))
    monkeypatch.setattr(bench_run, "SETUP_REPEATS", 1)
    patched = cli.write_matrix
    record = bench_run.run("cli-file", seed=3, seconds=TINY_SECONDS, trace=trace)
    assert record["failed"] == 1
    assert record["notes"]["failures"] == ["CLI exit code 2"]
    assert cli.write_matrix is patched  # tracing put back the names it wrapped


def test_traced_self_times_and_unaccounted_share_add_up_to_op_wall():
    record = bench_run.run("cli-file", seed=3, seconds=TINY_SECONDS, trace=1)
    assert record["correct"], record["notes"]
    metrics = {name: value for name, (value, _) in record["metrics"].items()}
    shares = sum(metrics[f"{name}.share"] for name in SPANNED if name != "cli.main")
    assert shares + metrics["cli.unaccounted_share"] == pytest.approx(1.0, abs=1e-9)
    assert metrics["cli.main.calls"] == 1.0
    assert metrics["spectral.read_matrix.calls"] == 1.0
    assert metrics["spectral.write_matrix.mb_per_s"] > 0.0
    assert metrics["sure.tune_grid.candidates"] == 100.0
    assert {name: unit for name, (_, unit) in record["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    selfs = tracer.self_times()
    (_, start, end, parent, _, _) = tracer.spans[0]
    assert parent == -1
    assert [span[3] for span in tracer.spans[1:]] == [0, 0, 0]
    assert sum(selfs) == pytest.approx(end - start, rel=1e-12)
    assert selfs[0] == pytest.approx((end - start) - sum(s[2] - s[1] for s in tracer.spans[1:]))


def test_tail_steps_down_when_too_few_samples_lie_beyond():
    times = [float(i) for i in range(1, 1001)]
    assert bench_run.tail(times, 99.0) == (990.0, 99.0, 10)
    assert bench_run.tail(times[:500], 99.0) == (475.0, 95.0, 25)


def test_command_prints_result_last_and_fails_without_the_package(tmp_path):
    command = BENCHMARK["command"]
    args = ["--workload", "paper-closed-form", "--seed", "4", "--seconds", "0.05", "--trace", "1"]
    done = subprocess.run([sys.executable, *command[1:], *args], cwd=bench_run.ROOT,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}

    # A directory holding only BENCHMARK.json and the benchmark's files.
    bare = tmp_path / "bare"
    bare.mkdir()
    subprocess.run(["cp", "-r", os.path.join(bench_run.ROOT, "BENCHMARK.json"), BENCH_DIR, str(bare)],
                   check=True)
    done = subprocess.run([sys.executable, *command[1:], *args], cwd=bare,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert "cannot import svshrink" in done.stderr


def test_package_under_test_is_this_checkout():
    assert bench_run.in_src(svshrink.__file__)


def test_workload_names_match_benchmark_json():
    declared = tuple(w["name"] for w in BENCHMARK["workloads"])
    assert bench_run.WORKLOAD_NAMES == tuple(WORKLOADS) == declared
