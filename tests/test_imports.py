"""Import cost: no step loads scipy, the CSV formatter's tables are built
only when a matrix is written, concurrent.futures never loads (the bench
sweeps run serially), and neither `import svshrink` nor `svshrink denoise`
loads the benchmark harness.

Importing scipy.special takes about 0.3 s and 25 MB.  The logistic rule's
weights 1/(1+e^(p1*(i-p2))) come from libm's exp, one value at a time,
which gives scipy.special.expit's bits exactly (0 mismatches over 930,016
values, among them every p1*(i-p2) for p1 up to 1e3 and z at exp's overflow
edges), so the runtime needs no scipy.  numpy's vectorised exp does not:
it differed on 17,456 of the same values.  Building the formatter's power
and digit tables takes a few milliseconds, which a process that never
writes a matrix should not pay.  The subprocess checks run a fresh
interpreter, since this test process has scipy loaded and the tables built
already.

Ground truth for the logistic weights is scipy.special.expit, a test-only
reference: the rule's weights, and every row of the SURE grid's shared
weight table, must match it bit for bit.

The public names are what `svshrink.__all__` lists: each must resolve, none
may repeat, and names removed from the API must stay gone.  The harness's
names live in `svshrink.bench` only, not at the package root.  The version
is stated once, as `svshrink.__version__`, which pyproject.toml reads.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

import svshrink
from svshrink import shrinkage
from svshrink.sure import SVLT_P1

PACKAGE_PARENT = str(Path(svshrink.__file__).resolve().parent.parent)

SCRIPT = """
import json, os, sys, tempfile
import numpy as np

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = {}
built = {}
pool = {}
import svshrink
from svshrink import spectral
seen["import"] = scipy_modules()
built["import"] = spectral._format_tables.cache_info().currsize
pool["import"] = "concurrent.futures" in sys.modules
harness = {"import": "svshrink.bench" in sys.modules}

from svshrink import DenoiseProblem, Svlt, apply, cli, reconstruct, solve_svlet, svd, write_matrix
harness["cli"] = "svshrink.bench" in sys.modules
rng = np.random.default_rng(3)
Y = rng.standard_normal((8, 6))
factors = svd(Y)
solved = solve_svlet(DenoiseProblem(Y=Y, sigma=0.5), factors, K=2, C=10.0)
reconstruct(factors, apply(solved.rule, factors.S))
seen["svlet"] = scipy_modules()
built["svlet"] = spectral._format_tables.cache_info().currsize

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "obs.csv")
    write_matrix(path, Y)
    built["write"] = spectral._format_tables.cache_info().currsize
    for method in ("svlet", "opt-shrink", "svst", "svlt"):
        out = os.path.join(tmp, method + ".csv")
        code = cli.main(["denoise", path, "--sigma", "0.5", "--method", method, "--output", out])
        assert code == 0, (method, code)
        seen["cli " + method] = scipy_modules()
        pool["cli " + method] = "concurrent.futures" in sys.modules
        harness["cli " + method] = "svshrink.bench" in sys.modules

apply(Svlt(p1=2.0, p2=3.0, p3=0.1), factors.S)
seen["svlt"] = scipy_modules()
print(json.dumps({"scipy": seen, "tables": built, "pool": pool, "harness": harness}), file=sys.stderr)
"""


@pytest.fixture(scope="module")
def after_each_step():
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.strip().splitlines()[-1])


class TestScipyStaysUnloaded:
    @pytest.mark.parametrize("step", ["import", "svlet", "cli svlet", "cli opt-shrink", "cli svst"])
    def test_no_scipy_before_logistic_rule(self, after_each_step, step):
        assert after_each_step["scipy"][step] == []

    @pytest.mark.parametrize("step", ["cli svlt", "svlt"])
    def test_logistic_rule_loads_no_scipy(self, after_each_step, step):
        assert after_each_step["scipy"][step] == []


class TestNoThreadPool:
    """The bench sweeps run serially, so no step loads concurrent.futures."""

    @pytest.mark.parametrize("step", ["import", "cli svlet", "cli opt-shrink", "cli svst"])
    def test_concurrent_futures_not_loaded(self, after_each_step, step):
        assert after_each_step["pool"][step] is False


class TestHarnessNotImported:
    """The package root holds the estimator; the benchmark harness and its
    stdlib imports load only when `svshrink.bench` is imported by name, or
    by the `bench` command, the one command that runs it."""

    def test_import_does_not_load_bench(self, after_each_step):
        assert after_each_step["harness"]["import"] is False

    @pytest.mark.parametrize("step", ["cli", "cli svlet", "cli opt-shrink", "cli svst", "cli svlt"])
    def test_cli_denoise_does_not_load_bench(self, after_each_step, step):
        assert after_each_step["harness"][step] is False


class TestFormatTablesBuiltOnWrite:
    @pytest.mark.parametrize("step", ["import", "svlet"])
    def test_not_built_before_a_write(self, after_each_step, step):
        assert after_each_step["tables"][step] == 0

    def test_built_by_first_write(self, after_each_step):
        assert after_each_step["tables"]["write"] == 1


class TestLogisticWeights:
    @pytest.mark.parametrize(
        "p1, p2",
        [
            (0.0, 1.0),
            (1.0, 3.0),
            (100.0, 7.0),
            (0.37, 2.5),
            (2.718281828459045, 11.125),
            # p1 * (i - p2) far beyond exp's overflow point at about 709.8
            (1e3, 1.0),
            (1e300, 2.5),
            (750.0, 25.75),
            # z = -p1 * (i - p2) at exp's overflow edges: +-709.78,
            # +-ln(DBL_MAX) and +-745.2 at i = 1 and 3, and +-inf where
            # 1e308 * (i - 25.5) overflows
            (709.78, 2.0),
            (709.782712893384, 2.0),
            (745.2, 2.0),
            (1e308, 25.5),
            # non-integer centres between indices
            (1.0, 1.5),
            (100.0, 24.999),
            (3.0, 49.75),
        ],
    )
    def test_weights_are_scipy_expit_bitwise(self, p1, p2):
        idx = np.arange(1, 51, dtype=float)
        got = shrinkage._logistic_weights(idx, p1, p2)
        with np.errstate(over="ignore"):
            want = expit(-p1 * (idx - p2))
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("L", [1, 2, 50, 200])
    @pytest.mark.parametrize("p1", [0.0, 0.37, SVLT_P1, 750.0, 1e300])
    def test_grid_table_rows_are_the_rule_weights(self, L, p1):
        """tune_grid reads row p2 of its shared table at L - p2 .. 2L - p2;
        every such row is the rule's own weight vector, byte for byte."""
        idx = np.arange(1, L + 1, dtype=float)
        table = shrinkage._logistic_weights(np.arange(1 - L, L, dtype=float), p1, 0.0)
        for p2 in range(1, L + 1):
            want = shrinkage._logistic_weights(idx, p1, float(p2))
            assert table[L - p2:2 * L - p2].tobytes() == want.tobytes(), p2


class TestPublicNames:
    def test_every_exported_name_resolves_once(self):
        assert len(svshrink.__all__) == len(set(svshrink.__all__))
        for name in svshrink.__all__:
            assert getattr(svshrink, name) is not None, name

    @pytest.mark.parametrize(
        "name",
        [
            "GridSpec", "SvletBasis", "solve_expansion", "deterministic_jitter",
            "validate_factors", "ORTHONORMALITY_TOL", "RECONSTRUCTION_TOL",
            "sure_unbiasedness", "SureCheck", "verify_asymptotic_optimality",
            "AsymptoticCheck", "nmse",
        ],
    )
    def test_removed_names_are_gone(self, name):
        assert name not in svshrink.__all__
        # svshrink.sure is the function, so the modules are looked up by name.
        for module in ("", ".bench", ".cli", ".rmt", ".shrinkage", ".spectral", ".sure"):
            assert not hasattr(importlib.import_module("svshrink" + module), name), module

    @pytest.mark.parametrize(
        "name",
        [
            "DEFAULT_C", "DEFAULT_K", "DEFAULT_TRIALS", "PAPER_C_VALUES", "PAPER_K_VALUES",
            "ExperimentGrid", "MethodSpec", "NmseRow", "NmseTable", "SensitivityReport",
            "TimingRow", "generate_problem", "paper_preset", "parse_method", "run_sweep",
            "sensitivity_sweep", "timing_report",
        ],
    )
    def test_harness_names_live_in_bench_only(self, name):
        assert name not in svshrink.__all__
        assert not hasattr(svshrink, name)
        assert getattr(importlib.import_module("svshrink.bench"), name) is not None


class TestVersion:
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_pyproject_reads_package_version(self):
        import tomllib

        pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
        assert "version" not in pyproject["project"]
        assert pyproject["project"]["dynamic"] == ["version"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "svshrink.__version__"}
