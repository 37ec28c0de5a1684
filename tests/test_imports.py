"""Import cost: scipy loads only when the logistic rule is evaluated, the
CSV formatter's tables are built only when a matrix is written, and
concurrent.futures never loads (the bench sweeps run serially).

Importing scipy.special takes about 0.3 s and 25 MB, and only
Svlt needs it (for scipy.special.expit).  Building the formatter's power and
digit tables takes a few milliseconds, which a process that never writes a
matrix should not pay.  The subprocess checks run a fresh interpreter, since
this test process has scipy loaded and the tables built already.

Ground truth for the logistic weights is scipy.special.expit itself: the rule
must call it, not a re-derivation, so its weights match bit for bit.

The public names are what `svshrink.__all__` lists: each must resolve, none
may repeat, and names removed from the API must stay gone.
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

from svshrink import DenoiseProblem, Svlt, apply, cli, reconstruct, solve_svlet, svd, write_matrix
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
    for method in ("svlet", "opt-shrink", "svst"):
        out = os.path.join(tmp, method + ".csv")
        code = cli.main(["denoise", path, "--sigma", "0.5", "--method", method, "--output", out])
        assert code == 0, (method, code)
        seen["cli " + method] = scipy_modules()
        pool["cli " + method] = "concurrent.futures" in sys.modules

apply(Svlt(p1=2.0, p2=3.0, p3=0.1), factors.S)
seen["svlt"] = scipy_modules()
print(json.dumps({"scipy": seen, "tables": built, "pool": pool}), file=sys.stderr)
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

    def test_logistic_rule_loads_scipy_special(self, after_each_step):
        assert "scipy.special" in after_each_step["scipy"]["svlt"]


class TestNoThreadPool:
    """The bench sweeps run serially, so no step loads concurrent.futures."""

    @pytest.mark.parametrize("step", ["import", "cli svlet", "cli opt-shrink", "cli svst"])
    def test_concurrent_futures_not_loaded(self, after_each_step, step):
        assert after_each_step["pool"][step] is False


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
        ],
    )
    def test_weights_are_scipy_expit_bitwise(self, p1, p2):
        idx = np.arange(1, 51, dtype=float)
        got = shrinkage._logistic_weights(idx, p1, p2)
        want = expit(-p1 * (idx - p2))
        assert got.tobytes() == want.tobytes()


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
        ],
    )
    def test_removed_names_are_gone(self, name):
        assert name not in svshrink.__all__
        # svshrink.sure is the function, so the modules are looked up by name.
        for module in ("", ".bench", ".cli", ".rmt", ".shrinkage", ".spectral", ".sure"):
            assert not hasattr(importlib.import_module("svshrink" + module), name), module
