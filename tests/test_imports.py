"""Import cost: scipy loads only when the logistic rule is evaluated.

Importing scipy.special takes about 0.3 s and 25 MB, and only
Svlt needs it (for scipy.special.expit).  The subprocess checks run a fresh
interpreter, since this test process has scipy loaded already.

Ground truth for the logistic weights is scipy.special.expit itself: the rule
must call it, not a re-derivation, so its weights match bit for bit.
"""

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
import svshrink
seen["import"] = scipy_modules()

from svshrink import DenoiseProblem, Svlt, apply, cli, reconstruct, solve_svlet, svd, write_matrix
rng = np.random.default_rng(3)
Y = rng.standard_normal((8, 6))
factors = svd(Y)
solved = solve_svlet(DenoiseProblem(Y=Y, sigma=0.5), factors, K=2, C=10.0)
reconstruct(factors, apply(solved.rule, factors.S))
seen["svlet"] = scipy_modules()

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "obs.csv")
    write_matrix(path, Y)
    for method in ("svlet", "opt-shrink", "svst"):
        out = os.path.join(tmp, method + ".csv")
        code = cli.main(["denoise", path, "--sigma", "0.5", "--method", method, "--output", out])
        assert code == 0, (method, code)
        seen["cli " + method] = scipy_modules()

apply(Svlt(p1=2.0, p2=3.0, p3=0.1), factors.S)
seen["svlt"] = scipy_modules()
print(json.dumps(seen), file=sys.stderr)
"""


@pytest.fixture(scope="module")
def loaded_after_each_step():
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.strip().splitlines()[-1])


class TestScipyStaysUnloaded:
    @pytest.mark.parametrize("step", ["import", "svlet", "cli svlet", "cli opt-shrink", "cli svst"])
    def test_no_scipy_before_logistic_rule(self, loaded_after_each_step, step):
        assert loaded_after_each_step[step] == []

    def test_logistic_rule_loads_scipy_special(self, loaded_after_each_step):
        assert "scipy.special" in loaded_after_each_step["svlt"]


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
