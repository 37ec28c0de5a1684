"""Smoke test: every walkthrough in demos/ runs to completion.

Each demo runs in a fresh interpreter from an empty working directory with
one BLAS thread; the test asserts exit status 0 and nothing more, since the
demos print illustrations rather than checked figures.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import svshrink

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
PACKAGE_PARENT = str(Path(svshrink.__file__).resolve().parent.parent)


def test_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=PACKAGE_PARENT, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
