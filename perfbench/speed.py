"""A fixed reference computation that tracks how fast the machine runs.

On a shared virtual machine the CPU time of one and the same computation
moves by up to a quarter within seconds and between minutes, as neighbours
load the host's cores and caches.  The benchmark therefore runs this probe
between blocks of ops and scales each op's CPU time by
PROBE_NOMINAL_S / (probe CPU time measured around the op's block), so that
timings read as they would at one reference speed.  The probe shares no code
with svshrink.  It does the three kinds of work ops are made of: a LAPACK SVD
of a fixed 50x50 matrix, a loop of small-array numpy calls on a validated
frozen dataclass, and a 17-digit text round trip of one row.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from time import process_time

import numpy as np

# The probe's CPU time at the reference speed (a quiet moment of the
# 2-CPU Xeon VM the benchmark was defined on).
PROBE_NOMINAL_S = 8.0e-4
PROBE_REPEATS = 3

_MATRIX = np.random.default_rng(20170120).standard_normal((50, 50))
_COLUMN = _MATRIX[:, 0].copy()
_ROW = tuple(float(v) for v in _MATRIX[0])


@dataclass(frozen=True)
class _Threshold:
    value: float

    def __post_init__(self) -> None:
        if not np.isfinite(self.value):
            raise ValueError("threshold must be finite")


def _probe() -> None:
    np.linalg.svd(_MATRIX, full_matrices=False)
    for k in range(20):
        rule = _Threshold(0.1 * k)
        kept = np.maximum(_COLUMN - rule.value, 0.0)
        float(np.dot(_COLUMN, kept))
        int(np.argmin(np.diff(_COLUMN)))
    text = ",".join(format(v, ".17g") for v in _ROW)
    if [float(token) for token in text.split(",")] != list(_ROW):
        raise AssertionError("speed probe round trip changed a value")


def probe_seconds() -> float:
    """Median CPU time of PROBE_REPEATS probe runs."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = process_time()
        _probe()
        times.append(process_time() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor that brings CPU times measured between two probes to the
    reference speed."""
    return PROBE_NOMINAL_S / (0.5 * (before + after))
