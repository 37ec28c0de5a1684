"""Byte-identity pins for seeded CLI outputs.

Each case runs one CLI command in-process on a seeded input and compares the
SHA-256 of what it produced with a digest recorded before a refactor of the
engine: the written matrix CSV plus the printed JSON for `denoise` (its
`seconds` and `stages` timings left out), the printed trace or coefficients
for `tune`, and the sweep CSV for `bench` (its `# timestamp=` line left out)
or the sensitivity CSV plus the printed JSON summary.
One case pins `solve_svlet` alone on a seeded corpus of 200 problems: the
bytes of every coefficient vector, normal system, conditioning diagnostic
and SURE report, so a leaner solve must reproduce every bit of them.
One case pins `svd` alone on a seeded corpus of twelve shapes, 1x1 to
400x200 and 200x400, each as a standard normal, rank-1, rank-2, small
integer, zero and three power-of-two scaled matrices, plus a tied-lead
matrix and inputs that fail: the bytes of U, S and V, or the type and
message of the error raised.
Two cases pin the Monte Carlo harnesses of criteria 3 and 7: every float
of `sure_unbiasedness` on two paired configurations, and every field of
`verify_asymptotic_optimality` on two small sizes, whose fits run on the
r* < L leading singular values only.
One more case pins `write_matrix` alone on a seeded array whose magnitudes
span 1e-300..1e300 with both signs and signed zeros, so both `%g` notations,
the zeros, and the exact ties the fast formatter hands back to `%.17g` are
covered.
One case pins the printed report of `rmt-check --n 150 --trials 4 --seed 9`,
whose spiked draws come from one seed stream per check and trial.
A digest changes only when some output byte changes, so a refactor that
claims "same behaviour" must leave every case green.

svht (default `mu`) and opt-shrink are pinned on a square input only: their
calibration of non-square matrices is due to change on purpose.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import svshrink
from svshrink import Identity, Svst, cli, solve_svlet, svd, write_matrix
from svshrink.bench import generate_problem
from svshrink.errors import ContractError, FactorizationError

from montecarlo import sure_unbiasedness, verify_asymptotic_optimality

SIGMA = "0.5"

PACKAGE_PARENT = str(Path(svshrink.__file__).resolve().parent.parent)
TESTS = str(Path(__file__).resolve().parent)

SWEEP_CONFIG = """\
run = sweep
n = 12
m = 10
ranks = 1,3
snrs = 1.0 4.0
methods = svlet(C=10,K=2) svst-sure atn-sure svlt-sure eym-oracle
trials = 2
"""

SENSITIVITY_CONFIG = """\
run = sensitivity
n = 12
m = 10
ranks = 1,3
snrs = 1.0 4.0
trials = 2
c_values = 5 10
k_values = 1 2
"""

EXPECTED = {
    "denoise-svlet-30x20": "911b2a01acf3d1f83afeb7ede9f24a0a9083775b97c648ba8ccfe8b9d562d803",
    "denoise-svlet-20x30": "bf709803ab06a5d7f33249879e45c1ba972233e149f748dfae98e7d237dc845b",
    "denoise-svst-30x20": "b02e3c34e2a54eaba3e60e8f82657d2af8c47fb40db3c5f9b3e3ab1346d82509",
    "denoise-svst-20x30": "486f624dbdd9b24c2093200a392ddf18f1878197e6757add00882cde5fdfc361",
    "denoise-atn-30x20": "302f5e691154b72e932b3ad60164ff792639908506618229e3e1bd3e09ebeb59",
    "denoise-atn-20x30": "b8044cecdf42c49ce19a1d8584615970dff36c0163f1701fef2d3369438bba8d",
    "denoise-svlt-30x20": "f5a9cb6fc855643c654e426a3cd67294251e382965b9688ca292bf1de1d183cb",
    "denoise-svlt-20x30": "e4e94cf2de7d8ddd5dc6e98ff2820180f50a09e727c73bdee3b5a870d19ad2d1",
    "denoise-eym-30x20": "d7fd2e993d22e474a61184e766f1a24ab13b6b55474c37480a9386294c3e00ae",
    "denoise-eym-20x30": "bd13696accb81545ba6676d29fbef126278ea52729c46f965fa8ad3c0df16baa",
    "denoise-svst-25x25": "584d1bf798d36ed0df6c68e8f01d84a032f3a7aa5b49b975fb492319a6b5c223",
    "denoise-atn-25x25": "c6d79778837e9f0176f5deaa3b2220c7f524b68cd32371afc8e2007cac0634ec",
    "denoise-svlt-25x25": "033f028d4f16b83955789780aa369f6e03b58862d89947e71f2c17d0869fba3c",
    "denoise-svht-25x25": "d22f3a37d8dae6802ca8f96bc63c16a290df86a97dec900f351b8bf92d032fdc",
    "denoise-opt-shrink-25x25": "3c20d95e37933db5bf59160ffe3466d19a15ec573756cc5c8cab059f7e10f89f",
    "tune-svlet-30x20": "ecea036c72ed9eaf168e9a9470c3bc628f2394641e79d6d605734d3448c396b4",
    "tune-svst-30x20": "df452ed5ab5aa5935b7bd5597b543e84c5327eb1969a32c303b9b427c104db1b",
    "tune-atn-30x20": "8af33c34f9d462057d4bb2d8209e37c80eb8fe3faff2518138d1cbbd3c7a180c",
    "tune-svlt-30x20": "7ae59c2bba387d4a6d19a550501871e1b411d995986d63011b4d4537b7d0081b",
    "tune-svst-25x25": "df3018dc0184698ecd5ae59fec0eea65dbb1de61c7d92a7876d8adbae763ae23",
    "tune-atn-25x25": "a18bceee93b301874be9f182346c139b1bf2c96b6e2f74e167699502f933ebf0",
    "tune-svlt-25x25": "138297cb52a3cd2d18196db494e148db51941038211ad0c62481bae558351437",
    "tune-svlet-20x30": "2a3b6145cc1f1d696ea363652fc57c1290fead9aef7664b213e96b536448e2bf",
    "tune-svst-20x30": "6556d68d8cd7de6339b8e2e5c2ced579e0f6fbe533420e2614e84bccffb776bd",
    "tune-atn-20x30": "78324aefe27a9e627b3376ce5d11410b1bd4662d7e969a1cc82fb9340c289c07",
    "tune-svlt-20x30": "9084d60be7afad6bb67c878b02dd7772bb3c785282c9ef69f951c260d50b61d1",
    "denoise-svlt-p1-30x20": "02f269d6b31e2e48a7e4d0cde10a5070044e290db266dae8222eca1765eb5699",
    "bench-sweep": "f9bece338623c6bd74c6b018ac3b8b2eac1fa544758a6f6edde6821655dafff2",
    "bench-sensitivity": "a60c27475b5eea1cf54e111b4db7675c2ae67ce9120c17c242c3784708f98c7b",
    "write-mixed-300x300": "3729b3edbacfdd0b959be31d17cca6221b5d77bcd7553770c2feebf02e46fd87",
    "svd-corpus": "33e0d4cf2745618d772ca565e19a0b9b21232e0a649b3638799758c6d53b30cf",
    "solve-svlet-corpus": "fd57373641e8fc4a89703b8b94ad0aaa79229b5944ac718b03a340b4eed75cc9",
    "sure-unbiasedness": "210908eb0eed31dfa0b2f56a5cf92db812e8af37c8a66be138bc1b1edc5e5959",
    "asymptotic-optimality": "a6ea181d1f8140a3ff7a378e1d32e4db37852998ba6346deba057d6e0eabcf8f",
    "rmt-check-150": "78444e2badcc78dd907ecc53a8da8553337556d40b15678f61a29728e736f68c",
}

SVLET_SHAPES = ((50, 50), (30, 20), (20, 30), (100, 40), (9, 5))
# C = 1e9 makes the atoms nearly equal, so K >= 2 takes the ridge path.
SVLET_WIDTHS = (5.0, 10.0, 20.0, 1e9)


def _input(path, n, m, seed=20261018):
    rng = np.random.default_rng([seed, n, m])
    X = rng.standard_normal((n, 3)) @ rng.standard_normal((3, m))
    write_matrix(path, X + 0.5 * rng.standard_normal((n, m)))
    return str(path)


def _run(argv, capsys) -> str:
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


DENOISE_CASES = [
    (method, n, m, extra)
    for method, extra in (
        ("svlet", []),
        ("svst", []),
        ("atn", []),
        ("svlt", []),
        ("eym", ["--rank", "3"]),
    )
    for n, m in ((30, 20), (20, 30))
] + [(method, 25, 25, []) for method in ("svht", "opt-shrink", "svst", "atn", "svlt")]


def _denoise_digest(tmp_path, capsys, method, n, m, extra) -> str:
    path = _input(tmp_path / "obs.csv", n, m)
    out_path = tmp_path / "xhat.csv"
    out = _run(["denoise", path, "--sigma", SIGMA, "--method", method, "--output", str(out_path)] + extra, capsys)
    payload = json.loads(out)
    del payload["seconds"], payload["stages"]
    return _digest(out_path.read_bytes(), json.dumps(payload).encode())


def _tune_digest(tmp_path, capsys, family, n, m) -> str:
    path = _input(tmp_path / "obs.csv", n, m)
    return _digest(_run(["tune", path, "--sigma", SIGMA, "--family", family], capsys).encode())


def _bench_output(tmp_path, capsys, config_text, name) -> tuple:
    config = tmp_path / "bench.cfg"
    config.write_text(config_text)
    out = _run(["bench", "--config", str(config), "--seed", "7", "--output-dir", str(tmp_path)], capsys)
    lines = (tmp_path / name).read_bytes().split(b"\n")
    return b"\n".join(line for line in lines if not line.startswith(b"# timestamp=")), out


def _sweep_digest(tmp_path, capsys) -> str:
    return _digest(_bench_output(tmp_path, capsys, SWEEP_CONFIG, "sweep.csv")[0])


def _sensitivity_digest(tmp_path, capsys) -> str:
    table, out = _bench_output(tmp_path, capsys, SENSITIVITY_CONFIG, "sensitivity.csv")
    payload = json.loads(out)
    del payload["written"]  # holds the per-run tmp_path
    return _digest(table, json.dumps(payload).encode())


@pytest.mark.parametrize(("method", "n", "m", "extra"), DENOISE_CASES, ids=[f"{c[0]}-{c[1]}x{c[2]}" for c in DENOISE_CASES])
def test_denoise_bytes(tmp_path, capsys, method, n, m, extra):
    assert _denoise_digest(tmp_path, capsys, method, n, m, extra) == EXPECTED[f"denoise-{method}-{n}x{m}"]


def test_denoise_svlt_p1_bytes(tmp_path, capsys):
    """--p1 is the one grid setting the CLI passes on to tune_grid."""
    digest = _denoise_digest(tmp_path, capsys, "svlt", 30, 20, ["--p1", "0.75"])
    assert digest == EXPECTED["denoise-svlt-p1-30x20"]


@pytest.mark.parametrize("family", ["svlet", "svst", "atn", "svlt"])
@pytest.mark.parametrize(("n", "m"), [(30, 20), (20, 30)], ids=["30x20", "20x30"])
def test_tune_bytes(tmp_path, capsys, family, n, m):
    assert _tune_digest(tmp_path, capsys, family, n, m) == EXPECTED[f"tune-{family}-{n}x{m}"]


@pytest.mark.parametrize("family", ["svst", "atn", "svlt"])
def test_square_tune_bytes(tmp_path, capsys, family):
    """On a square matrix the |n - m| term of the divergence is zero."""
    assert _tune_digest(tmp_path, capsys, family, 25, 25) == EXPECTED[f"tune-{family}-25x25"]


def test_sweep_bytes(tmp_path, capsys):
    assert _sweep_digest(tmp_path, capsys) == EXPECTED["bench-sweep"]


def test_sensitivity_bytes(tmp_path, capsys):
    assert _sensitivity_digest(tmp_path, capsys) == EXPECTED["bench-sensitivity"]


def test_rmt_check_bytes(capsys):
    out = _run(["rmt-check", "--n", "150", "--trials", "4", "--seed", "9"], capsys)
    assert _digest(out.encode()) == EXPECTED["rmt-check-150"]


def test_write_mixed_magnitudes_bytes():
    rng = np.random.default_rng(20261018)
    M = rng.standard_normal((300, 300)) * 10.0 ** rng.uniform(-300, 300, size=(300, 300))
    zeros = rng.random((300, 300)) < 0.05
    M[zeros] = np.copysign(0.0, M[zeros])
    buf = io.StringIO()
    write_matrix(buf, M)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == EXPECTED["write-mixed-300x300"]


def test_solve_svlet_corpus_bytes():
    rng = np.random.default_rng(20261018)
    parts, ridged = [], 0
    for k in range(200):
        n, m = SVLET_SHAPES[k % len(SVLET_SHAPES)]
        rank = int(rng.integers(1, min(n, m) + 1))
        _, problem = generate_problem(n, m, rank, float(rng.choice([0.5, 1.0, 2.0, 4.0])), rng)
        solved = solve_svlet(problem, svd(problem.Y), K=1 + k % 3, C=SVLET_WIDTHS[k % len(SVLET_WIDTHS)])
        report = solved.report
        scalars = [solved.condition_estimate, solved.ridge_used, report.sure, report.residual, report.divergence]
        parts += [solved.a.tobytes(), solved.M.tobytes(), solved.c.tobytes(), np.array(scalars).tobytes()]
        ridged += solved.ridge_used > 0.0
    assert ridged > 0
    assert _digest(*parts) == EXPECTED["solve-svlet-corpus"]


SVD_SHAPES = ((1, 1), (1, 6), (6, 1), (2, 3), (7, 3), (3, 7), (8, 8), (12, 5), (50, 50), (40, 80), (400, 200),
              (200, 400))
# 2^-500 and 2^1016 keep every entry normal; 2^-1070 makes them subnormal.
SVD_SCALES = (-500, 1016, -1070)
# Non-finite entries, singular values past the double range, and shapes
# MatrixShape rejects.
SVD_FAILURES = (np.array([[1.0, np.nan], [0.0, 1.0]]), np.array([[np.inf, 1.0]]), np.full((3, 3), 1.7e308),
                np.zeros((0, 3)), np.ones(4))


def _svd_corpus():
    for n, m in SVD_SHAPES:
        rng = np.random.default_rng([20261020, n, m])
        gauss = rng.standard_normal((n, m))
        yield gauss
        yield np.outer(rng.standard_normal(n), rng.standard_normal(m))
        yield rng.standard_normal((n, 2)) @ rng.standard_normal((2, m))
        yield rng.integers(-3, 4, size=(n, m)).astype(float)
        yield np.zeros((n, m))
        for k in SVD_SCALES:
            yield np.ldexp(gauss, k)
    yield np.array([[3.0, 1.0], [-3.0, 1.0], [0.0, 0.0]])
    yield from SVD_FAILURES


def _svd_corpus_digest() -> str:
    parts, failed = [], 0
    for Y in _svd_corpus():
        try:
            factors = svd(Y)
        except (ContractError, FactorizationError) as exc:
            parts.append(f"{type(exc).__name__}: {exc}".encode())
            failed += 1
        else:
            parts += [factors.U.tobytes(), factors.S.tobytes(), factors.V.tobytes()]
    assert failed == len(SVD_FAILURES)
    return _digest(*parts)


def test_svd_corpus_bytes():
    """LAPACK's factors of a 400x200 matrix change with the BLAS thread
    count, so the corpus runs in a fresh interpreter on one thread, with
    warnings as errors."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([PACKAGE_PARENT, TESTS]), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-B", "-W", "error", "-c",
                           "import test_golden; print(test_golden._svd_corpus_digest())"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == EXPECTED["svd-corpus"]


def test_sure_unbiasedness_bytes():
    rng = np.random.default_rng(79)
    X = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
    checks = sure_unbiasedness([(X, 0.5, Identity()), (X, 0.5, Svst(1.0))], draws=120, seed=80)
    parts = [np.array([c.mean_sure, c.mean_loss, c.gap, c.stderr]).tobytes() for c in checks]
    assert _digest(*parts) == EXPECTED["sure-unbiasedness"]


def test_asymptotic_optimality_bytes():
    checks = verify_asymptotic_optimality((80, 120), 2, 1.0, 77, n_seeds=2)
    parts = []
    for c in checks:
        parts += [
            np.array([c.mean_deviation, *c.per_seed]).tobytes(),
            np.array([c.n, c.m, c.skipped, *c.detected_ranks]).tobytes(),
        ]
    assert _digest(*parts) == EXPECTED["asymptotic-optimality"]
