"""Command-line interface tests, run in-process through ``cli.main``.

Ground truth: every numerical figure the CLI prints must equal the value the
library computes for the same inputs, because the CLI is a thin wrapper.  The
exit-code contract is part of the scripting interface: 0 success, 2 usage or
contract violation (argparse errors included), 3 numerical failure, and 1 from
``rmt-check`` when at least one law check fails.

Known values:
- denoise --method svht defaults mu to (4/sqrt(3)) * sqrt(max(n, m)) * sigma.
- eym truncation at rank 0 writes an all-zero matrix of the input shape.
- tune --family svlet with K=1 prints the closed-form coefficient
  a1 = 1 - n*m*sigma^2 / sum(y_i^2).
- tune --family svst prints a `# best` line, a `lam,sure` header, and exactly
  100 data rows; the atn trace has 2000 rows (100 thresholds x 20 exponents).
- bench sweep CSVs are byte-identical across reruns once the `# timestamp=`
  comment line is dropped.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import svshrink
from svshrink import (
    ContractError,
    DenoiseProblem,
    Svht,
    Svst,
    SVHT_COEFF,
    apply,
    eym_truncate,
    read_matrix,
    solve_svlet,
    sure,
    svd,
    write_matrix,
)
from svshrink import bench, cli


def make_input(path, seed=0, n=8, m=6, rank=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
    Y = 3.0 * X + 0.5 * rng.standard_normal((n, m))
    write_matrix(path, Y)
    return Y


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_without_timestamp(path):
    lines = Path(path).read_bytes().split(b"\n")
    return b"\n".join(line for line in lines if not line.startswith(b"# timestamp"))


def write_config(path, text):
    Path(path).write_text(text)
    return str(path)


SWEEP_CONFIG = """\
# small deterministic benchmark regime
run = sweep
n = 12
m = 10
ranks = 1,3
snrs = 1.0 4.0
methods = svlet(C=10,K=2) eym-oracle
trials = 2
"""


class TestParserContract:
    """argparse-level failures exit with SystemExit(2)."""

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"svshrink {svshrink.__version__}"

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main([])
        assert excinfo.value.code == 2

    def test_bench_requires_seed(self, tmp_path, capsys):
        config = write_config(tmp_path / "bench.cfg", SWEEP_CONFIG)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bench", "--config", config])
        assert excinfo.value.code == 2

    def test_unknown_denoise_method(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["denoise", path, "--sigma", "0.5", "--method", "bogus"])
        assert excinfo.value.code == 2

    def test_bench_has_no_threads_flag(self, tmp_path, capsys):
        config = write_config(tmp_path / "bench.cfg", SWEEP_CONFIG)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(
                ["bench", "--config", config, "--seed", "11", "--threads", "2",
                 "--output-dir", str(tmp_path / "out")]
            )
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_tune_family(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["tune", path, "--sigma", "0.5", "--family", "bogus"])
        assert excinfo.value.code == 2


class TestDenoise:
    def test_svlet_matches_library(self, tmp_path, capsys):
        """The printed SURE value and the written matrix reproduce the library
        call bit for bit (matrix CSV round-trips are exact)."""
        path = str(tmp_path / "obs.csv")
        Y = make_input(path, seed=3)
        out_path = str(tmp_path / "xhat.csv")
        code, out, err = run_cli(
            ["denoise", path, "--sigma", "0.5", "--method", "svlet", "--output", out_path],
            capsys,
        )
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["method"] == "svlet"
        assert payload["params"] == {"C": 10.0, "K": 2}
        assert payload["seconds"] >= 0.0
        stages = payload["stages"]
        assert list(stages) == ["read", "fit", "write"]
        assert stages["fit"] == payload["seconds"]
        assert stages["read"] >= 0.0 and stages["write"] >= 0.0

        problem = DenoiseProblem(Y=Y, sigma=0.5)
        factors = svd(Y)
        solved = solve_svlet(problem, factors, K=2, C=10.0)
        assert payload["sure"] == solved.report.sure
        expected = (factors.U * apply(solved.rule, factors.S)) @ factors.V.T
        np.testing.assert_array_equal(read_matrix(out_path), expected)

    def test_default_output_path(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        code, out, _ = run_cli(
            ["denoise", path, "--sigma", "0.5", "--method", "svst", "--lam", "1.0"], capsys
        )
        assert code == 0
        produced = tmp_path / "obs.denoised.csv"
        assert produced.exists()
        assert read_matrix(str(produced)).shape == (8, 6)

    def test_svst_fixed_lambda_sure(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        Y = make_input(path, seed=5)
        code, out, _ = run_cli(
            ["denoise", path, "--sigma", "0.5", "--method", "svst", "--lam", "1.25"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"] == {"lam": 1.25}
        problem = DenoiseProblem(Y=Y, sigma=0.5)
        expected = sure(problem, svd(Y), Svst(lam=1.25)).sure
        assert payload["sure"] == expected

    def test_eym_rank_zero_writes_zero_matrix(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        out_path = str(tmp_path / "zero.csv")
        code, out, _ = run_cli(
            [
                "denoise", path, "--sigma", "0.5", "--method", "eym",
                "--rank", "0", "--output", out_path,
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"] == {"rank": 0}
        assert payload["sure"] is None
        np.testing.assert_array_equal(read_matrix(out_path), np.zeros((8, 6)))

        Y = read_matrix(path)
        code, _, _ = run_cli(
            [
                "denoise", path, "--sigma", "0.5", "--method", "eym",
                "--rank", "2", "--output", out_path,
            ],
            capsys,
        )
        assert code == 0
        np.testing.assert_array_equal(read_matrix(out_path), eym_truncate(Y, 2))

    def test_eym_requires_rank(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        code, out, err = run_cli(["denoise", path, "--sigma", "0.5", "--method", "eym"], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "--rank is required" in err
        code, out, err = run_cli(
            ["denoise", path, "--sigma", "0.5", "--method", "eym", "--rank", "7"], capsys
        )
        assert code == 2
        assert "rank must be an integer in [0, 6], got 7" in err

    def test_svht_default_threshold(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        Y = make_input(path, seed=7)
        out_path = str(tmp_path / "xhat.csv")
        code, out, _ = run_cli(
            ["denoise", path, "--sigma", "0.5", "--method", "svht", "--output", out_path],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        mu = SVHT_COEFF * np.sqrt(8.0) * 0.5
        np.testing.assert_allclose(payload["params"]["mu"], mu, rtol=1e-15)
        factors = svd(Y)
        expected = (factors.U * apply(Svht(mu=mu), factors.S)) @ factors.V.T
        np.testing.assert_array_equal(read_matrix(out_path), expected)

    def test_svht_explicit_threshold(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        code, out, _ = run_cli(
            ["denoise", path, "--sigma", "0.5", "--method", "svht", "--mu", "3.5"], capsys
        )
        assert code == 0
        assert json.loads(out)["params"] == {"mu": 3.5}

    def test_opt_shrink_reports_aspect_ratio(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        code, out, _ = run_cli(
            ["denoise", path, "--sigma", "0.5", "--method", "opt-shrink"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        np.testing.assert_allclose(payload["params"]["beta"], 6.0 / 8.0, rtol=1e-15)
        assert payload["sure"] is None

    @pytest.mark.parametrize("method", ["svht", "opt-shrink"])
    def test_wide_input_denoised_as_transposed_tall(self, tmp_path, capsys, method):
        """Both calibrate by sqrt(max(n, m)) * sigma, so the 6x8 estimate is
        the transposed 8x6 one and svht prints the same default mu."""
        Y = make_input(str(tmp_path / "tall.csv"), seed=7)
        write_matrix(str(tmp_path / "wide.csv"), Y.T)
        payloads = {}
        for name in ("tall", "wide"):
            code, out, _ = run_cli(
                [
                    "denoise", str(tmp_path / f"{name}.csv"), "--sigma", "0.5",
                    "--method", method, "--output", str(tmp_path / f"{name}.out.csv"),
                ],
                capsys,
            )
            assert code == 0
            payloads[name] = json.loads(out)["params"]
        assert payloads["wide"] == payloads["tall"]
        tall = read_matrix(str(tmp_path / "tall.out.csv"))
        wide = read_matrix(str(tmp_path / "wide.out.csv"))
        assert np.linalg.norm(wide.T - tall) <= 1e-10 * np.linalg.norm(tall)

    def test_svlt_defaults_steepness(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        code, out, _ = run_cli(
            [
                "denoise", path, "--sigma", "0.5", "--method", "svlt",
                "--p2", "2", "--p3", "0.5",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["params"] == {"p1": 100.0, "p2": 2.0, "p3": 0.5}

    def test_zero_sigma_rejected(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        code, out, err = run_cli(
            ["denoise", path, "--sigma", "0.0", "--method", "svlet"], capsys
        )
        assert code == 2
        assert err.startswith("error:")
        assert "sigma" in err

    def test_atn_needs_both_parameters(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        code, out, err = run_cli(
            ["denoise", path, "--sigma", "0.5", "--method", "atn", "--tau", "1.0"], capsys
        )
        assert code == 2
        assert "atn needs both --tau and --gamma" in err
        code, out, err = run_cli(
            ["denoise", path, "--sigma", "0.5", "--method", "svlt", "--p3", "0.1"], capsys
        )
        assert code == 2
        assert "svlt needs both --p2 and --p3" in err

    @pytest.mark.parametrize(
        "Y, sigma",
        [
            # every SURE leaves the double range
            (1e200 * np.random.default_rng(72).standard_normal((6, 5)), 1e200),
        ],
    )
    def test_overflow_exits_3(self, tmp_path, capsys, Y, sigma):
        path = str(tmp_path / "huge.csv")
        write_matrix(path, Y)
        code, out, err = run_cli(["denoise", path, "--sigma", repr(sigma), "--method", "svlet"], capsys)
        assert code == 3
        assert err.startswith("numerical failure:")
        assert out == ""

    def test_svlet_width_overflow_exits_2(self, tmp_path, capsys):
        """C and sigma are finite, but the width T = C * sigma is not."""
        path = str(tmp_path / "obs.csv")
        make_input(path)
        code, out, err = run_cli(
            ["denoise", path, "--sigma", "1e10", "--method", "svlet", "--C", "1e300"], capsys
        )
        assert code == 2
        assert err.startswith("error:") and "T must be a finite positive number" in err
        assert out == ""

    @pytest.mark.parametrize("method", ["svlet", "svst", "atn", "svlt"])
    def test_huge_input_denoises(self, tmp_path, capsys, method):
        """Every y^2 is finite but L * y_1^2 and the sum in the normal matrix
        are not.  The risk engine works on the spectrum scaled by a power of
        two, so the fit succeeds, and the output is the one for the data and
        sigma scaled down by 2^512, times 2^512, bit for bit: svd hands
        LAPACK the matrix scaled by a power of two, so LAPACK's own rescaling
        by a factor that is not one never runs."""
        Y = np.vstack([np.diag([1.3e154, 1.2e154, 1.1e154, 1.0e154, 0.9e154]), np.zeros((1, 5))])
        outputs = []
        for k in (0, -512):
            path, out_path = str(tmp_path / f"in{k}.csv"), str(tmp_path / f"out{k}.csv")
            write_matrix(path, np.ldexp(Y, k))
            argv = ["denoise", path, "--sigma", repr(math.ldexp(1.0, k)), "--method", method, "--output", out_path]
            code, out, err = run_cli(argv, capsys)
            assert (code, err) == (0, "")
            outputs.append(read_matrix(out_path))
        assert np.isfinite(outputs[0]).all()
        assert outputs[0].tobytes() == np.ldexp(outputs[1], 512).tobytes()

    def test_missing_input_file(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["denoise", str(tmp_path / "nope.csv"), "--sigma", "0.5", "--method", "svlet"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_output_into_missing_directory_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path)
        output = str(tmp_path / "missing" / "out.csv")
        code, out, err = run_cli(
            ["denoise", path, "--sigma", "0.5", "--method", "svlet", "--output", output], capsys
        )
        assert code == 2
        assert err.startswith(f"error: cannot write matrix file {output}:")
        assert out == ""

    def test_non_ascii_input_exits_2(self, tmp_path, capsys):
        """A UTF-8 byte in the CSV is a parse error (exit 2), not a crash."""
        path = tmp_path / "accent.csv"
        path.write_bytes("1,2\n3,\u00e9\n".encode("utf-8"))
        code, out, err = run_cli(["denoise", str(path), "--sigma", "0.5", "--method", "svlet"], capsys)
        assert code == 2
        assert err == f"error: {path}: line 2: byte 0xc3 is not ASCII\n"
        assert out == ""


class TestTune:
    def test_svlet_k1_closed_form(self, tmp_path, capsys):
        """K=1 admits the exact solution a1 = 1 - n*m*sigma^2 / sum(y^2)."""
        path = str(tmp_path / "obs.csv")
        Y = make_input(path, seed=11)
        code, out, _ = run_cli(
            ["tune", path, "--sigma", "0.5", "--family", "svlet", "--K", "1"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        total = float(np.sum(svd(Y).S ** 2))
        expected = 1.0 - 8 * 6 * 0.25 / total
        assert len(payload["a"]) == 1
        np.testing.assert_allclose(payload["a"][0], expected, rtol=1e-10)

    def test_svlet_json_fields(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        Y = make_input(path, seed=12)
        code, out, _ = run_cli(["tune", path, "--sigma", "0.5", "--family", "svlet"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["a", "condition_estimate", "ridge_used", "sure"]
        assert len(payload["a"]) == 2
        assert payload["condition_estimate"] >= 1.0
        assert payload["ridge_used"] == 0.0
        solved = solve_svlet(DenoiseProblem(Y=Y, sigma=0.5), svd(Y), K=2, C=10.0)
        assert payload["sure"] == solved.report.sure

    def test_svst_trace_layout(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path, seed=13)
        code, out, _ = run_cli(["tune", path, "--sigma", "0.5", "--family", "svst"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# best lam=")
        assert lines[1] == "lam,sure"
        assert len(lines) == 102
        for line in lines[2:]:
            lam, value = line.split(",")
            float(lam), float(value)

    def test_svst_best_line_matches_argmin(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path, seed=14)
        code, out, _ = run_cli(["tune", path, "--sigma", "0.5", "--family", "svst"], capsys)
        assert code == 0
        lines = out.splitlines()
        rows = [tuple(float(part) for part in line.split(",")) for line in lines[2:]]
        best_lam, best_sure = min(rows, key=lambda row: (row[1], row[0]))
        match = re.fullmatch(r"# best lam=(\S+) sure=(\S+)", lines[0])
        assert match is not None
        assert float(match.group(1)) == best_lam
        assert float(match.group(2)) == best_sure

    def test_atn_trace_layout(self, tmp_path, capsys):
        path = str(tmp_path / "obs.csv")
        make_input(path, seed=15)
        code, out, _ = run_cli(["tune", path, "--sigma", "0.5", "--family", "atn"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# best tau=")
        assert lines[1] == "tau,gamma,sure"
        assert len(lines) == 2 + 100 * 20


class TestBenchCommand:
    def test_sweep_writes_csv_and_summary(self, tmp_path, capsys):
        config = write_config(tmp_path / "bench.cfg", SWEEP_CONFIG)
        outdir = tmp_path / "out"
        code, out, _ = run_cli(
            ["bench", "--config", config, "--seed", "11", "--output-dir", str(outdir)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"written": [str(outdir / "sweep.csv")]}
        text = (outdir / "sweep.csv").read_text()
        header = next(line for line in text.splitlines() if not line.startswith("#"))
        assert header == "method,n,m,r,snr,trials,nmse,nmse_stderr,median_time_s,status"
        data = [line for line in text.splitlines() if line and not line.startswith("#")]
        assert len(data) == 1 + 2 * 2 * 2

    def test_rerun_identical_modulo_timestamp(self, tmp_path, capsys):
        config = write_config(tmp_path / "bench.cfg", SWEEP_CONFIG)
        for name in ("a", "b"):
            code, _, _ = run_cli(
                [
                    "bench", "--config", config, "--seed", "11",
                    "--output-dir", str(tmp_path / name),
                ],
                capsys,
            )
            assert code == 0
        first = csv_without_timestamp(tmp_path / "a" / "sweep.csv")
        second = csv_without_timestamp(tmp_path / "b" / "sweep.csv")
        assert first == second

    def test_output_dir_naming_a_file_exits_2(self, tmp_path, capsys):
        config = write_config(tmp_path / "bench.cfg", SWEEP_CONFIG)
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        code, out, err = run_cli(
            ["bench", "--config", config, "--seed", "11", "--output-dir", str(blocker)], capsys
        )
        assert code == 2
        assert err.startswith("error: cannot write bench output:")
        assert str(blocker) in err and out == ""

    def test_unwritable_out_path_exits_2(self, tmp_path, monkeypatch, capsys):
        """`out` may not name a missing subdirectory; the failure is a
        contract error, not a traceback, and comes before the sweep runs."""

        def no_sweep(grid):
            raise AssertionError("the sweep ran before its output path was checked")

        monkeypatch.setattr(bench, "run_sweep", no_sweep)
        config = write_config(tmp_path / "bench.cfg", SWEEP_CONFIG + "out = sub/x.csv\n")
        outdir = tmp_path / "out"
        code, out, err = run_cli(
            ["bench", "--config", config, "--seed", "11", "--output-dir", str(outdir)], capsys
        )
        assert code == 2
        assert err.startswith("error: cannot write bench output:")
        assert str(outdir / "sub" / "x.csv") in err and out == ""

    def test_trials_flag_rejected_with_config(self, tmp_path, capsys):
        """A config run takes its realizations from the file's `trials` key;
        a --trials flag next to it would be silently ignored, so it fails."""
        config = write_config(tmp_path / "bench.cfg", SWEEP_CONFIG)
        outdir = tmp_path / "out"
        code, out, err = run_cli(
            [
                "bench", "--config", config, "--seed", "11", "--trials", "3",
                "--output-dir", str(outdir),
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")
        assert "`trials` key" in err
        assert not (outdir / "sweep.csv").exists()

    @pytest.mark.parametrize("argv, expected", [([], 10), (["--trials", "3"], 3)])
    def test_preset_trials_default_and_override(self, monkeypatch, capsys, argv, expected):
        seen = []

        def stop_after_preset(seed, *, trials):
            seen.append(trials)
            raise ContractError("preset captured")

        monkeypatch.setattr(bench, "paper_preset", stop_after_preset)
        code, _, err = run_cli(["bench", "--preset", "paper", "--seed", "11"] + argv, capsys)
        assert code == 2 and "preset captured" in err
        assert seen == [expected]

    def test_preset_writes_its_four_tables(self, tmp_path, monkeypatch, capsys):
        """--preset paper runs paper_preset's grids as two sweeps, the
        sensitivity sweep and the timing run, each into its own CSV."""

        def tiny_preset(seed, *, trials):
            def grid(*methods):
                return bench.ExperimentGrid(
                    n=12, m=10, ranks=(1, 3), snrs=(1.0,), methods=methods, trials=trials, seed=seed
                )

            return {
                "asymptotic": grid("svlet(C=10,K=2)", "opt-shrink", "eym-oracle"),
                "sure": grid("svlet(C=10,K=2)", "svst-sure"),
                "sensitivity": grid("svlet(C=10,K=2)"),
                "timing": grid("svlet(C=10,K=2)", "svst-sure"),
            }

        monkeypatch.setattr(bench, "paper_preset", tiny_preset)
        outdir = tmp_path / "out"
        code, out, _ = run_cli(
            ["bench", "--preset", "paper", "--seed", "11", "--trials", "2", "--output-dir", str(outdir)],
            capsys,
        )
        assert code == 0
        names = ["asymptotic.csv", "sure.csv", "sensitivity.csv", "timing.csv"]
        summary = json.loads(out)
        assert list(summary) == ["best_C", "best_K", "best_nmse", "written"]
        assert summary["written"] == [str(outdir / name) for name in names]
        assert summary["best_C"] in bench.PAPER_C_VALUES
        assert summary["best_K"] in bench.PAPER_K_VALUES
        assert summary["best_nmse"] > 0.0
        for name in names[:3]:
            lines = (outdir / name).read_text().splitlines()
            assert lines[6] == "method,n,m,r,snr,trials,nmse,nmse_stderr,median_time_s,status"
        assert (outdir / "timing.csv").read_text().splitlines()[2] == "method,median_time_s,ratio_vs_svlet"
        grids = tiny_preset(11, trials=2)
        for key in ("asymptotic", "sure"):
            expected = tmp_path / f"expected-{key}.csv"
            bench.run_sweep(grids[key]).write_csv(expected)
            assert csv_without_timestamp(outdir / f"{key}.csv") == csv_without_timestamp(expected)

    def test_requires_config_or_preset(self, tmp_path, capsys):
        code, out, err = run_cli(["bench", "--seed", "11"], capsys)
        assert code == 2
        assert "bench needs exactly one of --config FILE or --preset paper" in err

    def test_config_and_preset_together_rejected(self, tmp_path, monkeypatch, capsys):
        """Neither source may win silently: with both, the file would go unread."""
        seen = []
        monkeypatch.setattr(bench, "paper_preset", lambda seed, *, trials: seen.append(seed) or {})
        config = write_config(tmp_path / "bench.cfg", SWEEP_CONFIG)
        outdir = tmp_path / "out"
        code, out, err = run_cli(
            [
                "bench", "--preset", "paper", "--config", config, "--seed", "11",
                "--output-dir", str(outdir),
            ],
            capsys,
        )
        assert code == 2
        assert "bench needs exactly one of --config FILE or --preset paper" in err
        assert seen == [] and out == ""
        assert not outdir.exists()

    def test_empty_methods_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "bench.cfg", "run = sweep\nn = 12\nm = 10\nranks = 1\nmethods =\n"
        )
        code, out, err = run_cli(["bench", "--config", config, "--seed", "11"], capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_seed_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "bench.cfg", "run = sweep\nseed = 4\n")
        code, out, err = run_cli(["bench", "--config", config, "--seed", "11"], capsys)
        assert code == 2
        assert "seed must be given via --seed" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "bench.cfg", "run = sweep\nwidgets = 4\n")
        code, out, err = run_cli(["bench", "--config", config, "--seed", "11"], capsys)
        assert code == 2
        assert "unknown key 'widgets'" in err

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path / "bench.cfg", "run = sweep\nn = 12\nn = 14\n")
        code, out, err = run_cli(["bench", "--config", config, "--seed", "11"], capsys)
        assert code == 2
        assert "duplicate key 'n'" in err

    @pytest.mark.parametrize(
        "line, message",
        [
            ("ranks = 1..x", "ranks: cannot parse range '1..x'"),
            ("ranks = 1,x", "ranks: cannot parse integer list '1,x'"),
            ("snrs = 1 x", "snrs: cannot parse number list '1 x'"),
            ("m = x", "m: cannot parse 'x'"),
            ("trials", "config line 2: expected `key = value`, got 'trials'"),
            ("run = foo", "run must be one of sweep, sensitivity, timing; got 'foo'"),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, line, message):
        config = write_config(tmp_path / "bench.cfg", f"n = 12\n{line}\n")
        code, out, err = run_cli(["bench", "--config", config, "--seed", "11"], capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        config = str(tmp_path / "missing.cfg")
        code, out, err = run_cli(["bench", "--config", config, "--seed", "11"], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read config file {config}:")
        assert out == ""

    def test_rank_range_syntax(self, tmp_path):
        config = write_config(
            tmp_path / "bench.cfg", "run = sweep\nranks = 2..4\nmethods = svlet(C=7.5,K=3) svlet\n"
        )
        grid = bench.load_config(config, seed=11).grid
        assert grid.ranks == (2, 3, 4)
        assert [spec.label for spec in grid.methods] == ["svlet(C=7.5,K=3)", "svlet(C=10,K=2)"]

    @pytest.mark.parametrize("line", ["C = 7.5", "K = 3", "output_dir = elsewhere"])
    def test_removed_keys_rejected(self, tmp_path, capsys, line):
        """C and K live in the method spec, the output directory in --output-dir."""
        config = write_config(tmp_path / "bench.cfg", f"{SWEEP_CONFIG}{line}\n")
        code, out, err = run_cli(
            ["bench", "--config", config, "--seed", "11", "--output-dir", str(tmp_path)], capsys
        )
        assert code == 2
        assert f"unknown key {line.split()[0]!r}" in err

    def test_comments_and_blanks_ignored(self, tmp_path):
        config = write_config(
            tmp_path / "bench.cfg",
            "# full-line comment\n\nrun = timing  # trailing comment\nn = 12\nranks = 1\n",
        )
        parsed = bench.load_config(config, seed=11)
        assert parsed.run == "timing"
        assert parsed.grid.n == 12
        # Left out, methods default to every method at its default parameters.
        assert [spec.label for spec in parsed.grid.methods] == [
            "svlet(C=10,K=2)", "svst-sure", "atn-sure", "svlt-sure",
            "opt-shrink", "svht-4sqrt3", "svst-bulk", "eym-oracle",
        ]

    def test_sensitivity_summary(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "bench.cfg",
            "run = sensitivity\nn = 12\nm = 10\nranks = 1\nsnrs = 1.0\n"
            "trials = 2\nc_values = 5 10\nk_values = 1 2\n",
        )
        outdir = tmp_path / "out"
        code, out, _ = run_cli(
            ["bench", "--config", config, "--seed", "11", "--output-dir", str(outdir)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["written"] == [str(outdir / "sensitivity.csv")]
        assert payload["best_C"] in (5.0, 10.0)
        assert payload["best_K"] in (1, 2)
        assert payload["best_nmse"] > 0.0
        data = [
            line
            for line in (outdir / "sensitivity.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(data) == 1 + 4

    def test_timing_run_layout(self, tmp_path, capsys):
        config = write_config(
            tmp_path / "bench.cfg",
            "run = timing\nn = 12\nm = 10\nranks = 3\nsnrs = 1.0\ntrials = 2\n"
            "methods = svlet(C=10,K=2) eym-oracle\nout = times.csv\n",
        )
        outdir = tmp_path / "out"
        code, out, _ = run_cli(
            ["bench", "--config", config, "--seed", "11", "--output-dir", str(outdir)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["written"] == [str(outdir / "times.csv")]
        lines = (outdir / "times.csv").read_text().splitlines()
        assert lines[0] == "# seed=11"
        assert lines[1] == f"# version={svshrink.__version__}"
        assert lines[2] == "method,median_time_s,ratio_vs_svlet"
        assert len(lines) == 5
        assert lines[3].startswith('"svlet(C=10,K=2)",')
        assert lines[3].endswith(",1.0")
        assert lines[4].startswith("eym-oracle,")

    def test_output_dir_from_flag_only(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path / "bench.cfg", SWEEP_CONFIG)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["bench", "--config", config, "--seed", "11"], capsys)
        assert code == 0
        assert json.loads(out)["written"] == ["sweep.csv"]
        assert (tmp_path / "sweep.csv").exists()

        forced = tmp_path / "from-flag"
        code, out, _ = run_cli(
            ["bench", "--config", config, "--seed", "11", "--output-dir", str(forced)],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["written"] == [str(forced / "sweep.csv")]

        moved = write_config(tmp_path / "moved.cfg", SWEEP_CONFIG + f"output_dir = {forced}\n")
        code, out, err = run_cli(["bench", "--config", moved, "--seed", "11"], capsys)
        assert code == 2
        assert "unknown key 'output_dir'" in err


class TestRmtCheck:
    def test_all_laws_pass_at_known_seed(self, capsys):
        """n=400, trials=10, seed=20260818 passes all six law checks."""
        code, out, err = run_cli(
            ["rmt-check", "--n", "400", "--trials", "10", "--seed", "20260818"], capsys
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 6
        pattern = re.compile(
            r"PASS [a-z0-9.\-]+: statistic=\S+ target=\S+ tolerance=\S+ \((abs|rel)\)"
        )
        for line in lines:
            assert pattern.fullmatch(line), line

    def test_deterministic_output(self, capsys):
        argv = ["rmt-check", "--n", "150", "--trials", "4", "--seed", "9"]
        first_code, first_out, _ = run_cli(argv, capsys)
        second_code, second_out, _ = run_cli(argv, capsys)
        assert first_code == second_code
        assert first_code in (0, 1)
        assert first_out == second_out

    def test_zero_trials_rejected(self, capsys):
        code, out, err = run_cli(
            ["rmt-check", "--n", "100", "--trials", "0", "--seed", "9"], capsys
        )
        assert code == 2
        assert err.startswith("error:")
