"""Benchmark harness: problem generation, NMSE aggregation, seeded sweeps,
sensitivity/timing reports, and the Monte Carlo risk checks.

Ground truth: the data model X = L R^T with i.i.d. standard normal factors
(E||X||_F^2 = n*m*r), the per-trial noise level sigma = ||X||_F /
sqrt(snr*n*m) (so the realized SNR is exact, not approximate), the NMSE
definition (1/P) sum_p ||Xhat - X||_F^2 / ||X||_F^2, and full determinism:
every table is a pure function of (grid, seed), because each trial draws
from its own seed-derived stream.
"""

import io

import numpy as np
import pytest

from svshrink import ContractError, DegenerateSpectrumError, eym_truncate
from svshrink import bench
from svshrink.bench import (
    ExperimentGrid,
    MethodSpec,
    TimingRow,
    generate_problem,
    paper_preset,
    parse_method,
    run_sweep,
    sensitivity_sweep,
    timing_report,
    write_timing_csv,
)
from svshrink.shrinkage import Identity, Svst

from montecarlo import sure_unbiasedness, verify_asymptotic_optimality


def value_fields(rows):
    """Row tuples with the wall-clock field dropped; everything else is
    covered by the determinism contract."""
    return [
        (r.method, r.n, r.m, r.r, r.snr, r.trials, r.nmse, r.nmse_stderr, r.status)
        for r in rows
    ]


def small_grid(**overrides):
    params = dict(
        n=12,
        m=10,
        ranks=(1, 3),
        snrs=(1.0, 4.0),
        methods=("svlet(C=10,K=2)", "eym-oracle"),
        trials=3,
        seed=5,
    )
    params.update(overrides)
    return ExperimentGrid(**params)


class TestGenerateProblem:
    """Synthetic rank-r signal plus exact-SNR white noise."""

    def test_sigma_matches_definition_bitwise(self):
        rng = np.random.default_rng(70)
        X, problem = generate_problem(10, 8, 2, 4.0, rng)
        expected = float(np.linalg.norm(X) / np.sqrt(4.0 * 10 * 8))
        assert problem.sigma == expected

    def test_realized_snr_exact(self):
        rng = np.random.default_rng(71)
        X, problem = generate_problem(15, 15, 3, 2.5, rng)
        snr = float(np.sum(X * X)) / (15 * 15 * problem.sigma**2)
        np.testing.assert_allclose(snr, 2.5, rtol=1e-12)

    def test_deterministic_given_stream(self):
        X1, p1 = generate_problem(6, 6, 2, 1.0, np.random.default_rng(72))
        X2, p2 = generate_problem(6, 6, 2, 1.0, np.random.default_rng(72))
        assert np.array_equal(X1, X2)
        assert np.array_equal(p1.Y, p2.Y)
        assert p1.sigma == p2.sigma

    def test_full_rank_request_is_full_rank(self):
        """r = min(n, m) gives a numerically full-rank X almost surely."""
        rng = np.random.default_rng(73)
        X, _ = generate_problem(9, 7, 7, 1.0, rng)
        s = np.linalg.svd(X, compute_uv=False)
        assert np.sum(s > 1e-8 * s[0]) == 7

    def test_signal_energy_expectation(self):
        """E||X||_F^2 = n*m*r: sample mean over 200 draws within 5%."""
        rng = np.random.default_rng(74)
        energies = []
        for _ in range(200):
            X, _ = generate_problem(50, 50, 5, 1.0, rng)
            energies.append(float(np.sum(X * X)))
        np.testing.assert_allclose(np.mean(energies), 50 * 50 * 5, rtol=0.05)

    def test_rejects_bad_rank_and_snr(self):
        rng = np.random.default_rng(75)
        with pytest.raises(ContractError):
            generate_problem(5, 5, 0, 1.0, rng)
        with pytest.raises(ContractError):
            generate_problem(5, 5, 6, 1.0, rng)
        with pytest.raises(ContractError):
            generate_problem(5, 5, 2, 0.0, rng)

    def test_rejects_non_integer_sizes(self):
        """A 3.7 x 4.2 request is an error, as in ExperimentGrid, not a
        3 x 4 draw."""
        rng = np.random.default_rng(76)
        with pytest.raises(ContractError, match=r"^n must be an integer >= 1, got 3\.7$"):
            generate_problem(3.7, 4.2, 1, 1.0, rng)
        with pytest.raises(ContractError):
            generate_problem(4, 4.0, 1, 1.0, rng)


class TestMethodSpec:
    """Method specifiers and their labels."""

    def test_parse_plain_families(self):
        for name in ("svst-sure", "atn-sure", "svlt-sure", "opt-shrink", "svht-4sqrt3", "svst-bulk", "eym-oracle"):
            spec = parse_method(name)
            assert spec.family == name
            assert spec.label == name

    def test_parse_svlet_with_parameters(self):
        spec = parse_method("svlet(C=7.5,K=3)")
        assert spec.family == "svlet"
        assert spec.C == 7.5
        assert spec.K == 3
        assert spec.label == "svlet(C=7.5,K=3)"

    def test_parse_bare_svlet_uses_defaults(self):
        spec = parse_method("svlet")
        assert (spec.C, spec.K) == (10.0, 2)
        assert spec.label == "svlet(C=10,K=2)"

    def test_label_round_trips(self):
        spec = MethodSpec(family="svlet", C=3.0, K=4)
        assert parse_method(spec.label) == spec

    def test_rejects_unknown_and_malformed(self):
        with pytest.raises(ContractError) as excinfo:
            parse_method("nope")
        assert str(excinfo.value) == (
            "unknown method 'nope'; expected one of ['atn-sure', 'eym-oracle', 'opt-shrink', "
            "'svht-4sqrt3', 'svlet', 'svlt-sure', 'svst-bulk', 'svst-sure']"
        )
        with pytest.raises(ContractError):
            parse_method("svd")
        with pytest.raises(ContractError):
            parse_method("svlet(Q=1)")
        with pytest.raises(ContractError):
            parse_method("svlet(C=abc)")
        with pytest.raises(ContractError):
            MethodSpec(family="svlet", C=-1.0)
        with pytest.raises(ContractError):
            MethodSpec(family="svlet", K=0)

    def test_rejects_non_string_specifier(self):
        with pytest.raises(ContractError, match="method specifier must be a string, got int"):
            parse_method(3)


class TestExperimentGrid:
    """Grid validation and coercion."""

    def test_valid_grid(self):
        grid = small_grid()
        assert grid.shape.L == 10
        assert all(isinstance(spec, MethodSpec) for spec in grid.methods)

    def test_rejects_rank_out_of_bounds(self):
        with pytest.raises(ContractError):
            small_grid(ranks=(11,))
        with pytest.raises(ContractError):
            small_grid(ranks=(0,))

    def test_rejects_bad_snr_trials_seed(self):
        with pytest.raises(ContractError):
            small_grid(snrs=(0.0,))
        with pytest.raises(ContractError):
            small_grid(trials=0)
        with pytest.raises(ContractError):
            small_grid(seed=-1)

    def test_rejects_duplicate_method_labels(self):
        with pytest.raises(ContractError):
            small_grid(methods=("svlet(C=10,K=2)", "svlet"))

    def test_rejects_empty_lists(self):
        with pytest.raises(ContractError):
            small_grid(ranks=())
        with pytest.raises(ContractError):
            small_grid(methods=())
        with pytest.raises(ContractError, match="snrs must be non-empty"):
            small_grid(snrs=())

    def test_rejects_empty_dimension(self):
        with pytest.raises(ContractError):
            small_grid(n=0)


class TestRunSweep:
    """Seeded NMSE sweeps."""

    def test_one_row_per_cell(self):
        table = run_sweep(small_grid())
        assert len(table.rows) == 2 * 2 * 2  # methods x ranks x snrs
        labels = {row.method for row in table.rows}
        assert labels == {"svlet(C=10,K=2)", "eym-oracle"}

    def test_rows_sorted_by_method_rank_snr(self):
        table = run_sweep(small_grid())
        keys = [(row.method, row.r, row.snr) for row in table.rows]
        assert keys == sorted(keys)

    def test_same_seed_bitwise_identical(self):
        t1 = run_sweep(small_grid())
        t2 = run_sweep(small_grid())
        assert value_fields(t1.rows) == value_fields(t2.rows)

    def test_different_seed_changes_values(self):
        t1 = run_sweep(small_grid(seed=5))
        t2 = run_sweep(small_grid(seed=6))
        assert value_fields(t1.rows) != value_fields(t2.rows)

    def test_oracle_truncation_near_noiseless(self):
        """At snr = 1e6 truncation at the true rank recovers X to NMSE <= 1e-6
        for every rank, including nearly full rank."""
        grid = ExperimentGrid(
            n=20, m=20, ranks=(1, 2, 5, 8), snrs=(1e6,),
            methods=("eym-oracle",), trials=3, seed=9,
        )
        table = run_sweep(grid)
        for row in table.rows:
            assert row.status == "ok"
            assert row.nmse <= 1e-6

    def test_error_rows_do_not_abort(self, monkeypatch):
        """A failing method yields an error row naming the exception type
        while other methods still produce their cells."""

        def explode(problem, factors, spec, true_rank):
            raise DegenerateSpectrumError("synthetic failure")

        monkeypatch.setitem(bench.METHOD_RUNNERS, "svlet", explode)
        table = run_sweep(small_grid())
        svlet_rows = [r for r in table.rows if r.method.startswith("svlet")]
        other_rows = [r for r in table.rows if r.method == "eym-oracle"]
        assert all(r.status == "error:DegenerateSpectrumError" for r in svlet_rows)
        assert all(r.nmse is None and r.nmse_stderr is None for r in svlet_rows)
        assert all(r.status == "ok" for r in other_rows)

    @pytest.mark.parametrize("harness", [timing_report])
    def test_first_timed_call_follows_untimed_warm_up(self, monkeypatch, harness):
        """Each method runs once before the first clock read, so first-call
        costs such as cold caches are timed in no cell."""
        events = []

        def stub(problem, factors, spec, true_rank):
            events.append("run")
            return problem.Y

        def clock():
            events.append("clock")
            return float(len(events))

        monkeypatch.setitem(bench.METHOD_RUNNERS, "svlet", stub)
        monkeypatch.setattr(bench, "perf_counter", clock)
        harness(small_grid(methods=("svlet(C=10,K=2)",), trials=1))
        assert events[:4] == ["run", "clock", "run", "clock"]
        # In each of the 2 x 2 cells an untimed run comes before the timed
        # runs.
        timed = ["clock", "run", "clock"] * bench.TIMED_RUNS
        assert events == (["run"] + timed) * (2 * 2)

    def test_sweeps_read_no_clock(self, monkeypatch):
        """run_sweep and sensitivity_sweep only score the methods;
        timing_report is the harness's one timer."""

        def clock():
            raise AssertionError("a sweep read the clock")

        monkeypatch.setattr(bench, "perf_counter", clock)
        table = run_sweep(small_grid())
        assert all(row.status == "ok" for row in table.rows)
        report = sensitivity_sweep(small_grid(), c_values=(5.0, 10.0), k_values=(2,))
        assert all(row.status == "ok" for row in report.table.rows)

    def test_stderr_zero_for_single_trial(self):
        table = run_sweep(small_grid(trials=1))
        assert all(row.nmse_stderr == 0.0 for row in table.rows)

    def test_takes_no_thread_count(self):
        """Cells run in one serial loop; there is no worker-count keyword."""
        with pytest.raises(TypeError):
            run_sweep(small_grid(), threads=1)


class TestEymOracleProperty:
    """Truncating at the true rank is optimal in the noiseless limit."""

    def test_true_rank_beats_wrong_ranks(self):
        rng = np.random.default_rng(76)
        X, problem = generate_problem(15, 12, 4, 1e6, rng)
        x_energy = float(np.sum(X * X))
        err_at = {}
        for r in (1, 2, 4, 6, 9):
            err_at[r] = float(np.sum((eym_truncate(problem.Y, r) - X) ** 2)) / x_energy
        assert err_at[4] <= 1e-6
        for r in (1, 2, 6, 9):
            assert err_at[4] < err_at[r]


class TestCsvOutput:
    """Table serialization: metadata comments, exact columns, determinism."""

    def render(self, table, **kwargs):
        buf = io.StringIO()
        table.write_csv(buf, **kwargs)
        return buf.getvalue()

    def test_header_and_metadata(self):
        table = run_sweep(small_grid())
        text = self.render(table, timestamp="2026-08-18T00:00:00+00:00")
        lines = text.splitlines()
        assert lines[0] == "# seed=5"
        assert lines[1] == "# n=12"
        assert lines[2] == "# m=10"
        assert lines[3] == "# trials=3"
        assert lines[4].startswith("# version=")
        assert lines[5] == "# timestamp=2026-08-18T00:00:00+00:00"
        assert lines[6] == "method,n,m,r,snr,trials,nmse,nmse_stderr,median_time_s,status"
        assert len(lines) == 7 + len(table.rows)

    def test_svlet_label_quoted(self):
        """The svlet label contains a comma and must be CSV-quoted."""
        table = run_sweep(small_grid())
        text = self.render(table, timestamp="t")
        assert '"svlet(C=10,K=2)"' in text

    def test_float_fields_repr_exact(self):
        table = run_sweep(small_grid())
        text = self.render(table, timestamp="t")
        row = table.cell("eym-oracle", 1, 1.0)
        assert repr(float(row.nmse)) in text
        assert repr(float(row.snr)) in text

    def test_timing_column_empty_by_default(self):
        table = run_sweep(small_grid())
        for line in self.render(table, timestamp="t").splitlines()[7:]:
            fields = line.rsplit(",", 2)
            assert fields[1] == ""  # median_time_s slot

    def test_byte_identical_across_runs(self):
        a = self.render(run_sweep(small_grid()), timestamp="fixed")
        b = self.render(run_sweep(small_grid()), timestamp="fixed")
        assert a == b

    def test_file_destination(self, tmp_path):
        table = run_sweep(small_grid())
        dest = tmp_path / "out.csv"
        table.write_csv(dest, timestamp="t")
        assert dest.read_text() == self.render(table, timestamp="t")

    def test_cell_lookup(self):
        table = run_sweep(small_grid())
        row = table.cell("eym-oracle", 3, 4.0)
        assert (row.method, row.r, row.snr) == ("eym-oracle", 3, 4.0)
        with pytest.raises(ContractError):
            table.cell("eym-oracle", 3, 9.9)


class TestSensitivitySweep:
    """(C, K) grid for the expansion estimator."""

    def test_single_point_reduces_to_run_sweep(self):
        base = small_grid(methods=("svlet(C=10,K=2)",))
        report = sensitivity_sweep(base, c_values=(10.0,), k_values=(2,))
        direct = run_sweep(base)
        assert value_fields(report.table.rows) == value_fields(direct.rows)
        assert report.best.C == 10.0 and report.best.K == 2

    def test_best_is_argmin_of_cells(self):
        base = small_grid(methods=("svlet(C=10,K=2)",))
        report = sensitivity_sweep(base, c_values=(2.0, 10.0), k_values=(1, 2))
        assert len(report.cells) == 4
        finite = [c for c in report.cells if np.isfinite(c.mean_nmse)]
        assert report.best.mean_nmse == min(c.mean_nmse for c in finite)

    def test_mean_for_lookup(self):
        base = small_grid(methods=("svlet(C=10,K=2)",))
        report = sensitivity_sweep(base, c_values=(5.0,), k_values=(1,))
        value = report.mean_for(5.0, 1)
        rows = [r for r in report.table.rows if r.method == "svlet(C=5,K=1)"]
        np.testing.assert_allclose(value, np.mean([r.nmse for r in rows]))
        with pytest.raises(ContractError):
            report.mean_for(6.0, 1)

    def test_rejects_empty_grids(self):
        base = small_grid()
        with pytest.raises(ContractError):
            sensitivity_sweep(base, c_values=(), k_values=(2,))

    def test_rejects_all_error_cells(self, monkeypatch):
        def explode(problem, factors, spec, true_rank):
            raise DegenerateSpectrumError("synthetic failure")

        monkeypatch.setitem(bench.METHOD_RUNNERS, "svlet", explode)
        base = small_grid(methods=("svlet(C=10,K=2)",), ranks=(1,), snrs=(1.0,), trials=1)
        with pytest.raises(ContractError, match=r"every \(C, K\) combination produced error rows"):
            sensitivity_sweep(base, c_values=(2.0, 10.0), k_values=(1,))


class TestVerifyAsymptoticOptimality:
    """Finite-size convergence of the fitted expansion to the bulk shrinker."""

    def test_returns_check_per_size(self):
        checks = verify_asymptotic_optimality((80, 120), 2, 1.0, 77, n_seeds=2)
        assert [c.n for c in checks] == [80, 120]
        for check in checks:
            assert check.m == check.n  # beta = 1
            assert len(check.detected_ranks) == 2
            assert np.isfinite(check.mean_deviation)

    def test_subcritical_spike_is_skipped(self):
        """A spike at x = 0.5 stays below the detection threshold, so no
        component is fitted and the cell is flagged via skipped counts."""
        checks = verify_asymptotic_optimality(
            (150,), 1, 1.0, 78, spikes=(0.5,), n_seeds=3
        )
        check = checks[0]
        assert check.skipped + sum(1 for r in check.detected_ranks if r > 0) == 3
        assert check.skipped >= 2  # detection above the edge is a rare noise event
        if check.skipped == 3:
            assert np.isnan(check.mean_deviation)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ContractError):
            verify_asymptotic_optimality((100,), 0, 1.0, 0)
        with pytest.raises(ContractError):
            verify_asymptotic_optimality((3,), 2, 1.0, 0)
        with pytest.raises(ContractError):
            verify_asymptotic_optimality((100,), 2, 1.0, 0, spikes=(1.0,))


class TestTimingReport:
    """Wall-time medians; orderings are asserted in the acceptance suite."""

    def timing_grid(self):
        return ExperimentGrid(
            n=20, m=20, ranks=(5,), snrs=(1.0,),
            methods=("svlet(C=10,K=2)", "svst-sure"), trials=5, seed=3,
        )

    def test_reports_one_row_per_method(self):
        rows = timing_report(self.timing_grid())
        assert [row.method for row in rows] == ["svlet(C=10,K=2)", "svst-sure"]
        assert all(row.median_seconds > 0.0 for row in rows)

    def test_ratio_normalized_to_svlet(self):
        rows = timing_report(self.timing_grid())
        assert rows[0].ratio_vs_svlet == 1.0
        np.testing.assert_allclose(
            rows[1].ratio_vs_svlet, rows[1].median_seconds / rows[0].median_seconds
        )

    def test_ratio_none_without_svlet(self):
        grid = ExperimentGrid(
            n=10, m=10, ranks=(2,), snrs=(1.0,),
            methods=("eym-oracle",), trials=2, seed=3,
        )
        rows = timing_report(grid)
        assert rows[0].ratio_vs_svlet is None

    def test_timing_csv_bytes(self, tmp_path):
        """Comments, header, repr digits, the quoted svlet label and an
        empty ratio, byte for byte."""
        rows = (
            TimingRow("svlet(C=10,K=2)", 0.00025, 1.0),
            TimingRow("svst-sure", 3.0e-4, 1.2000000000000002),
            TimingRow("svlt-sure", 0.1, None),
        )
        path = tmp_path / "timing.csv"
        write_timing_csv(path, rows, 7)
        assert path.read_bytes() == (
            b"# seed=7\n# version=0.1.0\nmethod,median_time_s,ratio_vs_svlet\n"
            b'"svlet(C=10,K=2)",0.00025,1.0\nsvst-sure,0.0003,1.2000000000000002\nsvlt-sure,0.1,\n'
        )

    def test_repeat_run_medians_stable(self):
        """Same machine, same seed: medians agree within 50% (stability
        sanity for the ordering assertions, not a correctness claim)."""
        grid = self.timing_grid()
        first = {row.method: row.median_seconds for row in timing_report(grid)}
        second = {row.method: row.median_seconds for row in timing_report(grid)}
        for method, t1 in first.items():
            t2 = second[method]
            assert max(t1, t2) / min(t1, t2) < 1.5, (method, t1, t2)


class TestSureUnbiasednessHarness:
    """Paired Monte Carlo check of the risk estimate."""

    def test_identity_and_soft_threshold_pass(self):
        rng = np.random.default_rng(79)
        X = rng.standard_normal((8, 3)) @ rng.standard_normal((3, 8))
        configs = [(X, 0.5, Identity()), (X, 0.5, Svst(1.0))]
        checks = sure_unbiasedness(configs, draws=120, seed=80)
        assert len(checks) == 2
        for check in checks:
            assert check.passed, check
            assert abs(check.gap) <= 3.0 * check.stderr

    def test_identity_rule_sure_is_constant(self):
        """SURE(Identity) = n*m*sigma^2 on every draw, so mean_sure hits it
        exactly and the loss stays within Monte Carlo range of it."""
        rng = np.random.default_rng(81)
        X = rng.standard_normal((6, 6))
        (check,) = sure_unbiasedness([(X, 1.0, Identity())], draws=50, seed=82)
        np.testing.assert_allclose(check.mean_sure, 36.0, rtol=1e-12)

    def test_rejects_bad_arguments(self):
        X = np.ones((3, 3))
        with pytest.raises(ContractError):
            sure_unbiasedness([(X, 1.0, Identity())], draws=1, seed=0)
        with pytest.raises(ContractError):
            sure_unbiasedness([], draws=10, seed=0)


class TestPaperPreset:
    """The documented 50x50 benchmark regime."""

    def test_keys_and_grid_shapes(self):
        preset = paper_preset(seed=1)
        assert set(preset) == {"asymptotic", "sure", "sensitivity", "timing"}
        assert preset["asymptotic"].ranks == tuple(range(1, 51))
        assert preset["asymptotic"].snrs == (0.5, 1.0, 2.0, 4.0)
        assert preset["sure"].snrs == (0.5, 1.0, 1.5, 2.0)
        assert preset["timing"].ranks == (25,)
        labels = [spec.label for spec in preset["asymptotic"].methods]
        assert "svlet(C=10,K=2)" in labels and "eym-oracle" in labels

    def test_seed_and_trials_propagate(self):
        preset = paper_preset(seed=42, trials=7)
        assert all(grid.seed == 42 and grid.trials == 7 for grid in preset.values())
