"""Acceptance suite: one test per numbered contract criterion.

Each test prints a single `CRITERION nn PASS/FAIL` line directly to the
terminal (capture is disabled for that line) and then asserts, so the verdict
is visible even in a quiet run.  Soft runtime budgets from the contract are
enforced inside the relevant tests.

Ground truth: analytic identities (divergence of the identity rule equals
n*m; SURE decomposes exactly into its three terms; the K=1 expansion solve
has a closed form), Monte Carlo agreement between SURE and realized loss,
the large-n spectral laws, and benchmark orderings measured on the fixed
50x50 regime with seed 20260818.

Known values:
- div(Identity) = n*m exactly; relative error is at machine precision.
- K=1 expansion coefficient: a1 = 1 - n*m*sigma^2 / sum(y_i^2).
- At n=400 calibrated noise: top singular value within 0.1 of 2, KS distance
  to the quarter-circle law <= 0.05, spike locations within 5%, left-vector
  overlap at x=2 within 0.05.
- Benchmark criterion 8 second clause (rank-2, SNR=4 ratio vs the asymptotic
  shrinker <= 1.10) is a known shortfall of the unclamped SURE objective at
  50x50 and is expected to FAIL honestly; see README.
"""

import time

import numpy as np

from svshrink import (
    Atn,
    DenoiseProblem,
    Identity,
    MatrixShape,
    RmtOptimal,
    Svht,
    Svlet,
    Svlt,
    Svst,
    Zero,
    divergence,
    solve_svlet,
    sure,
    svd,
    tune_grid,
    verify_laws,
)
from svshrink.bench import (
    PAPER_C_VALUES,
    PAPER_K_VALUES,
    ExperimentGrid,
    paper_preset,
    parse_method,
    run_sweep,
    sensitivity_sweep,
    timing_report,
)
from svshrink import cli

from montecarlo import sure_unbiasedness, verify_asymptotic_optimality

SEED = 20260818


def emit(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"CRITERION {number:2d} {status} - {detail}", flush=True)


def random_problem(rng, n_max=30, sigma_lo=0.2, sigma_hi=1.5):
    n = int(rng.integers(5, n_max + 1))
    m = int(rng.integers(5, n_max + 1))
    Y = rng.standard_normal((n, m)) * float(rng.uniform(0.5, 3.0))
    sigma = float(rng.uniform(sigma_lo, sigma_hi))
    problem = DenoiseProblem(Y=Y, sigma=sigma)
    return problem, svd(Y)


def rank_signal(rng, n, m, r, scale):
    return scale * (rng.standard_normal((n, r)) @ rng.standard_normal((r, m)))


def identity_gap(problem, report):
    shape = problem.shape
    sigma2 = problem.sigma * problem.sigma
    expected = -shape.n * shape.m * sigma2 + report.residual + 2.0 * sigma2 * report.divergence
    return abs(report.sure - expected) / max(1.0, abs(report.sure))


class TestAcceptance:
    def test_criterion_01_divergence_identity(self, capsys):
        """div(Identity) = n*m within 1e-9 relative over 200 random shapes."""
        started = time.perf_counter()
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 201))
            m = int(rng.integers(2, 201))
            spectrum = np.sort(np.abs(rng.standard_normal(min(n, m))) + 0.1)[::-1].copy()
            value = divergence(spectrum, Identity(), MatrixShape(n, m))
            worst = max(worst, abs(value - n * m) / (n * m))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-9 and elapsed < 10.0
        emit(capsys, 1, ok, f"div(Identity)=n*m worst rel err {worst:.2e} over 200 shapes ({elapsed:.1f}s < 10s)")
        assert ok, f"worst relative error {worst:.3e}, elapsed {elapsed:.1f}s"

    def test_criterion_02_sure_reconstruction_identity(self, capsys):
        """Every emitted report satisfies sure = -nm*sigma^2 + residual
        + 2*sigma^2*divergence to 1e-10 relative."""
        rng = np.random.default_rng(SEED + 2)
        worst = 0.0
        count = 0
        for _ in range(12):
            problem, factors = random_problem(rng)
            beta = min(problem.shape.n, problem.shape.m) / max(problem.shape.n, problem.shape.m)
            y1 = float(factors.S[0])
            rules = (
                Identity(),
                Zero(),
                Svht(mu=0.4 * y1),
                Svst(lam=0.3 * y1),
                Atn(tau=0.3 * y1, gamma=4.0),
                Svlt(p1=2.0, p2=2.0, p3=0.1 * y1),
                RmtOptimal(beta=beta),
            )
            for rule in rules:
                worst = max(worst, identity_gap(problem, sure(problem, factors, rule)))
                count += 1
            solved = solve_svlet(problem, factors, K=2, C=10.0)
            worst = max(worst, identity_gap(problem, solved.report))
            count += 1
            tuned = tune_grid(problem, factors, "svst")
            worst = max(worst, identity_gap(problem, tuned))
            count += 1
        ok = worst <= 1e-10
        emit(capsys, 2, ok, f"sure = -nm*s^2 + residual + 2s^2*div worst rel gap {worst:.2e} over {count} reports")
        assert ok, f"worst relative identity gap {worst:.3e}"

    def test_criterion_03_sure_unbiasedness(self, capsys):
        """|mean SURE - mean loss| <= 3 standard errors of the paired
        differences, 5 fixed configurations at 20x20, 500 draws each."""
        started = time.perf_counter()
        rng = np.random.default_rng(SEED + 3)
        configs = (
            (rank_signal(rng, 20, 20, 2, 1.0), 0.5, Identity()),
            (rank_signal(rng, 20, 20, 3, 1.0), 1.0, Svst(lam=2.0)),
            (rank_signal(rng, 20, 20, 1, 2.0), 0.5, Atn(tau=3.0, gamma=4.0)),
            (rank_signal(rng, 20, 20, 5, 1.0), 0.7, Svlt(p1=0.5, p2=3.0, p3=0.4)),
            (rank_signal(rng, 20, 20, 2, 1.0), 0.3, Svlet(K=2, T=3.0, a=(0.9, -0.2))),
        )
        checks = sure_unbiasedness(configs, draws=500, seed=SEED)
        elapsed = time.perf_counter() - started
        ratios = [abs(c.gap) / (3.0 * c.stderr) for c in checks]
        ok = all(c.passed for c in checks) and elapsed < 120.0
        emit(
            capsys, 3, ok,
            f"max |gap|/(3 SE) = {max(ratios):.2f} over 5 configs x 500 draws ({elapsed:.1f}s < 120s)",
        )
        assert ok, f"checks: {[(c.rule_label, c.passed, c.gap, c.stderr) for c in checks]}"

    def test_criterion_04_k1_closed_form(self, capsys):
        """Solved a1 equals 1 - nm*sigma^2/sum(y^2) to 1e-10 relative on 50
        random problems."""
        rng = np.random.default_rng(SEED + 4)
        worst = 0.0
        for _ in range(50):
            problem, factors = random_problem(rng)
            solved = solve_svlet(problem, factors, K=1, C=10.0)
            shape = problem.shape
            oracle = 1.0 - shape.n * shape.m * problem.sigma**2 / float(np.sum(factors.S**2))
            worst = max(worst, abs(solved.a[0] - oracle) / max(1e-12, abs(oracle)))
        ok = worst <= 1e-10
        emit(capsys, 4, ok, f"K=1 coefficient matches closed form, worst rel err {worst:.2e} over 50 problems")
        assert ok, f"worst relative error {worst:.3e}"

    def test_criterion_05_stationarity(self, capsys):
        """Coordinate perturbations of the solved coefficients never reduce
        SURE beyond solver tolerance (100 problems, K in {1,2,3})."""
        rng = np.random.default_rng(SEED + 5)
        worst_drop = 0.0
        perturbations = 0
        for i in range(100):
            K = 1 + i % 3
            problem, factors = random_problem(rng, n_max=25)
            solved = solve_svlet(problem, factors, K=K, C=10.0)
            base = solved.report.sure
            tol = 1e-8 * (1.0 + abs(base))
            for k in range(K):
                for scale in (1e-4, 1e-2):
                    for sign in (1.0, -1.0):
                        a = np.array(solved.a, dtype=float)
                        a[k] += sign * scale * (1.0 + abs(a[k]))
                        rule = Svlet(K=K, T=solved.rule.T, a=a)
                        value = sure(problem, factors, rule).sure
                        worst_drop = max(worst_drop, base - value - tol)
                        perturbations += 1
        ok = worst_drop <= 0.0
        emit(
            capsys, 5, ok,
            f"no SURE decrease beyond tolerance over {perturbations} coordinate perturbations "
            f"(worst drop-minus-tol {worst_drop:.2e})",
        )
        assert ok, f"worst drop beyond tolerance {worst_drop:.3e} over {perturbations} perturbations"

    def test_criterion_06_rmt_laws(self, capsys):
        """Calibrated 400x400 noise: edge within 0.1 of 2, KS <= 0.05,
        spike locations within 5%, overlap at x=2 within 0.05."""
        started = time.perf_counter()
        checks = verify_laws(400, 1.0, 10, SEED)
        elapsed = time.perf_counter() - started
        stated = {
            "bulk-edge": (0.1, "abs"),
            "quarter-circle-ks": (0.05, "abs"),
            "spike-location-x1.5": (0.05, "rel"),
            "spike-location-x2": (0.05, "rel"),
            "spike-location-x3": (0.05, "rel"),
            "overlap-u-x2": (0.05, "abs"),
        }
        contract = {check.name: (check.tolerance, check.mode) for check in checks}
        ok = (
            contract == stated
            and all(check.passed for check in checks)
            and abs(checks[0].target - 2.0) == 0.0
            and elapsed < 60.0
        )
        emit(
            capsys, 6, ok,
            f"all {len(checks)} spectral-law checks pass at n=400 ({elapsed:.1f}s < 60s)",
        )
        assert ok, f"checks: {[(c.name, c.passed, c.statistic, c.target) for c in checks]}"

    def test_criterion_07_asymptotic_shrinker_proxy(self, capsys):
        """At n=1000, beta=1, spikes {2,3,4}: fitted expansion within 10% of
        the closed-form shrinker per spike, and the deviation shrinks from
        n=200 to n=1000 averaged over 5 seeds."""
        started = time.perf_counter()
        checks = verify_asymptotic_optimality(
            (200, 1000), r=3, beta=1.0, seed=SEED, spikes=(2.0, 3.0, 4.0), n_seeds=5
        )
        elapsed = time.perf_counter() - started
        small, large = checks
        worst_large = max(large.per_seed) if large.per_seed else float("inf")
        ok = (
            large.skipped == 0
            and worst_large <= 0.10
            and large.mean_deviation < small.mean_deviation
            and elapsed < 180.0
        )
        emit(
            capsys, 7, ok,
            f"shrinker deviation mean {small.mean_deviation:.4f} @ n=200 -> {large.mean_deviation:.4f} "
            f"@ n=1000, per-seed max {worst_large:.4f} <= 0.10 ({elapsed:.1f}s < 180s)",
        )
        assert ok, (
            f"n=200 mean {small.mean_deviation}, n=1000 mean {large.mean_deviation}, "
            f"n=1000 per-seed {large.per_seed}, skipped {large.skipped}"
        )

    def _ordering_clause(self, trials):
        methods = tuple(
            parse_method(label)
            for label in ("svlet(C=10,K=2)", "svht-4sqrt3", "svst-bulk", "svst-sure")
        )
        grid = ExperimentGrid(
            n=50, m=50, ranks=(50,), snrs=(0.5,), methods=methods, trials=trials, seed=SEED
        )
        table = run_sweep(grid)
        ours = table.cell("svlet(C=10,K=2)", 50, 0.5).nmse
        rivals = {
            label: table.cell(label, 50, 0.5).nmse
            for label in ("svht-4sqrt3", "svst-bulk", "svst-sure")
        }
        ok = all(ours < value for value in rivals.values())
        detail = f"r=50 snr=0.5 P={trials}: svlet {ours:.4f} vs " + ", ".join(
            f"{label} {value:.4f}" for label, value in sorted(rivals.items())
        )
        return ok, detail

    def _low_rank_clause(self, trials):
        methods = (parse_method("svlet(C=10,K=2)"), parse_method("opt-shrink"))
        grid = ExperimentGrid(
            n=50, m=50, ranks=(2,), snrs=(4.0,), methods=methods, trials=trials, seed=SEED
        )
        table = run_sweep(grid)
        ours = table.cell("svlet(C=10,K=2)", 2, 4.0).nmse
        baseline = table.cell("opt-shrink", 2, 4.0).nmse
        ratio = ours / baseline
        return ratio <= 1.10, f"r=2 snr=4.0 P={trials}: nmse ratio svlet/opt-shrink {ratio:.3f} (<= 1.10 required)"

    def test_criterion_08_benchmark_orderings(self, capsys):
        """High-rank low-SNR ordering and low-rank agreement with the
        asymptotic shrinker at 50x50, P=10 with one retry at P=30."""
        ordering_ok, ordering_detail = self._ordering_clause(10)
        if not ordering_ok:
            ordering_ok, ordering_detail = self._ordering_clause(30)
        low_rank_ok, low_rank_detail = self._low_rank_clause(10)
        if not low_rank_ok:
            low_rank_ok, low_rank_detail = self._low_rank_clause(30)
        ok = ordering_ok and low_rank_ok
        emit(capsys, 8, ok, f"{ordering_detail}; {low_rank_detail}")
        assert ok, f"{ordering_detail}; {low_rank_detail}"

    def test_criterion_09_sensitivity_trends(self, capsys):
        """K=2 vs K=5 mean-NMSE gap <= 10% of the K=2 value; (C=10, K=2)
        within 15% of the (C, K) grid minimum."""
        methods = (parse_method("svlet(C=10,K=2)"),)
        grid = ExperimentGrid(
            n=50, m=50, ranks=(1, 10, 25, 50), snrs=(0.5, 1.0, 2.0, 4.0),
            methods=methods, trials=10, seed=SEED,
        )
        report = sensitivity_sweep(grid, PAPER_C_VALUES, PAPER_K_VALUES)
        mean_k2 = report.mean_for(10.0, 2)
        mean_k5 = report.mean_for(10.0, 5)
        k_gap = abs(mean_k2 - mean_k5) / mean_k2
        excess = mean_k2 / report.best.mean_nmse - 1.0
        ok = k_gap <= 0.10 and excess <= 0.15
        emit(
            capsys, 9, ok,
            f"K=2 vs K=5 gap {100 * k_gap:.1f}% <= 10%; (C=10,K=2) {100 * excess:.1f}% above grid "
            f"minimum (C={report.best.C:g}, K={report.best.K}) <= 15%",
        )
        assert ok, f"k_gap {k_gap:.4f}, excess over grid minimum {excess:.4f}"

    def test_criterion_10_timing_ordering(self, capsys):
        """Median runtimes order svlet < svst-sure < atn-sure < svlt-sure on
        the 50x50 benchmark with the default grid sizes."""
        grid = paper_preset(SEED)["timing"]
        by_label = {row.method: row.median_seconds for row in timing_report(grid)}
        ordered = ["svlet(C=10,K=2)", "svst-sure", "atn-sure", "svlt-sure"]
        medians = [by_label[label] for label in ordered]
        ok = all(a < b for a, b in zip(medians, medians[1:]))
        emit(
            capsys, 10, ok,
            "median seconds " + " < ".join(f"{label} {value:.2e}" for label, value in zip(ordered, medians)),
        )
        assert ok, f"medians {list(zip(ordered, medians))}"

    def test_criterion_11_bench_determinism(self, capsys, tmp_path):
        """`bench` CSVs are byte-identical (modulo the timestamp comment)
        across two runs."""
        config = tmp_path / "bench.cfg"
        config.write_text(
            "run = sweep\nn = 24\nm = 20\nranks = 1,4\nsnrs = 0.5 2.0\ntrials = 3\n"
            "methods = svlet(C=10,K=2) svst-sure eym-oracle\n"
        )
        outputs = []
        for name in ("first", "second"):
            outdir = tmp_path / name
            code = cli.main(
                ["bench", "--config", str(config), "--seed", str(SEED), "--output-dir", str(outdir)]
            )
            assert code == 0
            lines = (outdir / "sweep.csv").read_bytes().split(b"\n")
            outputs.append(b"\n".join(l for l in lines if not l.startswith(b"# timestamp")))
        capsys.readouterr()
        ok = outputs[0] == outputs[1]
        emit(
            capsys, 11, ok,
            "bench CSV byte-identical modulo timestamp across reruns "
            f"({len(outputs[0])} bytes)",
        )
        assert ok
