"""Denoise one low-rank matrix with every estimator family.

Generates a rank-3 signal observed under known Gaussian noise, runs each
shrinkage rule on the same SVD, and reports the relative reconstruction
error next to the SURE value (an observable estimate of the squared loss,
available for the SURE-tunable families).
"""

import numpy as np

from svshrink import (
    DenoiseProblem,
    OPTIMAL_SHRINK,
    SVHT_COEFF,
    Svht,
    apply,
    asymptotic_denoise,
    calibration_scale,
    eym_truncate,
    reconstruct,
    solve_svlet,
    sure,
    svd,
    tune_grid,
)

SEED = 7
N, M, RANK, SIGMA = 60, 40, 3, 0.8


def relative_error(Xhat, X):
    return float(np.linalg.norm(Xhat - X) / np.linalg.norm(X))


def main():
    rng = np.random.default_rng(SEED)
    X = rng.standard_normal((N, RANK)) @ rng.standard_normal((RANK, M))
    Y = X + SIGMA * rng.standard_normal((N, M))
    problem = DenoiseProblem(Y=Y, sigma=SIGMA)
    factors = svd(Y)

    print(f"observed {N}x{M}, true rank {RANK}, sigma {SIGMA}")
    print(f"noisy input:          rel err {relative_error(Y, X):.4f}")
    print()

    rows = []

    solved = solve_svlet(problem, factors, K=2, C=10.0)
    Xhat = reconstruct(factors, apply(solved.rule, factors.S))
    rows.append(("svlet(C=10,K=2)", Xhat, solved.report.sure))

    report = tune_grid(problem, factors, "svst")
    Xhat = reconstruct(factors, apply(report.rule, factors.S))
    rows.append((f"svst(lam={report.rule.lam:.2f})", Xhat, report.sure))

    mu = SVHT_COEFF * calibration_scale(problem.shape, SIGMA)
    Xhat = reconstruct(factors, apply(Svht(mu=mu), factors.S))
    rows.append((f"svht(mu={mu:.2f})", Xhat, sure(problem, factors, Svht(mu=mu)).sure))

    Xhat = asymptotic_denoise(problem, factors, OPTIMAL_SHRINK)
    rows.append(("opt-shrink", Xhat, None))

    rows.append((f"eym(rank={RANK}, oracle)", eym_truncate(Y, RANK), None))

    print(f"{'method':<24}{'rel err':>10}{'SURE':>14}")
    for label, Xhat, sure_value in rows:
        sure_text = "-" if sure_value is None else f"{sure_value:12.2f}"
        print(f"{label:<24}{relative_error(Xhat, X):>10.4f}{sure_text:>14}")

    print()
    print("SURE estimates the squared loss ||Xhat - X||_F^2 without seeing X:")
    loss = np.linalg.norm(reconstruct(factors, apply(solved.rule, factors.S)) - X) ** 2
    print(f"  svlet: SURE {solved.report.sure:.2f} vs realized loss {loss:.2f}")


if __name__ == "__main__":
    main()
