"""How SURE-driven tuning picks shrinkage parameters without the truth.

Part 1 sweeps the soft-threshold family and shows that the SURE curve
tracks the realized loss curve across the whole grid, so the SURE argmin
lands next to the loss argmin.  Part 2 solves the expansion coefficients in
closed form for K = 1, 2, 3 and shows the fitted SURE only improves as the
basis grows.
"""

import numpy as np

from svshrink import (
    DenoiseProblem,
    Svst,
    apply,
    reconstruct,
    solve_svlet,
    svd,
    tune_grid,
)

SEED = 21
N, M, RANK, SIGMA = 50, 50, 4, 1.0


def main():
    rng = np.random.default_rng(SEED)
    X = 2.0 * (rng.standard_normal((N, RANK)) @ rng.standard_normal((RANK, M)))
    Y = X + SIGMA * rng.standard_normal((N, M))
    problem = DenoiseProblem(Y=Y, sigma=SIGMA)
    factors = svd(Y)

    report = tune_grid(problem, factors, "svst")
    lams = np.array([params[0] for params, _ in report.trace])
    sures = np.array([value for _, value in report.trace])

    def loss_at(lam):
        Xhat = reconstruct(factors, apply(Svst(lam=lam), factors.S))
        return float(np.sum((Xhat - X) ** 2))

    losses = np.array([loss_at(lam) for lam in lams])

    print("soft-threshold sweep (every 10th of 100 grid points):")
    print(f"{'lam':>8}{'SURE':>12}{'realized':>12}")
    for i in range(0, len(lams), 10):
        print(f"{lams[i]:>8.2f}{sures[i]:>12.1f}{losses[i]:>12.1f}")
    print(f"SURE argmin lam = {lams[np.argmin(sures)]:.2f}, "
          f"loss argmin lam = {lams[np.argmin(losses)]:.2f}")
    print(f"max |SURE - loss| / loss over the grid: "
          f"{float(np.max(np.abs(sures - losses) / losses)):.3f}")
    print()

    print("expansion solve (closed form, no grid):")
    print(f"{'K':>3}{'SURE':>12}{'realized':>12}  coefficients")
    for K in (1, 2, 3):
        solved = solve_svlet(problem, factors, K=K, C=10.0)
        Xhat = reconstruct(factors, apply(solved.rule, factors.S))
        loss = float(np.sum((Xhat - X) ** 2))
        coeffs = ", ".join(f"{a:.3f}" for a in solved.a)
        print(f"{K:>3}{solved.report.sure:>12.1f}{loss:>12.1f}  [{coeffs}]")
    print("larger K can only lower the fitted SURE: each basis nests the previous one.")


if __name__ == "__main__":
    main()
