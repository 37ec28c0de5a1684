"""Sensitivity of the expansion estimator to its two hyperparameters.

Sweeps the width multiplier C and the basis size K over a small rank/SNR
grid and prints the mean-NMSE surface.  The point of the exercise: the
surface is flat near the defaults, so (C=10, K=2) is a safe choice rather
than a delicate one.
"""

from svshrink.bench import ExperimentGrid, parse_method, sensitivity_sweep

SEED = 11
C_VALUES = (2.0, 5.0, 10.0, 15.0, 20.0)
K_VALUES = (1, 2, 3, 5)


def main():
    grid = ExperimentGrid(
        n=40, m=40,
        ranks=(2, 20),
        snrs=(1.0, 4.0),
        methods=(parse_method("svlet"),),
        trials=5,
        seed=SEED,
    )
    report = sensitivity_sweep(grid, C_VALUES, K_VALUES)

    print(f"mean NMSE over ranks {grid.ranks} x snrs {grid.snrs} "
          f"({grid.n}x{grid.m}, {grid.trials} trials):")
    header = "".join(f"   K={k:<4}" for k in K_VALUES)
    print(f"{'C':>6}{header}")
    for c in C_VALUES:
        cells = "".join(f"{report.mean_for(c, k):>8.4f}" for k in K_VALUES)
        print(f"{c:>6.1f}{cells}")

    best = report.best
    default = report.mean_for(10.0, 2)
    print(f"\ngrid best: C={best.C:g}, K={best.K} at mean NMSE {best.mean_nmse:.4f}")
    print(f"default (C=10, K=2): {default:.4f} "
          f"({100.0 * (default / best.mean_nmse - 1.0):.1f}% above the best cell)")


if __name__ == "__main__":
    main()
