"""The large-matrix spectral laws behind the bulk shrinkers.

Prints the closed-form predictions (bulk edges, spike location, vector
overlaps) for two aspect ratios, then verifies them against Monte Carlo
draws at a desk-scale size via the packaged law checker.
"""

from svshrink import AspectRatio, overlap_u, overlap_v, spike_location, verify_laws

SEED = 404


def main():
    for beta in (1.0, 0.25):
        ratio = AspectRatio(beta)
        print(f"aspect ratio beta = {beta}:")
        print(f"  bulk support [{ratio.edge_low:.3f}, {ratio.edge_high:.3f}], "
              f"detection transition at x = {ratio.transition:.3f}")
        print(f"  {'x':>5}{'observed sv':>13}{'overlap_u':>11}{'overlap_v':>11}")
        for x in (1.0, 1.2, 1.5, 2.0, 3.0):
            print(
                f"  {x:>5.2f}{spike_location(x, ratio):>13.4f}"
                f"{overlap_u(x, ratio):>11.4f}{overlap_v(x, ratio):>11.4f}"
            )
        print("  (a spike at or below the transition is absorbed: the observed top")
        print("   value sticks to the bulk edge and the overlaps collapse to zero)")
        print()

    n = 300
    print(f"Monte Carlo check at n = {n}, beta = 1, 5 trials per spiked law:")
    for check in verify_laws(n, 1.0, 5, SEED):
        status = "PASS" if check.passed else "FAIL"
        print(
            f"  {status} {check.name:<22} statistic {check.statistic:.4f} "
            f"vs target {check.target:.4f} (tol {check.tolerance:g} {check.mode})"
        )


if __name__ == "__main__":
    main()
