"""A small paired benchmark sweep across rank and SNR.

Every method sees the same noisy draws (one SVD per trial, shared), so the
NMSE differences are pure method effects.  The printout groups results by
grid cell and ranks the methods; the same table can be written as a CSV via
`svshrink bench` for larger runs.
"""

from svshrink.bench import ExperimentGrid, parse_method, run_sweep

SEED = 11
METHODS = ("svlet(C=10,K=2)", "svst-sure", "svht-4sqrt3", "opt-shrink", "eym-oracle")


def main():
    grid = ExperimentGrid(
        n=40, m=40,
        ranks=(2, 10, 25),
        snrs=(0.5, 2.0),
        methods=tuple(parse_method(label) for label in METHODS),
        trials=5,
        seed=SEED,
    )
    table = run_sweep(grid)

    print(f"{grid.n}x{grid.m}, {grid.trials} paired trials per cell, seed {SEED}")
    for snr in grid.snrs:
        for r in grid.ranks:
            cells = sorted(
                (table.cell(label, r, snr) for label in METHODS),
                key=lambda row: row.nmse,
            )
            print(f"\nrank {r}, snr {snr}:")
            for position, row in enumerate(cells, start=1):
                print(
                    f"  {position}. {row.method:<18} nmse {row.nmse:.4f} "
                    f"(+/- {row.nmse_stderr:.4f})"
                )

    print("\nnotes: eym-oracle truncates at the (normally unknown) true rank;")
    print("the SURE- and bulk-calibrated methods only see Y and sigma.")


if __name__ == "__main__":
    main()
