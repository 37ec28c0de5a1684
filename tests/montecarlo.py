"""Monte Carlo acceptance harnesses, shared by the test modules.

`sure_unbiasedness` checks that mean SURE tracks the mean squared loss over
paired noise draws (criterion 3); `verify_asymptotic_optimality` checks that
the fitted expansion converges to the closed-form optimal bulk shrinker
(criterion 7).  Both draw every realization from its own SeedSequence, so a
result is a pure function of the arguments.  This module holds no tests.
"""

import math
from dataclasses import dataclass

import numpy as np

from svshrink import (
    AspectRatio,
    ContractError,
    DenoiseProblem,
    MatrixShape,
    RmtOptimal,
    apply,
    calibration_scale,
    estimate_rank,
    reconstruct,
    sure,
    svd,
)
from svshrink.sure import _fit_expansion, _spectral_pieces


@dataclass(frozen=True)
class SureCheck:
    rule_label: str
    mean_sure: float
    mean_loss: float
    gap: float
    stderr: float
    passed: bool


def sure_unbiasedness(configs, draws: int, seed: int):
    """Monte Carlo check that mean SURE tracks mean squared loss.

    Each config is (X, sigma, rule) with X held fixed; `draws` independent
    noise realizations are used for both averages (paired).  A config
    passes when |mean SURE - mean loss| <= 3 standard errors of the paired
    differences SURE - loss.
    """
    if not isinstance(draws, (int, np.integer)) or draws < 2:
        raise ContractError(f"draws must be an integer >= 2, got {draws!r}")
    configs = list(configs)
    if not configs:
        raise ContractError("configs must be non-empty")
    checks = []
    for idx, (X, sigma, rule) in enumerate(configs):
        X = np.asarray(X, dtype=float)
        sures = np.empty(draws)
        losses = np.empty(draws)
        for d in range(int(draws)):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), idx, d]))
            problem = DenoiseProblem(Y=X + float(sigma) * rng.standard_normal(X.shape), sigma=float(sigma))
            factors = svd(problem.Y)
            report = sure(problem, factors, rule)
            Xhat = reconstruct(factors, apply(rule, factors.S))
            sures[d] = report.sure
            losses[d] = float(np.sum((Xhat - X) ** 2))
        gap = float(np.mean(sures) - np.mean(losses))
        stderr = float(np.std(sures - losses, ddof=1) / math.sqrt(draws))
        checks.append(
            SureCheck(
                rule_label=type(rule).__name__,
                mean_sure=float(np.mean(sures)),
                mean_loss=float(np.mean(losses)),
                gap=gap,
                stderr=stderr,
                passed=bool(abs(gap) <= 3.0 * stderr),
            )
        )
    return tuple(checks)


@dataclass(frozen=True)
class AsymptoticCheck:
    """Per matrix size: fitted-expansion vs closed-form shrinker deviation.

    mean_deviation averages, over the seeds where spikes were detected, the
    worst relative deviation across detected spikes; skipped counts seeds
    with no detected spike.
    """

    n: int
    m: int
    mean_deviation: float
    per_seed: tuple
    detected_ranks: tuple
    skipped: int


def verify_asymptotic_optimality(
    n_values, r: int, beta: float, seed: int, *, spikes=None, n_seeds: int = 5
):
    """Check that the fitted expansion converges to the optimal bulk shrinker.

    For each n: draw a calibrated spiked model (orthonormal factors, noise
    standard deviation 1/sqrt(m)), estimate the spike count r*, fit the
    expansion on exactly the top r* singular values (K = r*, T = their
    mean, cross-sums still over the full spectrum), and measure the
    relative gap to the closed-form optimal shrinker at those values.
    """
    ratio = AspectRatio(beta)
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ContractError(f"r must be an integer >= 1, got {r!r}")
    if not isinstance(n_seeds, (int, np.integer)) or n_seeds < 1:
        raise ContractError(f"n_seeds must be an integer >= 1, got {n_seeds!r}")
    if spikes is None:
        spikes = np.linspace(2.0, 4.0, int(r))
    spikes = np.sort(np.asarray(spikes, dtype=float))[::-1]
    if spikes.shape != (int(r),) or np.any(~np.isfinite(spikes)) or np.any(spikes <= 0.0):
        raise ContractError("spikes must be r finite positive strengths")
    n_values = tuple(int(n) for n in n_values)
    rule = RmtOptimal(beta=ratio.beta)
    checks = []
    for n in n_values:
        if n < 2 * r:
            raise ContractError(f"n={n} too small for r={r} spikes")
        m = int(round(n / ratio.beta))
        shape = MatrixShape(n, m)
        sigma = 1.0 / np.sqrt(m)
        scale = calibration_scale(shape, sigma)
        devs = []
        detected = []
        skipped = 0
        for s in range(int(n_seeds)):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), n, s]))
            U0 = np.linalg.qr(rng.standard_normal((n, int(r))))[0]
            V0 = np.linalg.qr(rng.standard_normal((m, int(r))))[0]
            Y = (U0 * spikes) @ V0.T + sigma * rng.standard_normal((n, m))
            spectrum = np.linalg.svd(Y, compute_uv=False)
            r_star = estimate_rank(spectrum, shape, sigma).r_star
            detected.append(r_star)
            if r_star == 0:
                skipped += 1
                continue
            T = float(np.mean(spectrum[:r_star]))
            # The fit runs on the spectrum y = s * 2^-e, with sigma and T
            # scaled alike; phi has the units of y.
            _, e, y, _, rowsums = _spectral_pieces(spectrum, shape)
            phi, _, _, _, a, _, _ = _fit_expansion(
                y[:r_star], rowsums[:r_star], shape, math.ldexp(sigma, -e), r_star, math.ldexp(T, -e)
            )
            fitted = np.ldexp(phi @ a, e)
            target = scale * apply(rule, spectrum / scale)[:r_star]
            compare = min(r_star, int(r))  # extra near-edge detections are fit, not scored
            gaps = np.abs(fitted[:compare] - target[:compare]) / target[:compare]
            devs.append(float(np.max(gaps)))
        if not devs:
            mean_dev = float("nan")
        else:
            mean_dev = float(np.mean(devs))
        checks.append(
            AsymptoticCheck(
                n=n, m=m, mean_deviation=mean_dev, per_seed=tuple(devs),
                detected_ranks=tuple(detected), skipped=skipped,
            )
        )
    return tuple(checks)
