"""Checks of the closed-form divergence that share no formula with it.

The divergence SURE scores is the trace of the Jacobian of the estimator
Y -> U eta(S) V^T, with eta the rule's unclamped formula.  The oracle takes
that trace by central differences, one coordinate of Y at a time, from the
estimator's values alone: no eta', no gap sums and no |n - m| term.  It
covers every rule family on tall, wide and square shapes.  Each threshold,
RmtOptimal's bulk edge included, lies midway between two adjacent singular
values, so no difference quotient straddles a kink or the edge's square-root
onset.  On square shapes the |n - m| term of the divergence is zero, so the
tall and wide shapes are what check it.

At 400x200 and 200x400, too large to sweep every coordinate, a Monte Carlo
divergence (Ramani, Blu & Unser 2008, IEEE TIP) takes the same trace along
random Gaussian directions.

The last check is SURE's unbiasedness off the square, at 30x10 and 10x30,
with the Monte Carlo harness of acceptance criterion 3.
"""

import math

import numpy as np
import pytest

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
    apply,
    divergence,
    dog_basis,
    solve_svlet,
    svd,
)

from montecarlo import sure_unbiasedness

SHAPES = ((7, 4), (4, 7), (6, 6), (9, 3), (12, 5))
DRAWS = 4
# The difference step, relative to max|Y|.
STEP = 1e-6
# Over seeds 0-9 and 71 the worst relative gap was 1.4e-9 (the solved
# svlet) and every other rule stayed at or below 4.3e-10.
BOUND = 1e-8


def formula(rule, s):
    """eta on the spectrum s as SURE scores it: the unclamped expansion for
    a Svlet, apply for every other rule."""
    if isinstance(rule, Svlet):
        return dog_basis(s, rule.K, rule.T) @ rule.a
    return apply(rule, s)


def midpoint(values):
    """The midpoint of values k and k + 1 (1-based), k = len(values) // 2."""
    k = values.shape[0] // 2
    return 0.5 * (values[k - 1] + values[k])


def tapered_svlt(s, p1, p2):
    """svlt with weights w_i = 1 / (1 + exp(p1 * (i - p2))) and its offset
    the midpoint of the tapered values s_i * w_i."""
    weights = 1.0 / (1.0 + np.exp(p1 * (np.arange(1.0, s.shape[0] + 1) - p2)))
    return Svlt(p1=p1, p2=p2, p3=midpoint(s * weights))


def rules_for(Y, sigma):
    """Ten rules over every family.  Every threshold is t, the midpoint of
    Y's singular values."""
    factors = svd(Y)
    s = factors.S
    t = midpoint(s)
    return {
        "identity": Identity(),
        "svht": Svht(mu=t),
        "svst": Svst(lam=t),
        "atn": Atn(tau=t, gamma=2.5),
        "svlt(1, 2)": tapered_svlt(s, 1.0, 2.0),
        "svlt(0.8, 2.3)": tapered_svlt(s, 0.8, 2.3),
        "svlet(t)": Svlet(K=2, T=t, a=np.array([1.2, -0.5])),
        "svlet(median)": Svlet(K=2, T=float(np.median(s)), a=np.array([0.7, -0.2])),
        "svlet-solved": solve_svlet(DenoiseProblem(Y, sigma), factors, K=2, C=2.0).rule,
        "opt-shrink": RmtOptimal(beta=min(Y.shape) / max(Y.shape)),
    }


def draw(seed, d, n, m):
    """Draw d of a standard normal n x m matrix, scaled so that the
    midpoint t of rules_for is RmtOptimal's bulk edge 1 + sqrt(beta), and
    the scale, which is its noise level."""
    Y = np.random.default_rng([seed, d, n, m]).standard_normal((n, m))
    scale = (1.0 + np.sqrt(min(n, m) / max(n, m))) / midpoint(svd(Y).S)
    return Y * scale, scale


def jacobian_traces(rules, Y):
    """Per rule, the central-difference trace of the Jacobian of
    Y -> U formula(S) V^T, one coordinate of Y at a time."""
    h = STEP * np.abs(Y).max()
    traces = dict.fromkeys(rules, 0.0)
    for i, j in np.ndindex(Y.shape):
        up, down = Y.copy(), Y.copy()
        up[i, j] += h
        down[i, j] -= h
        step = up[i, j] - down[i, j]
        hi, lo = svd(up), svd(down)
        for name, rule in rules.items():
            entry_hi = hi.U[i] * formula(rule, hi.S) @ hi.V[j]
            entry_lo = lo.U[i] * formula(rule, lo.S) @ lo.V[j]
            traces[name] += (entry_hi - entry_lo) / step
    return traces


@pytest.mark.parametrize("n, m", SHAPES)
@pytest.mark.parametrize("seed", [0, 71])
def test_divergence_matches_central_difference_trace(seed, n, m):
    gaps = {}
    for d in range(DRAWS):
        Y, sigma = draw(seed, d, n, m)
        rules = rules_for(Y, sigma)
        S = svd(Y).S
        for name, trace in jacobian_traces(rules, Y).items():
            closed = divergence(S, rules[name], MatrixShape(n, m))
            gaps[name] = max(gaps.get(name, 0.0), abs(trace - closed) / max(1.0, abs(closed)))
    assert max(gaps.values()) <= BOUND, gaps


PROBES = 20
# Over seeds 0-39 of this draw, 800 z values, the largest |z| was 4.29 (an
# svlt at 400x200, which read 0.91 with 400 probes) and the next 3.98.
Z_BOUND = 5.0


@pytest.mark.parametrize("n, m", [(400, 200), (200, 400)])
def test_divergence_matches_monte_carlo_trace(n, m):
    """Per rule, the mean over PROBES Gaussian directions b of the central
    difference b^T (f(Y + eps b) - f(Y - eps b)) / (2 eps), whose
    expectation is the trace of f's Jacobian, within Z_BOUND standard
    errors of the closed form.  Y is a rank-5 signal plus unit noise.
    b^T U eta(S) V^T is sum_i eta_i u_i^T b v_i, so every rule shares each
    probe's two SVDs."""
    rng = np.random.default_rng([0, n, m])
    Y = rng.standard_normal((n, 5)) @ rng.standard_normal((5, m)) + rng.standard_normal((n, m))
    rules = rules_for(Y, 1.0)
    eps = STEP * np.abs(Y).max()
    samples = {name: [] for name in rules}
    for _ in range(PROBES):
        b = rng.standard_normal((n, m))
        hi, lo = svd(Y + eps * b), svd(Y - eps * b)
        along_hi = np.sum((b.T @ hi.U) * hi.V, axis=0)
        along_lo = np.sum((b.T @ lo.U) * lo.V, axis=0)
        for name, rule in rules.items():
            change = formula(rule, hi.S) @ along_hi - formula(rule, lo.S) @ along_lo
            samples[name].append(change / (2.0 * eps))
    S = svd(Y).S
    z = {}
    for name, values in samples.items():
        closed = divergence(S, rules[name], MatrixShape(n, m))
        z[name] = (np.mean(values) - closed) / (np.std(values, ddof=1) / math.sqrt(PROBES))
    assert max(map(abs, z.values())) <= Z_BOUND, z


# Per family of configurations: the rank and scale of a signal drawn once
# per shape, the noise level, and the rules scored on that signal.
EVERY_FAMILY = (
    (2, 1.0, 0.5, (Identity(),)),
    (3, 1.0, 1.0, (Svst(lam=4.0),)),
    (1, 2.0, 0.5, (Atn(tau=3.0, gamma=4.0),)),
    (4, 1.0, 0.7, (Svlt(p1=0.5, p2=3.0, p3=0.4),)),
    (2, 1.0, 0.3, (Svlet(K=2, T=3.0, a=(0.9, -0.2)),)),
    # sigma = 1 / sqrt(max(n, m)) puts the raw spectrum on the calibrated
    # scale, with the bulk edge at 1 + sqrt(1/3).
    (2, 0.6, 1.0 / math.sqrt(30.0), (RmtOptimal(1.0 / 3.0),)),
)
# Each grid family and a fixed svlet with a negative coefficient, all on
# one rank-3 signal.
SHARED_SIGNAL = (
    (3, 1.0, 0.5, (Svst(lam=2.0), Atn(tau=3.0, gamma=3.0), Svlt(p1=0.5, p2=3.0, p3=0.4),
                   Svlet(K=2, T=3.0, a=(0.9, -0.2)))),
)


def unbiasedness_configs(seed, families):
    rng = np.random.default_rng(seed)
    configs = []
    for n, m in ((30, 10), (10, 30)):
        for rank, scale, sigma, rules in families:
            X = scale * (rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m)))
            configs += [(X, sigma, rule) for rule in rules]
    return configs


# The largest |gap| was 2.61 standard errors over seeds 0-4 and 2.36 on
# seed 35.
@pytest.mark.parametrize(
    "seed, draws, families",
    [pytest.param(seed, 300, EVERY_FAMILY, id=f"every-family-{seed}") for seed in range(5)]
    + [pytest.param(35, 400, SHARED_SIGNAL, id="shared-signal-35")],
)
def test_sure_unbiased_on_tall_and_wide_shapes(seed, draws, families):
    checks = sure_unbiasedness(unbiasedness_configs(seed, families), draws=draws, seed=seed)
    assert all(c.passed for c in checks), [(c.rule_label, c.gap, c.stderr) for c in checks]
