"""The simulator against the exact count-of-ones chain on complete graphs.

On complete(n) with uniform edge weights and the rules {AND, OR}, P(OR) = p
and q = 1 - p, the number of ones k is itself a Markov chain: an edge with
unequal ends is picked with probability k(n-k)/C(n,2); two OR draws then
make both ends 1 and two AND draws make both 0, while mixed draws leave k
unchanged. So k -> k+1 with probability p^2 k(n-k)/C(n,2) and k -> k-1 with
q^2 k(n-k)/C(n,2). Its distribution propagates exactly in O(n) a step, and
its absorption probability is the gambler's ruin (1 - r^k)/(1 - r^n) with
r = (q/p)^2.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from boolgossip import chain, graphs, meanfield, rules, simulate

AND, OR = 1, 7
# Sample means are accepted within this many standard errors of the exact
# mean; the tests compare 30 sample points and one frequency.
Z_MAX = 4.5


def _spec(n: int, p: Fraction) -> chain.ChainSpec:
    return chain.ChainSpec(graphs.make("complete", n), rules.RuleSet((AND, OR), (1 - p, p)))


def _count_chain(n: int, p: float, k0, horizon: int) -> np.ndarray:
    """dist[t, k] = P(k_t = k) for the count of ones started at k0, or
    from the distribution k0 over 0..n when k0 is a vector."""
    k = np.arange(n + 1)
    move = k * (n - k) / math.comb(n, 2)
    up, down = p * p * move, (1 - p) ** 2 * move
    dist = np.zeros((horizon + 1, n + 1))
    if np.ndim(k0):
        dist[0] = k0
    else:
        dist[0, k0] = 1.0
    for t in range(horizon):
        d = dist[t]
        nxt = d * (1.0 - up - down)
        nxt[1:] += d[:-1] * up[:-1]
        nxt[:-1] += d[1:] * down[1:]
        dist[t + 1] = nxt
    return dist


def test_density_means_match_exact_chain():
    n, p, k0 = 30, Fraction(11, 20), 12
    rounds, horizon, every = 2000, 600, 20
    result = simulate.run(
        simulate.SimConfig(
            _spec(n, p), horizon, rounds, seed=17, start=(1 << k0) - 1, sample_every=every
        )
    )
    dist = _count_chain(n, float(p), k0, horizon)
    k = np.arange(n + 1)
    steps = result.density_mean.steps
    assert steps == tuple(range(0, horizon + 1, every))
    for t, density in zip(steps, result.density_mean.density):
        mean = float(dist[t] @ k) / n
        var = float(dist[t] @ (k * k)) / n**2 - mean**2
        if t == 0:
            assert density == k0 / n
            continue
        z = abs(density - mean) / math.sqrt(var / rounds)
        assert z <= Z_MAX, (t, density, mean, z)


def test_absorption_frequencies_match_gamblers_ruin():
    n, p, k0 = 6, Fraction(3, 5), 2
    rounds, horizon = 20000, 600
    # The horizon leaves under 1e-9 of the mass unabsorbed, so the ruin
    # probabilities are the absorption frequencies to be expected.
    dist = _count_chain(n, float(p), k0, horizon)
    assert dist[-1, 1:n].sum() < 1e-9
    r = float((1 - p) / p) ** 2
    ones = (1 - r**k0) / (1 - r**n)
    assert abs(dist[-1, n] - ones) < 1e-9
    result = simulate.run(
        simulate.SimConfig(_spec(n, p), horizon, rounds, seed=23, start=(1 << k0) - 1)
    )
    full = (1 << n) - 1
    assert set(result.absorption_counts) <= {0, full}
    assert sum(result.absorption_counts.values()) == rounds
    freq = result.absorption_counts.get(full, 0) / rounds
    z = abs(freq - ones) / math.sqrt(ones * (1 - ones) / rounds)
    assert z <= Z_MAX, (freq, ones, z)
    assert result.consensus_fraction == 1.0


@pytest.mark.parametrize("p", [0.45, 0.49, 0.51])
def test_meanfield_model_error_against_exact_mean(p):
    # The simulator's i.i.d. start at density 1/2 makes the count of ones
    # Binomial(n, 1/2), so the exact chain gives E[delta_t] with no Monte
    # Carlo noise. The mean-field model drops correlations, and its largest
    # gap to that mean is about 4/n at p = 0.49 and 0.51 (0.8/n at 0.45).
    n, horizon = 200, 8000
    start = np.array([math.comb(n, k) for k in range(n + 1)]) / 2.0**n
    exact = _count_chain(n, p, start, horizon) @ np.arange(n + 1) / n
    params = meanfield.MeanFieldParams(n, p, 0.5)
    closed = meanfield.closed_form(params, np.arange(horizon + 1))
    recur = np.array(meanfield.recursion(params, horizon).density)
    assert np.abs(exact - closed).max() <= 5 / n
    assert np.abs(exact - recur).max() <= 5 / n
