"""References that only the tests use: each is simple enough to check by eye.

- `noisy_sum` draws what the analyzer sees of one batch from its sufficient
  statistic; the reward tape and the engine are tested against it.
- `brute_force_shuffle_divergence` audits the raw shuffled multiset of one
  user by enumeration, so the exact audit of the popcount is tested against
  the mechanism's actual output.
- `elimination_law` is the exact law of a two-arm noiseless episode, so the
  engine's random decisions are tested against the algorithm, not against a
  second implementation of the same loop.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict

import numpy as np

from shufflebandit.bandit import confidence_radius
from shufflebandit.mechanism import PrivacyParams, SumEstimate, noise_law

# the brute force enumerates at most 2**MAX_NOISE_BITS noise outcomes
MAX_NOISE_BITS = 20


def noisy_sum(true_sum: int, m: int, params: PrivacyParams,
              rng: np.random.Generator) -> SumEstimate:
    """What the analyzer sees of one batch, drawn from its sufficient statistic.

    The analyzer reads only the popcount, true_sum + B with B ~ Binomial(n, q)
    under `noise_law`, so this has the distribution of `private_sum` on any
    batch of m bits summing to true_sum, though not its random stream.
    """
    law = noise_law(m, params)
    return SumEstimate(popcount=true_sum + int(rng.binomial(law.n, law.q)),
                       offset=law.offset)


def brute_force_shuffle_divergence(params: PrivacyParams) -> tuple[float, float]:
    """Audit the raw shuffled multiset for m = 1 by exhaustive enumeration.

    Enumerates every noise-bit outcome, accumulates the probability of each
    output multiset (here: the ones-count of the 1 + p transmitted bits), and
    computes both hockey-stick divergences between the neighboring inputs
    x = 0 and x = 1 directly over multisets.
    """
    law = noise_law(1, params)
    p = law.n
    if p > MAX_NOISE_BITS:
        raise ValueError(f"{p} noise bits is too many to enumerate")
    dist = {0: {}, 1: {}}  # input bit -> {multiset key: probability}
    for noise in itertools.product((0, 1), repeat=p):
        ones = sum(noise)
        weight = law.q**ones * (1.0 - law.q)**(p - ones)
        for x in (0, 1):
            key = tuple(sorted((x,) + noise))
            dist[x][key] = dist[x].get(key, 0.0) + weight
    e_eps = math.exp(params.epsilon)
    keys = set(dist[0]) | set(dist[1])
    forward = sum(max(0.0, dist[0].get(k, 0.0) - e_eps * dist[1].get(k, 0.0))
                  for k in keys)
    backward = sum(max(0.0, dist[1].get(k, 0.0) - e_eps * dist[0].get(k, 0.0))
                   for k in keys)
    return forward, backward


def _pull(p: np.ndarray, mean: float, axis: int) -> np.ndarray:
    """The law of the sums after one Bernoulli(mean) pull of the arm whose
    sum runs along `axis`."""
    shape = list(p.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    head = [slice(None)] * p.ndim
    tail = [slice(None)] * p.ndim
    head[axis], tail[axis] = slice(None, -1), slice(1, None)
    out[tuple(head)] += (1.0 - mean) * p
    out[tuple(tail)] += mean * p
    return out


def _off(sums: int, pulls: int, mean: float, radius: float) -> np.ndarray:
    """Which sums 0..sums leave the radius around the mean after `pulls`."""
    return np.array([abs(s / pulls - mean) > radius for s in range(sums + 1)])


def elimination_law(means: tuple[float, float], horizon: int) -> dict:
    """The exact law of a noiseless two-arm episode with batches of one user.

    That is `ae-baseline` with m = 1: in phase j each active arm is pulled
    once, and the phase is tested when its users stay below the horizon.
    Returns {(phase, arm, violated): probability}, with the phase and arm
    of the first elimination, or None and None for an episode that
    eliminates nothing, and the episode's final clean-event flag.

    A dynamic program over (S_0, S_1, flag) runs the full two-arm phases.
    It uses the engine's `confidence_radius`, its clean-event test
    |S/j - mean| > r, and its elimination test est + r < max_est - r, on the
    same floats.  After an elimination at phase j the survivor runs alone,
    one user per phase, up to user horizon - 1.  A one-dimensional program
    over its sum carries the flag to the end of the episode.
    """
    law = defaultdict(float)
    p = np.zeros((2, 1, 1))  # p[flag, s0, s1]: both arms still active
    p[0, 0, 0] = 1.0
    for phase in range(1, (horizon - 1) // 2 + 1):
        p = _pull(_pull(p, means[0], 1), means[1], 2)
        r = confidence_radius(phase, phase, horizon, 0.0)
        off = (_off(phase, phase, means[0], r)[:, None]
               | _off(phase, phase, means[1], r)[None, :])
        p[1][off] += p[0][off]
        p[0][off] = 0.0
        est = np.arange(phase + 1) / phase
        gone = [(est[:, None] + r) < (est[None, :] - r),   # arm 0
                (est[None, :] + r) < (est[:, None] - r)]   # arm 1
        for arm, mask in enumerate(gone):
            if not mask.any():
                continue
            # the survivor's sum: the mass summed over the eliminated arm's
            clean = np.where(mask, p[0], 0.0).sum(axis=arm)
            law[(phase, arm, True)] += float(np.where(mask, p[1], 0.0).sum())
            p[:, mask] = 0.0
            survivor, violated = 1 - arm, 0.0
            for i, pulls in enumerate(range(phase + 1, horizon - phase), 1):
                clean = _pull(clean, means[survivor], 0)
                r = confidence_radius(phase + i, pulls, horizon, 0.0)
                off = _off(pulls, pulls, means[survivor], r)
                violated += float(clean[off].sum())
                clean[off] = 0.0
            law[(phase, arm, True)] += violated
            law[(phase, arm, False)] += float(clean.sum())
    law[(None, None, False)] += float(p[0].sum())
    law[(None, None, True)] += float(p[1].sum())
    return dict(law)
