"""References that only the tests use: each is simple enough to check by eye.

- `noisy_sum` draws what the analyzer sees of one batch from its sufficient
  statistic; the reward tape and the engine are tested against it.
- `brute_force_shuffle_divergence` audits the raw shuffled multiset of one
  user by enumeration, so the exact audit of the popcount is tested against
  the mechanism's actual output.
- `exact_divergences` sums the audit's divergences in 40-digit arithmetic,
  so its double-precision reports are tested against the exact values.
- `shifted_hockey_stick` sums both divergences of a pmf array term by term,
  as the definition reads.
- `hinge_ranges` lays out the ranges and tail bounds `hockey_stick` reads,
  so that the tests can check each against the full support.
- `batch_schedule`, `replay_pulls` and `exact_regret` replay an elimination
  record user by user and sum its regret in `Fraction`s, so the engine's
  pulls and regret are tested against what its record implies.
- `elimination_law` is the exact law of a two-arm noiseless episode, so the
  engine's random decisions are tested against the algorithm, not against a
  second implementation of the same loop.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from fractions import Fraction

import mpmath
import numpy as np

from shufflebandit import audit
from shufflebandit.bandit import confidence_radius
from shufflebandit.mechanism import (NoiseLaw, PrivacyParams, SumEstimate,
                                     noise_law)

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


def exact_divergences(m: int, params: PrivacyParams,
                      dps: int = 40) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Both divergences of B ~ Binomial(n, q) against B + 1, with q and
    e^eps the doubles the audit computes with, in `dps`-digit arithmetic.

    The forward term p(t) - e^eps p(t-1) is positive exactly for t below
    the crossing c_f = (n+1) q / (q + e^eps (1-q)), and the backward term
    p(t-1) - e^eps p(t) exactly for t above c_b = (n+1) q e^eps /
    (1 - q + q e^eps); both are computed here in `dps` digits.  Each sum
    starts at its crossing, where the pmf is computed from log-gamma, and
    walks away from it by the pmf's ratio.  Beyond the crossing the pmf
    falls by more than e^eps a step, so the terms not yet added are at most
    e^eps / (e^eps - 1) times the last pmf value read; the walk stops when
    that is below 10^(8 - dps) of the sum, or at the end of the support.
    """
    law = noise_law(m, params)
    with mpmath.workdps(dps):
        n, q = law.n, mpmath.mpf(law.q)
        e = mpmath.mpf(math.exp(params.epsilon))
        odds, rest = q / (1 - q), e / (e - 1)
        stop = mpmath.mpf(10) ** (8 - dps)

        def pmf(t):
            return mpmath.exp(mpmath.loggamma(n + 1) - mpmath.loggamma(t + 1)
                              - mpmath.loggamma(n - t + 1) + t * mpmath.log(q)
                              + (n - t) * mpmath.log1p(-q))

        t = int(mpmath.ceil((n + 1) * q / (q + e * (1 - q)))) - 1
        fwd, p = mpmath.mpf(0), pmf(t)
        while True:  # t = crossing..0
            prev = p * t / ((n - t + 1) * odds)  # p(t-1), 0 at t = 0
            fwd += p - e * prev
            if t == 0 or prev * rest <= stop * fwd:
                break
            t, p = t - 1, prev
        t = int(mpmath.floor((n + 1) * q * e / (1 - q + q * e))) + 1
        bwd, prev = mpmath.mpf(0), pmf(t - 1)
        while True:  # t = crossing..n+1
            p = prev * (n - t + 1) * odds / t  # p(t), 0 at t = n + 1
            bwd += prev - e * p
            if t == n + 1 or p * rest <= stop * bwd:
                break
            t, prev = t + 1, p
        return +fwd, +bwd


def shifted_hockey_stick(pmf: np.ndarray, epsilon: float) -> tuple[float, float]:
    """Hockey-stick divergences between pmf(t) and its unit shift pmf(t-1).

    Returns (forward, backward) where forward = sum_t max(0, p(t) - e^eps
    p(t-1)) and backward swaps the roles.  Callable with epsilon = 0 for
    total-variation sanity checks.
    """
    e_eps = math.exp(epsilon)
    p = np.concatenate([pmf, [0.0]])        # P(t), t = 0..n+1
    q = np.concatenate([[0.0], pmf])        # P(t-1)
    forward = float(np.maximum(p - e_eps * q, 0.0).sum())
    backward = float(np.maximum(q - e_eps * p, 0.0).sum())
    return forward, backward


def hinge_ranges(law: NoiseLaw, epsilon: float
                 ) -> tuple[tuple[int, int, float], tuple[int, int, float]]:
    """((lo_f, fwd_hi, tail_f), (bwd_lo, hi_b, tail_b)): `hockey_stick`
    reads the forward divergence from lo_f..fwd_hi and the backward one
    from bwd_lo..hi_b, and adds tail_f, its bound on the mass below lo_f,
    and tail_b, its bound on the mass above hi_b.
    """
    e_eps = math.exp(epsilon)
    (fwd_hi, lo_f), (bwd_lo, hi_b) = ends = audit._hinge_ends(law, epsilon)
    tail_f, tail_b = (audit._hinge_sum(law, guard, cut, e_eps)[1]
                      for guard, cut in ends)
    return (lo_f, fwd_hi, tail_f), (bwd_lo, hi_b, tail_b)


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


def batch_schedule(k: int, m: int | None, eliminations,
                   horizon: int) -> list[tuple[int, int, int]]:
    """(phase, arm, users) of every batch up to the horizon, in order.

    Phase p gives each arm not eliminated before p a batch of m users
    (2**p when m is None), in ascending arm order; the batch that reaches
    the horizon holds only the users up to it.
    """
    batches, users, phase = [], 0, 0
    while users < horizon:
        phase += 1
        for a in range(k):
            if users < horizon and not any(
                    b == a and p < phase for b, p in eliminations):
                take = min(m or 2**phase, horizon - users)
                batches.append((phase, a, take))
                users += take
    return batches


def replay_pulls(k: int, batches, users) -> list[list[int]]:
    """Each arm's pulls after each of `users`, counted user by user."""
    due, pulls, rows, user = set(users), [0] * k, {}, 0
    for _, a, take in batches:
        for _ in range(take):
            pulls[a] += 1
            user += 1
            if user in due:
                rows[user] = pulls[:]
    return [rows[u] for u in users]


def exact_regret(means, pulls) -> list[float]:
    """float(sum_a Fraction(gap_a) N_a) for each row N of `pulls`."""
    best = max(map(Fraction, means))
    gaps = [best - Fraction(mu) for mu in means]
    return [float(sum(g * n for g, n in zip(gaps, row))) for row in pulls]
