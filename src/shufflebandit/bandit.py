"""Batched arm elimination over the private summation mechanism.

Three variants share one engine: constant batches with private sums
(SDP-AE style), doubling batches with private sums (VB style), and a
non-private baseline that uses exact batch sums and a zero mechanism term
in the confidence radius.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .env import BanditInstance, RewardTape, SeedSpec
from .mechanism import PrivacyParams, noise_law
# perfbench/tracer.py looks up bandit.private_sum; the engine's tapes draw
# noise counts of `noise_law`, and private_sum stays the specification they
# are tested against.
from .mechanism import private_sum  # noqa: F401

RUN_CAP = 1024  # phases of one block, at most


@dataclass(frozen=True)
class EngineConfig:
    """A variant's batch size and privacy; the horizon is the instance's.

    Every batch holds `m` users, or 2**phase users when `m` is None.
    """
    m: int | None = None
    privacy: PrivacyParams | None = None

    def __post_init__(self):
        if self.m is not None and self.m < 1:
            raise ValueError(f"batch size m must be >= 1, got {self.m}")

    @property
    def sigma(self) -> float:
        return self.privacy.sigma if self.privacy is not None else 0.0


class Episode(NamedTuple):
    """One episode's elimination record and what follows from it.

    `eliminations` holds (arm, phase) in phase order, arms ascending within
    a phase.  It fixes each arm's pulls after each user (`pulls_at`), and
    so `arm_pulls_total` and `cumulative_regret` (`regret_at`).
    """
    eliminations: list[tuple[int, int]]
    clean_event_violated: bool
    arm_pulls_total: list[int]
    # the harness reads this, and perfbench/tracer.py looks it up
    cumulative_regret: np.ndarray


def pulls_at(k: int, m: int | None, eliminations, users) -> list[list[int]]:
    """Each arm's pulls after each of `users`, user counts in ascending order.

    Phase p runs a batch of m users (2**p when m is None) per active arm in
    ascending arm order; the arm of a tuple (arm, p) of `eliminations` runs
    up to phase p.  The walk takes the phases between two eliminations at
    once when m is constant, and one phase at a time when it doubles.
    """
    active, pulls, out = list(range(k)), [0] * k, []
    # walked: `done` users, `phase` phases; the span ends at `end`, `stop`
    done = phase = active_pulls = end = size = stop = 0
    for user in users:
        while user >= stop:  # walk past the span
            active_pulls += (end - phase) * size
            done, phase = stop, end
            for a, p in eliminations:
                if p == phase:
                    pulls[a] = active_pulls
                    active.remove(a)
            size = m or 2**(phase + 1)
            end = phase + 1 if m is None else min(
                (p for _, p in eliminations if p > phase), default=math.inf)
            stop = done + (end - phase) * len(active) * size
        full, part = divmod(user - done, len(active) * size)
        batches, part = divmod(part, size)
        out.append(pulls[:])
        for i, a in enumerate(active):
            out[-1][a] = (active_pulls + (full + (i < batches)) * size
                          + (i == batches) * part)
    return out


def regret_at(instance: BanditInstance, pulls) -> np.ndarray:
    """Sum_a gap_a N_a per row N of `pulls`, correctly rounded, read-only.

    A mean's as_integer_ratio() has a power-of-two denominator, so over the
    largest of them every gap is an integer, each sum is exact, and one int
    division, which Python rounds correctly, finishes it.
    """
    ratios = [mu.as_integer_ratio() for mu in instance.means]
    scale = max(d for _, d in ratios)
    units = [n * (scale // d) for n, d in ratios]
    gaps = [max(units) - u for u in units]
    out = np.array([sum(map(operator.mul, gaps, row)) / scale for row in pulls])
    out.flags.writeable = False
    return out


def confidence_radius(t: int, pulls: int, horizon: float, sigma: float) -> float:
    """(2 sqrt(t) sigma / N + 1 / sqrt(N)) * sqrt(2 ln T)."""
    return ((2.0 * math.sqrt(t) * sigma / pulls + 1.0 / math.sqrt(pulls))
            * math.sqrt(2.0 * math.log(horizon)))


def eliminate(active: list[bool], estimates: list[float],
              radius: float) -> list[int]:
    """Deactivate active arms whose UCB is strictly below the best LCB.

    Every active arm has the same pulls, hence the same `radius`, and at
    least one arm is active, as the best-LCB arm is never deactivated.
    `estimates` is indexed by arm; entries of inactive arms are not read.
    Returns the deactivated arms in ascending order.
    """
    arms = [a for a, on in enumerate(active) if on]
    best_lcb = max(estimates[a] for a in arms) - radius
    out = [a for a in arms if estimates[a] + radius < best_lcb]
    for a in out:
        active[a] = False
    return out


def run_phase(sums, pulls, active, tapes, m):
    """Pull one batch of m users per active arm, in ascending arm order.

    Each batch adds its users to `pulls[a]` and the estimate that arm a's
    tape draws for it to `sums[a]`.
    """
    for a, on in enumerate(active):
        if on:
            pulls[a] += m
            sums[a] += tapes[a].draw(m)


def run_block(sums, pulls, active, tapes, ahead, m, phases, phase, sigma,
              instance, eliminations):
    """Run `phases` complete phases after `phase` as one numpy block.

    Each active arm's tape draws the block's estimates by one sized call per
    generator, after the `ahead` estimates (one row per active arm, or None)
    that the last block drew and did not run.  The sums, radii, clean-event
    checks and elimination tests of every phase are computed at once, with
    the float operations of the phase loop, `confidence_radius` and
    `eliminate` in their order.  The block is committed up to its first
    eliminating phase, whose eliminations `eliminate` applies and appends
    to `eliminations`.  Returns the last phase run, the surviving arms'
    estimates for the phases not run or None, and the clean-event flag.
    """
    arms = [a for a in range(instance.k) if active[a]]
    # row i: arm arms[i]'s sum so far, then its estimates of the block
    block = np.empty((len(arms), phases + 1))
    block[:, 0] = [sums[a] for a in arms]
    drawn = 0
    if ahead is not None:
        drawn = ahead.shape[1]
        block[:, 1:drawn + 1] = ahead
    for row, a in enumerate(arms):
        block[row, drawn + 1:] = tapes[a].draw(m, phases - drawn)
    running = np.add.accumulate(block, axis=1)  # the sums, in phase order
    pulled = pulls[arms[0]] + m * np.arange(1, phases + 1)
    t = np.arange(phase + 1, phase + phases + 1)
    radius = ((2.0 * np.sqrt(t) * sigma / pulled + 1.0 / np.sqrt(pulled))
              * math.sqrt(2.0 * math.log(instance.horizon)))
    estimates = running[:, 1:] / pulled
    best_lcb = estimates.max(axis=0) - radius
    eliminating = np.flatnonzero(((estimates + radius) < best_lcb).any(axis=0))
    run = int(eliminating[0]) + 1 if eliminating.size else phases
    means = [[instance.means[a]] for a in arms]
    violated = bool((np.abs(estimates[:, :run] - means) > radius[:run]).any())
    for a, total in zip(arms, running[:, run].tolist()):
        sums[a] = total
        pulls[a] += run * m
    phase += run
    if eliminating.size:
        last = [0.0] * instance.k
        for a, estimate in zip(arms, estimates[:, run - 1].tolist()):
            last[a] = estimate
        eliminations += ((a, phase) for a in
                         eliminate(active, last, float(radius[run - 1])))
    if run == phases:
        return phase, None, violated
    return phase, block[[active[a] for a in arms], run + 1:], violated


def run_episode(instance: BanditInstance, config: EngineConfig,
                seeds: SeedSpec, checkpoints=()) -> Episode:
    """One seeded run to the horizon; deterministic given (instance, config, seeds).

    Records the regret after each of `checkpoints`, users in [1, horizon]
    in strictly ascending order, and nothing by default.

    Each loop iteration runs one phase: a batch of every active arm, the
    clean-event check and an elimination test.  With a constant batch size,
    an iteration instead runs every complete phase left with the active
    arms, at most RUN_CAP, as one block (`run_block`), up to and including
    its first elimination; the one-phase list path is faster for a single
    phase, and so runs every doubling phase.  Only the phases whose users
    stay below the horizon run; the one it cuts short reaches no test.
    The pulls, up to the T-th, and the regret follow from the elimination
    record.  Each arm's tape draws its estimates from the arm's own
    generators, so the streams are those of drawing batch by batch.
    """
    k = instance.k
    means = instance.means
    horizon = instance.horizon
    sums = [0.0] * k
    pulls = [0] * k
    active = [True] * k
    law = (cache(lambda m: noise_law(m, config.privacy))  # once per batch size
           if config.privacy is not None else None)
    tapes = [RewardTape(a, means[a], seeds, law) for a in range(k)]
    cps = list(checkpoints)
    if cps != sorted(set(cps)) or cps and not 0 < cps[0] <= cps[-1] <= horizon:
        raise ValueError(f"checkpoints must ascend strictly in [1, {horizon}]")
    eliminations, violated = [], False
    sigma = config.sigma
    ahead = None  # estimates a block drew for phases it did not run
    phase = 0
    while True:
        m = config.m or 2**(phase + 1)
        # complete phases left with these arms: users + phases * n * m < T
        phases = (horizon - sum(pulls) - 1) // (active.count(True) * m)
        if phases == 0:
            break
        if config.m is not None and (phases > 1 or ahead is not None):
            phase, ahead, hit = run_block(sums, pulls, active, tapes, ahead, m,
                                          min(phases, RUN_CAP), phase, sigma,
                                          instance, eliminations)
            violated = violated or hit
            continue
        phase += 1
        run_phase(sums, pulls, active, tapes, m)
        # every active arm has as many pulls, hence one radius
        pulled = pulls[active.index(True)]
        radius = confidence_radius(phase, pulled, horizon, sigma)
        estimates = [s / pulled for s in sums]
        for a in range(k):
            if active[a] and abs(estimates[a] - means[a]) > radius:
                violated = True
        eliminations += ((a, phase)
                         for a in eliminate(active, estimates, radius))
    *at, total = pulls_at(k, config.m, eliminations, [*cps, horizon])
    return Episode(eliminations, violated, total, regret_at(instance, at))
