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


def run_phase(sums, active, tapes, m):
    """Pull one batch of m users per active arm, in ascending arm order,
    and add the estimate that arm a's tape draws for it to `sums[a]`."""
    for a, on in enumerate(active):
        if on:
            sums[a] += tapes[a].draw(m)


def run_block(sums, active, tapes, m, phases, phase, sigma, instance,
              eliminations):
    """Run the `phases` complete phases after `phase`, of a batch of m users
    per active arm each, as one numpy block.

    Each active arm's tape draws the block's estimates by one sized call per
    generator, and the block commits them all.  The sums, radii, clean-event
    checks and elimination tests of every phase are computed at once, with
    the float operations of `confidence_radius` and `eliminate` in their
    order.  At each eliminating phase `eliminate` applies the eliminations,
    appended to `eliminations`, and the later phases are tested again with
    the arms left; an eliminated arm's later estimates and its sum are not
    read.  Returns the users pulled and the clean-event flag.
    """
    arms = [a for a in range(instance.k) if active[a]]
    # row i: arm arms[i]'s sum so far, then its estimates of the block
    block = np.empty((len(arms), phases + 1))
    block[:, 0] = [sums[a] for a in arms]
    for row, a in enumerate(arms):
        block[row, 1:] = tapes[a].draw(m, phases)
    running = np.add.accumulate(block, axis=1)  # the sums, in phase order
    for a, total in zip(arms, running[:, phases].tolist()):
        sums[a] = total
    t = np.arange(phase + 1, phase + phases + 1)
    pulled = m * t  # each active arm's pulls after each phase
    radius = ((2.0 * np.sqrt(t) * sigma / pulled + 1.0 / np.sqrt(pulled))
              * math.sqrt(2.0 * math.log(instance.horizon)))
    estimates = running[:, 1:] / pulled
    outside = np.abs(estimates - [[instance.means[a]] for a in arms]) > radius
    users, violated, done = 0, False, 0
    rows = slice(None)  # the rows of the arms left
    while done < phases:  # test the phases left with the arms left
        left = estimates[rows, done:]
        best_lcb = left.max(axis=0) - radius[done:]
        hits = np.flatnonzero(((left + radius[done:]) < best_lcb).any(axis=0))
        run = int(hits[0]) + 1 if hits.size else phases - done
        violated = violated or bool(outside[rows, done:done + run].any())
        users += run * len(left) * m
        done += run
        if hits.size:
            last = [0.0] * instance.k
            for a, estimate in zip(arms, estimates[:, done - 1].tolist()):
                last[a] = estimate
            eliminations += ((a, phase + done) for a in
                             eliminate(active, last, float(radius[done - 1])))
            rows = [row for row, a in enumerate(arms) if active[a]]
    return users, violated


def run_episode(instance: BanditInstance, config: EngineConfig,
                seeds: SeedSpec, checkpoints=()) -> Episode:
    """One seeded run to the horizon; deterministic given (instance, config, seeds).

    Records the regret after each of `checkpoints`, users in [1, horizon]
    in strictly ascending order, and nothing by default.

    A phase is a batch of every active arm, the clean-event check and an
    elimination test; every active arm has the pulls the phase fixes.  With
    a constant batch size each iteration runs every complete phase left with
    the active arms, at most RUN_CAP, as one block (`run_block`); doubling
    batches run one phase at a time (`run_phase`).  Only the phases whose
    users stay below the horizon run; the one it cuts short reaches no test.
    The pulls, up to the T-th, and the regret follow from the elimination
    record.  Each arm's tape draws its estimates from the arm's own
    generators, so the streams are those of drawing batch by batch.
    """
    k = instance.k
    means = instance.means
    horizon = instance.horizon
    sums = [0.0] * k
    active = [True] * k
    law = (cache(lambda m: noise_law(m, config.privacy))  # once per batch size
           if config.privacy is not None else None)
    tapes = [RewardTape(a, means[a], seeds, law) for a in range(k)]
    cps = list(checkpoints)
    if cps != sorted(set(cps)) or cps and not 0 < cps[0] <= cps[-1] <= horizon:
        raise ValueError(f"checkpoints must ascend strictly in [1, {horizon}]")
    eliminations, violated = [], False
    sigma = config.privacy.sigma if config.privacy is not None else 0.0
    phase = users = 0  # phases run, and the users they pulled
    if config.m is not None:
        m = config.m
        # complete phases left with these arms: users + phases * n * m < T
        while phases := (horizon - users - 1) // (active.count(True) * m):
            phases = min(phases, RUN_CAP)
            taken, hit = run_block(sums, active, tapes, m, phases, phase,
                                    sigma, instance, eliminations)
            phase += phases
            users += taken
            violated = violated or hit
    else:
        m, pulled = 2, 0  # the next phase's batch size; each arm's pulls
        while users + (batch := active.count(True) * m) < horizon:
            phase += 1
            users += batch
            pulled += m
            run_phase(sums, active, tapes, m)
            radius = confidence_radius(phase, pulled, horizon, sigma)
            estimates = [s / pulled for s in sums]
            for a in range(k):
                if active[a] and abs(estimates[a] - means[a]) > radius:
                    violated = True
            eliminations += ((a, phase)
                             for a in eliminate(active, estimates, radius))
            m *= 2
    *at, total = pulls_at(k, config.m, eliminations, [*cps, horizon])
    return Episode(eliminations, violated, total, regret_at(instance, at))
