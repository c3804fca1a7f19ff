"""Batched arm elimination over the private summation mechanism.

Three variants share one engine: constant batches with private sums
(SDP-AE style), doubling batches with private sums (VB style), and a
non-private baseline that uses exact batch sums and a zero mechanism term
in the confidence radius.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cache

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


@dataclass
class RegretTrace:
    """Cumulative regret of one episode, recorded at its checkpoints.

    `checkpoints` are 1-based users in strictly ascending order.  The
    regret after each is recorded when the batch that holds it is charged:
    the regret at the batch's start plus the batch's gap times the pulls
    into it, the same floating-point arithmetic as filling a per-user array
    batch by batch, so every value is exact.  Memory is O(checkpoints), not
    O(T).
    """
    checkpoints: InitVar[tuple[int, ...]] = ()
    users: int = 0       # pulls charged so far
    regret: float = 0.0  # cumulative regret after them
    eliminations: list[tuple[int, int]] = field(default_factory=list)
    clean_event_violated: bool = False
    arm_pulls_total: list[int] = field(default_factory=list)  # incl. interrupted batch

    def __post_init__(self, checkpoints):
        self._due = [math.inf, *reversed(checkpoints)]  # the next one last
        self._at = []  # the regret after each checkpoint recorded

    def charge(self, pulls: int, gap: float) -> None:
        """Charge one batch of `pulls` pulls of an arm with this gap."""
        end = self.users + pulls
        while self._due[-1] <= end:
            self._at.append(self.regret + gap * (self._due.pop() - self.users))
        self.users = end
        self.regret += gap * pulls

    def charge_phases(self, pulls: int, gaps: list[float], count: int) -> None:
        """Charge `count` phases, each one batch of `pulls` pulls per gap in
        `gaps`, in order: the records and regret of as many `charge` calls,
        as the cumulative sum adds the same floats in the same order."""
        g = np.array(gaps * count)
        regret = np.add.accumulate(np.concatenate(([self.regret], g * pulls)))
        end = self.users + pulls * g.size
        if self._due[-1] <= end:
            bases, batch_gaps = regret.tolist(), g.tolist()
            while self._due[-1] <= end:
                b, before = divmod(self._due.pop() - self.users - 1, pulls)
                self._at.append(bases[b] + batch_gaps[b] * (before + 1))
        self.users = end
        self.regret = float(regret[-1])

    # the harness reads this, and perfbench/tracer.py looks it up
    @property
    def cumulative_regret(self) -> np.ndarray:
        """Read-only regret after each checkpoint recorded so far."""
        out = np.array(self._at)
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


def run_phase(sums, pulls, active, tapes, m, instance, trace):
    """Pull one batch of m users per active arm, in ascending arm order.

    Each batch adds its users to `pulls[a]` and the estimate that arm a's
    tape draws for it to `sums[a]`.  `tapes` is None for the phase the
    horizon cuts short: its batches are charged up to the T-th pull and
    draw nothing, since no elimination test reads that phase's sums.
    Returns the number of users consumed so far.
    """
    gaps = instance.gaps
    horizon = instance.horizon
    for a in range(instance.k):
        if not active[a]:
            continue
        take = min(m, horizon - trace.users)
        trace.charge(take, gaps[a])
        pulls[a] += take
        if trace.users == horizon:
            # the T-th pull exits before the communication step
            break
        if tapes is not None:
            sums[a] += tapes[a].draw(m)
    return trace.users


def run_block(sums, pulls, active, tapes, ahead, m, phases, phase, sigma,
              instance, trace):
    """Run `phases` complete phases after `phase` as one numpy block.

    Each active arm's tape draws the block's estimates by one sized call per
    generator, after the `ahead` estimates (one row per active arm, or None)
    that the last block drew and did not run.  The sums, radii, clean-event
    checks and elimination tests of every phase are computed at once, with
    the float operations of the phase loop, `confidence_radius` and
    `eliminate` in their order.  The block is committed up to its first
    eliminating phase, whose eliminations `eliminate` applies.  Returns the
    last phase run and the surviving arms' estimates for the phases not
    run, or None.
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
    if (np.abs(estimates[:, :run] - means) > radius[:run]).any():
        trace.clean_event_violated = True
    trace.charge_phases(m, [instance.gaps[a] for a in arms], run)
    for a, total in zip(arms, running[:, run].tolist()):
        sums[a] = total
        pulls[a] += run * m
    phase += run
    if eliminating.size:
        last = [0.0] * instance.k
        for a, estimate in zip(arms, estimates[:, run - 1].tolist()):
            last[a] = estimate
        for a in eliminate(active, last, float(radius[run - 1])):
            trace.eliminations.append((a, phase))
    if run == phases:
        return phase, None
    return phase, block[[active[a] for a in arms], run + 1:]


def run_episode(instance: BanditInstance, config: EngineConfig,
                seeds: SeedSpec, checkpoints=()) -> RegretTrace:
    """One seeded run to the horizon; deterministic given (instance, config, seeds).

    The trace records the regret after each of `checkpoints`, users in
    [1, horizon] in strictly ascending order, and nothing by default.

    Each loop iteration runs one phase: a batch of every active arm, the
    clean-event check and an elimination test.  With a constant batch size,
    an iteration instead runs every complete phase left with the active
    arms, at most RUN_CAP, as one block (`run_block`), up to and including
    its first elimination; the one-phase list path is faster for a single
    phase, and so runs every doubling phase.  A phase runs in full while
    its users stay below the horizon.  The phase the horizon cuts short is
    only charged and draws nothing: no elimination test reads its sums.
    Each arm's tape draws its estimates from the arm's own generators, so
    the streams are those of drawing batch by batch.
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
    trace = RegretTrace(cps)
    sigma = config.sigma
    ahead = None  # estimates a block drew for phases it did not run
    phase = 0
    while True:
        m = config.m or 2**(phase + 1)
        # complete phases left with these arms: users + phases * n * m < T
        phases = (horizon - trace.users - 1) // (active.count(True) * m)
        if phases == 0:
            break
        if config.m is not None and (phases > 1 or ahead is not None):
            phase, ahead = run_block(sums, pulls, active, tapes, ahead, m,
                                     min(phases, RUN_CAP), phase, sigma,
                                     instance, trace)
            continue
        phase += 1
        run_phase(sums, pulls, active, tapes, m, instance, trace)
        # every active arm has as many pulls, hence one radius
        pulled = pulls[active.index(True)]
        radius = confidence_radius(phase, pulled, horizon, sigma)
        estimates = [s / pulled for s in sums]
        for a in range(k):
            if active[a] and abs(estimates[a] - means[a]) > radius:
                trace.clean_event_violated = True
        for a in eliminate(active, estimates, radius):
            trace.eliminations.append((a, phase))
    # the phase the horizon cuts short
    run_phase(sums, pulls, active, None, m, instance, trace)
    trace.arm_pulls_total = pulls
    return trace
