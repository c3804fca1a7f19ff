"""Batched arm elimination over the private summation mechanism.

Three variants share one engine: constant batches with private sums
(SDP-AE style), doubling batches with private sums (VB style), and a
non-private baseline that uses exact batch sums and a zero mechanism term
in the confidence radius.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .env import BanditInstance, SeedSpec, make_tapes
from .mechanism import PrivacyParams, noisy_sum
# perfbench/tracer.py looks up bandit.private_sum; the engine draws through
# noisy_sum, and private_sum stays the specification it is tested against.
from .mechanism import private_sum  # noqa: F401


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
    """Cumulative regret of one episode, kept as one segment per batch.

    Segment i covers users starts[i] + 1 up to the next segment's start (or
    `users` for the last), all pulls of one arm with gap gaps[i].  Cumulative
    regret at user u inside it is bases[i] + gaps[i] * (u - starts[i]), the
    same floating-point arithmetic as filling a per-user array batch by
    batch, so every value is exact.  Consecutive zero-gap batches share one
    flat segment, which is exact too, so the trace stops growing once only
    optimal arms remain.  Memory is O(batches), not O(T).
    """
    starts: array = field(default_factory=lambda: array("q"))
    bases: array = field(default_factory=lambda: array("d"))
    gaps: array = field(default_factory=lambda: array("d"))
    users: int = 0       # pulls charged so far
    regret: float = 0.0  # cumulative regret after them
    eliminations: list[tuple[int, int]] = field(default_factory=list)
    clean_event_violated: bool = False
    arm_pulls_total: list[int] = field(default_factory=list)  # incl. interrupted batch

    def charge(self, pulls: int, gap: float) -> None:
        """Charge one batch of `pulls` pulls of an arm with this gap."""
        if gap != 0.0 or not self.gaps or self.gaps[-1] != 0.0:
            self.starts.append(self.users)
            self.bases.append(self.regret)
            self.gaps.append(gap)
        self.users += pulls
        self.regret += gap * pulls

    def at(self, users) -> np.ndarray:
        """Cumulative regret after each of the given (1-based) users."""
        u = np.asarray(users, dtype=np.int64)
        if u.size and (u.min() < 1 or u.max() > self.users):
            raise ValueError(f"users must lie in [1, {self.users}]")
        starts = np.frombuffer(self.starts, dtype=np.int64)
        i = np.searchsorted(starts, u) - 1
        return (np.frombuffer(self.bases)[i]
                + np.frombuffer(self.gaps)[i] * (u - starts[i]))

    @property
    def cumulative_regret(self) -> np.ndarray:
        """Read-only per-user cumulative regret, expanded on demand.

        This costs 8 bytes per pull; `at` reads checkpoints without it.
        """
        out = np.empty(self.users)
        ends = self.starts[1:] + array("q", [self.users])
        for start, end, base, gap in zip(self.starts, ends, self.bases,
                                         self.gaps):
            out[start:end] = base + gap * np.arange(1, end - start + 1)
        out.flags.writeable = False
        return out


def confidence_radius(t: int, pulls: int, horizon: float, sigma: float) -> float:
    """(2 sqrt(t) sigma / N + 1 / sqrt(N)) * sqrt(2 ln T)."""
    return ((2.0 * math.sqrt(t) * sigma / pulls + 1.0 / math.sqrt(pulls))
            * math.sqrt(2.0 * math.log(horizon)))


def eliminate(active: list[bool], estimates: list[float],
              radii: list[float]) -> list[int]:
    """Deactivate active arms whose UCB is strictly below the best LCB.

    `estimates` and `radii` are indexed by arm; entries of inactive arms are
    not read.  Returns the deactivated arms in ascending order.
    """
    arms = [a for a, on in enumerate(active) if on]
    if not arms:
        return []
    best_lcb = max(estimates[a] - radii[a] for a in arms)
    out = [a for a in arms if estimates[a] + radii[a] < best_lcb]
    for a in out:
        active[a] = False
    return out


def run_phase(sums, pulls, active, tapes, noise, phase, config, instance,
              trace):
    """Pull one batch per active arm, in ascending arm order.

    `sums` and `pulls` hold each arm's (noisy) reward sum and the pulls fed
    to the mechanism; `noise` holds one generator per arm for the mechanism.
    Returns the number of users consumed so far.  If the horizon is reached
    the interrupted batch's pulls count toward regret but the mechanism is
    not invoked and the arm's sums and pulls are left untouched.
    """
    m = config.m if config.m is not None else 2**phase
    gaps = instance.gaps
    horizon = instance.horizon
    for a in range(instance.k):
        if not active[a]:
            continue
        remaining = horizon - trace.users
        if remaining == 0:
            break
        take = min(m, remaining)
        true_sum = tapes[a].draw(take)
        trace.charge(take, gaps[a])
        if trace.users == horizon:
            # the T-th pull exits before the communication step
            break
        if config.privacy is None:
            z = float(true_sum)
        else:
            z = noisy_sum(true_sum, m, config.privacy, noise[a]).value
        sums[a] += z
        pulls[a] += m
    return trace.users


def run_episode(instance: BanditInstance, config: EngineConfig,
                seeds: SeedSpec) -> RegretTrace:
    """One seeded run to the horizon; deterministic given (instance, config, seeds)."""
    k = instance.k
    horizon = instance.horizon
    sums = [0.0] * k
    pulls = [0] * k
    active = [True] * k
    tapes = make_tapes(instance, seeds)
    noise = ([seeds.noise_rng(a) for a in range(k)]
             if config.privacy is not None else None)
    trace = RegretTrace()
    sigma = config.sigma
    consumed = 0
    phase = 0
    while consumed < horizon:
        phase += 1
        consumed = run_phase(sums, pulls, active, tapes, noise, phase, config,
                             instance, trace)
        if consumed >= horizon:
            break
        # every active arm was pulled in this completed phase
        estimates = [0.0] * k
        radii = [0.0] * k
        for a in range(k):
            if active[a]:
                estimates[a] = sums[a] / pulls[a]
                radii[a] = confidence_radius(phase, pulls[a], horizon, sigma)
                if abs(estimates[a] - instance.means[a]) > radii[a]:
                    trace.clean_event_violated = True
        for a in eliminate(active, estimates, radii):
            trace.eliminations.append((a, phase))
    trace.arm_pulls_total = [tape.cursor for tape in tapes]
    return trace
