"""Batched arm elimination over the private summation mechanism.

Three variants share one engine: constant batches with private sums
(SDP-AE style), doubling batches with private sums (VB style), and a
non-private baseline that uses exact batch sums and a zero mechanism term
in the confidence radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import BanditInstance, SeedSpec, make_tapes
from .mechanism import PrivacyParams, private_sum

CONSTANT = "constant"
DOUBLING = "doubling"


@dataclass(frozen=True)
class BatchSchedule:
    kind: str
    constant_m: int | None = None

    def __post_init__(self):
        if self.kind not in (CONSTANT, DOUBLING):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == CONSTANT:
            if self.constant_m is None or self.constant_m < 1:
                raise ValueError("constant schedule needs constant_m >= 1")

    @classmethod
    def constant(cls, m: int) -> "BatchSchedule":
        return cls(kind=CONSTANT, constant_m=m)

    @classmethod
    def doubling(cls) -> "BatchSchedule":
        return cls(kind=DOUBLING)

    @classmethod
    def default_constant(cls, params: PrivacyParams) -> "BatchSchedule":
        """Constant batches of ceil(sigma), the recommended fixed size."""
        return cls.constant(math.ceil(params.sigma))

    def batch_size(self, phase: int) -> int:
        if self.kind == CONSTANT:
            return self.constant_m
        return 2**phase


@dataclass(frozen=True)
class EngineConfig:
    schedule: BatchSchedule
    horizon: int
    privacy: PrivacyParams | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")

    @property
    def sigma(self) -> float:
        return self.privacy.sigma if self.privacy is not None else 0.0


@dataclass
class ArmState:
    noisy_sum: float = 0.0
    pulls: int = 0
    mean_estimate: float = 0.0
    radius: float = math.inf
    active: bool = True
    batches: int = 0

    @property
    def ucb(self) -> float:
        return self.mean_estimate + self.radius

    @property
    def lcb(self) -> float:
        return self.mean_estimate - self.radius


@dataclass
class RegretTrace:
    cumulative_regret: np.ndarray
    eliminations: list[tuple[int, int]] = field(default_factory=list)
    clean_event_violated: bool = False
    arm_pulls_total: list[int] = field(default_factory=list)  # incl. interrupted batch

    @property
    def final_regret(self) -> float:
        return float(self.cumulative_regret[-1])


def confidence_radius(t: int, pulls: int, horizon: float, sigma: float) -> float:
    """(2 sqrt(t) sigma / N + 1 / sqrt(N)) * sqrt(2 ln T)."""
    return ((2.0 * math.sqrt(t) * sigma / pulls + 1.0 / math.sqrt(pulls))
            * math.sqrt(2.0 * math.log(horizon)))


def update_confidence(state: ArmState, t: int, horizon: float,
                      sigma: float) -> ArmState:
    if state.pulls <= 0:
        raise ValueError("confidence radius needs at least one pull")
    state.radius = confidence_radius(t, state.pulls, horizon, sigma)
    return state


def eliminate(states: list[ArmState]) -> list[int]:
    """Deactivate active arms whose UCB is strictly below the best LCB."""
    active = [st for st in states if st.active]
    if not active:
        return []
    best_lcb = max(st.lcb for st in active)
    out = []
    for a, st in enumerate(states):
        if st.active and st.ucb < best_lcb:
            st.active = False
            out.append(a)
    return out


def run_phase(states, tapes, phase, config, instance, seeds, cum, consumed):
    """Pull one batch per active arm, in ascending arm order.

    Returns the new consumed-user count.  If the horizon is reached the
    interrupted batch's pulls count toward regret but the mechanism is not
    invoked and the arm's state is left untouched.
    """
    m = config.schedule.batch_size(phase)
    gaps = instance.gaps
    horizon = config.horizon
    for a in range(instance.k):
        st = states[a]
        if not st.active:
            continue
        remaining = horizon - consumed
        if remaining == 0:
            break
        take = min(m, remaining)
        bits = tapes[a].draw(take)
        base = cum[consumed - 1] if consumed > 0 else 0.0
        if gaps[a] == 0.0:
            cum[consumed:consumed + take] = base
        else:
            cum[consumed:consumed + take] = base + gaps[a] * np.arange(1, take + 1)
        consumed += take
        if consumed == horizon:
            # the T-th pull exits before the communication step
            break
        true_sum = float(bits.sum())
        if config.privacy is None:
            z = true_sum
        else:
            rng = seeds.noise_rng(a, st.batches)
            z = private_sum(bits, config.privacy, rng).value
        st.batches += 1
        st.noisy_sum += z
        st.pulls += m
        st.mean_estimate = st.noisy_sum / st.pulls
    return consumed


def run_episode(instance: BanditInstance, config: EngineConfig,
                seeds: SeedSpec) -> RegretTrace:
    """One seeded run to the horizon; deterministic given (instance, config, seeds)."""
    horizon = config.horizon
    states = [ArmState() for _ in range(instance.k)]
    tapes = make_tapes(instance, seeds)
    cum = np.empty(horizon, dtype=np.float64)
    trace = RegretTrace(cumulative_regret=cum)
    sigma = config.sigma
    consumed = 0
    phase = 0
    while consumed < horizon:
        phase += 1
        consumed = run_phase(states, tapes, phase, config, instance, seeds,
                             cum, consumed)
        if consumed >= horizon:
            break
        for st in states:
            if st.active:
                update_confidence(st, phase, horizon, sigma)
        for a, st in enumerate(states):
            if st.active and abs(st.mean_estimate - instance.means[a]) > st.radius:
                trace.clean_event_violated = True
        for a in eliminate(states):
            trace.eliminations.append((a, phase))
    trace.arm_pulls_total = [tape.cursor for tape in tapes]
    return trace
