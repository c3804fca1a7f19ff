"""Bandit instances and reproducible per-arm streams of batch estimates.

A batch is drawn as the one statistic the analyzer reads, its reward sum
plus its noise count, from the arm's own reward and noise generators.  This
keeps memory O(k) at any horizon and makes an arm's stream independent of
every other arm's stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import numpy.random  # numpy loads it lazily, on the first draw otherwise

# Stream labels keep reward randomness disjoint from mechanism randomness.
_REWARD_STREAM = 0
_NOISE_STREAM = 1


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic derivation of all generators used by a single run."""

    master_seed: int
    run_index: int = 0

    def _rng(self, *key: int) -> np.random.Generator:
        seq = np.random.SeedSequence(self.master_seed,
                                     spawn_key=(self.run_index, *key))
        return np.random.default_rng(seq)

    def reward_rng(self, arm: int) -> np.random.Generator:
        return self._rng(_REWARD_STREAM, arm)

    def noise_rng(self, arm: int) -> np.random.Generator:
        return self._rng(_NOISE_STREAM, arm)


@dataclass(frozen=True)
class BanditInstance:
    k: int
    means: tuple[float, ...]
    horizon: int

    @property
    def best_arm(self) -> int:
        # ties broken by lowest index (np.argmax does exactly that)
        return int(np.argmax(self.means))

    @property
    def best_mean(self) -> float:
        return self.means[self.best_arm]

    @cached_property
    def gaps(self) -> tuple[float, ...]:
        # read once per phase by the engine; computed once per instance
        mu_star = self.best_mean
        return tuple(mu_star - mu for mu in self.means)


def make_instance(k: int, means: list[float], horizon: int) -> BanditInstance:
    if k < 1:
        raise ValueError(f"need at least one arm, got k={k}")
    if len(means) != k:
        raise ValueError(f"got {len(means)} means for k={k} arms")
    for a, mu in enumerate(means):
        if not 0.0 <= mu <= 1.0:
            raise ValueError(f"means[{a}]={mu} outside [0, 1]")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    return BanditInstance(k=k, means=tuple(float(m) for m in means),
                          horizon=int(horizon))


class RewardTape:
    """One arm's stream of batch estimates, drawn ahead run by run.

    A batch is only ever aggregated: the analyzer of the shuffle mechanism
    reads its popcount S + B, the reward sum S ~ Binomial(m, mu) plus, when
    `law` is given, the noise count B of `law(m)`, the batch's noise law.
    The tape draws S from the arm's reward generator and B from its noise
    generator, and `draw` returns the analyzer's estimate S + B - E[B], or S
    without noise.
    """

    def __init__(self, arm: int, mean: float, seeds: SeedSpec, law=None):
        self.arm = arm
        self.mean = mean
        self.law = law
        self._rng = seeds.reward_rng(arm)
        self._noise = seeds.noise_rng(arm) if law is not None else None
        self._ahead = deque()  # (batch size, estimate) drawn but not yet read

    def draw_ahead(self, sizes: list[int]) -> None:
        """Draw the estimates of the next batches, of these sizes.

        Each generator makes one vector call, which returns the values of
        one scalar call per batch and leaves the generator in the same
        state, so the streams are those of drawing batch by batch.
        """
        sums = self._rng.binomial(sizes, self.mean).tolist()
        if self.law is None:
            estimates = [float(s) for s in sums]
        else:
            laws = [self.law(m) for m in sizes]
            counts = self._noise.binomial([x.n for x in laws],
                                          [x.q for x in laws]).tolist()
            estimates = [float(s + b) - x.offset
                         for s, b, x in zip(sums, counts, laws)]
        self._ahead.extend(zip(sizes, estimates))

    def draw(self, batch_size: int) -> float:
        """The estimate of the next batch drawn ahead, of batch_size users."""
        size, estimate = self._ahead.popleft()
        if size != batch_size:
            raise ValueError(f"tape for arm {self.arm} drew a batch of "
                             f"{size} ahead, requested {batch_size}")
        return estimate
