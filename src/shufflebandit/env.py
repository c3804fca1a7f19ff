"""Bandit instances and reproducible Bernoulli reward streams.

Rewards are generated lazily, one batch at a time, as the batch's reward
sum drawn from one per-arm generator.  This keeps memory O(k) at any horizon
and makes an arm's stream independent of every other arm's stream.
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
    """Lazy per-arm stream of Bernoulli(mu) rewards, consumed batch by batch.

    A batch is only ever aggregated, so each draw returns the batch's reward
    sum, Binomial(batch_size, mu), from the arm's one generator.  The sums
    of known coming batches can be drawn ahead in one vector call.
    """

    def __init__(self, arm: int, mean: float, seeds: SeedSpec, horizon: int):
        self.arm = arm
        self.mean = mean
        self.horizon = horizon
        self.cursor = 0
        self._rng = seeds.reward_rng(arm)
        self._ahead = deque()  # (batch size, sum) drawn but not yet read

    def draw_ahead(self, sizes: list[int]) -> None:
        """Draw the sums of the next batches, of these sizes, in one call.

        `draw` returns them in order, then draws one scalar per batch again.
        The vector call returns the values of one scalar call per batch and
        leaves the generator in the same state, so the stream is unchanged.
        """
        self._ahead.extend(zip(sizes,
                               self._rng.binomial(sizes, self.mean).tolist()))

    def draw(self, batch_size: int) -> int:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if self.cursor + batch_size > self.horizon:
            raise ValueError(
                f"tape for arm {self.arm} exhausted: cursor={self.cursor}, "
                f"requested {batch_size}, horizon={self.horizon}")
        if self._ahead:
            size, total = self._ahead.popleft()
            if size != batch_size:
                raise ValueError(f"tape for arm {self.arm} drew a batch of "
                                 f"{size} ahead, requested {batch_size}")
        else:
            total = int(self._rng.binomial(batch_size, self.mean))
        self.cursor += batch_size
        return total


def make_tapes(instance: BanditInstance, seeds: SeedSpec) -> list[RewardTape]:
    return [RewardTape(a, instance.means[a], seeds, instance.horizon)
            for a in range(instance.k)]
