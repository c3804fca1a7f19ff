"""Bandit instances and reproducible per-arm streams of batch estimates.

A batch is drawn as the one statistic the analyzer reads, its reward sum
plus its noise count, from the arm's own reward and noise generators.  This
keeps memory O(k) at any horizon and makes an arm's stream independent of
every other arm's stream.  The engine asks for the next batch, or for the
next run of batches of one size, and the tape draws exactly those.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """One arm's stream of batch estimates.

    A batch is only ever aggregated: the analyzer of the shuffle mechanism
    reads its popcount S + B, the reward sum S ~ Binomial(m, mu) plus, when
    `law` is given, the noise count B of `law(m)`, the batch's noise law.
    The tape draws S from the arm's reward generator and B from its noise
    generator, and `draw` returns the analyzer's estimate S + B - E[B], or S
    without noise.

    `draw(m)` draws one batch by one scalar call per generator;
    `draw(m, count)` draws the next `count` batches of m by one sized call
    per generator.  A sized call returns the values of that many scalar
    calls and leaves the generator in the same state, so the stream is that
    of drawing batch by batch, however the batches are grouped into calls.
    """

    def __init__(self, arm: int, mean: float, seeds: SeedSpec, law=None):
        self.arm = arm
        self.mean = mean
        self.law = law
        self._rng = seeds.reward_rng(arm)
        self._noise = seeds.noise_rng(arm) if law is not None else None

    def draw(self, m: int, count: int | None = None):
        """The estimate of the arm's next batch of m users, or a float array
        of the estimates of its next `count` batches of m users."""
        estimates = self._rng.binomial(m, self.mean, count)
        if self.law is not None:
            law = self.law(m)
            estimates = (estimates + self._noise.binomial(law.n, law.q, count)
                         - law.offset)
        if count is None:
            return float(estimates)
        return estimates.astype(float, copy=False)
