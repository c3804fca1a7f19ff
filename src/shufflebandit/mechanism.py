"""Private binary summation in the shuffle model.

Each user sends their data bit plus noise bits; a shuffler uniformly permutes
the flattened bit multiset; the analyzer popcounts and subtracts the expected
noise.  Up to tau users each user sends several fair coins, above tau a
single biased coin; `noise_law` is the one definition of both, and the
encoder, the analyzer, the engine and the auditor all read it.
`encode -> shuffle -> analyze` is the executable specification, which no
command runs, and `private_sum` is that composition for one batch: only
`encode` draws noise bits and only `shuffle` permutes them.  The engine
draws only the popcount that the analyzer reads: each arm's `RewardTape`
draws the reward sums and noise counts of one or more batches of one size
per call.  The tests hold both to the same law, and the one-batch sampler
the tape is tested against, `noisy_sum`, lives in `tests/reference.py`.
The additive error is B - E[B] with B binomial, so it is unbiased,
independent of the input, and sub-Gaussian with variance 1.5 * tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PrivacyParams:
    epsilon: float
    delta: float
    tau: float
    sigma2: float

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in (0, 1], got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got "
                             f"{self.tau}")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)


def derive_params(epsilon: float, delta: float) -> PrivacyParams:
    """Noise budget tau = 96 ln(2/delta) / eps^2, sub-Gaussian var 1.5 tau.

    epsilon = 1 is allowed for the closed endpoint used in experiments; the
    privacy guarantee is only claimed for epsilon strictly below 1.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    eps2 = epsilon**2  # 0.0 below about 1.5e-162
    ratio = 2.0 / delta  # inf below about 1.1e-308
    log_ratio = (math.log(ratio) if ratio < math.inf
                 else math.log(2.0) - math.log(delta))
    tau = 96.0 * log_ratio / eps2 if eps2 else math.inf
    if tau == math.inf:
        raise ValueError(f"epsilon {epsilon} is too small: the noise budget "
                         f"tau = 96 ln(2/delta) / eps^2 is not finite")
    return PrivacyParams(epsilon=epsilon, delta=delta, tau=tau, sigma2=1.5 * tau)


@dataclass(frozen=True)
class NoiseLaw:
    """Noise count of one batch, B ~ Binomial(n, q); offset is E[B].

    Each of the batch's m users sends n // m of the n noise bits.
    """
    n: int
    q: float
    offset: float


def noise_law(m: int, params: PrivacyParams) -> NoiseLaw:
    """The noise law of a batch of m users.

    For m <= tau each user sends ceil(tau/m) fair coins; above tau each user
    sends one Bernoulli(tau/(2m)) coin.  Above tau the offset is computed as
    tau/2, which can differ from n*q in the last bit.
    """
    if m < 1:
        raise ValueError(f"batch size must be >= 1, got {m}")
    if m <= params.tau:
        n = math.ceil(params.tau / m) * m
        return NoiseLaw(n=n, q=0.5, offset=n / 2.0)
    return NoiseLaw(n=m, q=params.tau / (2.0 * m), offset=params.tau / 2.0)


@dataclass(frozen=True)
class SumEstimate:
    popcount: int
    offset: float

    @property
    def value(self) -> float:
        return float(self.popcount) - self.offset

    def error(self, true_sum: int) -> float:
        """Realized additive error B - E[B], exact given the popcount.

        Subtracting the integer true sum before the float offset keeps the
        result bit-identical across inputs that share a noise stream.
        """
        return float(self.popcount - true_sum) - self.offset


def encode(bits, params: PrivacyParams,
           rng: np.random.Generator) -> np.ndarray:
    """Local randomizer of every user of one batch of m = len(bits) users.

    Row i of the (m, 1 + p) result is user i's message (x_i, y_1..y_p).  The
    noise bits are drawn as m one-user calls would draw them, in user order.
    """
    data = np.asarray(bits)
    if data.ndim != 1 or not (data == data.astype(bool)).all():
        raise ValueError("data must be a 1-D sequence of bits, each 0 or 1")
    m = data.size
    law = noise_law(m, params)
    messages = np.empty((m, 1 + law.n // m), dtype=np.int8)
    messages[:, 0] = data
    messages[:, 1:] = rng.random((m, law.n // m)) < law.q
    return messages


def shuffle(messages: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Flatten all messages and permute uniformly, destroying sender order."""
    return rng.permutation(messages.ravel())


def analyze(bits: np.ndarray, m: int, params: PrivacyParams) -> SumEstimate:
    """Popcount minus the expected noise; output deliberately not clamped."""
    law = noise_law(m, params)
    expected = m + law.n
    if bits.size != expected:
        raise ValueError(
            f"batch has {bits.size} bits, expected {expected} for m={m}")
    return SumEstimate(popcount=int(bits.sum()), offset=law.offset)


def private_sum(bits, params: PrivacyParams,
                rng: np.random.Generator) -> SumEstimate:
    """encode -> shuffle -> analyze for one batch of m = len(bits) users."""
    return analyze(shuffle(encode(bits, params, rng), rng), len(bits), params)
