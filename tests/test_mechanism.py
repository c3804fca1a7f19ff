import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chisquare

from shufflebandit.env import RewardTape, SeedSpec
from shufflebandit.mechanism import (NoiseLaw, PrivacyParams, analyze,
                                     derive_params, encode, noise_law,
                                     private_sum, shuffle)

from reference import noisy_sum

TAU_05_001 = 2034.5538687544460841      # 96 ln(200) / 0.25
SIGMA2_05_001 = 3051.8308031316691262   # 1.5 * tau


class _ZeroNoise:
    """RNG stub whose uniform draws never fall below any Bernoulli threshold."""

    def random(self, size=None):
        return np.ones(size) if size is not None else 1.0

    def permutation(self, x):
        return np.asarray(x)


class TestDeriveParams:
    def test_log_evaluates_to_one(self):
        params = derive_params(0.999999, 2 / math.e)
        assert params.tau == pytest.approx(96.0, rel=1e-5)

    def test_tau_oracle(self):
        params = derive_params(0.5, 0.01)
        assert params.tau == pytest.approx(TAU_05_001, rel=1e-12)

    def test_sigma2_oracle(self):
        params = derive_params(0.5, 0.01)
        assert params.sigma2 == pytest.approx(SIGMA2_05_001, rel=1e-12)
        assert params.sigma2 == pytest.approx(1.5 * params.tau, rel=1e-15)

    @pytest.mark.parametrize("eps,delta", [
        (0.0, 0.1), (1.1, 0.1), (-0.5, 0.1), (0.5, 0.0), (0.5, 1.0),
    ])
    def test_rejects_out_of_range(self, eps, delta):
        with pytest.raises(ValueError):
            derive_params(eps, delta)

    def test_epsilon_one_endpoint_allowed(self):
        derive_params(1.0, 1e-5)

    @pytest.mark.parametrize("eps,delta,tau,match", [
        (0.0, 0.1, 96.0, "epsilon"), (1.1, 0.1, 96.0, "epsilon"),
        (0.5, 0.0, 96.0, "delta"), (0.5, 1.0, 96.0, "delta"),
        (0.5, 0.1, 0.0, "tau"),
    ])
    def test_params_built_in_code_reject_out_of_range(self, eps, delta, tau,
                                                      match):
        with pytest.raises(ValueError, match=f"^{match} must be"):
            PrivacyParams(eps, delta, tau=tau, sigma2=1.5 * tau)


class TestNoiseLaw:
    def test_small_regime(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        assert noise_law(4, params) == NoiseLaw(n=96, q=0.5, offset=48.0)

    def test_large_regime(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        law = noise_law(200, params)
        assert law.n == 200
        assert law.q == pytest.approx(0.24)
        assert law.offset == 48.0

    def test_large_regime_offset_is_half_tau(self):
        # n * q rounds to another double here; the offset stays tau / 2
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        law = noise_law(147, params)
        assert law.n * law.q != 48.0
        assert law.offset == 48.0

    def test_boundary_belongs_to_fair_coins(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        assert noise_law(96, params) == NoiseLaw(n=96, q=0.5, offset=48.0)
        assert noise_law(97, params).n == 97

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_empty_batch(self, m):
        with pytest.raises(ValueError, match="batch size"):
            noise_law(m, derive_params(0.5, 0.01))


class _Scripted:
    """Generator stub for one `encode` call that enumerates its outcomes.

    `random(shape)` returns the stub itself; encode's comparison `draws < t`
    records the threshold t and yields the scripted noise pattern of the
    whole batch, which a real uniform draw produces with probability
    t**ones * (1-t)**zeros.
    """

    def __init__(self, pattern=()):
        self.pattern = np.array(pattern, dtype=bool)
        self.shape = None
        self.threshold = None

    def random(self, shape):
        self.shape = shape
        return self

    def __lt__(self, threshold):
        self.threshold = float(threshold)
        if self.pattern.size == 0:
            return np.zeros(self.shape, dtype=bool)
        return self.pattern.reshape(self.shape)

    def probability(self):
        ones = int(self.pattern.sum())
        zeros = self.pattern.size - ones
        return self.threshold**ones * (1 - self.threshold)**zeros


def _encode_outcomes(m, params):
    """{noise-bit count of a batch of m users: probability}, by enumeration."""
    zeros = np.zeros(m, dtype=np.int8)
    probe = _Scripted()
    encode(zeros, params, probe)
    out = {}
    for pattern in itertools.product((0, 1), repeat=math.prod(probe.shape)):
        rng = _Scripted(pattern)
        ones = int(encode(zeros, params, rng)[:, 1:].sum())
        out[ones] = out.get(ones, 0.0) + rng.probability()
    return out


def _pooled_chisquare(counts, pmf, min_expected=5.0):
    """Chi-square p-value with adjacent bins pooled to >= min_expected."""
    expected = pmf * counts.sum()
    obs, exp, o, e = [], [], 0, 0.0
    for c, x in zip(counts, expected):
        o += c
        e += x
        if e >= min_expected:
            obs.append(o)
            exp.append(e)
            o, e = 0, 0.0
    obs[-1] += o
    exp[-1] += e
    exp = np.array(exp)
    return chisquare(obs, exp * counts.sum() / exp.sum()).pvalue


class TestSingleLaw:
    """The explicit encoder's noise count is exactly Binomial(n, q)."""

    @pytest.mark.parametrize("m,tau", [
        (1, 5.0), (2, 3.0), (3, 4.0), (2, 7.0),   # fair coins
        (4, 3.0), (5, 2.5), (7, 1.2), (1, 0.6),   # one Bernoulli coin
    ])
    def test_encode_enumeration_matches_pmf(self, m, tau):
        params = PrivacyParams(0.5, 0.01, tau=tau, sigma2=1.5 * tau)
        law = noise_law(m, params)
        assert law.n <= 8  # at most 2**8 noise patterns per batch
        total = _encode_outcomes(m, params)
        assert max(total) == law.n
        pmf = binom.pmf(np.arange(law.n + 1), law.n, law.q)
        enumerated = np.array([total.get(b, 0.0) for b in range(law.n + 1)])
        assert np.max(np.abs(enumerated - pmf)) < 1e-12
        mean = float(np.arange(law.n + 1) @ enumerated)
        assert law.offset == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("m", [50, 2000])
    def test_private_sum_chi_square(self, m):
        params = derive_params(0.9, 0.1)  # tau ~ 355: m = 50 below, 2000 above
        law = noise_law(m, params)
        rng = np.random.default_rng(2024)
        zeros = np.zeros(m, dtype=np.int8)
        draws = [private_sum(zeros, params, rng).popcount for _ in range(4000)]
        counts = np.bincount(draws, minlength=law.n + 1)
        pmf = binom.pmf(np.arange(law.n + 1), law.n, law.q)
        assert _pooled_chisquare(counts, pmf) > 1e-3


def _engine_popcounts(m, mu, params, draws):
    """Popcounts of the engine's batches: tape estimates plus the offset."""
    tape = RewardTape(0, mu, SeedSpec(77),
                      functools.partial(noise_law, params=params))
    offset = noise_law(m, params).offset
    return [round(tape.draw(m) + offset) for _ in range(draws)]


def _specification_popcounts(m, mu, params, draws):
    """Popcounts of private_sum on fresh Bernoulli(mu) data bits."""
    rng = np.random.default_rng(78)
    return [private_sum((rng.random(m) < mu).astype(np.int8), params,
                        rng).popcount for _ in range(draws)]


class TestSufficientStatistic:
    """Both paths' popcounts follow Binomial(m, mu) convolved with the noise law."""

    @pytest.mark.parametrize("mu", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("m", [50, 2000])  # tau ~ 355: one m per regime
    @pytest.mark.parametrize("popcounts", [_engine_popcounts,
                                           _specification_popcounts])
    def test_popcount_chi_square(self, popcounts, m, mu):
        params = derive_params(0.9, 0.1)
        law = noise_law(m, params)
        pmf = np.convolve(binom.pmf(np.arange(m + 1), m, mu),
                          binom.pmf(np.arange(law.n + 1), law.n, law.q))
        counts = np.bincount(popcounts(m, mu, params, 4000),
                             minlength=pmf.size)
        assert counts.size == pmf.size
        assert _pooled_chisquare(counts, pmf) > 1e-3

    def test_offset_is_the_law_offset(self):
        params = derive_params(0.9, 0.1)
        for m in (50, 2000):
            est = noisy_sum(7, m, params, np.random.default_rng(0))
            assert est.offset == noise_law(m, params).offset

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError):
            noisy_sum(0, 0, derive_params(0.5, 0.01), np.random.default_rng(0))


class TestEncode:
    def test_small_regime_payload_length(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        msgs = encode([1, 0, 0, 0], params, np.random.default_rng(0))
        assert msgs.shape == (4, 1 + 24)
        assert msgs[:, 0].tolist() == [1, 0, 0, 0]

    def test_large_regime_payload_length(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        msgs = encode(np.zeros(200, dtype=np.int8), params,
                      np.random.default_rng(0))
        assert msgs.shape == (200, 2)

    def test_zero_noise_stub(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        msgs = encode([0] * 4, params, _ZeroNoise())
        assert msgs.tolist() == [[0] * 25] * 4

    def test_rows_are_users_in_draw_order(self):
        # row i is bits[i], then the coins user i draws when the users draw
        # one at a time, in order, from a generator with the same seed
        params = derive_params(0.7, 1e-3)
        for m in (3, 50, 5000):  # tau ~ 1489: fair coins, then one coin
            law = noise_law(m, params)
            bits = (np.arange(m) % 2).astype(np.int8)
            msgs = encode(bits, params, np.random.default_rng(99))
            rng = np.random.default_rng(99)
            one_at_a_time = [[b, *(rng.random(law.n // m) < law.q)]
                             for b in bits]
            assert np.array_equal(msgs, np.array(one_at_a_time, np.int8))


class TestShuffle:
    def test_popcount_preserved(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        msgs = encode([1, 0, 1], params, np.random.default_rng(7))
        bits = shuffle(msgs, np.random.default_rng(1))
        assert bits.size == 99  # 3 users, 1 + 32 bits each
        assert int(bits.sum()) == int(msgs.sum())

    def test_empty(self):
        empty = np.empty((0, 3), dtype=np.int8)
        assert shuffle(empty, np.random.default_rng(1)).size == 0

    def test_uniform_position_marginals(self):
        # after shuffling, every position carries the global ones-fraction
        params = PrivacyParams(0.5, 0.01, tau=4.0, sigma2=6.0)
        rng = np.random.default_rng(3)
        msgs = encode([1, 1, 0, 0], params, rng)
        n_bits = 4 * 2
        ones = int(msgs.sum())
        frac = ones / n_bits
        runs = 4000
        counts = np.zeros(n_bits)
        for i in range(runs):
            counts += shuffle(msgs, np.random.default_rng(100 + i))
        sd = math.sqrt(frac * (1 - frac) / runs)
        assert np.all(np.abs(counts / runs - frac) < 3 * sd + 1e-9)


class TestAnalyze:
    def _bits(self, n_bits, ones):
        bits = np.zeros(n_bits, dtype=np.int8)
        bits[:ones] = 1
        return bits

    def test_small_regime_arithmetic(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        bits = self._bits(100, ones=53)
        assert analyze(bits, 4, params).value == pytest.approx(5.0)

    def test_large_regime_noise_at_mean(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        bits = self._bits(400, ones=148)
        assert analyze(bits, 200, params).value == pytest.approx(100.0)

    def test_rejects_inconsistent_size(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        with pytest.raises(ValueError):
            analyze(self._bits(99, 10), 4, params)


class TestPrivateSum:
    def test_zero_input_zero_noise(self):
        params = PrivacyParams(0.5, 0.01, tau=96.0, sigma2=144.0)
        est = private_sum([0, 0, 0, 0], params, _ZeroNoise())
        # zero noise bits sit 48 below their expectation of 48/2 per bit
        assert est.value == -noise_law(4, params).offset

    def test_monte_carlo_unbiased(self):
        params = derive_params(0.5, 0.01)
        runs = 20000
        bits = np.ones(4, dtype=np.int8)
        total = 0.0
        rng = np.random.default_rng(11)
        for _ in range(runs):
            total += private_sum(bits, params, rng).value
        tol = 4 * params.sigma / math.sqrt(runs)
        assert abs(total / runs - 4.0) < tol

    def test_error_bit_identical_across_inputs(self):
        params = derive_params(0.9, 1e-4)
        for m in (5, 2000):
            e0 = private_sum(np.zeros(m, dtype=np.int8), params,
                             np.random.default_rng(4)).error(0)
            e1 = private_sum(np.ones(m, dtype=np.int8), params,
                             np.random.default_rng(4)).error(m)
            assert e0 == e1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            private_sum([], derive_params(0.5, 0.01), np.random.default_rng(0))

    @pytest.mark.parametrize("bits", [
        [2, 0, 0], [-1, 0, 0], np.array([0.5, 0, 0]), [[0, 1], [1, 0]],
    ], ids=["two", "minus_one", "half", "2d"])
    def test_rejects_non_binary(self, bits):
        with pytest.raises(ValueError, match="each 0 or 1"):
            private_sum(bits, derive_params(0.5, 0.01),
                        np.random.default_rng(0))

    def test_accepts_boolean_bits(self):
        params = derive_params(0.5, 0.01)
        flags = private_sum(np.array([True, False, True]), params,
                            np.random.default_rng(0))
        ints = private_sum([1, 0, 1], params, np.random.default_rng(0))
        assert flags == ints


class TestInvariants:
    @given(m=st.integers(1, 2000),
           eps=st.floats(0.05, 0.999),
           delta=st.floats(1e-8, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_message_count_contract(self, m, eps, delta):
        params = derive_params(eps, delta)
        if m <= params.tau:
            expected = m * (1 + math.ceil(params.tau / m))
        else:
            expected = 2 * m
        rng = np.random.default_rng(1)
        msgs = encode(np.zeros(m, dtype=np.int8), params, rng)
        assert msgs.size == expected
        assert shuffle(msgs, rng).size == expected

    def test_regime_boundary_unbiased(self):
        params = derive_params(0.999, 0.5)  # tau ~ 133
        boundary = math.ceil(params.tau)
        for m in (boundary, boundary + 1):
            runs = 4000
            rng = np.random.default_rng(17)
            bits = np.zeros(m, dtype=np.int8)
            mean = np.mean([private_sum(bits, params, rng).value
                            for _ in range(runs)])
            assert abs(mean) < 4 * params.sigma / math.sqrt(runs)

    def test_sub_gaussian_tails(self):
        params = derive_params(0.8, 1e-2)
        runs = 5000
        rng = np.random.default_rng(23)
        bits = np.zeros(10, dtype=np.int8)
        errs = np.array([private_sum(bits, params, rng).value
                         for _ in range(runs)])
        sigma = params.sigma
        for t in (1, 2, 3):
            frac = np.mean(np.abs(errs) >= t * sigma)
            assert frac <= 2 * math.exp(-t * t / 2) + 0.02
