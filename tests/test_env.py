import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflebandit.bandit import regret_at
from shufflebandit.env import RewardTape, SeedSpec, make_instance
from shufflebandit.mechanism import derive_params, noise_law

from reference import noisy_sum


def _one_pull_each(k):
    """Rows of pulls whose regrets are the arms' gaps."""
    return [[int(a == b) for b in range(k)] for a in range(k)]


class TestMakeInstance:
    def test_extreme_arms(self):
        inst = make_instance(2, [1.0, 0.0], 100)
        assert regret_at(inst, _one_pull_each(2)).tolist() == [0.0, 1.0]
        assert inst.best_arm == 0

    def test_single_arm(self):
        inst = make_instance(1, [0.5], 10)
        assert regret_at(inst, [[10]]).tolist() == [0.0]

    def test_gap_arithmetic(self):
        inst = make_instance(3, [0.9, 0.8, 0.5], 10**5)
        assert regret_at(inst, _one_pull_each(3)).tolist() == \
            pytest.approx([0.0, 0.1, 0.4])

    def test_tie_broken_by_lowest_index(self):
        inst = make_instance(3, [0.7, 0.7, 0.2], 10)
        assert inst.best_arm == 0

    @pytest.mark.parametrize("k,means,horizon", [
        (0, [], 10),
        (2, [0.5], 10),
        (1, [1.5], 10),
        (1, [-0.1], 10),
        (1, [0.5], 0),
    ])
    def test_rejects_bad_inputs(self, k, means, horizon):
        with pytest.raises(ValueError):
            make_instance(k, means, horizon)

    @given(means=st.lists(st.floats(0, 1), min_size=1, max_size=8),
           horizon=st.integers(1, 10**6))
    def test_gaps_always_in_unit_interval(self, means, horizon):
        inst = make_instance(len(means), means, horizon)
        gaps = regret_at(inst, _one_pull_each(len(means)))
        assert all(0.0 <= g <= 1.0 for g in gaps)
        assert gaps[inst.best_arm] == 0.0


def _draws(tape, sizes):
    """The estimates of the tape's next batches, of these sizes, in order."""
    return [tape.draw(n) for n in sizes]


class _Recorder:
    """A generator that records the `size` of each binomial call."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def binomial(self, n, p, size=None):
        self.sizes.append(size)
        return self.rng.binomial(n, p, size)


class TestRewardTape:
    def _tape(self, mean, arm=0, seed=123, law=None):
        return RewardTape(arm, mean, SeedSpec(seed), law)

    def test_deterministic_arm_all_ones(self):
        assert _draws(self._tape(1.0), [5]) == [5.0]

    def test_deterministic_arm_all_zeros(self):
        assert _draws(self._tape(0.0), [3]) == [0.0]

    def test_law_of_large_numbers(self):
        # Hoeffding at 6 sigma: for n = 1e5 fair coins, 0.01 > 6 * 0.5/sqrt(n)
        [total] = _draws(self._tape(0.5), [10**5])
        assert abs(total / 10**5 - 0.5) < 0.01

    def test_replay_determinism(self):
        sizes = [7, 13, 1]
        assert _draws(self._tape(0.3), sizes) == _draws(self._tape(0.3), sizes)

    def test_draws_exactly_the_batches_asked_for(self, monkeypatch):
        # draw(m) takes one scalar call per generator (size None), and
        # draw(m, count) one call of that size, whatever came before
        recorders = []
        for name in ("reward_rng", "noise_rng"):
            def derive(spec, arm, _derive=getattr(SeedSpec, name)):
                recorders.append(_Recorder(_derive(spec, arm)))
                return recorders[-1]
            monkeypatch.setattr(SeedSpec, name, derive)
        law = functools.partial(noise_law, params=derive_params(1.0, 0.5))
        tape = self._tape(0.5, law=law)
        for m, count in [(7, None), (7, 5), (9, 1024), (7, None), (7, 1)]:
            tape.draw(m, count)
        calls = [None, 5, 1024, None, 1]
        assert [r.sizes for r in recorders] == [calls, calls]

    def test_draw_ahead_equals_scalar_draws(self):
        # batches drawn ahead by one sized call read, in order, the sums
        # that scalar calls on the arm's reward generator return
        tape = self._tape(0.3)
        got = (tape.draw(5, 3).tolist() + [tape.draw(40)]
               + tape.draw(7, 1).tolist() + [tape.draw(1)])
        rng = SeedSpec(123).reward_rng(0)
        assert got == [float(rng.binomial(n, 0.3))
                       for n in (5, 5, 5, 40, 7, 1)]

    @pytest.mark.parametrize("m", [8, 300])  # below and above tau ~ 133
    def test_private_estimates_equal_noisy_sum(self, m):
        # each estimate is the batch's reward sum through noisy_sum, both
        # drawn by scalar calls on the arm's own generators
        params = derive_params(1.0, 0.5)
        tape = self._tape(0.3, law=functools.partial(noise_law, params=params))
        got = _draws(tape, [m] * 3) + _draws(tape, [2 * m, m])
        seeds = SeedSpec(123)
        rewards, noise = seeds.reward_rng(0), seeds.noise_rng(0)
        assert got == [
            noisy_sum(int(rewards.binomial(n, 0.3)), n, params, noise).value
            for n in (m, m, m, 2 * m, m)]

    @pytest.mark.parametrize("count", range(1, 9))
    def test_another_size_follows_any_count(self, count):
        # the tape keeps nothing drawn: after a sized call of any count a
        # batch of another size is drawn next, and the batches of 8 go on
        # as scalar calls would
        tape = self._tape(0.5)
        got = (tape.draw(8, count).tolist() + [tape.draw(4)]
               + tape.draw(8, 16 - count).tolist())
        rng = SeedSpec(123).reward_rng(0)
        sizes = [8] * count + [4] + [8] * (16 - count)
        assert got == [float(rng.binomial(n, 0.5)) for n in sizes]

    @pytest.mark.parametrize("noisy", [False, True])
    def test_sizes_with_repeats_equal_scalar_draws(self, noisy):
        # scalar and sized calls, repeats and changes of size and one call
        # of more than 1,024 batches read, in order, the estimates that
        # scalar calls on the arm's own generators give
        params = derive_params(0.5, 1e-2)
        law = functools.partial(noise_law, params=params) if noisy else None
        calls = [(5, None), (5, 2), (40, None), (7, 7), (5, 1), (300, 3071),
                 (1, None), (2, 3), (300, None), (3000, 3)]  # tau ~ 2034
        tape = self._tape(0.3, arm=2, law=law)
        got = []
        for m, count in calls:
            if count is None:
                got.append(tape.draw(m))
            else:
                drawn = tape.draw(m, count)
                assert drawn.dtype == np.float64 and drawn.shape == (count,)
                got += drawn.tolist()
        seeds = SeedSpec(123)
        rewards, noise = seeds.reward_rng(2), seeds.noise_rng(2)
        expected = []
        for m, count in calls:
            for _ in range(count or 1):
                s = int(rewards.binomial(m, 0.3))
                if noisy:
                    x = noise_law(m, params)
                    expected.append(float(s + int(noise.binomial(x.n, x.q)))
                                    - x.offset)
                else:
                    expected.append(float(s))
        assert got == expected

    def test_arm_streams_differ(self):
        # single Binomial(2000, .5) sums collide about 1.8 % of the time
        spec = SeedSpec(5)
        assert _draws(RewardTape(0, 0.5, spec), [2000] * 5) != \
            _draws(RewardTape(1, 0.5, spec), [2000] * 5)

    def test_other_arms_unperturbed_by_arm_set(self):
        # the streams of arm 1 do not depend on whether arm 0 was consumed
        spec = SeedSpec(5)
        law = functools.partial(noise_law, params=derive_params(0.5, 1e-2))
        alone = _draws(RewardTape(1, 0.5, spec, law), [100] * 3)
        _draws(RewardTape(0, 0.2, spec, law), [50])
        assert _draws(RewardTape(1, 0.5, spec, law), [100] * 3) == alone

    @given(seed=st.integers(0, 2**63 - 1), run=st.integers(0, 100))
    @settings(max_examples=25)
    def test_seed_spec_replay(self, seed, run):
        spec = SeedSpec(seed, run)
        assert _draws(RewardTape(2, 0.4, spec), [64] * 3) == \
            _draws(RewardTape(2, 0.4, spec), [64] * 3)

    def test_hoeffding_deviation_frequency(self):
        # P(|mean - mu| > sqrt(ln(2/alpha) / (2n))) <= alpha over seeds
        n, alpha, runs = 400, 0.05, 400
        bound = math.sqrt(math.log(2 / alpha) / (2 * n))
        exceed = 0
        for seed in range(runs):
            [total] = _draws(RewardTape(0, 0.5, SeedSpec(seed)), [n])
            if abs(total / n - 0.5) > bound:
                exceed += 1
        # 3-sigma slack on the binomial count at frequency alpha
        assert exceed <= runs * alpha + 3 * math.sqrt(runs * alpha * (1 - alpha))
