import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflebandit.env import RewardTape, SeedSpec, make_instance, make_tapes


class TestMakeInstance:
    def test_extreme_arms(self):
        inst = make_instance(2, [1.0, 0.0], 100)
        assert inst.best_mean == 1.0
        assert inst.gaps == (0.0, 1.0)
        assert inst.best_arm == 0

    def test_single_arm(self):
        inst = make_instance(1, [0.5], 10)
        assert inst.gaps == (0.0,)

    def test_gap_arithmetic(self):
        inst = make_instance(3, [0.9, 0.8, 0.5], 10**5)
        assert inst.gaps == pytest.approx((0.0, 0.1, 0.4))

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
        assert all(0.0 <= g <= 1.0 for g in inst.gaps)
        assert inst.gaps[inst.best_arm] == 0.0


class TestRewardTape:
    def _tape(self, mean, horizon=10**6, arm=0, seed=123):
        return RewardTape(arm, mean, SeedSpec(seed), horizon)

    def test_deterministic_arm_all_ones(self):
        assert self._tape(1.0).draw(5) == 5

    def test_deterministic_arm_all_zeros(self):
        assert self._tape(0.0).draw(3) == 0

    def test_law_of_large_numbers(self):
        # Hoeffding at 6 sigma: for n = 1e5 fair coins, 0.01 > 6 * 0.5/sqrt(n)
        total = self._tape(0.5).draw(10**5)
        assert abs(total / 10**5 - 0.5) < 0.01

    def test_replay_determinism(self):
        a = self._tape(0.3)
        b = self._tape(0.3)
        for size in (7, 13, 1):
            assert a.draw(size) == b.draw(size)

    def test_cursor_advances_and_caps_at_horizon(self):
        tape = self._tape(0.5, horizon=10)
        tape.draw(7)
        assert tape.cursor == 7
        with pytest.raises(ValueError):
            tape.draw(4)

    def test_arm_streams_differ(self):
        # single Binomial(2000, .5) sums collide about 1.8 % of the time
        spec = SeedSpec(5)
        a = RewardTape(0, 0.5, spec, 10**4)
        b = RewardTape(1, 0.5, spec, 10**4)
        assert [a.draw(2000) for _ in range(5)] != \
            [b.draw(2000) for _ in range(5)]

    def test_other_arms_unperturbed_by_arm_set(self):
        # stream of arm 1 does not depend on whether arm 0 was consumed
        spec = SeedSpec(5)
        lone = RewardTape(1, 0.5, spec, 10**4)
        alone = [lone.draw(100) for _ in range(3)]
        inst = make_instance(3, [0.2, 0.5, 0.9], 10**4)
        tapes = make_tapes(inst, spec)
        tapes[0].draw(50)
        assert [tapes[1].draw(100) for _ in range(3)] == alone

    @given(seed=st.integers(0, 2**63 - 1), run=st.integers(0, 100))
    @settings(max_examples=25)
    def test_seed_spec_replay(self, seed, run):
        spec = SeedSpec(seed, run)
        x = RewardTape(2, 0.4, spec, 1000)
        y = RewardTape(2, 0.4, spec, 1000)
        assert [x.draw(64) for _ in range(3)] == [y.draw(64) for _ in range(3)]

    def test_hoeffding_deviation_frequency(self):
        # P(|mean - mu| > sqrt(ln(2/alpha) / (2n))) <= alpha over seeds
        n, alpha, runs = 400, 0.05, 400
        bound = math.sqrt(math.log(2 / alpha) / (2 * n))
        exceed = 0
        for seed in range(runs):
            total = RewardTape(0, 0.5, SeedSpec(seed), n).draw(n)
            if abs(total / n - 0.5) > bound:
                exceed += 1
        # 3-sigma slack on the binomial count at frequency alpha
        assert exceed <= runs * alpha + 3 * math.sqrt(runs * alpha * (1 - alpha))
