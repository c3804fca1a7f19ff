import functools
import importlib.util
import json
import math
import operator
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflebandit import bandit, harness
from shufflebandit.bandit import (EngineConfig, confidence_radius, eliminate,
                                  pulls_at, regret_at, run_block, run_episode,
                                  run_phase)
from shufflebandit.env import RewardTape, SeedSpec, make_instance
from shufflebandit.mechanism import derive_params, noise_law

from reference import batch_schedule, exact_regret, noisy_sum, replay_pulls

I_4_30_12_1E5 = 8.553728421127085  # (2*2*12/30 + 1/sqrt(30)) * sqrt(2 ln 1e5)


class TestConfidenceRadius:
    def test_sigma_zero_ln_t_one(self):
        assert confidence_radius(1, 100, math.e, 0.0) == \
            pytest.approx(math.sqrt(2) / 10)

    def test_single_phase_symbolic(self):
        sigma, m, horizon = 7.0, 25, 10**4
        expected = (2 * sigma / m + 1 / math.sqrt(m)) * \
            math.sqrt(2 * math.log(horizon))
        assert confidence_radius(1, m, horizon, sigma) == pytest.approx(expected)

    def test_high_precision_oracle(self):
        assert confidence_radius(4, 30, 10**5, 12.0) == \
            pytest.approx(I_4_30_12_1E5, rel=1e-12)


class TestEliminate:
    def test_direct_rule(self):
        active = [True, True]
        # UCBs [0.9, 0.4], LCBs [0.5, 0.0]: arm 1 is strictly below
        assert eliminate(active, [0.7, 0.2], 0.2) == [1]
        assert active[0] and not active[1]

    def test_tie_no_elimination(self):
        assert eliminate([True, True], [0.5, 0.5], 0.0) == []

    def test_best_lcb_arm_never_eliminated(self):
        eliminated = eliminate([True] * 3, [0.9, 0.4, 0.3], 0.05)
        assert 0 not in eliminated
        assert eliminated == [1, 2]


def _tapes(instance, seeds, law=None):
    """Every arm's tape, as run_episode makes them."""
    return [RewardTape(a, mu, seeds, law)
            for a, mu in enumerate(instance.means)]


class TestRunPhase:
    def test_bookkeeping_constant(self):
        # one noiseless batch of 10 per active arm: arm 0 reads 10 ones,
        # arm 1 ten zeros, and the inactive arm 2 nothing
        inst = make_instance(3, [1.0, 0.0, 1.0], 1000)
        sums, active = [0.0, 0.0, 0.0], [True, True, False]
        tapes = _tapes(inst, SeedSpec(0))
        run_phase(sums, active, tapes, 10)
        assert sums == [10.0, 0.0, 0.0]

    def test_noiseless_exact_sum(self):
        inst = make_instance(1, [1.0], 100)
        sums = [0.0]
        tapes = _tapes(inst, SeedSpec(0))
        run_phase(sums, [True], tapes, 5)
        assert sums == [5.0]

    def test_doubling_pull_counts(self, monkeypatch):
        # T = 29 runs phases 1 to 3 of two arms (28 users) and cuts phase 4
        # short: an active arm has 2, 6 and 14 pulls at the three tests, and
        # its estimate is its sum over them
        tests = []

        def eliminate_spy(active, estimates, radius):
            tests.append((radius, estimates[:]))
            return eliminate(active, estimates, radius)

        monkeypatch.setattr(bandit, "eliminate", eliminate_spy)
        inst = make_instance(2, [1.0, 1.0], 29)
        episode = run_episode(inst, EngineConfig(), SeedSpec(0))
        assert tests == [(confidence_radius(t, pulled, 29, 0.0), [1.0, 1.0])
                         for t, pulled in ((1, 2), (2, 6), (3, 14))]
        assert episode.arm_pulls_total == [14 + 1, 14]

    def test_horizon_exit_skips_mechanism(self, monkeypatch):
        # T = 15 cuts the first phase short during arm 1's batch: no phase
        # runs, no tape draws, and the pulls up to the T-th are counted
        monkeypatch.setattr(RewardTape, "draw", None)
        inst = make_instance(2, [1.0, 1.0], 15)
        episode = run_episode(inst, EngineConfig(m=10), SeedSpec(0), [15])
        assert episode.arm_pulls_total == [10, 5]
        assert episode.cumulative_regret.tolist() == [0.0]

    def test_cut_phase_pulls_follow_from_the_record(self, monkeypatch):
        # the phase the horizon cuts short never runs: its pulls, up to the
        # T-th, and their regret follow from the (empty) elimination record
        monkeypatch.setattr(RewardTape, "draw", None)
        inst = make_instance(3, [1.0, 0.5, 0.0], 25)
        episode = run_episode(inst, EngineConfig(m=10), SeedSpec(0), [24, 25])
        assert episode.eliminations == []
        assert episode.arm_pulls_total == [10, 10, 5]
        assert pulls_at(3, 10, [], [24, 25]) == [[10, 10, 4], [10, 10, 5]]
        assert episode.cumulative_regret.tolist() == [0.5 * 10 + 1.0 * 4,
                                                      0.5 * 10 + 1.0 * 5]

    @pytest.mark.parametrize("m", [8, 300])  # below and above tau ~ 133
    def test_commits_values_drawn_ahead(self, m):
        # a block of two phases commits both estimates each tape draws for
        # it, and a phase after it reads the next; the estimates are read in
        # order, once per batch, and equal drawing each batch's reward sum
        # and noisy_sum by scalar calls
        params = derive_params(1.0, 0.5)
        inst = make_instance(2, [0.3, 0.6], 6 * m + 1)
        seeds = SeedSpec(5)
        law = functools.partial(noise_law, params=params)
        tapes = _tapes(inst, seeds, law)
        sums, active, eliminations = [0.0, 0.0], [True, True], []
        assert run_block(sums, active, tapes, m, 2, 0, params.sigma, inst,
                         eliminations) == (4 * m, False)
        assert eliminations == []
        run_phase(sums, active, tapes, m)
        for a in range(2):
            rewards, noise = seeds.reward_rng(a), seeds.noise_rng(a)
            estimates = [
                noisy_sum(int(rewards.binomial(m, inst.means[a])), m, params,
                          noise).value for _ in range(4)]
            assert sums[a] == functools.reduce(operator.add, estimates[:3])
            assert tapes[a].draw(m) == estimates[3]  # each batch read once


class TestRunEpisode:
    def test_single_arm_zero_regret(self):
        inst = make_instance(1, [0.5], 500)
        params = derive_params(0.9, 1e-3)
        config = EngineConfig(privacy=params)
        trace = run_episode(inst, config, SeedSpec(3), range(1, 501))
        assert trace.cumulative_regret.tolist() == [0.0] * 500

    def test_baseline_closed_form_elimination(self):
        # noiseless baseline, means [1, 0], m=10, T=1000: with exact mean
        # estimates arm 2 goes at the first phase where UCB_2 < LCB_1,
        # i.e. 2 * I < 1; solve the inequality independently
        horizon, m = 1000, 10
        t_star = next(t for t in range(1, 200)
                      if 2 * confidence_radius(t, m * t, horizon, 0.0) < 1)
        inst = make_instance(2, [1.0, 0.0], horizon)
        config = EngineConfig(m=m)
        trace = run_episode(inst, config, SeedSpec(11), [horizon])
        assert trace.eliminations == [(1, t_star)]
        assert trace.arm_pulls_total[1] == m * t_star
        assert trace.cumulative_regret.tolist() == [m * t_star]

    def test_pull_accounting(self):
        inst = make_instance(3, [0.9, 0.5, 0.1], 777)
        params = derive_params(0.8, 1e-3)
        config = EngineConfig(privacy=params)
        trace = run_episode(inst, config, SeedSpec(5))
        assert sum(trace.arm_pulls_total) == 777

    def test_regret_nondecreasing(self):
        inst = make_instance(3, [0.9, 0.5, 0.1], 2000)
        params = derive_params(0.8, 1e-3)
        config = EngineConfig(m=30, privacy=params)
        trace = run_episode(inst, config, SeedSpec(5), range(1, 2001))
        assert trace.cumulative_regret.size == 2000
        assert np.all(np.diff(trace.cumulative_regret) >= 0)
        # the final value is the gap-weighted pull counts, correctly rounded
        assert trace.cumulative_regret[-1] == exact_regret(
            inst.means, [trace.arm_pulls_total])[0]

    def test_equal_footing_constant_schedule(self, monkeypatch):
        # all active arms share N = m t (hence I) after every full phase t,
        # so the engine's one radius per phase is every active arm's radius,
        # and its estimates are each arm's sum over its own pulls; `eliminate`
        # sees them at each eliminating phase, as a block tests it
        horizon, m = 40000, 25
        inst = make_instance(4, [1.0, 0.7, 0.3, 0.0], horizon)
        params = derive_params(1.0, 0.5)
        config = EngineConfig(m=m, privacy=params)
        drawn = {a: [] for a in range(4)}  # each arm's estimates, in order
        draw = RewardTape.draw

        def recording_draw(tape, m, count=None):
            out = draw(tape, m, count)
            drawn[tape.arm].extend(np.atleast_1d(out).tolist())
            return out

        tests = []  # the active arms, estimates and radius of each test

        def eliminate_spy(active, estimates, radius):
            arms = [a for a, on in enumerate(active) if on]
            tests.append((arms, [estimates[a] for a in arms], radius))
            return eliminate(active, estimates, radius)

        monkeypatch.setattr(RewardTape, "draw", recording_draw)
        monkeypatch.setattr(bandit, "eliminate", eliminate_spy)
        trace = run_episode(inst, config, SeedSpec(21))
        phases = [t for _, t in trace.eliminations]
        assert phases == [151, 330]
        for (arms, estimates, radius), t in zip(tests, phases, strict=True):
            assert radius == confidence_radius(t, m * t, horizon, params.sigma)
            assert estimates == [
                functools.reduce(operator.add, drawn[a][:t], 0.0) / (m * t)
                for a in arms]

    def test_estimates_outside_the_radius_violate_the_clean_event(
            self, monkeypatch):
        # two arms of mean 0.5 in batches of 100: the radius is 0.37 at the
        # first phase, 7 standard deviations of an estimate
        inst = make_instance(2, [0.5, 0.5], 1000)
        config = EngineConfig(m=100)
        assert not run_episode(inst, config, SeedSpec(8)).clean_event_violated
        draw = RewardTape.draw

        def shifted_draw(tape, m, *args):
            # arm 1's estimates read 0.5 above its mean
            return draw(tape, m, *args) + (0.5 * m if tape.arm == 1 else 0.0)

        monkeypatch.setattr(RewardTape, "draw", shifted_draw)
        assert run_episode(inst, config, SeedSpec(8)).clean_event_violated

    def test_block_checks_only_the_phases_it_runs(self, monkeypatch):
        # arm 1 of [1, 0] goes at phase 6 of a block that drew 49 phases;
        # its batches from the 7th on read every user as a 1, far outside
        # the radius, but no phase that runs reads them
        draw = RewardTape.draw
        drawn = {}

        def late_draw(tape, m, count=None):
            out = draw(tape, m, count)
            if tape.arm == 1 and count is not None:
                first = drawn.get(1, 0)
                drawn[1] = first + count
                out[max(0, 6 - first):] = float(m)
            return out

        monkeypatch.setattr(RewardTape, "draw", late_draw)
        inst = make_instance(2, [1.0, 0.0], 1000)
        trace = run_episode(inst, EngineConfig(m=10), SeedSpec(11))
        assert trace.eliminations == [(1, 6)]
        assert drawn[1] == 49
        assert not trace.clean_event_violated

    def test_determinism(self):
        inst = make_instance(3, [0.7, 0.5, 0.3], 3000)
        params = derive_params(0.6, 1e-4)
        config = EngineConfig(privacy=params)
        users = range(1, 3001)
        a = run_episode(inst, config, SeedSpec(123, 7), users)
        b = run_episode(inst, config, SeedSpec(123, 7), users)
        np.testing.assert_array_equal(a.cumulative_regret, b.cumulative_regret)
        assert a.eliminations == b.eliminations

    def test_each_arm_draws_noise_from_its_own_stream(self):
        # arm a's noise counts are exactly the draws of its own generator,
        # one per batch under that batch's noise law, in phase order,
        # whatever the other arms draw
        params = derive_params(0.5, 1e-2)
        inst = make_instance(3, [0.5, 0.5, 0.5], 2000)
        seeds = SeedSpec(4)
        _, draws = _record_noise_draws(inst, EngineConfig(privacy=params),
                                       seeds)
        assert len(draws) == inst.k
        for a, seq in enumerate(draws):
            assert len(seq) > 1
            _assert_scalar_noise_draws(seq, a, seeds, params)

    def test_cut_phase_draws_no_noise(self):
        # T = 2300 cuts phase 9 short after arm 0's batch of 512 completes
        # (3 * 510 + 512 = 2042 users) and during arm 1's; no elimination
        # test reads that phase, so no arm draws its noise
        params = derive_params(0.5, 1e-2)
        inst = make_instance(3, [0.5, 0.5, 0.5], 2300)
        seeds = SeedSpec(4)
        trace, draws = _record_noise_draws(inst, EngineConfig(privacy=params),
                                           seeds)
        assert trace.eliminations == []
        assert trace.arm_pulls_total == [510 + 512, 510 + 258, 510]
        assert len(draws) == inst.k
        for a, seq in enumerate(draws):
            assert len(seq) == 8  # phases 1 to 8, which complete
            _assert_scalar_noise_draws(seq, a, seeds, params)

    def test_cut_phase_draws_nothing(self, monkeypatch):
        # the same cut as above: phase 9's batch of arm 0 and 258 pulls of
        # arm 1's are counted, and no tape reads anything for them; as
        # every phase has its own batch size, each read is one scalar call
        # per generator, so no tape draws anything for them either
        read = []
        draw = RewardTape.draw

        def recording_draw(tape, m):
            read.append((tape.arm, m))
            return draw(tape, m)

        monkeypatch.setattr(RewardTape, "draw", recording_draw)
        inst = make_instance(3, [0.5, 0.5, 0.5], 2300)
        config = EngineConfig(privacy=derive_params(0.5, 1e-2))
        trace = run_episode(inst, config, SeedSpec(4))
        assert trace.arm_pulls_total == [510 + 512, 510 + 258, 510]
        complete = [2**phase for phase in range(1, 9)]
        assert read == [(a, m) for m in complete for a in range(3)]

    def test_optimal_arm_safe_in_clean_runs(self):
        inst = make_instance(3, [0.9, 0.5, 0.1], 4000)
        config = EngineConfig(m=5)
        for seed in range(30):
            trace = run_episode(inst, config, SeedSpec(900, seed))
            if not trace.clean_event_violated:
                assert all(arm != 0 for arm, _ in trace.eliminations)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_trace_invariants_property(self, seed):
        inst = make_instance(2, [0.8, 0.3], 600)
        params = derive_params(0.9, 1e-2)
        config = EngineConfig(privacy=params)
        trace = run_episode(inst, config, SeedSpec(seed), range(1, 601))
        assert trace.cumulative_regret.size == 600
        assert np.all(np.diff(trace.cumulative_regret) >= 0)
        assert sum(trace.arm_pulls_total) == 600

    def test_rejects_checkpoints_out_of_order_or_range(self):
        inst = make_instance(2, [0.8, 0.3], 100)
        for checkpoints in ([5, 5], [10, 3], [0, 50], [50, 101]):
            with pytest.raises(ValueError, match="checkpoints must ascend"):
                run_episode(inst, EngineConfig(m=3), SeedSpec(1), checkpoints)
        trace = run_episode(inst, EngineConfig(m=3), SeedSpec(1), [1, 100])
        assert trace.cumulative_regret.tolist() == [
            0.0, exact_regret(inst.means, [trace.arm_pulls_total])[0]]


def _record_noise_draws(instance, config, seeds):
    """Run one episode; its trace and each arm's (n, q, noise count) draws,
    in order."""
    draws = {}  # generator -> its draws, in order of first use
    noise_rng = SeedSpec.noise_rng

    class Recorder:
        def __init__(self, rng):
            self.rng = rng

        def binomial(self, n, q, size=None):
            out = self.rng.binomial(n, q, size)
            values = np.broadcast_arrays(n, q, out)
            draws.setdefault(id(self), []).extend(
                zip(*(v.ravel().tolist() for v in values)))
            return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SeedSpec, "noise_rng",
                      lambda spec, arm: Recorder(noise_rng(spec, arm)))
        trace = run_episode(instance, config, seeds)
    return trace, list(draws.values())


def _assert_scalar_noise_draws(seq, arm, seeds, params):
    """The draws are those of doubling phases 1, 2, ... by scalar calls on
    the arm's own generator."""
    laws = [noise_law(2**phase, params) for phase in range(1, len(seq) + 1)]
    assert [(n, q) for n, q, _ in seq] == [(law.n, law.q) for law in laws]
    rng = seeds.noise_rng(arm)
    assert [count for _, _, count in seq] == \
        [int(rng.binomial(law.n, law.q)) for law in laws]


# non-dyadic means: their gaps and regrets are not exact in floats
MEANS = st.sampled_from([0.0, 1.0, 0.5, 0.1, 0.7, 1 / 3, 0.6299, 0.71])


@st.composite
def records(draw):
    """(k, means, m, eliminations, horizon, checkpoints) of a valid
    elimination record: fewer than k arms go, each at a phase that ends
    before the horizon, and the checkpoints hold user 1, users of the phase
    the horizon cuts short, and the horizon."""
    k = draw(st.integers(1, 5))
    means = draw(st.lists(MEANS, min_size=k, max_size=k))
    m = draw(st.one_of(st.none(), st.integers(1, 40)))
    gone = draw(st.permutations(range(k)))[:draw(st.integers(0, k - 1))]
    eliminations, phase = [], 0
    for a in gone:
        # 0 puts the arm in the last elimination's phase
        phase += draw(st.integers(0 if eliminations else 1, 3))
        eliminations.append((a, phase))
    eliminations.sort(key=lambda e: (e[1], e[0]))
    # users up to the end of the last elimination phase
    through = sum((m or 2**p) * sum(not any(b == a and q < p
                                            for b, q in eliminations)
                                    for a in range(k))
                  for p in range(1, phase + 1))
    horizon = through + draw(st.integers(1, 3000))
    batches = batch_schedule(k, m, eliminations, horizon)
    cut = batches[-1][0]
    cut_start = sum(take for p, _, take in batches if p < cut)
    checkpoints = {1, horizon, cut_start + 1, *draw(st.lists(
        st.integers(cut_start + 1, horizon), max_size=4)), *draw(st.lists(
            st.integers(1, horizon), max_size=8))}
    return k, means, m, eliminations, horizon, sorted(checkpoints)


class TestRegretSegments:
    """An episode's pulls and regret follow from its elimination record:
    `pulls_at` walks the batch schedule, and `regret_at` sums the gaps
    times the pulls exactly, with one correctly rounded division."""
    # arms 0 and 1 tie for best, so two arms have zero gap
    MEANS = [0.8, 0.8, 0.3, 0.55]

    @pytest.mark.parametrize("schedule,private", [
        (EngineConfig(m=7), False),
        (EngineConfig(m=30), True),
        (EngineConfig(), True),
    ])
    @pytest.mark.parametrize("horizon", [1, 997, 5001])
    def test_segments_equal_per_user_fill(self, schedule, private, horizon):
        # the regret after every user is that of replaying the episode's
        # record user by user, summed in Fractions
        inst = make_instance(4, self.MEANS, horizon)
        config = replace(schedule, privacy=derive_params(0.9, 1e-2) if private
                         else None)
        users = range(1, horizon + 1)
        episode = run_episode(inst, config, SeedSpec(31), users)
        batches = batch_schedule(4, config.m, episode.eliminations, horizon)
        rows = replay_pulls(4, batches, users)
        assert episode.cumulative_regret.tolist() == \
            exact_regret(self.MEANS, rows)
        assert episode.arm_pulls_total == rows[-1]
        checkpoints = sorted({1, (horizon + 1) // 2, horizon})
        sparse = run_episode(inst, config, SeedSpec(31), checkpoints)
        np.testing.assert_array_equal(
            sparse.cumulative_regret,
            episode.cumulative_regret[np.array(checkpoints) - 1])
        # every case ends on a batch cut short by the horizon
        full_sizes = {config.m or 2**phase for phase in range(1, 30)}
        assert batches[-1][2] not in full_sizes

    @given(records())
    @settings(max_examples=200, deadline=None)
    # an elimination in every phase, up to the last arm
    @example((5, [0.1, 0.7, 1 / 3, 0.6299, 0.71], 3,
              [(0, 1), (2, 2), (3, 3), (1, 4)], 50, [1, 13, 29, 43, 49, 50]))
    @example((4, [0.71, 0.6299, 0.333, 0.7], None,
              [(2, 1), (3, 2), (1, 3)], 200, [1, 8, 9, 30, 36, 37, 149, 200]))
    def test_pulls_and_regret_equal_a_fraction_replay(self, record):
        k, means, m, eliminations, horizon, checkpoints = record
        rows = pulls_at(k, m, eliminations, checkpoints)
        batches = batch_schedule(k, m, eliminations, horizon)
        assert rows == replay_pulls(k, batches, checkpoints)
        inst = make_instance(k, means, horizon)
        assert regret_at(inst, rows).tolist() == exact_regret(means, rows)

    def test_recorded_regret_is_correctly_rounded(self, tmp_path):
        # a serial run with non-dyadic means to T = 1e6: each value recorded
        # is the exact regret of the episode's record, correctly rounded
        config = harness.ExperimentConfig(
            k=4, means=(0.71, 0.6299, 0.333, 0.7), horizon=10**6,
            variants=harness.VARIANTS, epsilons=(1.0,), deltas=(1e-5,),
            seeds=1, master_seed=7,
            checkpoints=(1, 999, 10**4, 123457, 10**6), output=str(tmp_path))
        result = harness.run_experiment(config)
        assert len(result.traces) == 3
        for (variant, eps, delta, seed), recorded in result.traces.items():
            params = None if eps is None else derive_params(eps, delta)
            econf = harness.engine_config(config, variant, params)
            episode = run_episode(config.instance(), econf,
                                  SeedSpec(config.master_seed, seed),
                                  config.checkpoints)
            batches = batch_schedule(4, econf.m, episode.eliminations,
                                     config.horizon)
            rows = replay_pulls(4, batches, config.checkpoints)
            assert recorded.tolist() == exact_regret(config.means, rows)

    def test_zero_gap_batches_keep_regret_flat(self):
        # batches of 5 of arms 0 and 1 (tied best), arm 2, then arm 0 again
        inst = make_instance(3, [0.5, 0.5, 0.25], 19)
        rows = pulls_at(3, 5, [], range(1, 20))
        np.testing.assert_array_equal(
            regret_at(inst, rows),
            [0.0] * 10 + [0.25 * n for n in range(1, 6)] + [1.25] * 4)

    def test_checkpoints_read_the_pulls_up_to_them(self):
        # arms 0 and 1 in batches of 3; arm 1 goes at phase 1, so arm 0
        # alone pulls from user 7 on
        assert pulls_at(2, 3, [(1, 1)], [2, 9, 10]) == [[2, 0], [6, 3],
                                                        [7, 3]]
        assert pulls_at(2, None, [(1, 1)], [2, 3, 8]) == [[2, 0], [2, 1],
                                                          [6, 2]]

    def test_expansion_is_read_only(self):
        episode = run_episode(make_instance(2, [0.5, 0.25], 10),
                              EngineConfig(m=2), SeedSpec(1), [1, 2, 3])
        with pytest.raises(ValueError):
            episode.cumulative_regret[0] = 1.0


def _load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTracerHooks:
    def test_tracer_counts_phases_and_eliminations(self):
        # the benchmark's tracer wraps engine functions by name from outside;
        # renaming one, or no longer calling it, must fail here
        tracing = _load_tracer()
        tracer = tracing.Tracer()
        horizon = 1000
        inst = make_instance(2, [1.0, 0.0], horizon)
        config = EngineConfig()  # doubling batches, noiseless
        originals = (bandit.run_phase, bandit.eliminate, harness.run_episode)
        uninstall = tracing.install(tracer)
        try:
            trace = harness.run_episode(inst, config, SeedSpec(11),
                                        range(1, horizon + 1))
        finally:
            uninstall()
        assert (bandit.run_phase, bandit.eliminate,
                harness.run_episode) == originals
        metrics = tracing.layer_metrics(tracer)
        # arm 1 goes at phase 5, the first whose radius, at 62 exact pulls
        # an arm, is below 1/2; arm 0 alone runs phases 6 to 8 (572 users),
        # and phase 9 of 512 users, which the horizon cuts short, never runs
        assert trace.eliminations == [(1, 5)]
        assert metrics["bandit.phases"] == 8
        assert metrics["bandit.eliminations"] == len(trace.eliminations) == 1
        assert metrics["bandit.regret_bytes"] == 8 * horizon


    def test_layer_metrics_are_finite_numbers(self, tmp_path):
        # every figure the tracer reports is a finite number that JSON can
        # hold: RewardTape.draw's second argument, counted as reward_bits,
        # stays the integer batch size, in blocks and in single phases
        tracing = _load_tracer()
        tracer = tracing.Tracer()
        inst = make_instance(3, [0.9, 0.5, 0.1], 20000)
        params = derive_params(1.0, 1e-2)
        config = harness.ExperimentConfig(
            k=2, means=(0.9, 0.1), horizon=2000,
            variants=(harness.VARIANT_BASELINE,), seeds=2, master_seed=3,
            checkpoints=(1000, 2000), output=str(tmp_path / "out"))
        uninstall = tracing.install(tracer)
        try:
            harness.run_episode(inst, EngineConfig(m=math.ceil(params.sigma),
                                                   privacy=params),
                                SeedSpec(5))
            harness.run_episode(inst, EngineConfig(privacy=params),
                                SeedSpec(5))
            harness.run_experiment(config)
        finally:
            uninstall()
        metrics = tracing.layer_metrics(tracer)
        json.dumps(metrics)
        for name, value in metrics.items():
            assert type(value) in (int, float) and math.isfinite(value), name
        assert metrics["env.reward_bits"] > 0
        assert metrics["harness.emit_s"] > 0


class TestEngineConfig:
    def test_doubling_sizes(self, monkeypatch):
        # batches of 2, 4 and 8 users fill T = 14; the last reaches the
        # horizon, so only the first two phases run and are read
        sizes, read = [], []
        draw = RewardTape.draw

        def recording_run_phase(sums, active, tapes, m):
            sizes.append(m)
            return run_phase(sums, active, tapes, m)

        def recording_draw(tape, batch_size):
            read.append(batch_size)
            return draw(tape, batch_size)

        monkeypatch.setattr(bandit, "run_phase", recording_run_phase)
        monkeypatch.setattr(RewardTape, "draw", recording_draw)
        trace = run_episode(make_instance(1, [0.5], 14), EngineConfig(),
                            SeedSpec(3))
        assert sizes == [2, 4]
        assert read == [2, 4]
        assert trace.arm_pulls_total == [14]

    @pytest.mark.parametrize("m", [0, -3])
    def test_rejects_m_below_one(self, m):
        with pytest.raises(ValueError, match="m must be >= 1"):
            EngineConfig(m=m)

    EXPERIMENT = harness.ExperimentConfig(
        k=2, means=(0.9, 0.1), horizon=100, variants=harness.VARIANTS,
        epsilons=(1.0,), deltas=(1e-5,), seeds=1, master_seed=0,
        checkpoints=(100,), output="", baseline_m=7)

    def test_variant_batch_sizes_and_privacy(self):
        params = derive_params(1.0, 1e-5)
        assert harness.engine_config(self.EXPERIMENT, "sdp-ae", params) == \
            EngineConfig(m=math.ceil(params.sigma), privacy=params)
        assert math.ceil(params.sigma) == 42
        assert harness.engine_config(self.EXPERIMENT, "vb-sdp-ae", params) == \
            EngineConfig(m=None, privacy=params)
        assert harness.engine_config(self.EXPERIMENT, "ae-baseline", None) == \
            EngineConfig(m=7, privacy=None)

    @pytest.mark.parametrize("variant", ["sdp-ae", "vb-sdp-ae"])
    def test_private_variant_needs_params(self, variant):
        with pytest.raises(ValueError, match=f"^variant {variant} needs "
                           "privacy parameters$"):
            harness.engine_config(self.EXPERIMENT, variant, None)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="thompson"):
            harness.engine_config(self.EXPERIMENT, "thompson",
                                  derive_params(1.0, 1e-5))
