import functools
import importlib.util
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflebandit import bandit, harness
from shufflebandit.bandit import (EngineConfig, RegretTrace, confidence_radius,
                                  eliminate, run_episode, run_phase)
from shufflebandit.env import RewardTape, SeedSpec, make_instance
from shufflebandit.mechanism import derive_params, noise_law

from reference import noisy_sum

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
        inst = make_instance(2, [1.0, 0.0], 1000)
        sums, pulls, active = [0.0, 0.0], [0, 0], [True, True]
        tapes = _tapes(inst, SeedSpec(0))
        consumed = run_phase(sums, pulls, active, tapes, 10, inst,
                             RegretTrace())
        assert consumed == 20
        assert pulls == [10, 10]

    def test_noiseless_exact_sum(self):
        inst = make_instance(1, [1.0], 100)
        sums, pulls = [0.0], [0]
        tapes = _tapes(inst, SeedSpec(0))
        run_phase(sums, pulls, [True], tapes, 5, inst, RegretTrace())
        assert sums[0] == 5.0
        assert sums[0] / pulls[0] == 1.0

    def test_doubling_pull_counts(self):
        inst = make_instance(2, [0.5, 0.5], 10**4)
        sums, pulls, active = [0.0, 0.0], [0, 0], [True, True]
        tapes = _tapes(inst, SeedSpec(0))
        trace = RegretTrace()
        for t in (1, 2, 3):
            run_phase(sums, pulls, active, tapes, 2**t, inst, trace)
        assert pulls == [2**4 - 2] * 2

    def test_horizon_exit_skips_mechanism(self):
        # the batch reaching the T-th pull is charged but never aggregated
        inst = make_instance(2, [1.0, 1.0], 15)
        sums, pulls, active = [0.0, 0.0], [0, 0], [True, True]
        tapes = _tapes(inst, SeedSpec(0))
        trace = RegretTrace()
        assert run_phase(sums, pulls, active, tapes, 10, inst, trace) == 15
        assert sums == [10.0, 0.0]  # interrupted batch, no state update
        assert pulls == [10, 5]
        assert trace.users == 15

    def test_cut_phase_charges_without_tapes(self):
        # the phase the horizon cuts short gets no tapes: its batches are
        # charged up to the T-th pull and leave every sum untouched
        inst = make_instance(3, [1.0, 0.5, 0.0], 25)
        sums, pulls, active = [0.0] * 3, [0] * 3, [True] * 3
        trace = RegretTrace()
        assert run_phase(sums, pulls, active, None, 10, inst, trace) == 25
        assert sums == [0.0] * 3
        assert pulls == [10, 10, 5]
        assert trace.regret == 0.5 * 10 + 1.0 * 5

    @pytest.mark.parametrize("m", [8, 300])  # below and above tau ~ 133
    def test_commits_values_drawn_ahead(self, m):
        # the estimates the tapes draw are read in order, once per batch,
        # and equal drawing each batch's reward sum and noisy_sum by scalar
        # calls
        params = derive_params(1.0, 0.5)
        inst = make_instance(2, [0.3, 0.6], 6 * m + 1)
        seeds = SeedSpec(5)
        law = functools.partial(noise_law, params=params)
        tapes = _tapes(inst, seeds, law)
        sums, pulls, active = [0.0, 0.0], [0, 0], [True, True]
        trace = RegretTrace()
        for _ in range(3):
            run_phase(sums, pulls, active, tapes, m, inst, trace)
        for a in range(2):
            rewards, noise = seeds.reward_rng(a), seeds.noise_rng(a)
            estimates = [
                noisy_sum(int(rewards.binomial(m, inst.means[a])), m, params,
                          noise).value for _ in range(4)]
            assert sums[a] == sum(estimates[:3], 0.0)
            assert tapes[a].draw(m) == estimates[3]  # each batch read once
        assert pulls == [3 * m] * 2


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
        trace = run_episode(inst, config, SeedSpec(11))
        assert trace.eliminations == [(1, t_star)]
        assert trace.arm_pulls_total[1] == m * t_star
        assert trace.regret == m * t_star

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
        # final value equals the gap-weighted pull counts
        gaps = inst.gaps
        expected = sum(n * g for n, g in zip(trace.arm_pulls_total, gaps))
        assert trace.regret == pytest.approx(expected)

    def test_equal_footing_constant_schedule(self, monkeypatch):
        # all active arms share N (hence I) after every full phase, so the
        # engine's one radius per phase is every active arm's radius, and
        # its estimates are each arm's sum over its own pulls; `eliminate`
        # sees them at each eliminating phase, as a block commits it
        horizon, m = 40000, 25
        inst = make_instance(4, [1.0, 0.7, 0.3, 0.0], horizon)
        params = derive_params(1.0, 0.5)
        config = EngineConfig(m=m, privacy=params)
        seen = {}  # the sums and pulls of the last run_phase or run_block

        def spy(run):
            def recording_run(sums, pulls, *args):
                seen.update(sums=sums, pulls=pulls)
                return run(sums, pulls, *args)
            return recording_run

        phases = []

        def eliminate_spy(active, estimates, radius):
            pulls = seen["pulls"]
            arms = [a for a, on in enumerate(active) if on]
            assert len({pulls[a] for a in arms}) == 1
            t = pulls[arms[0]] // m
            for a in arms:
                assert radius == confidence_radius(t, pulls[a], horizon,
                                                   params.sigma)
                assert estimates[a] == seen["sums"][a] / pulls[a]
            phases.append(t)
            return eliminate(active, estimates, radius)

        monkeypatch.setattr(bandit, "run_phase", spy(run_phase))
        monkeypatch.setattr(bandit, "run_block", spy(bandit.run_block))
        monkeypatch.setattr(bandit, "eliminate", eliminate_spy)
        trace = run_episode(inst, config, SeedSpec(21))
        assert phases == [t for _, t in trace.eliminations] == [151, 330]

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
        assert trace.cumulative_regret.tolist() == [0.0, trace.regret]


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


def _reference_fill(batches, horizon):
    """Per-user cumulative regret filled batch by batch, as the engine once
    kept it: the reference every recorded value must reproduce exactly."""
    cum = np.empty(horizon, dtype=np.float64)
    consumed = 0
    for take, gap in batches:
        base = cum[consumed - 1] if consumed > 0 else 0.0
        if gap == 0.0:
            cum[consumed:consumed + take] = base
        else:
            cum[consumed:consumed + take] = base + gap * np.arange(1, take + 1)
        consumed += take
    assert consumed == horizon
    return cum


@st.composite
def charges(draw):
    """Checkpoints, and the charges that pass them: ("one", pulls, gap) for
    `charge` and ("phases", pulls, gaps, count) for `charge_phases`."""
    gap = st.sampled_from([0.0, 0.0, 0.1, 0.25, 1 / 3, 0.7])
    calls = draw(st.lists(st.one_of(
        st.tuples(st.just("one"), st.integers(1, 40), gap),
        st.tuples(st.just("phases"), st.integers(1, 40),
                  st.lists(gap, min_size=1, max_size=5), st.integers(1, 6))),
        min_size=1, max_size=12))
    users = sum(c[1] if c[0] == "one" else c[1] * len(c[2]) * c[3]
                for c in calls)
    checkpoints = draw(st.lists(st.integers(1, users), unique=True))
    return sorted(checkpoints), calls


class TestRegretSegments:
    """The regret curve is linear along each batch; the values recorded at
    checkpoints are exactly those of filling it per user, batch by batch."""
    # arms 0 and 1 tie for best, so two arms have zero gap
    MEANS = [0.8, 0.8, 0.3, 0.55]

    @pytest.mark.parametrize("schedule,private", [
        (EngineConfig(m=7), False),
        (EngineConfig(m=30), True),
        (EngineConfig(), True),
    ])
    @pytest.mark.parametrize("horizon", [1, 997, 5001])
    def test_segments_equal_per_user_fill(self, monkeypatch, schedule,
                                          private, horizon):
        batches = []  # (pulls, gap) of every batch charged
        charge = RegretTrace.charge

        def recording_charge(trace, pulls, gap):
            batches.append((pulls, gap))
            return charge(trace, pulls, gap)

        charge_phases = RegretTrace.charge_phases

        def recording_charge_phases(trace, pulls, gaps, count):
            batches.extend((pulls, gap) for _ in range(count) for gap in gaps)
            return charge_phases(trace, pulls, gaps, count)

        monkeypatch.setattr(RegretTrace, "charge", recording_charge)
        monkeypatch.setattr(RegretTrace, "charge_phases",
                            recording_charge_phases)
        inst = make_instance(4, self.MEANS, horizon)
        config = replace(schedule, privacy=derive_params(0.9, 1e-2) if private
                         else None)
        trace = run_episode(inst, config, SeedSpec(31), range(1, horizon + 1))
        reference = _reference_fill(batches, horizon)
        np.testing.assert_array_equal(trace.cumulative_regret, reference)
        checkpoints = sorted({1, (horizon + 1) // 2, horizon})
        sparse = run_episode(inst, config, SeedSpec(31), checkpoints)
        np.testing.assert_array_equal(sparse.cumulative_regret,
                                      reference[np.array(checkpoints) - 1])
        assert trace.regret == sparse.regret == reference[-1]
        # every case ends on a batch cut short by the horizon
        full_sizes = {schedule.m or 2**phase for phase in range(1, 30)}
        assert batches[-1][0] not in full_sizes

    @given(charges())
    @settings(max_examples=200, deadline=None)
    def test_charge_phases_records_as_charge_does(self, case):
        checkpoints, calls = case
        trace, replay = RegretTrace(checkpoints), RegretTrace(checkpoints)
        for call in calls:
            if call[0] == "one":
                trace.charge(*call[1:])
                replay.charge(*call[1:])
            else:
                _, pulls, gaps, count = call
                trace.charge_phases(pulls, gaps, count)
                for gap in gaps * count:
                    replay.charge(pulls, gap)
        assert trace.users == replay.users
        assert trace.regret == replay.regret
        assert trace.cumulative_regret.tolist() == \
            replay.cumulative_regret.tolist()
        assert trace.cumulative_regret.size == len(checkpoints)

    def test_zero_gap_batches_keep_regret_flat(self):
        trace = RegretTrace(range(1, 20))
        for pulls, gap in [(5, 0.0), (5, 0.0), (3, 0.2), (2, 0.0), (4, 0.0)]:
            trace.charge(pulls, gap)
        np.testing.assert_array_equal(
            trace.cumulative_regret,
            [0.0] * 10 + [0.2, 0.4, 0.2 * 3] + [0.2 * 3] * 6)

    def test_checkpoints_record_only_once_charged(self):
        trace = RegretTrace([2, 9, 10])
        trace.charge(4, 0.5)
        assert trace.cumulative_regret.tolist() == [1.0]
        trace.charge_phases(3, [0.0, 0.25], 1)
        assert trace.cumulative_regret.tolist() == [1.0, 2.5, 2.75]

    def test_expansion_is_read_only(self):
        trace = RegretTrace([1, 2, 3])
        trace.charge(3, 0.25)
        with pytest.raises(ValueError):
            trace.cumulative_regret[0] = 1.0


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
        horizon, m = 1000, 10
        t_star = next(t for t in range(1, 200)
                      if 2 * confidence_radius(t, m * t, horizon, 0.0) < 1)
        inst = make_instance(2, [1.0, 0.0], horizon)
        config = EngineConfig(m=m)
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
        # the t_star phases of both arms and those of arm 0 alone run as
        # two blocks; run_phase runs only the phase the horizon cuts short
        assert trace.eliminations == [(1, t_star)]
        assert metrics["bandit.phases"] == 1
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
        # batches of 2, 4 and 8 users fill T = 14; the last is cut short by
        # the horizon, so only the first two are read
        sizes, read = [], []
        charge, draw = RegretTrace.charge, RewardTape.draw

        def recording_charge(trace, pulls, gap):
            sizes.append(pulls)
            return charge(trace, pulls, gap)

        def recording_draw(tape, batch_size):
            read.append(batch_size)
            return draw(tape, batch_size)

        monkeypatch.setattr(RegretTrace, "charge", recording_charge)
        monkeypatch.setattr(RewardTape, "draw", recording_draw)
        trace = run_episode(make_instance(1, [0.5], 14), EngineConfig(),
                            SeedSpec(3))
        assert sizes == [2, 4, 8]
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
