"""The engine against a reference that draws every batch by scalar calls.

`reference_episode` is the engine as it was before it drew runs of phases
ahead: per-arm pull counts, one `noisy_sum` and one radius per arm and
batch, and its own copy of the elimination rule over per-arm radii.  The
engine must reproduce its outputs exactly, for any instance, batch size,
privacy and horizon.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflebandit.bandit import (EngineConfig, RegretTrace, confidence_radius,
                                  run_episode)
from shufflebandit.env import SeedSpec, make_instance, make_tapes
from shufflebandit.mechanism import derive_params, noisy_sum


def reference_phase(sums, pulls, active, tapes, noise, phase, config,
                    instance, trace):
    m = config.m if config.m is not None else 2**phase
    gaps = instance.gaps
    horizon = instance.horizon
    for a in range(instance.k):
        if not active[a]:
            continue
        remaining = horizon - trace.users
        if remaining == 0:
            break
        take = min(m, remaining)
        true_sum = tapes[a].draw(take)
        trace.charge(take, gaps[a])
        if trace.users == horizon:
            break
        if config.privacy is None:
            z = float(true_sum)
        else:
            z = noisy_sum(true_sum, m, config.privacy, noise[a]).value
        sums[a] += z
        pulls[a] += m
    return trace.users


def reference_episode(instance, config, seeds):
    k = instance.k
    horizon = instance.horizon
    sums = [0.0] * k
    pulls = [0] * k
    active = [True] * k
    tapes = make_tapes(instance, seeds)
    noise = ([seeds.noise_rng(a) for a in range(k)]
             if config.privacy is not None else None)
    trace = RegretTrace()
    sigma = config.sigma
    consumed = 0
    phase = 0
    while consumed < horizon:
        phase += 1
        consumed = reference_phase(sums, pulls, active, tapes, noise, phase,
                                   config, instance, trace)
        if consumed >= horizon:
            break
        estimates = [0.0] * k
        radii = [0.0] * k
        for a in range(k):
            if active[a]:
                estimates[a] = sums[a] / pulls[a]
                radii[a] = confidence_radius(phase, pulls[a], horizon, sigma)
                if abs(estimates[a] - instance.means[a]) > radii[a]:
                    trace.clean_event_violated = True
        # each arm's own radius: UCB strictly below the best LCB goes
        arms = [a for a in range(k) if active[a]]
        best_lcb = max(estimates[a] - radii[a] for a in arms)
        for a in arms:
            if estimates[a] + radii[a] < best_lcb:
                active[a] = False
                trace.eliminations.append((a, phase))
    trace.arm_pulls_total = [tape.cursor for tape in tapes]
    return trace


def assert_same_episode(instance, config, seeds):
    got = run_episode(instance, config, seeds)
    want = reference_episode(instance, config, seeds)
    assert got.eliminations == want.eliminations
    assert got.clean_event_violated == want.clean_event_violated
    assert got.arm_pulls_total == want.arm_pulls_total
    assert got.users == want.users == instance.horizon
    assert got.regret == want.regret
    assert list(got.starts) == list(want.starts)
    assert list(got.bases) == list(want.bases)
    assert list(got.gaps) == list(want.gaps)
    return got


# 0 and 1 give deterministic rewards; repeats give tied means
MEANS = st.sampled_from([0.0, 1.0, 0.5, 0.9, 0.1, 0.75, 0.25])


@st.composite
def episodes(draw):
    k = draw(st.integers(1, 5))
    means = draw(st.lists(MEANS, min_size=k, max_size=k))
    m = draw(st.one_of(st.none(), st.integers(1, 60)))
    privacy = draw(st.one_of(
        st.none(),
        st.builds(derive_params, st.sampled_from([0.25, 0.5, 1.0]),
                  st.sampled_from([1e-5, 1e-2, 0.5]))))
    horizon = draw(st.integers(1, 6000))
    if draw(st.booleans()):
        # end exactly where a phase of all k arms ends
        if m is not None:
            horizon = max(1, horizon // (k * m)) * k * m
        else:
            phases = max(1, (horizon // k + 2).bit_length() - 2)
            horizon = k * (2**(phases + 1) - 2)
    seed = draw(st.integers(0, 2**32))
    return (make_instance(k, means, horizon), EngineConfig(m=m, privacy=privacy),
            SeedSpec(seed, draw(st.integers(0, 3))))


@given(episodes())
@settings(max_examples=150, deadline=None)
@example((make_instance(2, [1.0, 0.0], 1000), EngineConfig(m=10),
          SeedSpec(11)))
@example((make_instance(2, [0.5, 0.5], 28), EngineConfig(), SeedSpec(0)))
@example((make_instance(1, [0.5], 1), EngineConfig(), SeedSpec(0)))
@example((make_instance(3, [0.5, 0.5, 0.5], 1), EngineConfig(m=4),
          SeedSpec(0)))
# more than one run of drawn-ahead phases, noiseless and private
@example((make_instance(1, [0.5], 3000), EngineConfig(m=1), SeedSpec(2)))
@example((make_instance(2, [0.9, 0.1], 5000),
          EngineConfig(m=1, privacy=derive_params(1.0, 0.5)), SeedSpec(3)))
def test_engine_matches_reference(case):
    assert_same_episode(*case)


def test_private_eliminations_match_reference():
    # private cells whose elimination phases the noise decides, with
    # eliminations inside a run of phases drawn ahead
    params = derive_params(1.0, 1e-2)
    inst = make_instance(3, [0.9, 0.5, 0.1], 100000)
    for config in (EngineConfig(m=math.ceil(params.sigma), privacy=params),
                   EngineConfig(privacy=params)):
        phases = set()
        for seed in range(4):
            trace = assert_same_episode(inst, config, SeedSpec(606, seed))
            phases.update(phase for _, phase in trace.eliminations)
        assert len(phases) > 1


def test_regret_at_checkpoints_matches_reference():
    inst = make_instance(5, [0.75, 0.625, 0.5, 0.375, 0.25], 10000)
    config = EngineConfig(m=42)
    got = run_episode(inst, config, SeedSpec(606, 1))
    want = reference_episode(inst, config, SeedSpec(606, 1))
    users = np.arange(1, 10001)
    np.testing.assert_array_equal(got.at(users), want.at(users))
