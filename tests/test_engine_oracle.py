"""The engine against a reference that draws every batch by scalar calls,
and against the exact law of its decisions.

`reference_episode` is the engine as it was before it drew runs of phases
ahead: per-arm pull counts, one reward sum by a scalar call on the arm's
`SeedSpec.reward_rng`, one `noisy_sum` and one radius per arm and batch,
and its own copy of the elimination rule over per-arm radii.  It shares no
code with `RewardTape`.  The engine must reproduce its outputs exactly, for
any instance, batch size, privacy and horizon.

A second reference of the same loop cannot catch an error that both share.
`reference.elimination_law` computes what the algorithm's decisions must
follow, exactly, and the engine's episodes are tested against it.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from shufflebandit import bandit
from shufflebandit.bandit import (RUN_CAP, EngineConfig, RegretTrace,
                                  confidence_radius, run_episode)
from shufflebandit.env import RewardTape, SeedSpec, make_instance
from shufflebandit.mechanism import derive_params

from reference import elimination_law, noisy_sum


def reference_phase(sums, pulls, active, rewards, noise, phase, config,
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
        trace.charge(take, gaps[a])
        pulls[a] += take
        if trace.users == horizon:
            break
        true_sum = int(rewards[a].binomial(m, instance.means[a]))
        if config.privacy is None:
            z = float(true_sum)
        else:
            z = noisy_sum(true_sum, m, config.privacy, noise[a]).value
        sums[a] += z
    return trace.users


def reference_episode(instance, config, seeds):
    k = instance.k
    horizon = instance.horizon
    sums = [0.0] * k
    pulls = [0] * k
    active = [True] * k
    rewards = [seeds.reward_rng(a) for a in range(k)]
    noise = ([seeds.noise_rng(a) for a in range(k)]
             if config.privacy is not None else None)
    trace = RegretTrace()
    sigma = config.sigma
    consumed = 0
    phase = 0
    while consumed < horizon:
        phase += 1
        consumed = reference_phase(sums, pulls, active, rewards, noise, phase,
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
    trace.arm_pulls_total = pulls
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


def _blocks_of(instance, config, seeds, monkeypatch):
    """The engine's trace against the reference, and (first phase, last
    phase, last phase run) of every block the engine ran."""
    blocks = []
    run_block = bandit.run_block

    def recording_run_block(*args):
        phases, phase = args[6], args[7]
        done, ahead = run_block(*args)
        blocks.append((phase + 1, phase + phases, done))
        return done, ahead

    with monkeypatch.context() as patch:
        patch.setattr(bandit, "run_block", recording_run_block)
        trace = assert_same_episode(instance, config, seeds)
    return trace, blocks


PRIVATE = derive_params(1.0, 0.5)  # sigma ~ 14.1


@pytest.mark.parametrize("privacy", [None, PRIVATE])
@pytest.mark.parametrize("k,means,m,horizon", [
    (1, [0.3], 1, 5000),  # 4,999 phases: blocks of RUN_CAP and one shorter
    # T ends where the phase after the last block ends, or one user into it
    (3, [0.5, 0.5, 0.5], 10, 3000),
    (3, [0.5, 0.5, 0.5], 10, 2971),
    (1, [0.3], 7, 701),
])
def test_blocks_match_reference(monkeypatch, privacy, k, means, m, horizon):
    inst = make_instance(k, means, horizon)
    trace, blocks = _blocks_of(inst, EngineConfig(m=m, privacy=privacy),
                               SeedSpec(17), monkeypatch)
    assert trace.eliminations == []
    # the blocks run every complete phase, RUN_CAP at a time; the phase the
    # horizon cuts short is charged after them
    complete = (horizon - 1) // (k * m)
    assert [(first, last) for first, last, _ in blocks] == [
        (p + 1, min(p + RUN_CAP, complete))
        for p in range(0, complete, RUN_CAP)]
    assert all(done == last for _, last, done in blocks)


@pytest.mark.parametrize("where,means,m,horizon,privacy,seed", [
    # arm 1 goes at phase 31; arm 2 at 32, the first phase of the next
    # block, read from the estimates the first block drew ahead
    ("first", [1.0, 0.0, 0.01], 2, 2000, None, 0),
    ("first", [1.0, 0.0, 0.0], 15, 30000, PRIVATE, 2),
    # the elimination is the last complete phase before the horizon
    ("last", [1.0, 0.0], 1, 70, None, 0),
    ("last", [1.0, 0.0], 15, 10380, PRIVATE, 0),
])
def test_block_eliminations_match_reference(monkeypatch, where, means, m,
                                            horizon, privacy, seed):
    inst = make_instance(len(means), means, horizon)
    trace, blocks = _blocks_of(inst, EngineConfig(m=m, privacy=privacy),
                               SeedSpec(seed), monkeypatch)
    eliminated = {phase for _, phase in trace.eliminations}
    hits = [(first, last) for first, last, done in blocks
            if done in eliminated
            and done == (first if where == "first" else last)]
    assert hits and all(first < last for first, last in hits)
    if where == "first":
        assert all(first > 1 for first, _ in hits)


def test_no_tape_call_draws_more_than_run_cap(monkeypatch):
    # at T = 1e6, sdp-ae at eps = 1 eliminates arms inside blocks, and the
    # baseline at m = 1 runs blocks of RUN_CAP phases
    counts = []
    draw = RewardTape.draw

    def recording_draw(tape, m, count=None):
        counts.append(count)
        return draw(tape, m, count)

    monkeypatch.setattr(RewardTape, "draw", recording_draw)
    inst = make_instance(5, [0.75, 0.625, 0.5, 0.375, 0.25], 10**6)
    params = derive_params(1.0, 1e-5)
    for config in (EngineConfig(m=math.ceil(params.sigma), privacy=params),
                   EngineConfig(m=1)):
        counts.clear()
        trace = run_episode(inst, config, SeedSpec(1))
        assert trace.eliminations
        sized = [count for count in counts if count is not None]
        assert sized and max(sized) <= RUN_CAP
    assert max(sized) == RUN_CAP


def test_engine_follows_the_exact_elimination_law():
    # ae-baseline with m = 1 on two arms at T = 200 runs 99 full phases;
    # the first elimination falls between phase 43 and 99, and the law puts
    # 1.6e-13 on a clean-event violation, which no episode here may show
    means, horizon, episodes = (0.9, 0.1), 200, 10_000
    law = elimination_law(means, horizon)
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
    inst = make_instance(2, list(means), horizon)
    seen = Counter()
    for run in range(episodes):
        trace = run_episode(inst, EngineConfig(m=1), SeedSpec(12345, run))
        arm, phase = (trace.eliminations[0] if trace.eliminations
                      else (None, None))
        seen[(phase, arm, trace.clean_event_violated)] += 1
    assert all(law.get(outcome, 0.0) > 0.0 for outcome in seen)
    # an outcome expected at least 5 times is a bin of its own; the rest
    # share one bin
    own = [o for o, p in law.items() if p * episodes >= 5]
    rest = [o for o in law if o not in own]
    expected = ([law[o] * episodes for o in own]
                + [sum(law[o] for o in rest) * episodes])
    observed = [seen[o] for o in own] + [sum(seen[o] for o in rest)]
    assert len(own) > 20 and expected[-1] >= 5
    chi2 = sum((o - e)**2 / e for o, e in zip(observed, expected))
    assert chdtrc(len(expected) - 1, chi2) > 1e-3
