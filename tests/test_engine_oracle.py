"""The engine against a reference that draws every batch by scalar calls,
and against the exact law of its decisions.

`reference_episode` is the engine as it was before it drew runs of phases
ahead: per-arm pull counts, one reward sum by a scalar call on the arm's
`SeedSpec.reward_rng`, one `noisy_sum` and one radius per arm and batch,
and its own copy of the elimination rule over per-arm radii.  It counts
the pulls up to the T-th, and sums the regret exactly, in integers over
the gaps' common denominator.  It shares no code with `RewardTape`,
`pulls_at` or `regret_at`.  The engine must reproduce its outputs exactly,
for any instance, batch size, privacy and horizon.

A second reference of the same loop cannot catch an error that both share.
`reference.elimination_law` computes what the algorithm's decisions must
follow, exactly, and the engine's episodes are tested against it.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import chdtrc

from shufflebandit import bandit
from shufflebandit.bandit import (RUN_CAP, EngineConfig, Episode,
                                  confidence_radius, pulls_at, run_episode)
from shufflebandit.env import BanditInstance, RewardTape, SeedSpec
from shufflebandit.mechanism import derive_params

from reference import batch_schedule, elimination_law, noisy_sum


class Tally:
    """Users so far, and each arm's pulls and the exact regret after each
    checkpoint, found user by user."""

    def __init__(self, instance, checkpoints):
        gaps = [max(map(Fraction, instance.means)) - Fraction(mu)
                for mu in instance.means]
        self.scale = math.lcm(*(g.denominator for g in gaps))
        self.units = [int(g * self.scale) for g in gaps]  # gaps * scale
        self.due = set(checkpoints)
        self.users = self.regret = 0  # regret * scale
        self.rows, self.at = [], []

    def pull(self, pulls, a, take):
        """Count a batch of `take` pulls of arm a."""
        first, unit = self.users, self.units[a]
        for user in range(first + 1, first + take + 1):
            if user in self.due:
                n = user - first
                self.rows.append([p + n * (b == a)
                                  for b, p in enumerate(pulls)])
                self.at.append((self.regret + unit * n) / self.scale)
        pulls[a] += take
        self.users += take
        self.regret += unit * take


def reference_phase(sums, pulls, active, rewards, noise, phase, config,
                    instance, tally):
    m = config.m if config.m is not None else 2**phase
    for a in range(instance.k):
        if not active[a]:
            continue
        tally.pull(pulls, a, min(m, instance.horizon - tally.users))
        if tally.users == instance.horizon:
            # the T-th pull exits before the communication step
            return tally.users
        true_sum = int(rewards[a].binomial(m, instance.means[a]))
        if config.privacy is None:
            z = float(true_sum)
        else:
            z = noisy_sum(true_sum, m, config.privacy, noise[a]).value
        sums[a] += z
    return tally.users


def reference_episode(instance, config, seeds, checkpoints=()):
    k = instance.k
    horizon = instance.horizon
    sums = [0.0] * k
    pulls = [0] * k
    active = [True] * k
    rewards = [seeds.reward_rng(a) for a in range(k)]
    noise = ([seeds.noise_rng(a) for a in range(k)]
             if config.privacy is not None else None)
    tally = Tally(instance, checkpoints)
    eliminations, violated = [], False
    sigma = config.privacy.sigma if config.privacy is not None else 0.0
    consumed = 0
    phase = 0
    while consumed < horizon:
        phase += 1
        consumed = reference_phase(sums, pulls, active, rewards, noise, phase,
                                   config, instance, tally)
        if consumed >= horizon:
            break
        estimates = [0.0] * k
        radii = [0.0] * k
        for a in range(k):
            if active[a]:
                estimates[a] = sums[a] / pulls[a]
                radii[a] = confidence_radius(phase, pulls[a], horizon, sigma)
                if abs(estimates[a] - instance.means[a]) > radii[a]:
                    violated = True
        # each arm's own radius: UCB strictly below the best LCB goes
        arms = [a for a in range(k) if active[a]]
        best_lcb = max(estimates[a] - radii[a] for a in arms)
        for a in arms:
            if estimates[a] + radii[a] < best_lcb:
                active[a] = False
                eliminations.append((a, phase))
    return Episode(eliminations, violated, pulls, np.array(tally.at)), tally


def assert_same_episode(instance, config, seeds, users=None):
    """The engine's episode equals the reference's, with the pulls and the
    regret after each of `users`, by default every user."""
    users = users or range(1, instance.horizon + 1)
    got = run_episode(instance, config, seeds, users)
    want, tally = reference_episode(instance, config, seeds, users)
    assert got.eliminations == want.eliminations
    assert got.clean_event_violated == want.clean_event_violated
    assert got.arm_pulls_total == want.arm_pulls_total
    assert tally.users == instance.horizon
    assert got.cumulative_regret.tolist() == want.cumulative_regret.tolist()
    assert pulls_at(instance.k, config.m, got.eliminations, users) == \
        tally.rows
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
    return (BanditInstance(k, means, horizon),
            EngineConfig(m=m, privacy=privacy),
            SeedSpec(seed, draw(st.integers(0, 3))))


@given(episodes())
@settings(max_examples=150, deadline=None)
@example((BanditInstance(2, [1.0, 0.0], 1000), EngineConfig(m=10),
          SeedSpec(11)))
@example((BanditInstance(2, [0.5, 0.5], 28), EngineConfig(), SeedSpec(0)))
@example((BanditInstance(1, [0.5], 1), EngineConfig(), SeedSpec(0)))
@example((BanditInstance(3, [0.5, 0.5, 0.5], 1), EngineConfig(m=4),
          SeedSpec(0)))
# more than one block, noiseless and private
@example((BanditInstance(1, [0.5], 3000), EngineConfig(m=1), SeedSpec(2)))
@example((BanditInstance(2, [0.9, 0.1], 5000),
          EngineConfig(m=1, privacy=derive_params(1.0, 0.5)), SeedSpec(3)))
def test_engine_matches_reference(case):
    assert_same_episode(*case)


def test_private_eliminations_match_reference():
    # private cells whose elimination phases the noise decides, with
    # eliminations inside a block; the pulls and regret are compared at
    # the users on both sides of every batch boundary, and at a stride
    params = derive_params(1.0, 1e-2)
    inst = BanditInstance(3, [0.9, 0.5, 0.1], 100000)
    for config in (EngineConfig(m=math.ceil(params.sigma), privacy=params),
                   EngineConfig(privacy=params)):
        phases = set()
        for seed in range(4):
            want, _ = reference_episode(inst, config, SeedSpec(606, seed))
            batches = batch_schedule(3, config.m, want.eliminations,
                                     inst.horizon)
            ends = itertools.accumulate(take for _, _, take in batches)
            users = sorted({user for end in ends
                            for user in (end - 1, end, end + 1)
                            if 0 < user <= inst.horizon}
                           | set(range(1, inst.horizon + 1, 97)))
            trace = assert_same_episode(inst, config, SeedSpec(606, seed),
                                        users)
            phases.update(phase for _, phase in trace.eliminations)
        assert len(phases) > 1


def test_regret_at_checkpoints_matches_reference():
    inst = BanditInstance(5, [0.75, 0.625, 0.5, 0.375, 0.25], 10000)
    config = EngineConfig(m=42)
    checkpoints = [1, 42, 43, 999, 5000, 9999, 10000]
    got = run_episode(inst, config, SeedSpec(606, 1), checkpoints)
    want, _ = reference_episode(inst, config, SeedSpec(606, 1),
                                range(1, 10001))
    np.testing.assert_array_equal(
        got.cumulative_regret,
        want.cumulative_regret[np.array(checkpoints) - 1])


def _blocks_of(instance, config, seeds, monkeypatch):
    """The engine's trace against the reference, and (first phase, last
    phase, eliminating phases) of every block the engine ran.

    The blocks must run the complete phases of the episode's batch
    schedule in order, each block pulling its phases' users, and nothing
    else may run a phase."""
    blocks = []
    run_block = bandit.run_block

    def recording_run_block(sums, active, tapes, m, phases, phase, *args):
        eliminations = args[-1]
        before = len(eliminations)
        users, violated = run_block(sums, active, tapes, m, phases, phase,
                                    *args)
        blocks.append((phase + 1, phase + phases, users,
                       sorted({p for _, p in eliminations[before:]})))
        return users, violated

    with monkeypatch.context() as patch:
        patch.setattr(bandit, "run_block", recording_run_block)
        # constant batches never run a phase alone: a call fails
        patch.setattr(bandit, "run_phase", None)
        trace = assert_same_episode(instance, config, seeds)
    batches = batch_schedule(instance.k, config.m, trace.eliminations,
                             instance.horizon)
    cut = batches[-1][0]  # the phase the horizon cuts short never runs
    assert [p for first, last, *_ in blocks
            for p in range(first, last + 1)] == list(range(1, cut))
    for first, last, users, _ in blocks:
        assert users == sum(take for p, _, take in batches
                            if first <= p <= last)
    return trace, [(first, last, hits) for first, last, _, hits in blocks]


PRIVATE = derive_params(1.0, 0.5)  # sigma ~ 14.1


@pytest.mark.parametrize("privacy", [None, PRIVATE])
@pytest.mark.parametrize("k,means,m,horizon", [
    (1, [0.3], 1, 5000),  # 4,999 phases: blocks of RUN_CAP and one shorter
    # T ends where the phase after the last block ends, or one user into it
    (3, [0.5, 0.5, 0.5], 10, 3000),
    (3, [0.5, 0.5, 0.5], 10, 2971),
    (1, [0.3], 7, 701),
    (1, [0.3], 1, RUN_CAP + 2),  # a last block of one phase
])
def test_blocks_match_reference(monkeypatch, privacy, k, means, m, horizon):
    inst = BanditInstance(k, means, horizon)
    trace, blocks = _blocks_of(inst, EngineConfig(m=m, privacy=privacy),
                               SeedSpec(17), monkeypatch)
    assert trace.eliminations == []
    # the blocks run every complete phase, RUN_CAP at a time; the phase the
    # horizon cuts short never runs
    complete = (horizon - 1) // (k * m)
    assert [(first, last) for first, last, _ in blocks] == [
        (p + 1, min(p + RUN_CAP, complete))
        for p in range(0, complete, RUN_CAP)]


@pytest.mark.parametrize("where,means,m,horizon,privacy,seed", [
    # arm 1 goes at phase 31 and arm 2 at 32, inside the first block, which
    # tests its phases from 32 on again with arms 0 and 2
    ("inside", [1.0, 0.0, 0.01], 2, 2000, None, 0),
    ("inside", [1.0, 0.0, 0.0], 15, 30000, PRIVATE, 2),
    # the elimination is the block's last phase, and a block of the one
    # phase left before the horizon follows it
    ("last", [1.0, 0.0], 1, 70, None, 0),
    ("last", [1.0, 0.0], 15, 10380, PRIVATE, 0),
    # arm 1 goes at phase 39 of the first block, of phases 1 to 40, and
    # arm 2 in the last block, of the one phase 41
    ("alone", [1.0, 0.0, 1 / 32], 1, 122, None, 0),
])
def test_block_eliminations_match_reference(monkeypatch, where, means, m,
                                            horizon, privacy, seed):
    inst = BanditInstance(len(means), means, horizon)
    trace, blocks = _blocks_of(inst, EngineConfig(m=m, privacy=privacy),
                               SeedSpec(seed), monkeypatch)
    assert sorted({phase for _, phase in trace.eliminations}) == \
        [p for _, _, hits in blocks for p in hits]
    if where == "inside":
        assert any(len(hits) > 1 and hits[0] < last
                   for _, last, hits in blocks)
    elif where == "last":
        assert any(hits == [last] for _, last, hits in blocks)
        assert blocks[-1][0] == blocks[-1][1]
    else:
        assert len(blocks) > 1 and blocks[0][2]
        first, last, hits = blocks[-1]
        assert first == last and hits == [last]


def test_no_tape_call_draws_more_than_run_cap(monkeypatch):
    # at T = 1e6, sdp-ae at eps = 1 eliminates arms inside blocks, and the
    # baseline at m = 1 runs blocks of RUN_CAP phases
    counts = []
    draw = RewardTape.draw

    def recording_draw(tape, m, count=None):
        counts.append(count)
        return draw(tape, m, count)

    monkeypatch.setattr(RewardTape, "draw", recording_draw)
    inst = BanditInstance(5, [0.75, 0.625, 0.5, 0.375, 0.25], 10**6)
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
    inst = BanditInstance(2, list(means), horizon)
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
