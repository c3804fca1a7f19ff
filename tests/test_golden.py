"""Golden streams: exact engine outputs for fixed seeds.

An engine refactor that must leave every random stream and every output
byte unchanged runs this file unchanged before and after.  Any change to
the order of the draws, or to the arithmetic of estimates, radii and
elimination, changes some value here.  The desk-scale private cells never
eliminate, so their outputs hardly depend on the noise; the two-arm private
cells eliminate at a phase that the noise draws decide.
"""

import pytest

from shufflebandit.env import SeedSpec
from shufflebandit.harness import ExperimentConfig, engine_config, run_episode
from shufflebandit.mechanism import derive_params

from golden_pins import needs_numpy

pytestmark = needs_numpy

CONFIGS = {
    # the instance of scripts/configs/desk.cfg
    "desk": ExperimentConfig(
        k=5, means=(0.75, 0.625, 0.5, 0.375, 0.25), horizon=10000,
        variants=("sdp-ae", "vb-sdp-ae", "ae-baseline"),
        epsilons=(0.25, 1.0), deltas=(1e-5,), seeds=2, master_seed=606,
        checkpoints=(1000, 2500, 5000, 10000), output="", baseline_m=42),
    # noiseless and deterministic rewards: arm 1 goes at a fixed phase
    "two": ExperimentConfig(
        k=2, means=(1.0, 0.0), horizon=1000, variants=("ae-baseline",),
        epsilons=(), deltas=(), seeds=2, master_seed=606,
        checkpoints=(250, 500, 1000), output="", baseline_m=10),
    "private_two": ExperimentConfig(
        k=2, means=(0.9, 0.1), horizon=100000,
        variants=("sdp-ae", "vb-sdp-ae"), epsilons=(1.0,), deltas=(1e-5,),
        seeds=2, master_seed=606, checkpoints=(10000, 50000, 100000),
        output=""),
}

# (config, variant, epsilon, seed): (regret at the horizon, regret at the
# checkpoints, eliminations, arm_pulls_total, clean_event_violated); delta
# is 1e-5
GOLDEN = {
    ('desk', 'sdp-ae', 0.25, 0): (
        2480.0,
        [210.0, 620.0, 1240.0, 2480.0],
        [],
        [2016, 2016, 2016, 2016, 1936], False),
    ('desk', 'sdp-ae', 0.25, 1): (
        2480.0,
        [210.0, 620.0, 1240.0, 2480.0],
        [],
        [2016, 2016, 2016, 2016, 1936], False),
    ('desk', 'sdp-ae', 1.0, 0): (
        2484.75,
        [238.5, 620.0, 1240.0, 2484.75],
        [],
        [2016, 2016, 2016, 1978, 1974], False),
    ('desk', 'sdp-ae', 1.0, 1): (
        2484.75,
        [238.5, 620.0, 1240.0, 2484.75],
        [],
        [2016, 2016, 2016, 1978, 1974], False),
    ('desk', 'vb-sdp-ae', 0.25, 0): (
        2442.5,
        [202.0, 612.5, 1222.5, 2442.5],
        [],
        [2046, 2046, 2046, 2046, 1816], False),
    ('desk', 'vb-sdp-ae', 0.25, 1): (
        2442.5,
        [202.0, 612.5, 1222.5, 2442.5],
        [],
        [2046, 2046, 2046, 2046, 1816], False),
    ('desk', 'vb-sdp-ae', 1.0, 0): (
        2442.5,
        [202.0, 612.5, 1222.5, 2442.5],
        [],
        [2046, 2046, 2046, 2046, 1816], False),
    ('desk', 'vb-sdp-ae', 1.0, 1): (
        2442.5,
        [202.0, 612.5, 1222.5, 2442.5],
        [],
        [2046, 2046, 2046, 2046, 1816], False),
    ('desk', 'ae-baseline', None, 0): (
        934.5,
        [238.5, 493.75, 708.75, 934.5],
        [(4, 5), (3, 10), (2, 22), (1, 84)],
        [4918, 3528, 924, 420, 210], False),
    ('desk', 'ae-baseline', None, 1): (
        1223.25,
        [238.5, 556.5, 903.0, 1223.25],
        [(4, 7), (3, 16), (2, 33)],
        [3826, 3822, 1386, 672, 294], False),
    ('two', 'ae-baseline', None, 0): (
        60.0,
        [60.0, 60.0, 60.0],
        [(1, 6)],
        [940, 60], False),
    ('two', 'ae-baseline', None, 1): (
        60.0,
        [60.0, 60.0, 60.0],
        [(1, 6)],
        [940, 60], False),
    ('private_two', 'sdp-ae', 1.0, 0): (
        22344.0,
        [3998.4, 19992.0, 22344.0],
        [(1, 665)],
        [72070, 27930], False),
    ('private_two', 'sdp-ae', 1.0, 1): (
        21403.2,
        [3998.4, 19992.0, 21403.2],
        [(1, 637)],
        [73246, 26754], False),
    ('private_two', 'vb-sdp-ae', 1.0, 0): (
        6552.0,
        [3275.2000000000003, 6552.0, 6552.0],
        [(1, 12)],
        [91810, 8190], False),
    ('private_two', 'vb-sdp-ae', 1.0, 1): (
        3275.2000000000003,
        [3275.2000000000003, 3275.2000000000003, 3275.2000000000003],
        [(1, 11)],
        [95906, 4094], False),
}


@pytest.mark.parametrize("key", list(GOLDEN),
                         ids=lambda key: "-".join(map(str, key)))
def test_episode_outputs_are_pinned(key):
    name, variant, eps, seed = key
    config = CONFIGS[name]
    params = None if eps is None else derive_params(eps, 1e-5)
    trace = run_episode(config.instance(),
                        engine_config(config, variant, params),
                        SeedSpec(606, seed), config.checkpoints)
    regret, at, eliminations, pulls, violated = GOLDEN[key]
    # the last checkpoint is the horizon: the episode's final regret
    assert config.checkpoints[-1] == config.horizon
    assert trace.cumulative_regret[-1] == regret
    assert trace.cumulative_regret.tolist() == at
    assert trace.eliminations == eliminations
    assert trace.arm_pulls_total == pulls
    assert trace.clean_event_violated == violated
