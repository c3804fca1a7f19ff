"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The regret experiments here are the heavy part (several minutes
total on one core).
"""

import math

import numpy as np
import pytest

from shufflebandit.audit import hockey_stick
from shufflebandit.bandit import EngineConfig, confidence_radius, run_episode
from shufflebandit.env import SeedSpec, make_instance
from shufflebandit.harness import parse_config, run_experiment
from shufflebandit.mechanism import PrivacyParams, derive_params, private_sum

from reference import brute_force_shuffle_divergence

MEANS5 = [0.75, 0.625, 0.5, 0.375, 0.25]


def report(criterion: str, passed: bool, detail: str) -> bool:
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    return passed


def _mech_errors(m: int, params: PrivacyParams, runs: int,
                 master: int) -> np.ndarray:
    bits = np.zeros(m, dtype=np.int8)
    bits[:m // 2] = 1
    s = int(bits.sum())
    rng = np.random.default_rng(master)
    return np.array([private_sum(bits, params, rng).error(s)
                     for _ in range(runs)])


@pytest.fixture(scope="module")
def mech_samples():
    params = derive_params(0.8, 1e-3)
    runs = 10**5
    return params, {m: _mech_errors(m, params, runs, 2024) for m in (3, 300)}


@pytest.fixture(scope="module")
def clean_event_runs():
    # criterion 6 workload, shared with criterion 7
    instance = make_instance(5, MEANS5, 10**4)
    params = derive_params(1.0, 1e-5)
    configs = {
        "sdp-ae": EngineConfig(m=math.ceil(params.sigma), privacy=params),
        "vb-sdp-ae": EngineConfig(privacy=params),
    }
    traces = {name: [run_episode(instance, config, SeedSpec(606, seed))
                     for seed in range(1000)]
              for name, config in configs.items()}
    return instance, traces


def test_criterion_1_exact_privacy_audit():
    worst = 0.0
    cells = 0
    ok = True
    for eps in (0.3, 0.9):
        for delta in (1e-2, 1e-5):
            params = derive_params(eps, delta)
            tau_ceil = math.ceil(params.tau)
            for m in (1, 5, tau_ceil, 4 * tau_ceil):
                rep = hockey_stick(m, params)
                cells += 1
                div = max(rep.divergence_forward, rep.divergence_backward)
                worst = max(worst, div / delta)
                ok = ok and rep.passed
    assert report("1 (exact privacy audit)", ok,
                  f"{cells} cells, worst divergence/delta = {worst:.3e}")


def test_criterion_2_unbiasedness(mech_samples):
    params, errors = mech_samples
    ok = True
    details = []
    for m, errs in errors.items():
        tol = 4 * params.sigma / math.sqrt(errs.size)
        mean = errs.mean()
        ok = ok and abs(mean) < tol
        details.append(f"m={m}: mean error {mean:+.4f} (tol {tol:.4f})")
    assert report("2 (mechanism unbiasedness)", ok, "; ".join(details))


def test_criterion_3_sub_gaussian_tails(mech_samples):
    params, errors = mech_samples
    sigma = params.sigma
    ok = True
    details = []
    for m, errs in errors.items():
        for t in (1, 2, 3):
            frac = float(np.mean(np.abs(errs) >= t * sigma))
            bound = 2 * math.exp(-t * t / 2) + 0.01
            ok = ok and frac <= bound
            details.append(f"m={m},t={t}: {frac:.4f}<={bound:.4f}")
    assert report("3 (sub-Gaussian tails)", ok, "; ".join(details))


def test_criterion_4_input_independence():
    params = derive_params(0.8, 1e-3)
    ok = True
    for m in (3, 300):
        zeros = np.zeros(m, dtype=np.int8)
        ones = np.ones(m, dtype=np.int8)
        for run in range(1000):
            e0 = private_sum(zeros, params,
                             np.random.default_rng((m, run))).error(0)
            e1 = private_sum(ones, params,
                             np.random.default_rng((m, run))).error(m)
            if e0 != e1:
                ok = False
                break
    assert report("4 (input-independence)", ok,
                  "errors bit-identical for all-zeros vs all-ones over "
                  "10^3 shared noise streams, m in {3, 300}")


def test_criterion_5_sufficiency_cross_check():
    # m = 1 with a shrunken noise budget so p = ceil(tau) = 4 <= 4
    params = PrivacyParams(0.8, 0.05, tau=3.2, sigma2=4.8)
    rep = hockey_stick(1, params)
    fwd, bwd = brute_force_shuffle_divergence(params)
    diff = max(abs(fwd - rep.divergence_forward),
               abs(bwd - rep.divergence_backward))
    assert report("5 (sufficiency cross-check)", diff <= 1e-12,
                  f"multiset vs sum-statistic divergence differ by {diff:.2e}")


def test_criterion_6_clean_event_frequency(clean_event_runs):
    _, traces = clean_event_runs
    ok = True
    details = []
    for name, runs in traces.items():
        violations = sum(tr.clean_event_violated for tr in runs)
        ok = ok and violations <= 1
        details.append(f"{name}: {violations}/1000 violations")
    assert report("6 (clean-event frequency)", ok, "; ".join(details))


def test_criterion_7_optimal_arm_safety(clean_event_runs):
    instance, traces = clean_event_runs
    best = instance.best_arm
    exceptions = 0
    for runs in traces.values():
        for tr in runs:
            if not tr.clean_event_violated:
                if any(arm == best for arm, _ in tr.eliminations):
                    exceptions += 1
    assert report("7 (optimal-arm safety)", exceptions == 0,
                  f"{exceptions} clean runs eliminated the optimal arm")


def test_criterion_8_log_t_regret_growth():
    params = derive_params(1.0, 1e-5)
    seeds = 100
    regrets = {}
    for horizon in (10**4, 4 * 10**4):
        instance = make_instance(5, MEANS5, horizon)
        config = EngineConfig(privacy=params)
        regrets[horizon] = np.mean(
            [run_episode(instance, config, SeedSpec(808, s),
                         [horizon]).cumulative_regret[0]
             for s in range(seeds)])
    ratio = regrets[4 * 10**4] / regrets[10**4]
    assert report("8 (log-T regret growth)", ratio <= 3.0,
                  f"mean regret {regrets[10**4]:.1f} at T=1e4, "
                  f"{regrets[4 * 10**4]:.1f} at T=4e4, ratio {ratio:.3f} "
                  f"(required <= 3)")


def test_criterion_9_epsilon_scaling_separation():
    horizon = 10**5
    seeds = 100
    instance = make_instance(5, MEANS5, horizon)
    mean_regret = {}
    for eps in (0.25, 1.0):
        params = derive_params(eps, 1e-5)
        for name, m in (("sdp-ae", math.ceil(params.sigma)),
                        ("vb-sdp-ae", None)):
            config = EngineConfig(m=m, privacy=params)
            mean_regret[(name, eps)] = np.mean(
                [run_episode(instance, config, SeedSpec(909, s),
                             [horizon]).cumulative_regret[0]
                 for s in range(seeds)])
    sdp_inc = mean_regret[("sdp-ae", 0.25)] - mean_regret[("sdp-ae", 1.0)]
    vb_inc = mean_regret[("vb-sdp-ae", 0.25)] - mean_regret[("vb-sdp-ae", 1.0)]
    assert report("9 (epsilon-scaling separation)", sdp_inc >= 2 * vb_inc,
                  f"regret increase eps 1.0 -> 0.25: sdp-ae {sdp_inc:+.1f}, "
                  f"vb-sdp-ae {vb_inc:+.1f} (required sdp >= 2 * vb)")


def test_criterion_10_baseline_closed_form():
    horizon, m = 1000, 10
    # closed form: with exact mean estimates and gap 1, arm 2 is eliminated
    # at the first phase where UCB_2 = I < 1 - I = LCB_1, i.e. 2 I < 1
    t_star = next(t for t in range(1, 500)
                  if 2 * confidence_radius(t, m * t, horizon, 0.0) < 1)
    instance = make_instance(2, [1.0, 0.0], horizon)
    config = EngineConfig(m=m)
    trace = run_episode(instance, config, SeedSpec(1010))
    pulls = trace.arm_pulls_total[1]
    ok = pulls == m * t_star and trace.eliminations == [(1, t_star)]
    assert report("10 (baseline closed form)", ok,
                  f"arm 2 pulled {pulls} times, closed form {m * t_star} "
                  f"(elimination phase {t_star})")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"""\
k = 5
means = 0.75, 0.625, 0.5, 0.375, 0.25
horizon = 10000
variants = sdp-ae, vb-sdp-ae
epsilons = 1.0
deltas = 1e-5
seeds = 1000
master_seed = 606
checkpoints = 2500, 5000, 10000
output = {tmp_path / 'out'}
""")
    config = parse_config(str(cfg))
    run_experiment(config)
    first = (tmp_path / "out" / "results.csv").read_bytes()
    run_experiment(config)
    second = (tmp_path / "out" / "results.csv").read_bytes()
    assert report("11 (determinism)", first == second,
                  f"results.csv identical across runs "
                  f"({len(first)} bytes)")
