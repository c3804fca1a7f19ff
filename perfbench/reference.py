"""Re-measure the per-episode reference table of ROADMAP.md with the tracer.

Run from the root of a checkout:

    python3 perfbench/reference.py

For each row (k = 5, means .75 .. .25, delta = 1e-5) it runs three seeded
episodes (one for ae-baseline at T = 1e5) through the library's public
engine entry point, first untraced and then with every layer wrapped.  It
prints the median wall time per episode of both, the share of traced
episode time spent in private_sum and in seed derivation, and the mean time
per private_sum call.
"""

from __future__ import annotations

import os
import statistics
import sys
from time import perf_counter

import tracer as tracing

EPISODES = 3
MEANS = [0.75, 0.625, 0.5, 0.375, 0.25]
ROWS = [("sdp-ae", 10**4, 1.0), ("sdp-ae", 10**4, 0.25),
        ("vb-sdp-ae", 10**4, 1.0), ("vb-sdp-ae", 10**4, 0.25),
        ("sdp-ae", 10**5, 1.0), ("sdp-ae", 10**5, 0.25),
        ("vb-sdp-ae", 10**5, 1.0), ("vb-sdp-ae", 10**5, 0.25),
        ("ae-baseline", 10**4, None), ("ae-baseline", 10**5, None)]


def _episodes(harness, variant, horizon, eps, count):
    """Median wall time of `count` seeded episodes of one table row."""
    from shufflebandit.env import SeedSpec
    from shufflebandit.mechanism import derive_params

    config = harness.ExperimentConfig(
        k=5, means=tuple(MEANS), horizon=horizon, variants=(variant,),
        epsilons=(), deltas=(), seeds=1, master_seed=606,
        checkpoints=(horizon,), output="", baseline_m=1)
    params = None if eps is None else derive_params(eps, 1e-5)
    econf = harness.engine_config(config, variant, params)
    times = []
    for seed in range(count):
        t0 = perf_counter()
        harness.run_episode(config.instance(), econf, SeedSpec(606, seed))
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, os.path.abspath("src"))
    from shufflebandit import harness

    tracer = tracing.Tracer()
    print("| variant | T | eps | ms per episode, untraced | traced "
          "| private_sum share | seed derivation share "
          "| private_sum ms per call |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for row in ROWS:
        # ae-baseline at T = 1e5 takes seconds per episode: one is enough
        n = 1 if row[0] == "ae-baseline" and row[1] > 10**4 else EPISODES
        _episodes(harness, *row, 1)  # warm-up
        untraced = _episodes(harness, *row, n)
        before = tracing.layer_metrics(tracer)
        uninstall = tracing.install(tracer)
        try:
            traced = _episodes(harness, *row, n)
        finally:
            uninstall()
        m = {name: value - before[name]
             for name, value in tracing.layer_metrics(tracer).items()}
        total = m["bandit.episode_s"]
        calls = m["mechanism.private_sum_calls"]
        per_call = (f"{1e3 * m['mechanism.private_sum_s'] / calls:.3f}"
                    if calls else "-")
        variant, horizon, eps = row
        print(f"| {variant} | {horizon:.0e} | {eps or '-'} "
              f"| {1e3 * untraced:.1f} | {1e3 * traced:.1f} "
              f"| {m['mechanism.private_sum_s'] / total:.0%} "
              f"| {m['env.seed_derive_s'] / total:.0%} | {per_call} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
