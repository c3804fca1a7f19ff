"""Per-layer spans and counters, installed from outside the library.

Each wrapper replaces a public function on the module attribute (or class
attribute) that its caller looks up at call time, so the library's own code
is not touched.  Spans nest: a span's self time is its duration minus the
durations of the spans opened while it ran.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Accumulates span totals, self times, call counts and named counts."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._open = []  # time covered by child spans, one entry per open span

    def span(self, name, fn, count=None):
        """Wrap fn in a span; count(counts, args, result) runs after it."""
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - t0
                child = open_spans.pop()
                self.total[name] += duration
                self.self_time[name] += duration - child
                self.calls[name] += 1
                if open_spans:
                    open_spans[-1] += duration
            if count is not None:
                count(self.counts, args, result)
            return result
        return wrapper

    def counter(self, fn, count):
        """Wrap fn with a count only; its time stays with the enclosing span."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, args, result)
            return result
        return wrapper


def _count_private_sum(counts, args, result):
    bits, params = args[0], args[1]
    m = len(bits)
    counts["private_sum_calls"] += 1
    if m > params.tau:
        # one Bernoulli(tau / 2m) noise bit per user
        counts["large_regime_calls"] += 1
        counts["bits_shuffled"] += 2 * m
    else:
        # ceil(tau / m) fair noise bits per user
        counts["bits_shuffled"] += m * (1 + math.ceil(params.tau / m))


def install(tracer: Tracer):
    """Wrap the public calls between the library's modules.

    Returns a function that puts the original functions back.
    """
    from shufflebandit import audit, bandit, cli, env, harness

    spans = [
        (cli, "parse_config", "parse_config", None),
        (cli, "run_experiment", "run_experiment", None),
        (harness, "emit_outputs", "emit_outputs", None),
        (harness, "run_episode", "run_episode",
         lambda c, a, r: c.update(regret_bytes=r.cumulative_regret.nbytes)),
        (bandit, "private_sum", "private_sum", _count_private_sum),
        (env.RewardTape, "draw", "reward_draw",
         lambda c, a, r: c.update(reward_bits=a[1])),
        (env.SeedSpec, "reward_rng", "seed_derive", None),
        (env.SeedSpec, "noise_rng", "seed_derive", None),
        (audit, "hockey_stick", "hockey_stick", None),
        (audit, "noise_distribution", "noise_distribution",
         lambda c, a, r: c.update(support_points=len(r))),
    ]
    counters = [
        (bandit, "run_phase", lambda c, a, r: c.update(phases=1)),
        (bandit, "eliminate", lambda c, a, r: c.update(eliminations=len(r))),
    ]
    originals = []
    for owner, attr, name, count in spans:
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, tracer.span(name, getattr(owner, attr), count))
    for owner, attr, count in counters:
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, tracer.counter(getattr(owner, attr), count))

    def uninstall():
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)
    return uninstall


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures of one traced run, keyed by benchmark metric name."""
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    return {
        "env.seed_derive_s": t["seed_derive"],
        "env.seed_derives": n["seed_derive"],
        "env.reward_draw_s": s["reward_draw"],
        "env.reward_bits": c["reward_bits"],
        "mechanism.private_sum_s": t["private_sum"],
        "mechanism.private_sum_calls": c["private_sum_calls"],
        "mechanism.large_regime_calls": c["large_regime_calls"],
        "mechanism.bits_shuffled": c["bits_shuffled"],
        # run_episode's child spans are exactly the env and mechanism calls
        "bandit.episode_s": t["run_episode"],
        "bandit.self_s": s["run_episode"],
        "bandit.phases": c["phases"],
        "bandit.eliminations": c["eliminations"],
        "bandit.regret_bytes": c["regret_bytes"],
        "harness.parse_config_s": t["parse_config"],
        # run_experiment's child spans are the episodes and the emission
        "harness.self_s": s["run_experiment"],
        "harness.emit_s": t["emit_outputs"],
        "audit.hockey_stick_s": t["hockey_stick"],
        "audit.noise_distribution_s": t["noise_distribution"],
        "audit.support_points": c["support_points"],
    }
