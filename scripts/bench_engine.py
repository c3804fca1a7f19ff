"""Alternating engine timings of two checkouts: writes BENCH_<label>.json.

    python3 scripts/bench_engine.py --base ../parent --head . --rounds 10 \\
        --label engine-pairs --report-dir bench

Each round runs a fresh interpreter in each checkout, with that checkout's
`src` on the path, in ABBA order (A B B A A B ...), so that a slow drift of
the machine falls on both sides alike.  A round times, with no output
written:

- `desk_engine_ms`: the 350 episodes of scripts/configs/desk.cfg, run in
  job order by `bandit.run_episode` alone (the engine's share of a serial
  `desk` round);
- `desk_seed_derive_ms`: the reward and noise generators those episodes
  derive, built apart from the episodes (part of `desk_engine_ms`);
- `sdp-ae_T=<T>_eps=<eps>_ms`: one `sdp-ae` episode (k = 5, means 0.75 ...
  0.25, delta = 1e-5, master seed 1, run 0) at T = 1e4 ... 1e7 and
  eps = 1 and 0.25, the best of 3 runs below T = 1e6.

The report holds every round's timings, each side's median and quartiles
per timing, the head's wins over the pairs and the ratio of the medians
(base / head, so above 1 is a speed-up).  It is never written to the root
of this repository or of either checkout, and never replaces an earlier
report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from importlib import metadata

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import REPO, SIDES, describe, spread  # noqa: E402

ROUND = """
import json, math, time
from shufflebandit import harness
from shufflebandit.bandit import EngineConfig, run_episode
from shufflebandit.env import SeedSpec, make_instance
from shufflebandit.mechanism import derive_params

def ms(fn, repeat=1):
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3

config = harness.parse_config("scripts/configs/desk.cfg")
inst = config.instance()
jobs = [(harness.engine_config(config, v, None if e is None
                               else derive_params(e, d)),
         SeedSpec(config.master_seed, seed))
        for v, e, d in config.cells() for seed in range(config.seeds)]

def seeds():
    for econf, spec in jobs:
        for a in range(inst.k):
            spec.reward_rng(a)
            if econf.privacy is not None:
                spec.noise_rng(a)

out = {"desk_engine_ms": ms(lambda: [run_episode(inst, c, s)
                                     for c, s in jobs]),
       "desk_seed_derive_ms": ms(seeds)}
for horizon in (10**4, 10**5, 10**6, 10**7):
    inst = make_instance(5, [0.75, 0.625, 0.5, 0.375, 0.25], horizon)
    for eps in (1.0, 0.25):
        params = derive_params(eps, 1e-5)
        econf = EngineConfig(m=math.ceil(params.sigma), privacy=params)
        out[f"sdp-ae_T={horizon:.0e}_eps={eps}_ms"] = ms(
            lambda: run_episode(inst, econf, SeedSpec(1)),
            3 if horizon < 10**6 else 1)
print(json.dumps(out))
"""


def round_once(tree: str) -> dict:
    """One round's timings in `tree`, in milliseconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", ROUND], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs: list[dict]) -> dict:
    """Per timing: both sides' spread, the head's wins over the pairs and
    the ratio of the medians, base / head."""
    pairs = {}
    for r in runs:
        pairs.setdefault(r["pair"], {})[r["side"]] = r["ms"]
    pairs = list(pairs.values())
    summary = {}
    for name in pairs[0]["base"]:
        sides = {side: spread([p[side][name] for p in pairs])
                 for side in SIDES}
        summary[name] = dict(
            sides, pairs=len(pairs),
            head_wins=sum(p["head"][name] < p["base"][name] for p in pairs),
            speedup=sides["base"]["median"] / sides["head"]["median"])
    return summary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="checkout measured as "
                        "the base (the parent commit)")
    parser.add_argument("--head", required=True, help="checkout measured as "
                        "the head (the change)")
    parser.add_argument("--rounds", type=int, required=True,
                        help="pairs of rounds, in ABBA order")
    parser.add_argument("--label", required=True)
    parser.add_argument("--report-dir", required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("--label may hold only letters, digits, _, . and -")
    args.base, args.head = (os.path.abspath(d) for d in (args.base, args.head))
    report_dir = os.path.realpath(args.report_dir)
    if report_dir in {os.path.realpath(d)
                      for d in (REPO, args.base, args.head)}:
        parser.error("the report is never written to a repository root")
    args.path = os.path.join(args.report_dir, f"BENCH_{args.label}.json")
    if os.path.lexists(args.path):
        parser.error(f"{args.path} exists; a report is never replaced")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    runs = []
    for pair in range(args.rounds):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for position, side in enumerate(order):
            tree = args.base if side == "base" else args.head
            runs.append({"pair": pair, "side": side, "position": position,
                         "ms": round_once(tree)})
            print(json.dumps(runs[-1]), file=sys.stderr)
    report = {
        "rounds": args.rounds,
        "base": describe(args.base), "head": describe(args.head),
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": metadata.version("numpy"),
                    "loadavg_at_end": os.getloadavg()},
        "runs": runs,
        "summary": summarize(runs),
    }
    os.makedirs(args.report_dir, exist_ok=True)
    with open(args.path, "x") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(args.path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
