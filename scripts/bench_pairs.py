"""Paired ABBA rounds of two checkouts: writes BENCH_<label>.json.

    python3 scripts/bench_pairs.py --base ../parent --head . \\
        --workload desk --rounds 30 --label desk-rounds --report-dir bench
    python3 scripts/bench_pairs.py --base ../parent --head . \\
        --workload engine --rounds 10 --label engine-rounds --report-dir bench

Each pair is one round of each checkout, and the pairs run in ABBA order
(A B B A A B ...), so that a slow drift of the machine falls on both sides
alike.  A round is a fresh interpreter started from the checkout's root, and
every episode it runs has master seed --seed (default 1).

A round of `desk`, `long-horizon` or `audit` is one round of that workload
as the checkout's `perfbench/run.py` runs it: one `perfbench/worker.py`
(desk with --threads 2) writing under a fresh directory of the checkout's
`.bench_tmp`, its outputs checked by the checkout's `perfbench/checks.py`.
That directory is removed afterwards, and `.bench_tmp` too once empty.  Its
metrics are the end-to-end metrics of the head's BENCHMARK.json, better in
the direction given there.

A round of `engine` times the library alone, with the checkout's `src` on
the path and no output written.  Every metric is lower-better; the timings
are in milliseconds:

- `desk_engine_ms`: the 350 episodes of scripts/configs/desk.cfg, run in
  job order by `bandit.run_episode` alone (the engine's share of a serial
  `desk` round);
- `desk_seed_derive_ms`: the reward and noise generators those episodes
  derive, built apart from the episodes (part of `desk_engine_ms`);
- `sdp-ae_T=<T>_eps=<eps>_ms`: one `sdp-ae` episode (k = 5, means 0.75 ...
  0.25, delta = 1e-5, run 0) at T = 1e4 ... 1e7 and eps = 1 and 0.25, and
  at T = 1e8 and eps = 1, the best of 3 runs below T = 1e6;
- `vb-sdp-ae_T=1e+07_eps=<eps>_ms`: one `vb-sdp-ae` episode of the same
  instance at T = 1e7 and eps = 1 and 0.25, the best of 3 runs: doubling
  batches run one phase at a time, not in blocks;
- `peak_mb`: the round's peak resident memory in MB (`VmHWM` in
  /proc/self/status at its end), which the T = 1e8 episode sets.

The round calls `gc.freeze()` after its imports and before its first timing,
as `shufflebandit.cli.main` does before a command runs, so no timing depends
on how far the cyclic collector's counters had got while the modules loaded.

A round that fails keeps its exit status and the end of its standard error
in the report, and the rounds after it still run.  The report holds every
round, each side's median and quartiles of each metric over the pairs whose
two rounds passed, the number of those pairs the head wins (a tie counts
for neither side), and whether the head's median is better than the base's
by more than the base's interquartile range.  It names each side by its
absolute directory, its commit and, where the side is not a clean git
checkout, a sha256 of its `src/**/*.py`.  `same_parent_dir` is false when
the two checkouts sit in different directories: where a tree lies alone
can move a workload's figures.  It is never written to the root of this
repository or of either checkout, and never replaces an earlier report.
The exit status is 1 if any round failed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")

# One workload round with the checkout's perfbench/run.py, as that script
# runs it: under the checkout's .bench_tmp, removed afterwards.
WORKLOAD_ROUND = """
import json, os, shutil, sys, tempfile, time
sys.path.insert(0, "perfbench")
import run as bench
workload, seed = sys.argv[1], int(sys.argv[2])
tmp_root = os.path.abspath(".bench_tmp")
os.makedirs(tmp_root, exist_ok=True)
tmp = tempfile.mkdtemp(prefix="round-", dir=tmp_root)
try:
    r = bench.Run(workload, seed, tmp, time.monotonic() + bench.DEADLINE_S)
    out = r.round("plain", 2 if workload == "desk" else 1)
finally:
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        os.rmdir(tmp_root)
    except OSError:
        pass  # another run still uses it
result = {"attempted": r.attempted, "failed": r.failed,
          "errors": r.errors[:20]}
if out["ops"] > 0 and out["setup_s"] is not None:
    result["metrics"] = {"ops_per_s": out["ops"] / out["run_s"],
                         "setup_s": out["setup_s"],
                         "peak_rss_mb": out["peak_rss_kb"] / 1024}
print(json.dumps(result))
"""

# One engine round with the checkout's src on the path; no output written.
ENGINE_ROUND = """
import gc, json, math, sys, time
from shufflebandit import harness
from shufflebandit.bandit import EngineConfig, run_episode
from shufflebandit.env import BanditInstance, SeedSpec
from shufflebandit.mechanism import derive_params

gc.freeze()
seed = int(sys.argv[2])

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
         SeedSpec(seed, run))
        for v, e, d in config.cells() for run in range(config.seeds)]

def seeds():
    for econf, spec in jobs:
        for a in range(inst.k):
            spec.reward_rng(a)
            if econf.privacy is not None:
                spec.noise_rng(a)

out = {"desk_engine_ms": ms(lambda: [run_episode(inst, c, s)
                                     for c, s in jobs]),
       "desk_seed_derive_ms": ms(seeds)}
cases = [(10**e, eps) for e in (4, 5, 6, 7) for eps in (1.0, 0.25)]
for horizon, eps in cases + [(10**8, 1.0)]:
    inst = BanditInstance(5, [0.75, 0.625, 0.5, 0.375, 0.25], horizon)
    params = derive_params(eps, 1e-5)
    econf = EngineConfig(m=math.ceil(params.sigma), privacy=params)
    out[f"sdp-ae_T={horizon:.0e}_eps={eps}_ms"] = ms(
        lambda: run_episode(inst, econf, SeedSpec(seed)),
        3 if horizon < 10**6 else 1)
inst = BanditInstance(5, [0.75, 0.625, 0.5, 0.375, 0.25], 10**7)
for eps in (1.0, 0.25):
    econf = EngineConfig(privacy=derive_params(eps, 1e-5))
    out[f"vb-sdp-ae_T=1e+07_eps={eps}_ms"] = ms(
        lambda: run_episode(inst, econf, SeedSpec(seed)), 3)
with open("/proc/self/status") as fh:
    out["peak_mb"] = next(int(line.split()[1]) for line in fh
                          if line.startswith("VmHWM:")) / 1024
print(json.dumps({"metrics": out}))
"""


def abba(rounds: int) -> list[tuple[int, str]]:
    """(pair, side) of every round in run order: A B B A A B ..."""
    return [(pair, side) for pair in range(rounds)
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1])]


def round_once(tree: str, workload: str, seed: int) -> dict:
    """One round in `tree`: its exit status, the end of its standard error,
    what it printed, and `ok`, true when it has metrics and nothing failed."""
    env = (dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
           if workload == "engine" else None)
    proc = subprocess.run(
        [sys.executable, "-c",
         ENGINE_ROUND if workload == "engine" else WORKLOAD_ROUND,
         workload, str(seed)],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    record = {"returncode": proc.returncode,
              "stderr": proc.stderr.strip()[-2000:]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        record.update(json.loads(lines[-1]))
    record["ok"] = ("metrics" in record and not record.get("failed")
                    and not record.get("errors"))
    return record


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's values."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' spread over the pairs whose two rounds passed,
    the head's wins over those pairs, and whether the medians differ by more
    than the base's IQR in the head's favour."""
    pairs = {}
    for r in runs:
        if r["ok"]:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
    complete = [p for p in pairs.values() if len(p) == 2]
    if not complete:
        return {}
    summary = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        sides = {side: spread([p[side][name] for p in complete])
                 for side in SIDES}
        gain = sign * (sides["head"]["median"] - sides["base"]["median"])
        summary[name] = dict(
            sides, better=direction, pairs=len(complete),
            head_wins=sum(sign * (p["head"][name] - p["base"][name]) > 0
                          for p in complete),
            median_gain_exceeds_base_iqr=gain > sides["base"]["iqr"])
    return summary


def describe(tree: str) -> dict:
    """The checkout's absolute directory, its commit and whether it has
    local changes; for a tree that is not a git checkout, or has local
    changes, also a sha256 of its source, since the commit alone does not
    name the code measured."""
    def git(*args):
        proc = subprocess.run(["git", "-C", tree, *args], capture_output=True,
                              text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    out = {"dir": os.path.abspath(tree), "commit": git("rev-parse", "HEAD"),
           "dirty": bool(status) if status is not None else None}
    if out["commit"] is None or out["dirty"]:
        out["src_sha256"] = source_digest(tree)
    return out


def source_digest(tree: str) -> str:
    """sha256 over each src/**/*.py of `tree` in sorted path order: its path
    relative to `tree`, a NUL byte and its bytes."""
    digest = hashlib.sha256()
    paths = glob.glob(os.path.join(tree, "src", "**", "*.py"), recursive=True)
    for path in sorted(os.path.relpath(p, tree) for p in paths):
        digest.update(path.replace(os.sep, "/").encode() + b"\0")
        with open(os.path.join(tree, path), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def report_path(label: str, report_dir: str, roots: list[str]) -> str:
    """The report's path; ValueError for a label that is not a plain file
    name part, a directory that is one of `roots`, or a report that exists."""
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", label):
        raise ValueError("--label may hold only letters, digits, _, . and -")
    if os.path.realpath(report_dir) in {os.path.realpath(d) for d in roots}:
        raise ValueError("the report is never written to a repository root")
    path = os.path.join(report_dir, f"BENCH_{label}.json")
    if os.path.lexists(path):
        raise ValueError(f"{path} exists; a report is never replaced")
    return path


def build_report(args, runs: list[dict], better: dict[str, str]) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "rounds": args.rounds,
            "base": describe(args.base), "head": describe(args.head),
            "same_parent_dir": (os.path.dirname(args.base)
                                == os.path.dirname(args.head)),
            "machine": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "numpy": metadata.version("numpy"),
                        "loadavg_at_end": os.getloadavg()},
            "runs": runs, "summary": summarize(runs, better)}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="checkout measured as "
                        "the base (the parent commit)")
    parser.add_argument("--head", required=True, help="checkout measured as "
                        "the head (the change)")
    parser.add_argument("--workload", required=True,
                        choices=["desk", "long-horizon", "audit", "engine"])
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed of every round (default 1)")
    parser.add_argument("--rounds", type=int, required=True,
                        help="pairs of rounds, in ABBA order")
    parser.add_argument("--label", required=True)
    parser.add_argument("--report-dir", required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be >= 1")
    args.base, args.head = (os.path.abspath(d) for d in (args.base, args.head))
    needs = (os.path.join("src", "shufflebandit") if args.workload == "engine"
             else os.path.join("perfbench", "run.py"))
    for tree in (args.base, args.head):
        if not os.path.exists(os.path.join(tree, needs)):
            parser.error(f"{tree} has no {needs}")
    try:
        args.path = report_path(args.label, args.report_dir,
                                [REPO, args.base, args.head])
    except ValueError as exc:
        parser.error(str(exc))
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    runs = []
    for pair, side in abba(args.rounds):
        tree = args.base if side == "base" else args.head
        runs.append(dict(round_once(tree, args.workload, args.seed),
                         pair=pair, side=side))
        print(json.dumps({k: runs[-1].get(k) for k in
                          ("pair", "side", "ok", "metrics")}),
              file=sys.stderr)
    if args.workload == "engine":
        better = dict.fromkeys(
            next((r["metrics"] for r in runs if r["ok"]), {}), "lower")
    else:
        with open(os.path.join(args.head, "BENCHMARK.json")) as fh:
            better = {m["name"]: m["better"]
                      for m in json.load(fh)["end_to_end"]}
    os.makedirs(args.report_dir, exist_ok=True)
    with open(args.path, "x") as fh:
        json.dump(build_report(args, runs, better), fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(args.path)
    return 0 if all(r["ok"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
