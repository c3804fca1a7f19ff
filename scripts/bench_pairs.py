"""Alternating benchmark pairs of two checkouts: writes BENCH_<label>.json.

    python3 scripts/bench_pairs.py --base ../parent --head . \\
        --workload audit --seeds 101,102,103 --label audit-pairs \\
        --report-dir bench
    python3 scripts/bench_pairs.py --base ../parent --head . \\
        --workload desk --rounds 30 --label desk-rounds --report-dir bench

With --seeds, for each seed `perfbench/run.py --workload W --seed S
--seconds T --trace 0` runs once in each checkout, from that checkout's
root, with T the `run_seconds` of the head's BENCHMARK.json.  The base runs
first for the first seed, the head first for the second, and so on, so
that a slow drift of the machine falls on both sides alike.

With --rounds N, each pair is instead one single round of each checkout,
as `perfbench/run.py` runs it: one fresh `perfbench/worker.py` interpreter
running the workload once (desk with --threads 2), its outputs checked by
that checkout's `perfbench/checks.py`.  The N pairs run in ABBA order (A B
B A A B ...), all with the seed of --seeds or 1.  Rounds last about a
tenth of a second, so they follow the machine's drift much more closely
than whole runs do.

The report holds every run's or round's end-to-end metrics, each side's
median and quartiles of each metric, and the number of pairs the head
wins (better in the direction BENCHMARK.json gives).  It names each side by
its commit and, where the side is not a clean git checkout, by a sha256 of
its `src/**/*.py`.  The report is never written to the root of this
repository or of either checkout, and never replaces an earlier report.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "head")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `tree`; its last stdout line."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode,
                "stderr": proc.stderr.strip()[-2000:]}
    out = json.loads(lines[-1])
    return {"returncode": 0, "correct": out["correct"],
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": {k: m["value"] for k, m in out["metrics"].items()},
            "stderr": proc.stderr.strip()[-2000:]}


# One round, run by a fresh interpreter from the root of a checkout with
# that checkout's perfbench/run.py; prints its result as one JSON line.
ROUND = """
import json, shutil, sys, tempfile, time
sys.path.insert(0, "perfbench")
import run as bench
workload, seed, tmp_root = sys.argv[1], int(sys.argv[2]), sys.argv[3]
tmp = tempfile.mkdtemp(prefix="round-", dir=tmp_root)
try:
    r = bench.Run(workload, seed, tmp, time.monotonic() + bench.DEADLINE_S)
    out = r.round("plain", 2 if workload == "desk" else 1)
finally:
    shutil.rmtree(tmp, ignore_errors=True)
print(json.dumps({"ops": out["ops"], "run_s": out.get("run_s"),
                  "setup_s": out["setup_s"],
                  "peak_rss_kb": out["peak_rss_kb"],
                  "attempted": r.attempted, "failed": r.failed,
                  "errors": r.errors}))
"""


def round_once(tree: str, workload: str, seed: int, tmp_root: str) -> dict:
    """One worker round of the workload in `tree`, with its metrics."""
    proc = subprocess.run(
        [sys.executable, "-c", ROUND, workload, str(seed), tmp_root],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode,
                "stderr": proc.stderr.strip()[-2000:]}
    out = json.loads(lines[-1])
    ok = out["ops"] > 0 and out["setup_s"] is not None
    return {"returncode": 0, "correct": not out["errors"],
            "attempted": out["attempted"], "failed": out["failed"],
            "errors": out["errors"][:20],
            **({"metrics": {"ops_per_s": out["ops"] / out["run_s"],
                            "setup_s": out["setup_s"],
                            "peak_rss_mb": out["peak_rss_kb"] / 1024}}
               if ok else {})}


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's values."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' spread, the head's wins over the complete
    pairs, and whether the medians differ by more than the base's IQR."""
    pairs = {}
    for r in runs:
        if "metrics" in r:
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
    """The checkout's commit and whether it has local changes; for a tree
    that is not a git checkout, or has local changes, also a sha256 of its
    source, since the commit alone does not name the code measured."""
    def git(*args):
        proc = subprocess.run(["git", "-C", tree, *args], capture_output=True,
                              text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    out = {"commit": git("rev-parse", "HEAD"),
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


def check_report(parser: argparse.ArgumentParser, args) -> None:
    """Refuse a --label that is not a plain file name part, a --report-dir
    that is the root of this repository or of either checkout, and a report
    that exists; set args.path to the report's path."""
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
        parser.error("--label may hold only letters, digits, _, . and -")
    report_dir = os.path.realpath(args.report_dir)
    if report_dir in {os.path.realpath(d)
                      for d in (REPO, args.base, args.head)}:
        parser.error("the report is never written to a repository root")
    args.path = os.path.join(args.report_dir, f"BENCH_{args.label}.json")
    if os.path.lexists(args.path):
        parser.error(f"{args.path} exists; a report is never replaced")


def write_report(path: str, report: dict) -> None:
    """Create the report at `path`, failing if it exists, and print its path."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "x") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--base", required=True, help="checkout measured as "
                        "the base (the parent commit)")
    parser.add_argument("--head", required=True, help="checkout measured as "
                        "the head (the change)")
    parser.add_argument("--workload", required=True,
                        choices=["desk", "long-horizon", "audit"])
    parser.add_argument("--seeds", help="comma-separated seeds: one pair of "
                        "whole runs each, or with --rounds the one seed of "
                        "every round (default 1)")
    parser.add_argument("--rounds", type=int, help="pairs of single worker "
                        "rounds, in ABBA order")
    parser.add_argument("--label", required=True)
    parser.add_argument("--report-dir", required=True)
    args = parser.parse_args(argv)
    if args.rounds is None and args.seeds is None:
        parser.error("give --seeds or --rounds")
    if args.rounds is not None and args.rounds < 1:
        parser.error("--rounds must be >= 1")
    try:
        args.seeds = [int(s) for s in (args.seeds or "1").split(",")]
    except ValueError:
        parser.error("--seeds takes comma-separated integers")
    if args.rounds is not None and len(args.seeds) != 1:
        parser.error("--rounds takes one seed")
    args.base, args.head = (os.path.abspath(d) for d in (args.base, args.head))
    for tree in (args.base, args.head):
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"{tree} has no perfbench/run.py")
    check_report(parser, args)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(args.head, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs = []
    if args.rounds is None:
        pairs = list(enumerate(args.seeds))
    else:
        pairs = [(pair, args.seeds[0]) for pair in range(args.rounds)]
        tmp_root = tempfile.mkdtemp(prefix="bench-rounds-")
    try:
        for pair, seed in pairs:
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                tree = args.base if side == "base" else args.head
                r = (run_once(tree, args.workload, seed, seconds)
                     if args.rounds is None else
                     round_once(tree, args.workload, seed, tmp_root))
                runs.append(dict(r, pair=pair, seed=seed, side=side,
                                 position=position))
                print(json.dumps({k: runs[-1][k] for k in
                                  ("pair", "seed", "side", "metrics")
                                  if k in runs[-1]}), file=sys.stderr)
    finally:
        if args.rounds is not None:
            shutil.rmtree(tmp_root, ignore_errors=True)
    report = {
        "workload": args.workload, "seeds": args.seeds,
        **({"seconds": seconds} if args.rounds is None
           else {"rounds": args.rounds}),
        "base": describe(args.base), "head": describe(args.head),
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "numpy": metadata.version("numpy"),
                    "scipy": metadata.version("scipy"),
                    "loadavg_at_end": os.getloadavg()},
        "runs": runs,
        "summary": summarize(runs, better),
    }
    write_report(args.path, report)
    ok = all(r["returncode"] == 0 and r["correct"] and r["failed"] == 0
             for r in runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
