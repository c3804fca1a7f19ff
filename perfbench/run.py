"""Benchmark of the shufflebandit simulator: desk, long-horizon and audit.

Run from the root of a checkout (the package need not be installed):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Each round of a workload runs in a fresh interpreter (worker.py), so that
set-up time and peak memory belong to that workload.  Rounds repeat until
--seconds have passed.  Every round's outputs are checked by checks.py,
which does not use the library.  The last line of standard output is one
JSON object: with --trace 0 it carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced serial round (see README.md).
With --label NAME --report-dir DIR the run also writes DIR/BENCH_NAME.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
DESK_CFG = os.path.join("scripts", "configs", "desk.cfg")
LIBRARY = os.path.join("src", "shufflebandit", "cli.py")
DEADLINE_S = 170.0       # a run must end within 180 s
SETUP_SAMPLES = 12       # fewest fresh interpreters timed per run for setup_s
AUDIT_PASSES = 3         # passes over the audit grid per round
DELTA = 1e-5

# Serial vb-sdp-ae at T = 1e7: batches of up to 2^22 users.
LONG_HORIZON_CFG = """\
k = 5
means = 0.75, 0.625, 0.5, 0.375, 0.25
horizon = 10000000
variants = vb-sdp-ae
epsilons = 0.25, 1.0
deltas = 1e-5
seeds = 3
master_seed = {seed}
checkpoints = 10000, 100000, 1000000, 10000000
output = {output}
"""

# Shrunk noise budgets are drawn around the smallest count that passes the
# exact audit at m = 1 (62, 203 and 712 noise bits), so that divergences
# sit near delta on both sides of it.
SHRUNK_CENTRES = {1.0: 62, 0.5: 203, 0.25: 712}
SHRUNK_PER_EPS = 4
SHRUNK_MS = (1, 2, 3, 4, 6, 8)


class BenchError(RuntimeError):
    pass


def desk_config(seed: int, output: str) -> str:
    """The shipped desk.cfg with the seed and the output directory replaced."""
    with open(DESK_CFG) as fh:
        lines = fh.read().splitlines()
    values = {"master_seed": str(seed), "output": output}
    out = []
    for line in lines:
        key = line.split("#", 1)[0].partition("=")[0].strip()
        out.append(f"{key} = {values[key]}" if key in values else line)
    return "\n".join(out) + "\n"


def long_horizon_config(seed: int, output: str) -> str:
    return LONG_HORIZON_CFG.format(seed=seed, output=output)


def audit_cells(seed: int) -> list[dict]:
    """Every batch size the regret workloads hand to the mechanism, plus
    seeded cells with noise budgets shrunk toward the smallest that passes."""
    cells = []
    for eps in (0.25, 0.5, 1.0):
        sigma = (1.5 * checks.paper_tau(eps, DELTA)) ** 0.5
        # sdp-ae batches of ceil(sigma); vb-sdp-ae batches 2^1 .. 2^22
        for m in [math.ceil(sigma)] + [2**p for p in range(1, 23)]:
            cells.append({"m": m, "epsilon": eps, "delta": DELTA, "tau": None})
    cells.append({"m": 1, "epsilon": 1.0, "delta": DELTA, "tau": 61.0})
    cells.append({"m": 1, "epsilon": 1.0, "delta": DELTA, "tau": 62.0})
    rng = random.Random(seed)
    for eps, centre in SHRUNK_CENTRES.items():
        for _ in range(SHRUNK_PER_EPS):
            tau = float(rng.randint(int(0.85 * centre), int(1.15 * centre)))
            cells.append({"m": rng.choice(SHRUNK_MS), "epsilon": eps,
                          "delta": DELTA, "tau": tau})
    return cells


class Run:
    """One benchmark run: generated inputs, worker rounds and their checks."""

    def __init__(self, workload: str, seed: int, tmp: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.deadline = deadline
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.hashes: set[str] = set()
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(
                            [os.path.abspath("src")]
                            + ([os.environ["PYTHONPATH"]]
                               if os.environ.get("PYTHONPATH") else [])),
                        TMPDIR=tmp)
        if workload == "audit":
            self.cells = audit_cells(seed)
            self.grid = self._write("grid.json", json.dumps(
                {"passes": AUDIT_PASSES, "cells": self.cells}))
        else:
            make = desk_config if workload == "desk" else long_horizon_config
            self.cfg = checks.parse_config_text(make(seed, ""))
            self.episodes = len(checks.expected_cells(self.cfg)) * self.cfg["seeds"]

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.tmp, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def _spawn(self, spec: dict) -> dict:
        self.rounds += 1
        spec_path = self._write(f"spec-{self.rounds}.json", json.dumps(spec))
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=self.env, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except BaseException as exc:
            # the worker and its pool share a process group: end them all
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{self.workload} round ran past the "
                                 f"deadline") from exc
            raise
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}: "
                             f"{stderr.strip()[-2000:]}")
        out = json.loads(stdout.strip().splitlines()[-1])
        # None when the worker failed before its first call into the workload
        out["setup_s"] = (out["t_first"] - t_spawn if "t_first" in out
                          else None)
        return out

    def round(self, mode: str, threads: int = 1) -> dict:
        """One worker round; checks its outputs and counts its operations."""
        if self.workload == "audit":
            out = self._spawn({"workload": "audit", "mode": mode,
                               "grid": self.grid})
            if mode == "probe":
                return out
            self.attempted += out["attempted"]
            self.failed += out["failed"]
            self.errors += checks.check_audit(self.cells, out["results"])
            self.hashes.update(out["pass_hashes"])
            out["ops"] = out["attempted"] - out["failed"]
            return out

        out_dir = os.path.join(self.tmp, f"out-{self.rounds + 1}")
        config = self._write(f"run-{self.rounds + 1}.cfg",
                             desk_config(self.seed, out_dir)
                             if self.workload == "desk"
                             else long_horizon_config(self.seed, out_dir))
        out = self._spawn({"workload": self.workload, "mode": mode,
                           "config": config, "threads": threads})
        if mode == "probe":
            return out
        self.attempted += self.episodes
        if out["rc"] != 0:
            self.failed += self.episodes
            out["ops"] = 0
            return out
        if out["attempted"] != self.episodes:
            self.errors.append(f"rows: {out['attempted']} episodes run, "
                               f"expected {self.episodes}")
        try:
            self.errors += checks.check_experiment(out_dir, self.cfg)
        except (OSError, ValueError, IndexError) as exc:
            self.errors.append(f"rows: unreadable output: {exc!r}")
        self.hashes.add(checks.hash_outputs(out_dir))
        out["files"], out["bytes"] = checks.output_size(out_dir)
        out["ops"] = out["attempted"]
        shutil.rmtree(out_dir)
        return out

    def finish_checks(self) -> None:
        if len(self.hashes) > 1:
            self.errors.append(f"determinism: {len(self.hashes)} distinct "
                               f"output hashes for one input")


def measure(run: Run, seconds: float, threads: int) -> tuple[dict, dict]:
    """Untraced rounds for --seconds, each followed by a set-up probe so that
    the set-up samples spread over the whole run; end-to-end medians."""
    start = time.monotonic()
    rounds = []
    setups = []
    while not rounds or time.monotonic() - start < seconds:
        rounds.append(run.round("plain", threads))
        setups += [rounds[-1]["setup_s"], run.round("probe")["setup_s"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.round("probe")["setup_s"])
    setups = [s for s in setups if s is not None]
    ok = [r for r in rounds if r["ops"] > 0]
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "ops_per_s": statistics.median(r["ops"] / r["run_s"] for r in ok)
        if ok else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in rounds) / 1024,
    }
    samples = {"setup_s": setups,
               "run_s": [r["run_s"] for r in ok],
               "ops": [r["ops"] for r in ok],
               "peak_rss_kb": [r["peak_rss_kb"] for r in rounds]}
    return metrics, samples


def measure_layers(run: Run, seconds: float,
                   names: list[str]) -> tuple[dict, dict]:
    """Rounds of (untraced serial, traced serial[, pooled]); per-layer medians
    over the rounds in which no run failed (0 for every metric if none)."""
    start = time.monotonic()
    attempts = 0
    per_round = []
    while not attempts or time.monotonic() - start < seconds:
        attempts += 1
        # alternate the order so that slow drift of the machine cancels
        if attempts % 2:
            plain = run.round("plain", 1)
            traced = run.round("traced", 1)
        else:
            traced = run.round("traced", 1)
            plain = run.round("plain", 1)
        pooled = run.round("plain", 2) if run.workload == "desk" else None
        if any(r["ops"] == 0 for r in (plain, traced, pooled) if r is not None):
            continue  # counted in failed by run.round
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        layers["harness.files_written"] = traced.get("files", 0)
        layers["harness.bytes_written"] = traced.get("bytes", 0)
        layers["harness.pool_speedup"] = (plain["run_s"] / pooled["run_s"]
                                          if pooled is not None else 0.0)
        per_round.append(layers)
    metrics = {name: statistics.median(r[name] for r in per_round)
               if per_round else 0.0 for name in names}
    return metrics, {"rounds": per_round}


def machine_info() -> dict:
    commit = None
    if os.path.isdir(".git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        choices=["desk", "long-horizon", "audit"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--label", help="write BENCH_<label>.json")
    parser.add_argument("--report-dir", help="directory for the report")
    args = parser.parse_args(argv)
    if args.label is not None:
        if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.label):
            parser.error("--label may hold only letters, digits, _, . and -")
        if args.report_dir is None:
            parser.error("--label needs --report-dir")
        if os.path.realpath(args.report_dir) == os.path.realpath(os.getcwd()):
            parser.error("the report is never written to the repository root")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind through the clean-up below like an interrupt
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (os.path.isfile(LIBRARY) and os.path.isfile(DESK_CFG)):
        print(f"error: run from the root of a shufflebandit checkout "
              f"({LIBRARY} and {DESK_CFG} not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)  # metric names and units
    started = time.monotonic()
    tmp_root = os.path.abspath(".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    try:
        run = Run(args.workload, args.seed, tmp, started + DEADLINE_S)
        if args.trace:
            metrics, samples = measure_layers(
                run, args.seconds, [m["name"] for m in spec["per_layer"]])
        else:
            threads = 2 if args.workload == "desk" else 1
            metrics, samples = measure(run, args.seconds, threads)
        run.finish_checks()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it
    for err in run.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    if args.label is not None:
        os.makedirs(args.report_dir, exist_ok=True)
        report = dict(result, workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace,
                      errors=run.errors, samples=samples,
                      machine=machine_info())
        path = os.path.join(args.report_dir, f"BENCH_{args.label}.json")
        with open(path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
