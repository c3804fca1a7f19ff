"""Checks of the library's outputs, computed apart from the library.

Nothing here imports shufflebandit.  Experiment outputs are read as CSV and
checked against the generated config; audit reports are checked against
divergences recomputed in closed form from scipy's binomial cdf and sf.
Every check returns a list of error strings, each starting with the check's
name, and an empty list when the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from collections import defaultdict

RESULTS_HEADER = ["variant", "epsilon", "delta", "checkpoint", "mean_regret",
                  "stderr", "min", "max", "clean_violations"]
PLOT_HEADER = ["variant", "epsilon", "delta", "seed", "checkpoint",
               "cumulative_regret"]
BASELINE = "ae-baseline"
# noise_distribution refuses supports above this many points (audit.py)
AUDIT_SUPPORT_CAP = 10**6


def parse_config_text(text: str) -> dict:
    """The generated config as plain values, parsed without the library."""
    raw = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            raw[key.strip()] = value.strip()

    def floats(key):
        return [float(v) for v in raw.get(key, "").split(",") if v.strip()]

    return {
        "means": floats("means"),
        "horizon": int(raw["horizon"]),
        "variants": [v.strip() for v in raw["variants"].split(",")],
        "epsilons": floats("epsilons"),
        "deltas": floats("deltas"),
        "seeds": int(raw["seeds"]),
        "master_seed": int(raw["master_seed"]),
        "checkpoints": [int(v) for v in raw["checkpoints"].split(",")],
    }


def expected_cells(cfg: dict) -> list[tuple]:
    cells = []
    for variant in cfg["variants"]:
        if variant == BASELINE:
            cells.append((variant, None, None))
        else:
            cells += [(variant, e, d) for e in cfg["epsilons"]
                      for d in cfg["deltas"]]
    return cells


def _opt_float(text: str):
    return float(text) if text else None


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b), scale)


def check_experiment(out_dir: str, cfg: dict) -> list[str]:
    """Recompute results.csv from plotdata.csv and bound every regret path."""
    errors = []
    header, results = _read_csv(os.path.join(out_dir, "results.csv"))
    if header != RESULTS_HEADER:
        return [f"rows: results.csv header is {header}"]
    header, plot = _read_csv(os.path.join(out_dir, "plotdata.csv"))
    if header != PLOT_HEADER:
        return [f"rows: plotdata.csv header is {header}"]

    cells = expected_cells(cfg)
    cps = cfg["checkpoints"]
    seeds = cfg["seeds"]
    gap_max = max(cfg["means"]) - min(cfg["means"])

    # per (cell, seed): the regret at each checkpoint, in file order
    paths = defaultdict(list)
    for row in plot:
        key = (row[0], _opt_float(row[1]), _opt_float(row[2]))
        paths[key + (int(row[3]),)].append((int(row[4]), float(row[5])))
    expected_paths = {cell + (s,) for cell in cells for s in range(seeds)}
    if len(plot) != len(cells) * seeds * len(cps) or set(paths) != expected_paths:
        errors.append(f"rows: plotdata.csv has {len(plot)} rows for "
                      f"{len(paths)} (cell, seed) paths, expected "
                      f"{len(expected_paths)} paths of {len(cps)} checkpoints")

    for key, path in sorted(paths.items(), key=str):
        if [c for c, _ in path] != cps:
            errors.append(f"rows: {key} has checkpoints {[c for c, _ in path]}")
            continue
        prev_c, prev_r = 0, 0.0
        for c, r in path:
            tol = 1e-9 * max(1.0, c * gap_max)
            if not -tol <= r <= c * gap_max + tol:
                errors.append(f"bounds: {key} regret {r} at {c} outside "
                              f"[0, {c * gap_max}]")
            if r < prev_r - tol:
                errors.append(f"monotone: {key} regret falls from {prev_r} "
                              f"to {r} at {c}")
            if r - prev_r > (c - prev_c) * gap_max + tol:
                errors.append(f"increments: {key} regret grows by "
                              f"{r - prev_r} over {c - prev_c} users")
            prev_c, prev_r = c, r

    by_cell = defaultdict(list)
    for row in results:
        by_cell[(row[0], _opt_float(row[1]), _opt_float(row[2]))].append(row)
    if len(results) != len(cells) * len(cps) or set(by_cell) != set(cells):
        errors.append(f"rows: results.csv has {len(results)} rows over cells "
                      f"{sorted(by_cell, key=str)}, expected "
                      f"{len(cells) * len(cps)} rows")
    for cell, rows in by_cell.items():
        for j, row in enumerate(rows):
            if int(row[8]) != 0:
                errors.append(f"violations: {cell} reports {row[8]} "
                              f"clean-event violations")
            if j >= len(cps) or int(row[3]) != cps[j]:
                errors.append(f"rows: {cell} row {j} is checkpoint {row[3]}")
                continue
            values = [paths[cell + (s,)][j][1] for s in range(seeds)
                      if len(paths.get(cell + (s,), ())) == len(cps)]
            if len(values) != seeds:
                continue  # already reported as a row-count error
            n = len(values)
            mean = math.fsum(values) / n
            stderr = (math.sqrt(math.fsum((v - mean) ** 2 for v in values)
                                / (n - 1)) / math.sqrt(n)) if n > 1 else 0.0
            scale = max(1.0, cps[j] * gap_max)
            got = [float(v) for v in row[4:8]]
            want = [mean, stderr, min(values), max(values)]
            if (not _close(got[0], want[0], scale)
                    or not _close(got[1], want[1], scale)
                    or got[2:] != want[2:]):
                errors.append(f"aggregates: {cell} checkpoint {cps[j]} reports "
                              f"mean/stderr/min/max {got}, recomputed {want}")

    trace_dir = os.path.join(out_dir, "traces")
    names = sorted(os.listdir(trace_dir)) if os.path.isdir(trace_dir) else []
    if len(names) != len(cells) * seeds:
        errors.append(f"traces: {len(names)} trace files, expected "
                      f"{len(cells) * seeds}")
    for (variant, eps, delta, seed), path in paths.items():
        tag = "_".join([variant, "none" if eps is None else repr(eps),
                        "none" if delta is None else repr(delta), str(seed)])
        trace_path = os.path.join(trace_dir, tag + ".csv")
        if not os.path.isfile(trace_path):
            errors.append(f"traces: missing {tag}.csv")
            continue
        _, rows = _read_csv(trace_path)
        if [(int(c), float(r)) for c, r in rows] != path:
            errors.append(f"traces: {tag}.csv disagrees with plotdata.csv")

    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("master_seed") != cfg["master_seed"]:
        errors.append(f"rows: manifest master_seed {manifest.get('master_seed')}")
    return errors


def hash_outputs(out_dir: str) -> str:
    """sha256 over every output file's relative path and bytes."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk(out_dir):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(os.path.relpath(path, out_dir).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def output_size(out_dir: str) -> tuple[int, int]:
    """(files, bytes) under out_dir."""
    files = size = 0
    for root, _, names in os.walk(out_dir):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(root, name))
    return files, size


def paper_tau(epsilon: float, delta: float) -> float:
    return 96.0 * math.log(2.0 / delta) / epsilon**2


def noise_law(m: int, tau: float) -> tuple[int, float]:
    """(trials, probability) of the binomial count of noise ones in a batch."""
    if m <= tau:
        return math.ceil(tau / m) * m, 0.5
    return m, tau / (2.0 * m)


def closed_form_divergences(m: int, epsilon: float,
                            tau: float) -> tuple[float, float]:
    """Both hockey-stick divergences between the noise count B and B + 1.

    P(t) / P(t-1) = (n - t + 1) q / (t (1 - q)) falls with t, so
    P(t) - e^eps P(t-1) is positive exactly for t below a crossing A, and
    P(t-1) - e^eps P(t) exactly for t above a crossing A'.  Each divergence
    is then a difference of two binomial tail masses.
    """
    from scipy.stats import binom

    n, q = noise_law(m, tau)
    e = math.exp(epsilon)
    last_fwd = min(n, math.ceil((n + 1) * q / (q + e * (1 - q))) - 1)
    forward = binom.cdf(last_fwd, n, q) - e * binom.cdf(last_fwd - 1, n, q)
    first_bwd = max(1, math.floor((n + 1) * q / (q + (1 - q) / e)) + 1)
    backward = binom.sf(first_bwd - 2, n, q) - e * binom.sf(first_bwd - 1, n, q)
    return float(forward), float(backward)


def check_audit(cells: list[dict], results: list[dict]) -> list[str]:
    """Compare every completed audit with the closed form.

    A refusal counts as a failed operation, not as a wrong output, but only
    where the noise support exceeds the documented cap of the exact audit.
    """
    if len(results) != len(cells):
        return [f"rows: {len(results)} audit results for {len(cells)} cells"]
    errors = []
    for cell, res in zip(cells, results):
        eps, delta = cell["epsilon"], cell["delta"]
        tau = cell["tau"] if cell["tau"] is not None else paper_tau(eps, delta)
        if "error" in res:
            support = noise_law(cell["m"], tau)[0] + 1
            if support <= AUDIT_SUPPORT_CAP:
                errors.append(f"refusal: m={cell['m']} eps={eps} tau={tau} "
                              f"refused at a support of {support} points: "
                              f"{res['error']}")
            continue
        want = closed_form_divergences(cell["m"], eps, tau)
        got = (res["forward"], res["backward"])
        tol = [1e-9 * abs(w) + 1e-12 * delta for w in want]
        if any(abs(g - w) > t for g, w, t in zip(got, want, tol)):
            errors.append(f"divergence: m={cell['m']} eps={eps} tau={tau} "
                          f"reports {got}, closed form {want}")
        if res["passed"] != (max(got) <= delta):
            errors.append(f"passed: m={cell['m']} eps={eps} tau={tau} "
                          f"reports passed={res['passed']} at {max(got)} "
                          f"against delta={delta}")
    return errors
