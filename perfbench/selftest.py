"""Show that each output check rejects a deliberately corrupted output.

Run from the root of a checkout:

    python3 perfbench/selftest.py

It runs a small experiment and a small audit grid through the library,
checks that the pristine outputs pass, then corrupts one thing at a time and
checks that the check named for it reports an error.  Exits 0 when every
corruption is caught.
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import tempfile

import checks
import run as bench

SMALL_CFG = """\
k = 3
means = 0.7, 0.5, 0.3
horizon = 3000
variants = sdp-ae, vb-sdp-ae, ae-baseline
epsilons = 1.0
deltas = 1e-5
seeds = 3
master_seed = 11
checkpoints = 500, 1000, 3000
output = {output}
baseline_m = 5
"""


def _csv(name, edit):
    """A corruption that edits the rows of one CSV file in place."""
    def corrupt(out_dir):
        path = os.path.join(out_dir, name)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        edit(rows)
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    return corrupt


def _set(col, value_of):
    def edit(rows):
        rows[1][col] = repr(value_of(rows))
    return edit


def _experiment_corruptions(gap_max):
    def raise_second(rows):
        # checkpoint 2 of the first path gains more than gap_max per user
        first, second = rows[1], rows[2]
        span = int(second[4]) - int(first[4])
        second[5] = repr(float(first[5]) + span * gap_max + 1.0)

    def lower_second(rows):
        rows[2][5] = repr(float(rows[1][5]) - 1.0)

    def remove_trace(out_dir):
        trace_dir = os.path.join(out_dir, "traces")
        os.remove(os.path.join(trace_dir, sorted(os.listdir(trace_dir))[0]))

    def stale_trace(out_dir):
        with open(os.path.join(out_dir, "traces", "stale.csv"), "w") as fh:
            fh.write("checkpoint,cumulative_regret\n")

    return [
        ("aggregates", _csv("results.csv",
                            _set(4, lambda rows: float(rows[1][4]) + 1.0))),
        ("aggregates", _csv("results.csv",
                            _set(7, lambda rows: float(rows[1][7]) + 1.0))),
        ("violations", _csv("results.csv", _set(8, lambda rows: 1))),
        ("bounds", _csv("plotdata.csv", _set(5, lambda rows: -1.0))),
        ("monotone", _csv("plotdata.csv", lower_second)),
        ("increments", _csv("plotdata.csv", raise_second)),
        ("rows", _csv("plotdata.csv", lambda rows: rows.pop())),
        ("traces", remove_trace),
        ("traces", stale_trace),
    ]


def experiment_selftest(tmp: str) -> list[str]:
    from shufflebandit import cli

    out = os.path.join(tmp, "out")
    cfg_text = SMALL_CFG.format(output=out)
    cfg_path = os.path.join(tmp, "small.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(cfg_text)
    if cli.main(["run", "--config", cfg_path]) != 0:
        return ["the small experiment did not run"]
    cfg = checks.parse_config_text(cfg_text)
    problems = [f"pristine output rejected: {e}"
                for e in checks.check_experiment(out, cfg)]
    pristine_hash = checks.hash_outputs(out)
    gap_max = max(cfg["means"]) - min(cfg["means"])

    for i, (name, corrupt) in enumerate(_experiment_corruptions(gap_max)):
        bad = os.path.join(tmp, f"bad-{i}")
        shutil.copytree(out, bad)
        corrupt(bad)
        errors = checks.check_experiment(bad, cfg)
        if not any(e.startswith(name + ":") for e in errors):
            problems.append(f"check {name!r} missed corruption {i} "
                            f"(errors: {errors[:3]})")
        if checks.hash_outputs(bad) == pristine_hash:
            problems.append(f"hash missed corruption {i}")
    return problems


def audit_selftest() -> list[str]:
    from shufflebandit.audit import hockey_stick
    from shufflebandit.mechanism import PrivacyParams

    cells = [c for c in bench.audit_cells(0) if c["m"] <= 2**12]
    results = []
    for c in cells:
        tau = c["tau"] if c["tau"] is not None else checks.paper_tau(
            c["epsilon"], c["delta"])
        r = hockey_stick(c["m"], PrivacyParams(c["epsilon"], c["delta"], tau,
                                               1.5 * tau))
        results.append({"forward": r.divergence_forward,
                        "backward": r.divergence_backward, "passed": r.passed})
    problems = [f"pristine audit rejected: {e}"
                for e in checks.check_audit(cells, results)]
    # the tau = 61 cell at eps = 1, m = 1 sits just above delta
    i = next(j for j, c in enumerate(cells) if c["tau"] == 61.0)
    corruptions = {
        "divergence": dict(results[i],
                           forward=results[i]["forward"] * (1 + 1e-6)),
        "passed": dict(results[i], passed=not results[i]["passed"]),
        "refusal": {"error": "refused"},
    }
    for name, bad in corruptions.items():
        errors = checks.check_audit(cells, results[:i] + [bad] + results[i + 1:])
        if not any(e.startswith(name + ":") for e in errors):
            problems.append(f"check {name!r} missed its corruption")
    return problems


def main() -> int:
    if not os.path.isfile(bench.LIBRARY):
        print(f"error: run from the root of a checkout ({bench.LIBRARY} "
              f"not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    tmp_root = os.path.abspath(".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=tmp_root)
    try:
        problems = experiment_selftest(tmp) + audit_selftest()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed: every check "
                         "rejected its corruption"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
