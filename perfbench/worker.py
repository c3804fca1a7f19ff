"""One round of one workload, in a fresh interpreter.

Run by run.py as ``python3 perfbench/worker.py SPEC.json`` with the library
on PYTHONPATH.  The spec names the workload's generated input and the mode:

  probe   import and set up, then stop at the first call into the workload
  plain   run the workload untraced
  traced  run it with every layer wrapped (see tracer.py)

The last line of standard output is one JSON object with the time of the
first call into the workload (time.monotonic, which is system-wide, so the
parent can subtract its spawn time), the workload's own run time, the
operations attempted and failed, and the peak resident memory.
"""

import hashlib
import json
import resource
import sys
import time

import tracer as tracing


def _peak_rss_kb() -> int:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # the largest pool worker that has been waited for, 0 without a pool
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def run_experiment_workload(spec: dict, out: dict) -> None:
    from shufflebandit import cli

    real_run = cli.run_experiment

    def entry(config, *args, **kwargs):
        out["t_first"] = time.monotonic()
        if spec["mode"] == "probe":
            return None
        t0 = time.perf_counter()
        result = real_run(config, *args, **kwargs)
        out["run_s"] = time.perf_counter() - t0
        out["attempted"] = len(result.traces)
        return result

    cli.run_experiment = entry
    argv = ["run", "--config", spec["config"], "--threads", str(spec["threads"])]
    out["rc"] = cli.main(argv)


def _audit_params(cell: dict):
    from shufflebandit.mechanism import PrivacyParams, derive_params

    if cell["tau"] is None:
        return derive_params(cell["epsilon"], cell["delta"])
    return PrivacyParams(epsilon=cell["epsilon"], delta=cell["delta"],
                         tau=cell["tau"], sigma2=1.5 * cell["tau"])


def run_audit_workload(spec: dict, out: dict) -> None:
    from shufflebandit import audit

    with open(spec["grid"]) as fh:
        grid = json.load(fh)
    cells = [(cell["m"], _audit_params(cell)) for cell in grid["cells"]]
    out["t_first"] = time.monotonic()
    if spec["mode"] == "probe":
        out["rc"] = 0
        return
    passes = []
    failed = 0
    t0 = time.perf_counter()
    for _ in range(grid["passes"]):
        results = []
        for m, params in cells:
            try:
                r = audit.hockey_stick(m, params)
            except ValueError as exc:
                failed += 1
                results.append({"error": str(exc)})
            else:
                results.append({"forward": r.divergence_forward,
                                "backward": r.divergence_backward,
                                "passed": r.passed})
        passes.append(results)
    out["run_s"] = time.perf_counter() - t0
    out["attempted"] = len(cells) * grid["passes"]
    out["failed"] = failed
    out["results"] = passes[0]
    out["pass_hashes"] = [
        hashlib.sha256(json.dumps(p, sort_keys=True).encode()).hexdigest()
        for p in passes]
    out["rc"] = 0


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["mode"] == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out = {"attempted": 0, "failed": 0}
    if spec["workload"] == "audit":
        run_audit_workload(spec, out)
    else:
        run_experiment_workload(spec, out)
    out["peak_rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        out["layers"] = tracing.layer_metrics(tracer)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
