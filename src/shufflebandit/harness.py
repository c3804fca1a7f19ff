"""Experiment runner: config parsing, seeded ensembles, CSV/JSON outputs.

Config files are plain ``key = value`` text with comma-separated lists; see
the README for the full key reference.  All outputs are deterministic bytes
given (config, master seed): floats are written with repr() and episodes are
reduced in sorted job order regardless of execution order.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from itertools import groupby

import numpy as np

from . import __version__
from .bandit import EngineConfig, run_episode
from .env import BanditInstance, SeedSpec, make_instance
from .mechanism import PrivacyParams, derive_params

VARIANT_SDP_AE = "sdp-ae"
VARIANT_VB = "vb-sdp-ae"
VARIANT_BASELINE = "ae-baseline"
VARIANTS = (VARIANT_SDP_AE, VARIANT_VB, VARIANT_BASELINE)

RESULTS_HEADER = ("variant,epsilon,delta,checkpoint,"
                  "mean_regret,stderr,min,max,clean_violations")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    k: int
    means: tuple[float, ...]
    horizon: int
    variants: tuple[str, ...]
    epsilons: tuple[float, ...]
    deltas: tuple[float, ...]
    seeds: int
    master_seed: int
    checkpoints: tuple[int, ...]
    output: str
    baseline_m: int = 1

    def instance(self) -> BanditInstance:
        return make_instance(self.k, list(self.means), self.horizon)


@dataclass(frozen=True)
class ResultRow:
    variant: str
    epsilon: float | None
    delta: float | None
    checkpoint: int
    mean_regret: float
    stderr: float
    min: float
    max: float
    clean_violations: int


@dataclass
class AggregateResult:
    rows: list[ResultRow]
    # (variant, epsilon, delta, seed) -> checkpointed regret array
    traces: dict = field(default_factory=dict)
    # same keys -> the run's RegretTrace, with --full-trace only
    full_traces: dict = field(default_factory=dict)


def _parse_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]


def parse_config(path: str) -> ExperimentConfig:
    """Read a config file; unknown, repeated or malformed keys are errors."""
    known = {f.name for f in fields(ExperimentConfig)}
    raw: dict[str, tuple[str, int]] = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: "
                          f"{exc.strerror or exc}") from None
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        key, sep, value = text.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {text!r}")
        key = key.strip()
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r} "
                              f"(first set on line {raw[key][1]})")
        raw[key] = (value.strip(), lineno)

    def need(key):
        if key not in raw:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return raw[key][0]

    def geti(key, value):
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"{path}:{raw[key][1]}: {key} must be an "
                              f"integer, got {value!r}") from None

    def getf(key, item):
        try:
            return float(item)
        except ValueError:
            raise ConfigError(f"{path}:{raw[key][1]}: {key} entry {item!r} "
                              f"is not a number") from None

    k = geti("k", need("k"))
    means = tuple(getf("means", v) for v in _parse_list(need("means")))
    horizon = geti("horizon", need("horizon"))
    variants = tuple(_parse_list(need("variants")))
    seeds = geti("seeds", need("seeds"))
    master_seed = geti("master_seed", need("master_seed"))
    checkpoints = tuple(geti("checkpoints", v)
                        for v in _parse_list(need("checkpoints")))
    output = need("output")
    epsilons = tuple(getf("epsilons", v)
                     for v in _parse_list(raw.get("epsilons", ("", 0))[0]))
    deltas = tuple(getf("deltas", v)
                   for v in _parse_list(raw.get("deltas", ("", 0))[0]))
    baseline_m = geti("baseline_m", raw["baseline_m"][0]) if "baseline_m" in raw else 1

    if k < 1:
        raise ConfigError(f"{path}:{raw['k'][1]}: k must be >= 1")
    if len(means) != k:
        raise ConfigError(f"{path}:{raw['means'][1]}: got {len(means)} means "
                          f"for k={k}")
    for mu in means:
        if not 0.0 <= mu <= 1.0:
            raise ConfigError(f"{path}:{raw['means'][1]}: means entry {mu} "
                              f"outside [0, 1]")
    if horizon < 1:
        raise ConfigError(f"{path}:{raw['horizon'][1]}: horizon must be >= 1")
    for key, value in (("variants", variants), ("output", output)):
        if not value:
            raise ConfigError(f"{path}:{raw[key][1]}: {key} must be nonempty")
    # one cell per entry: a repeated entry would run its cells twice
    for key, items in (("variants", variants), ("epsilons", epsilons),
                       ("deltas", deltas)):
        repeated = [v for i, v in enumerate(items) if v in items[:i]]
        if repeated:
            raise ConfigError(f"{path}:{raw[key][1]}: {key} entry "
                              f"{repeated[0]!r} is repeated")
    for v in variants:
        if v not in VARIANTS:
            raise ConfigError(f"{path}:{raw['variants'][1]}: unknown variant "
                              f"{v!r} (expected one of {', '.join(VARIANTS)})")
    if seeds < 1:
        raise ConfigError(f"{path}:{raw['seeds'][1]}: seeds must be >= 1")
    if master_seed < 0:
        raise ConfigError(f"{path}:{raw['master_seed'][1]}: master_seed "
                          f"must be >= 0")
    if baseline_m < 1:
        raise ConfigError(f"{path}:{raw['baseline_m'][1]}: baseline_m must "
                          f"be >= 1")
    if any(a >= b for a, b in zip(checkpoints, checkpoints[1:])):
        raise ConfigError(f"{path}:{raw['checkpoints'][1]}: checkpoints must "
                          f"be sorted strictly ascending")
    if not checkpoints:
        raise ConfigError(f"{path}: checkpoints must be nonempty")
    if checkpoints[0] < 1 or checkpoints[-1] > horizon:
        raise ConfigError(f"{path}:{raw['checkpoints'][1]}: checkpoints must "
                          f"lie in [1, horizon]")
    private = [v for v in variants if v != VARIANT_BASELINE]
    if private and (not epsilons or not deltas):
        raise ConfigError(f"{path}: private variants {private} need "
                          f"epsilons and deltas")
    for eps in epsilons:
        if not 0.0 < eps <= 1.0:
            raise ConfigError(f"{path}:{raw['epsilons'][1]}: epsilon {eps} "
                              f"outside (0, 1]")
    for delta in deltas:
        if not 0.0 < delta < 1.0:
            raise ConfigError(f"{path}:{raw['deltas'][1]}: delta {delta} "
                              f"outside (0, 1)")
    return ExperimentConfig(k=k, means=means, horizon=horizon,
                            variants=variants, epsilons=epsilons,
                            deltas=deltas, seeds=seeds,
                            master_seed=master_seed, checkpoints=checkpoints,
                            output=output, baseline_m=baseline_m)


def engine_config(config: ExperimentConfig, variant: str,
                  params: PrivacyParams | None) -> EngineConfig:
    """The batch size and privacy each variant runs with."""
    if variant == VARIANT_BASELINE:
        return EngineConfig(m=config.baseline_m)
    if params is None:
        raise ValueError(f"variant {variant} needs privacy parameters")
    if variant == VARIANT_SDP_AE:
        return EngineConfig(m=math.ceil(params.sigma), privacy=params)
    if variant == VARIANT_VB:
        return EngineConfig(privacy=params)
    raise ValueError(f"unknown variant {variant!r}")


def _cells(config: ExperimentConfig, variant: str):
    if variant == VARIANT_BASELINE:
        return [(None, None)]
    return [(eps, delta) for eps in config.epsilons for delta in config.deltas]


def _run_jobs(config: ExperimentConfig, keys: list, full_trace: bool) -> list:
    """Run the episodes of these (variant, eps, delta, seed) keys in order."""
    instance = config.instance()
    out = []
    for variant, eps, delta, seed in keys:
        params = None if eps is None else derive_params(eps, delta)
        econf = engine_config(config, variant, params)
        trace = run_episode(instance, econf, SeedSpec(config.master_seed, seed))
        # the segments are expanded to one value per user only when written
        out.append((trace.at(config.checkpoints),
                    bool(trace.clean_event_violated),
                    trace if full_trace else None))
    return out


def run_experiment(config: ExperimentConfig, threads: int = 1,
                   full_trace: bool = False) -> AggregateResult:
    """Run every (cell, seed) episode, aggregate, and emit the outputs.

    With threads > 1 each pool worker gets one task: the config and every
    threads-th key, so each sees a similar mix of cheap and expensive
    cells.  Outcomes are put back in key order, so the bytes written do not
    depend on threads.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    keys = [(variant, eps, delta, seed) for variant in config.variants
            for eps, delta in _cells(config, variant)
            for seed in range(config.seeds)]
    tasks = min(threads, len(keys))
    if tasks > 1:
        strided = [keys[i::tasks] for i in range(tasks)]
        with ProcessPoolExecutor(max_workers=tasks) as pool:
            parts = pool.map(_run_jobs, [config] * tasks, strided,
                             [full_trace] * tasks)
            outcomes = [None] * len(keys)
            for i, part in enumerate(parts):
                outcomes[i::tasks] = part
    else:
        outcomes = _run_jobs(config, keys, full_trace)

    result = AggregateResult(rows=[])
    # keys hold each cell's seeds in a row, and parse_config keeps cells unique
    for (variant, eps, delta), group in groupby(zip(keys, outcomes),
                                                key=lambda kv: kv[0][:3]):
        cell, violations = [], 0
        for key, (checks, violated, full) in group:
            cell.append(checks)
            violations += int(violated)
            result.traces[key] = checks
            if full is not None:
                result.full_traces[key] = full
        data = np.vstack(cell)
        n = data.shape[0]
        means = data.mean(axis=0)
        if n > 1:
            stderrs = data.std(axis=0, ddof=1) / math.sqrt(n)
        else:
            stderrs = np.zeros(data.shape[1])
        for j, cp in enumerate(config.checkpoints):
            result.rows.append(ResultRow(
                variant=variant, epsilon=eps, delta=delta, checkpoint=cp,
                mean_regret=float(means[j]), stderr=float(stderrs[j]),
                min=float(data[:, j].min()), max=float(data[:, j].max()),
                clean_violations=violations))
    emit_outputs(result, config)
    return result


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value)


@contextmanager
def _replacing(path: str):
    """Open a temporary file beside path for writing; on success it replaces
    path, so readers see the old file or the new one, never a partial one."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed
            os.remove(tmp)


def _write_traces(directory: str, traces: list, result: AggregateResult,
                  config: ExperimentConfig) -> None:
    for key, checks in traces:
        variant, eps, delta, seed = key
        tag = f"{variant}_{_fmt(eps) or 'none'}_{_fmt(delta) or 'none'}_{seed}"
        with open(os.path.join(directory, tag + ".csv"), "w") as fh:
            if key in result.full_traces:
                fh.write("user,cumulative_regret\n")
                full = result.full_traces[key].cumulative_regret
                for user, value in enumerate(full, 1):
                    fh.write(f"{user},{float(value)!r}\n")
            else:
                fh.write("checkpoint,cumulative_regret\n")
                for cp, value in zip(config.checkpoints, checks):
                    fh.write(f"{cp},{float(value)!r}\n")


def emit_outputs(result: AggregateResult, config: ExperimentConfig) -> None:
    """Write results.csv, per-episode traces, plotdata.csv, and manifest.json.

    An episode's trace holds every user when its key is in
    `result.full_traces`, and its checkpoints otherwise.

    Each file is replaced whole.  `traces/` is built in a fresh directory
    beside it and swapped in, so it never holds a previous run's files;
    nothing else in the output directory is touched.
    """
    out = config.output
    os.makedirs(out, exist_ok=True)

    with _replacing(os.path.join(out, "results.csv")) as fh:
        fh.write(RESULTS_HEADER + "\n")
        for row in result.rows:
            fh.write(",".join([
                row.variant, _fmt(row.epsilon), _fmt(row.delta),
                str(row.checkpoint), _fmt(row.mean_regret), _fmt(row.stderr),
                _fmt(row.min), _fmt(row.max), str(row.clean_violations),
            ]) + "\n")

    # episodes in the str order of their keys, as traces/ lists them
    ordered = sorted(result.traces.items(), key=lambda kv: str(kv[0]))
    traces = os.path.join(out, "traces")
    fresh = tempfile.mkdtemp(prefix=".traces-", dir=out)
    stale = None
    try:
        os.chmod(fresh, os.stat(out).st_mode & 0o777)  # mkdtemp makes it 0700
        _write_traces(fresh, ordered, result, config)
        if os.path.lexists(traces):
            stale = fresh + ".old"
            os.rename(traces, stale)
        os.rename(fresh, traces)
    except BaseException:
        shutil.rmtree(fresh, ignore_errors=True)
        raise
    if stale is not None:
        shutil.rmtree(stale)

    with _replacing(os.path.join(out, "plotdata.csv")) as fh:
        fh.write("variant,epsilon,delta,seed,checkpoint,cumulative_regret\n")
        for (variant, eps, delta, seed), checks in ordered:
            for cp, value in zip(config.checkpoints, checks):
                fh.write(f"{variant},{_fmt(eps)},{_fmt(delta)},{seed},"
                         f"{cp},{float(value)!r}\n")

    settings = asdict(config)
    del settings["output"], settings["master_seed"]
    manifest = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "master_seed": config.master_seed,
        "config": settings,
    }
    with _replacing(os.path.join(out, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
