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
import stat
import tempfile
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import groupby

import numpy as np

from . import __version__
from .bandit import EngineConfig, run_episode
from .env import BanditInstance, SeedSpec
from .mechanism import PrivacyParams, derive_params

VARIANT_SDP_AE = "sdp-ae"
VARIANT_VB = "vb-sdp-ae"
VARIANT_BASELINE = "ae-baseline"
VARIANTS = (VARIANT_SDP_AE, VARIANT_VB, VARIANT_BASELINE)

RESULTS_HEADER = ("variant,epsilon,delta,checkpoint,"
                  "mean_regret,stderr,min,max,clean_violations")


class ConfigError(ValueError):
    """A config that breaks a rule; `key` names the field at fault."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class ExperimentConfig:
    """`seeds` runs of each (variant, epsilon, delta) cell on the instance
    (k, means, horizon), regret recorded at `checkpoints`, written to `output`.

    Construction checks the config format's rules, the means' by building
    the instance, raising ConfigError keyed by the field at fault, so a
    config built in code meets them as a parsed one does.  A config never
    run may break the two rules `cells` checks.
    """

    k: int
    means: tuple[float, ...]
    horizon: int
    variants: tuple[str, ...]
    seeds: int
    master_seed: int
    checkpoints: tuple[int, ...]
    output: str
    epsilons: tuple[float, ...] = ()  # private variants only
    deltas: tuple[float, ...] = ()
    baseline_m: int = 1

    def __post_init__(self):
        for key, least in (("k", 1), ("horizon", 1), ("seeds", 1),
                           ("master_seed", 0), ("baseline_m", 1)):
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be >= {least}", key)
        if self.horizon > 2**63 - 1:  # numpy draws batch sums as int64
            raise ConfigError("horizon must be <= 2**63 - 1", "horizon")
        try:  # k and horizon are checked: the instance can fault only means
            self.instance()
        except ValueError as exc:
            raise ConfigError(str(exc), "means") from None
        if not self.variants:
            raise ConfigError("variants must be nonempty", "variants")
        # one cell per entry: a repeated entry would run its cells twice
        for key in ("variants", "epsilons", "deltas"):
            items = getattr(self, key)
            repeated = [v for i, v in enumerate(items) if v in items[:i]]
            if repeated:
                raise ConfigError(f"{key} entry {repeated[0]!r} is repeated",
                                  key)
        for v in self.variants:
            if v not in VARIANTS:
                raise ConfigError(f"unknown variant {v!r} (expected one of "
                                  f"{', '.join(VARIANTS)})", "variants")
        cps = self.checkpoints
        if not cps:
            raise ConfigError("checkpoints must be nonempty", "checkpoints")
        if any(a >= b for a, b in zip(cps, cps[1:])):
            raise ConfigError("checkpoints must be sorted strictly ascending",
                              "checkpoints")
        if cps[0] < 1 or cps[-1] > self.horizon:
            raise ConfigError("checkpoints must lie in [1, horizon]",
                              "checkpoints")
        for eps in self.epsilons:
            if not 0.0 < eps <= 1.0:
                raise ConfigError(f"epsilon {eps} outside (0, 1]", "epsilons")
        for delta in self.deltas:
            if not 0.0 < delta < 1.0:
                raise ConfigError(f"delta {delta} outside (0, 1)", "deltas")
        for eps in self.epsilons:  # each pair's noise budget must be finite
            for delta in self.deltas:
                try:
                    derive_params(eps, delta)
                except ValueError as exc:
                    raise ConfigError(str(exc), "epsilons") from None

    def instance(self) -> BanditInstance:
        return BanditInstance(self.k, self.means, self.horizon)

    def cells(self) -> list[tuple]:
        """The (variant, epsilon, delta) cells, in run and output order.

        Checks the rules of a config to be run: private variants need
        epsilons and deltas, and `output` must be nonempty."""
        private = [v for v in self.variants if v != VARIANT_BASELINE]
        if private and (not self.epsilons or not self.deltas):
            raise ConfigError(f"private variants {private} need epsilons and "
                              f"deltas", "deltas" if self.epsilons
                              else "epsilons")
        if not self.output:
            raise ConfigError("output must be nonempty", "output")
        grid = [(eps, delta) for eps in self.epsilons for delta in self.deltas]
        return [(v, *cell) for v in self.variants
                for cell in ([(None, None)] if v == VARIANT_BASELINE else grid)]


@dataclass
class AggregateResult:
    # (variant, epsilon, delta, seed) -> checkpointed regret array, in key
    # order: each cell's seeds in a row
    traces: dict
    # (variant, epsilon, delta) -> its episodes that broke the clean event
    violations: dict


def _read(key: str, kind: str, text: str):
    """The value of a key from its text, by the type its field declares."""
    item = kind.removeprefix("tuple[").removesuffix(", ...]")
    if item != kind:  # tuple[T, ...]: a comma-separated list of T
        return tuple(_read(key, item, v.strip()) for v in text.split(",")
                     if v.strip())
    try:
        return {"int": int, "float": float, "str": str}[kind](text)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {text!r}"
                          if kind == "int" else
                          f"{key} entry {text!r} is not a number", key) from None


def parse_config(path: str) -> ExperimentConfig:
    """Read a config file; unknown, repeated or malformed keys are errors.

    ExperimentConfig checks the rules.  Each error names the file, and the
    line of the key at fault when the file sets it.
    """
    known = {f.name: f for f in fields(ExperimentConfig)}
    raw: dict[str, tuple[str, int]] = {}
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a BOM is no key
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: "
                          f"{getattr(exc, 'strerror', None) or exc}") from None
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

    try:
        values = {}
        for f in known.values():
            if f.name in raw:
                values[f.name] = _read(f.name, f.type, raw[f.name][0])
            elif f.default is MISSING:
                raise ConfigError(f"missing required key {f.name!r}", f.name)
        config = ExperimentConfig(**values)
        config.cells()  # a file's config is one to be run
        return config
    except ConfigError as exc:
        where = f"{path}:{raw[exc.key][1]}" if exc.key in raw else path
        raise ConfigError(f"{where}: {exc}", exc.key) from None


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


def _run_jobs(config: ExperimentConfig, keys: list, stage: str,
              pooled: bool) -> list:
    """Run the episodes of these (variant, eps, delta, seed) keys in order.

    Each episode's trace file is written into `stage`: in a pool worker as
    soon as the episode has run, so that the file creations overlap the
    other workers' episodes, and otherwise after the last episode, since
    creating the files back to back costs less per file (0.6 to 0.9 times
    as much on desk.cfg) than creating each between two episodes.  An
    episode's regret at the checkpoints follows from its elimination
    record, so its memory does not grow with the horizon.
    """
    instance = config.instance()
    out = []
    for key in keys:
        variant, eps, delta, seed = key
        params = None if eps is None else derive_params(eps, delta)
        econf = engine_config(config, variant, params)
        seeds = SeedSpec(config.master_seed, seed)
        episode = run_episode(instance, econf, seeds, config.checkpoints)
        checks = episode.cumulative_regret
        out.append((checks, episode.clean_event_violated))
        if pooled:
            _write_trace(config, stage, key, checks)
    if not pooled:
        for key, (checks, _) in zip(keys, out):
            _write_trace(config, stage, key, checks)
    return out


def _write_trace(config: ExperimentConfig, stage: str, key, checks) -> None:
    """An episode's regret at the checkpoints."""
    with open(os.path.join(stage, _trace_name(key)), "w") as fh:
        fh.write("checkpoint,cumulative_regret\n")
        fh.writelines(_checkpoint_rows(config, checks))


def run_experiment(config: ExperimentConfig,
                   threads: int = 1) -> AggregateResult:
    """Run every (cell, seed) episode and emit the outputs.

    With threads > 1, each of min(threads, CPUs, keys) pool workers gets
    one task: the config and every tasks-th key, so each sees a similar mix
    of cheap and expensive cells.  Outcomes are put back in key order, so
    the bytes written do not depend on threads.  Each worker writes the
    trace files of its own episodes into the staging directory (see
    `emit_outputs`), which any failure deletes.
    """
    if threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}", "threads")
    cells = config.cells()
    keys = [(*cell, seed) for cell in cells for seed in range(config.seeds)]
    out = config.output
    os.makedirs(out, exist_ok=True)  # fail before any episode
    stage = tempfile.mkdtemp(prefix=".staging-", dir=out)
    try:
        os.chmod(stage, os.stat(out).st_mode & 0o777)  # mkdtemp makes it 0700
        tasks = min(threads, len(keys), os.cpu_count() or 1)
        if tasks > 1:  # a serial run never loads the pool's modules
            from concurrent.futures import ProcessPoolExecutor

            strided = [keys[i::tasks] for i in range(tasks)]
            with ProcessPoolExecutor(max_workers=tasks) as pool:
                parts = pool.map(_run_jobs, [config] * tasks, strided,
                                 [stage] * tasks, [True] * tasks)
                outcomes = [None] * len(keys)
                for i, part in enumerate(parts):
                    outcomes[i::tasks] = part
        else:
            outcomes = _run_jobs(config, keys, stage, False)
        result = AggregateResult({}, dict.fromkeys(cells, 0))
        for key, (checks, violated) in zip(keys, outcomes):
            result.traces[key] = checks
            result.violations[key[:3]] += violated
        emit_outputs(result, config, stage)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        raise
    return result


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(value)


def _trace_name(key) -> str:
    variant, eps, delta, seed = key
    return (f"{variant}_{_fmt(eps) or 'none'}_{_fmt(delta) or 'none'}_"
            f"{seed}.csv")


def _checkpoint_rows(config: ExperimentConfig, checks) -> list[str]:
    return [f"{cp},{float(value)!r}\n"
            for cp, value in zip(config.checkpoints, checks)]


def emit_outputs(result: AggregateResult, config: ExperimentConfig,
                 stage: str) -> None:
    """Write results.csv, each cell's statistics over its seeds at each
    checkpoint, plotdata.csv and manifest.json, and put them and the
    episodes' trace files in place.

    `stage` is a fresh directory inside `config.output` that already holds
    every trace file.  The three top-level files are written into it too;
    only then are they moved into place and the rest swapped in as
    `traces/`, so `traces/` never holds a previous run's files, and nothing
    else in the output directory is touched.  A `traces` that is a file or
    a symbolic link is replaced too, and a link's target is never touched.
    """
    out = config.output
    with open(os.path.join(stage, "results.csv"), "w") as fh:
        fh.write(RESULTS_HEADER + "\n")
        for cell, group in groupby(result.traces.items(),
                                   key=lambda kv: kv[0][:3]):
            data = np.vstack([checks for _, checks in group])
            n = data.shape[0]
            stderrs = (data.std(axis=0, ddof=1) / math.sqrt(n) if n > 1
                       else np.zeros(data.shape[1]))
            variant, eps, delta = cell
            for cp, *stats in zip(config.checkpoints, data.mean(axis=0),
                                  stderrs, data.min(axis=0), data.max(axis=0)):
                fh.write(",".join([variant, _fmt(eps), _fmt(delta), str(cp),
                                   *(repr(float(v)) for v in stats),
                                   str(result.violations[cell])]) + "\n")

    with open(os.path.join(stage, "plotdata.csv"), "w") as plot:
        plot.write("variant,epsilon,delta,seed,checkpoint,"
                   "cumulative_regret\n")
        # episodes in the str order of their keys, as traces/ lists them
        for key, checks in sorted(result.traces.items(),
                                  key=lambda kv: str(kv[0])):
            variant, eps, delta, seed = key
            cell = f"{variant},{_fmt(eps)},{_fmt(delta)},{seed},"
            plot.writelines(cell + row
                            for row in _checkpoint_rows(config, checks))

    settings = asdict(config)
    del settings["output"], settings["master_seed"]
    manifest = {
        "package_version": __version__,
        "numpy_version": np.__version__,
        "master_seed": config.master_seed,
        "config": settings,
    }
    with open(os.path.join(stage, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for name in ("results.csv", "plotdata.csv", "manifest.json"):
        os.replace(os.path.join(stage, name), os.path.join(out, name))
    traces = os.path.join(out, "traces")
    stale = None
    if os.path.lexists(traces):
        stale = stage + ".old"
        os.rename(traces, stale)
    os.rename(stage, traces)
    if stale is not None:
        if stat.S_ISDIR(os.lstat(stale).st_mode):
            shutil.rmtree(stale)
        else:  # a file or a link; a link's target is left as it is
            os.unlink(stale)
