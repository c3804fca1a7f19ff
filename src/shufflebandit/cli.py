"""Command line entry points.

Subcommands:
  run                run a regret experiment from a config file
  audit              exact privacy audit over a parameter grid (CSV to stdout)
  mechanism sample   draw mechanism error samples (one value per line)

Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

import numpy as np

from .harness import ConfigError, parse_config, run_experiment
from .mechanism import derive_params, private_sum

# `audit --m` tokens: that multiple of ceil(tau) in each (epsilon, delta) cell
TAU_MULTIPLES = {"tau": 1, "4tau": 4}


def _parse_list(flag: str, text: str, parse) -> list:
    """The comma-separated values of an `audit` flag, at least one."""
    values = []
    for entry in filter(None, (v.strip() for v in text.split(","))):
        try:
            values.append(parse(entry))
        except ValueError:
            raise ValueError(f"{flag} has an invalid entry {entry!r}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 1, as bad input does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shufflebandit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a regret experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--threads", type=int, default=1)

    p_audit = sub.add_parser("audit", help="exact privacy audit grid")
    p_audit.add_argument("--m", required=True,
                         help="comma-separated batch sizes; 'tau' and "
                         "'4tau' resolve to 1 and 4 times ceil(tau) per cell")
    p_audit.add_argument("--eps", required=True,
                         help="comma-separated epsilon values")
    p_audit.add_argument("--delta", required=True,
                         help="comma-separated delta values")

    p_mech = sub.add_parser("mechanism", help="mechanism utilities")
    mech_sub = p_mech.add_subparsers(dest="mech_command", required=True)
    p_sample = mech_sub.add_parser("sample",
                                   help="sample mechanism error values")
    p_sample.add_argument("--m", type=int, required=True)
    p_sample.add_argument("--eps", type=float, required=True)
    p_sample.add_argument("--delta", type=float, required=True)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)
    return parser


def cmd_run(args) -> int:
    config = parse_config(args.config)
    try:
        run_experiment(config, threads=args.threads)
    except ConfigError:  # bad input
        raise
    except ValueError as exc:  # the input was checked: a runtime failure
        raise RuntimeError(exc) from exc
    return 0


def cmd_audit(args) -> int:
    import csv  # kept off the `run` path, as scipy is

    from .audit import hockey_stick  # scipy loads only here

    cells = itertools.product(
        _parse_list("--m", args.m,
                    lambda v: v if v in TAU_MULTIPLES else int(v)),
        _parse_list("--eps", args.eps, float),
        _parse_list("--delta", args.delta, float))
    rows = csv.writer(sys.stdout, lineterminator="\n")  # quotes any comma
    rows.writerow(["m", "epsilon", "delta", "div_forward", "div_backward",
                   "pass"])
    for m, eps, delta in cells:  # each row printed once it is audited
        try:
            params = derive_params(eps, delta)
            if m in TAU_MULTIPLES:
                m = TAU_MULTIPLES[m] * math.ceil(params.tau)
            r = hockey_stick(m, params)
            audited = [repr(r.divergence_forward),
                       repr(r.divergence_backward),
                       "true" if r.passed else "false"]
        except (ValueError, OverflowError) as exc:  # m too big for a float
            audited = ["", "", f"error: {exc}"]  # m: the token if params failed
        rows.writerow([m, repr(eps), repr(delta), *audited])
    return 0


def cmd_mechanism_sample(args) -> int:
    if args.m < 1 or args.n < 1:
        raise ValueError("--m and --n must be >= 1")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    params = derive_params(args.eps, args.delta)
    zeros = np.zeros(args.m, dtype=np.int8)
    rng = np.random.default_rng(args.seed)
    for _ in range(args.n):
        print(repr(private_sum(zeros, params, rng).value))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "audit":
            return cmd_audit(args)
        return cmd_mechanism_sample(args)
    except ValueError as exc:  # bad input, a ConfigError among them
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
