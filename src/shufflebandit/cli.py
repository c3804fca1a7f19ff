"""Command line entry points.

Subcommands:
  run                run a regret experiment from a config file
  audit              exact privacy audit over a parameter grid (CSV to stdout)
  mechanism sample   draw mechanism error samples (one value per line)

Exit codes: 0 success, 1 validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .harness import ConfigError, parse_config, run_experiment
from .mechanism import derive_params, private_sum


def _parse_floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _parse_batch_sizes(text: str) -> list[int | str]:
    from .audit import TAU_MULTIPLES  # scipy loads only for `audit`

    tokens = [v.strip() for v in text.split(",") if v.strip()]
    return [v if v in TAU_MULTIPLES else int(v) for v in tokens]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="shufflebandit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a regret experiment")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--full-trace", action="store_true")

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
    if args.threads < 1:
        raise ValueError(f"threads must be >= 1, got {args.threads}")
    try:
        run_experiment(config, threads=args.threads,
                       full_trace=args.full_trace)
    except ValueError as exc:  # the input was checked: a runtime failure
        raise RuntimeError(exc) from exc
    return 0


def cmd_audit(args) -> int:
    from .audit import audit_grid

    cells = audit_grid(_parse_batch_sizes(args.m), _parse_floats(args.eps),
                       _parse_floats(args.delta))
    print("m,epsilon,delta,div_forward,div_backward,pass")
    for cell in cells:
        if cell.report is None:
            print(f"{cell.m},{cell.epsilon!r},{cell.delta!r},,,"
                  f"error: {cell.error}")
        else:
            r = cell.report
            print(f"{r.m},{r.epsilon!r},{r.delta!r},"
                  f"{r.divergence_forward!r},{r.divergence_backward!r},"
                  f"{'true' if r.passed else 'false'}")
    return 0


def cmd_mechanism_sample(args) -> int:
    if args.m < 1 or args.n < 1:
        raise ValueError("--m and --n must be >= 1")
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
        if args.command == "mechanism":
            return cmd_mechanism_sample(args)
        return 2
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
