"""Command-line front end.

  swapsim run <config-file> [--out DIR] [--seed N] [--dump-state PATH]
  swapsim check [--draws N] [--seed N]
  swapsim recipes

Exit codes: 0 success, 2 usage/configuration error (including inputs
whose heralding probability vanishes and a grid too large to compute in
the memory there is), 3 I/O error, 4 invariant violation detected during
the oracle check (a deviation past its tolerance, or an error raised
inside a draw, whose inputs are valid by construction).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from . import __version__
from .config import ConfigError, too_many_draws, validate_config
from .recipes import DrawError, describe_recipes, oracle_verdicts, run, run_oracle_draws

USAGE_ERROR = 2
IO_ERROR = 3
INVARIANT_ERROR = 4


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main`` call.

    ``parse_args`` returns a fresh namespace each time and the parser keeps
    no state between calls, so one instance serves a whole process.
    """
    parser = argparse.ArgumentParser(
        prog="swapsim",
        description=(
            "Entanglement swapping with photon-number-encoded qubits over "
            "lossy channels. All transmittivities are AMPLITUDE "
            "transmittivities (power transmission = t^2); success "
            "probabilities sum both entangling heralding outcomes."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep described by a config file")
    run_p.add_argument("config", help="plain-text key = value configuration file")
    run_p.add_argument("--out", help="output directory (default: config 'out' or cwd)")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument(
        "--dump-state",
        metavar="PATH",
        help="write the first grid point's heralded state as JSON",
    )

    check_p = sub.add_parser("check", help="run the closed-form vs brute-force oracle")
    check_p.add_argument("--draws", type=int, default=1000)
    check_p.add_argument("--seed", type=int, default=0)

    sub.add_parser("recipes", help="list the named experiments")
    return parser


def _cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        text = fh.read()
    cfg = validate_config(text)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        cfg = dataclasses.replace(cfg, seed=args.seed)
    report = run(cfg, out_dir=args.out, dump_state=args.dump_state)
    print(f"{report.experiment}: wrote {report.csv_path}")
    for key, value in report.summary.items():
        print(f"  {key}: {value}")
    if not report.ok:
        print("invariant violation detected", file=sys.stderr)
        return INVARIANT_ERROR
    return 0


def _cmd_check(args) -> int:
    if args.draws < 1 or args.seed < 0:
        raise ConfigError("check needs --draws >= 1 and --seed >= 0")
    too_many = too_many_draws("--draws", args.draws)
    if too_many:
        raise ConfigError(too_many)
    result = run_oracle_draws(args.draws, args.seed)
    for passed, label, value, tol in oracle_verdicts(result.summary):
        status = "PASS" if passed else "FAIL"
        print(f"{status} {label}: max deviation {value:.3e} (tolerance {tol:.0e})")
    print(f"{result.summary['draws']} random draws, seed {args.seed}")
    return 0 if result.ok else INVARIANT_ERROR


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "recipes":
            print(describe_recipes())
            return 0
    except ConfigError as exc:
        print(f"configuration error:\n{exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_ERROR
    except DrawError as exc:
        # the draws' inputs are valid by construction: a library defect
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_ERROR
    except ValueError as exc:
        # valid config, degenerate physics (e.g. an outcome of probability ~0)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except MemoryError as exc:
        # valid config whose grid does not fit; the run has removed what it made
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
