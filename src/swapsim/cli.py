"""Command-line front end.

  swapsim run <config-file> [--out DIR] [--seed N] [--dump-state PATH]
  swapsim check [--draws N] [--seed N]
  swapsim recipes

Exit codes: 0 success, 2 usage/configuration error (including inputs
whose heralding probability vanishes), 3 I/O error, 4 invariant violation
detected during the oracle check.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .config import ConfigError, validate_config
from .recipes import describe_recipes, run, run_oracle_draws

USAGE_ERROR = 2
IO_ERROR = 3
INVARIANT_ERROR = 4


def _build_parser() -> argparse.ArgumentParser:
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
    result = run_oracle_draws(args.draws, args.seed)
    summary = result.summary
    tols = summary["tolerances"]
    checks = [
        ("state entries vs closed form", summary["max_dev_rho"], tols["rho"]),
        ("heralding probability vs summed weights", summary["max_dev_norm"], tols["norm"]),
        ("concurrence vs closed form", summary["max_dev_concurrence"], tols["concurrence"]),
    ]
    for name, value, tol in checks:
        status = "PASS" if value <= tol else "FAIL"
        print(f"{status} {name}: max deviation {value:.3e} (tolerance {tol:.0e})")
    print(f"{summary['draws']} random draws, seed {args.seed}")
    return 0 if result.ok else INVARIANT_ERROR


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
    except ValueError as exc:
        # valid config, degenerate physics (e.g. an outcome of probability ~0)
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
