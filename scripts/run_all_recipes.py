#!/usr/bin/env python3
"""Run every bundled sweep configuration and print the summaries.

Usage: python scripts/run_all_recipes.py [--out DIR]
"""

import argparse
import pathlib
import sys

from swapsim import validate_config
from swapsim.recipes import run

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()

    failures = 0
    for cfg_path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = validate_config(cfg_path.read_text())
        report = run(cfg, out_dir=args.out)
        print(f"{cfg.experiment}: {report.csv_path}")
        for key, value in report.summary.items():
            print(f"  {key}: {value}")
        if not report.ok:
            print("  INVARIANT VIOLATION", file=sys.stderr)
            failures += 1
    return 4 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
