#!/usr/bin/env python3
"""Run every bundled sweep configuration through ``swapsim run``.

Usage: python scripts/run_all_recipes.py [--out DIR]

Each config runs even after one fails; the exit code is the first nonzero
one ``swapsim run`` returned (2 usage, 3 I/O, 4 invariant violation).
"""

import argparse
import pathlib
import sys

from swapsim.cli import main as swapsim_main

CONFIG_DIR = pathlib.Path(__file__).parent / "configs"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args()

    codes = [swapsim_main(["run", str(cfg_path), "--out", args.out])
             for cfg_path in sorted(CONFIG_DIR.glob("*.cfg"))]
    return next((code for code in codes if code), 0)


if __name__ == "__main__":
    sys.exit(main())
