#!/usr/bin/env python3
"""Reproduce the separating example end to end.

Runs the weak-star refutation and the LD2P certificate battery at each
truncation level and prints the JSON reports.  Exit code 0 means every
level reproduced both halves.
"""
import argparse
import sys

from lipcert.cli import main as cli_main


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-levels", type=int, default=3)
    ap.add_argument("--gamma", default="1/2")
    ap.add_argument("--random-measures", type=int, default=20)
    ap.add_argument("--format", choices=("json", "text"), default="text")
    args = ap.parse_args()

    worst = 0
    for levels in range(1, args.max_levels + 1):
        code = cli_main([
            "--format", args.format,
            "example52", "--levels", str(levels), "--part", "all",
            "--gamma", args.gamma,
            "--random-measures", str(args.random_measures)])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
