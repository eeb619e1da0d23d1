#!/usr/bin/env python3
"""Regenerate every results table in one go.

Thin driver over ``acfshape reproduce``: runs the requested recipes in
order, times each one, and leaves the CSV files plus their manifests in
the output directory.  Pass recipe names to run a subset, e.g.

    python3 scripts/reproduce_all.py fig1 fig4 --out-dir results
"""

import argparse
import sys
import time

from acfshape.cli import _RECIPES, run

RECIPES = list(_RECIPES)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("recipes", nargs="*", metavar="recipe",
                        help=f"recipes to run (default: all of {', '.join(RECIPES)})")
    parser.add_argument("--out-dir", default="results", help="output directory")
    parser.add_argument("--trials", type=int, default=1000,
                        help="Monte Carlo trials per empirical curve")
    parser.add_argument("--runs", type=int, default=100,
                        help="ranging runs per SNR point (fig6/fig7)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    args = parser.parse_args()

    recipes = args.recipes or RECIPES
    unknown = sorted(set(recipes) - set(RECIPES))
    if unknown:
        parser.error(f"unknown recipe(s): {', '.join(unknown)}")
    for name in recipes:
        started = time.perf_counter()
        code = run([
            "reproduce", name, "--out-dir", args.out_dir,
            "--trials", str(args.trials), "--runs", str(args.runs),
            "--seed", str(args.seed),
        ])
        elapsed = time.perf_counter() - started
        print(f"{name}: exit {code} in {elapsed:.1f}s", file=sys.stderr)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
