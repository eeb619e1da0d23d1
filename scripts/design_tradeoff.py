#!/usr/bin/env python3
"""Sweep the suppression window against the achievable sidelobe floor.

For a sequence of window widths (all starting at the same symbol lag)
this designs one pulse per objective and records the region metrics of
the designed pulse next to the root-raised-cosine baseline.  The output
is a single CSV; each row is one window.

Widths are in symbols.  On a 2-vCPU machine the default grid (n=64)
finishes in under a second, and full-scale runs (--n 128 --l 10) take
about half a second per row.  A missing output directory is created.
"""

import argparse
import math
import time

from acfshape import pulse, shaping, tableio


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=64, help="symbols per slot")
    parser.add_argument("--l", type=int, default=4, help="oversampling factor")
    parser.add_argument("--alpha", type=float, default=0.35, help="excess bandwidth")
    parser.add_argument("--start", type=float, default=3.0,
                        help="window start in symbol lags")
    parser.add_argument("--widths", type=float, nargs="+",
                        default=[2.0, 4.0, 6.0, 8.0, 10.0],
                        help="window widths in symbol lags")
    parser.add_argument("--out", default="design_tradeoff.csv")
    args = parser.parse_args()

    started = time.perf_counter()
    rrc = pulse.rrc_spectrum(args.n, args.l, args.alpha)
    table = {name: [] for name in ("width_symbols", "rrc_isl", "rrc_psl",
                                   "designed_isl", "designed_psl", "psl_gain_db")}
    for width in args.widths:
        lags = shaping.sidelobe_lags(args.n, args.l, args.start, args.start + width)
        base = shaping.region_metrics(rrc, lags)
        spot = {}
        for objective in ("isl", "psl"):
            result = shaping.design_pulse(
                shaping.ShapingSpec(args.n, args.l, args.alpha, lags, objective)
            )
            if not result.converged:
                print(f"width {width}: {objective} design did not converge, "
                      f"certified gap {result.gap:.1e}")
            spot[objective] = shaping.region_metrics(result.pulse, lags)[objective]
        gain_db = None if spot["psl"] <= 0 else \
            10.0 * math.log10(base["psl"] / spot["psl"])
        for column, value in zip(table.values(), (width, base["isl"], base["psl"],
                                                  spot["isl"], spot["psl"], gain_db)):
            column.append(value)
        print(f"width {width:g}: baseline psl {base['psl']:.3e}, "
              f"designed psl {spot['psl']:.3e} "
              f"({'n/a' if gain_db is None else f'{gain_db:.1f} dB'})")
    manifest = tableio.manifest_text("design-tradeoff", vars(args), None,
                                     time.perf_counter() - started)
    tableio.commit([(args.out, tableio.csv_text(table)),
                    (tableio.manifest_path(args.out), manifest)])
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
