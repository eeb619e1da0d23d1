#!/usr/bin/env python3
"""Print a short digest of every CSV a fixed set of commands writes.

A refactor that must not move output bytes is checked by running this
before and after it and comparing the lines.  The commands run through
acfshape.cli.run in a temporary directory, one after another:

    reproduce all --runs 5 --trials 200 --seed 0
    range-sim --config scripts/range_sim_example.json
    acf-mc --basis sc --n 8 --l 2 --trials 150 --m 1100
    acf-mc --basis cdma --n 16 --l 4 --trials 300 --m 600

The two acf-mc runs draw their slots in several 512-slot chunks.  Each
line is `<file> <first 8 hex digits of its sha256>`, in file-name order.
The digests depend on the numpy build and the BLAS thread count, so
compare lines only between runs on one machine with the same settings.
Takes no options; exits with the first failing command's exit code.
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

from acfshape import cli

EXAMPLE = pathlib.Path(__file__).resolve().parent / "range_sim_example.json"


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        commands = [
            ["reproduce", "all", "--runs", "5", "--trials", "200", "--seed", "0",
             "--out-dir", str(out)],
            ["range-sim", "--config", str(EXAMPLE), "--out-prefix", str(out / "range_sim")],
            ["acf-mc", "--basis", "sc", "--n", "8", "--l", "2", "--trials", "150",
             "--m", "1100", "--out", str(out / "acf_mc_sc.csv")],
            ["acf-mc", "--basis", "cdma", "--n", "16", "--l", "4", "--trials", "300",
             "--m", "600", "--out", str(out / "acf_mc_cdma.csv")],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):  # the JSON summaries
                code = cli.run(argv)
            if code != 0:
                print(f"{' '.join(argv[:2])} exited {code}", file=sys.stderr)
                return code
        for path in sorted(out.glob("*.csv")):
            print(path.name, hashlib.sha256(path.read_bytes()).hexdigest()[:8])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
