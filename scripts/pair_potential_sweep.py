#!/usr/bin/env python3
"""Sweep the two-ion pair potential over separation.

Writes the `rydgate interactions` CSV (vdW shift, projected dipole-exchange
shift of the lower dressed branch, all four exactly diagonalized pair
branches), then prints where the projected formula is good to 2%, with the
asymptote 2 E- taken from `rydgate dress` on the same config.
"""

import argparse
import csv
import json
import os
import tempfile
import warnings

import numpy as np

from rydgate import cli
from rydgate.errors import WeakDriveWarning


def _run(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakDriveWarning)
        status = cli.main(argv)
    if status:
        raise SystemExit(status)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--r-min", default="2.0")
    ap.add_argument("--r-max", default="10.0")
    ap.add_argument("--points", default="100")
    ap.add_argument("--out", default="pair_potential.csv")
    args = ap.parse_args()

    _run(["interactions", "--r-min", args.r_min, "--r-max", args.r_max,
          "--points", args.points, "--output", args.out])
    with tempfile.TemporaryDirectory() as tmp:
        pair_path = os.path.join(tmp, "pair.json")
        _run(["dress", "--output", pair_path])
        with open(pair_path, encoding="utf-8") as handle:
            e_minus_mhz = json.load(handle)["e_minus_mhz"]
    with open(args.out, newline="", encoding="utf-8") as handle:
        table = list(csv.DictReader(handle))

    grid = np.array([float(row["R0_um"]) for row in table])
    approx = np.array([float(row["dd_minus_mhz"]) for row in table])
    full = np.array([float(row["full_branch_1_mhz"]) for row in table]) - 2 * e_minus_mhz
    devs = np.abs(full - approx) / approx
    good = grid[devs <= 0.02]
    print(f"wrote {args.out} ({len(table)} rows)")
    print(f"projected C3/R0^3 within 2% of the full branch for "
          f"R0 >= {good[0]:.2f} um" if good.size else "never within 2%")
    print(f"max deviation {devs.max():.2%} at R0 = {grid[np.argmax(devs)]:.2f} um")


if __name__ == "__main__":
    main()
