#!/usr/bin/env python3
"""Full gate dynamics with the CM phonon mode.

Evolves |DD> x |0> through the pulse with `rydgate evolve`, which writes the
traced populations to CSV and a `.summary.json` beside it, and prints the
dynamic entangling phase, its gap to the adiabatic design (`rydgate gate`),
and the spontaneous-loss estimate.
"""

import argparse
import json
import os
import tempfile

import rydgate as rg
from rydgate import cli


def _run(argv):
    status = cli.main(argv)
    if status:
        raise SystemExit(status)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--blockade-mhz", type=float, default=2.5)
    ap.add_argument("--omega-z-mhz", type=float, default=1.0)
    ap.add_argument("--eta", type=float, default=0.5)
    ap.add_argument("--n-phonon-max", type=int, default=5)
    ap.add_argument("--tau0-us", type=float, default=132.0)
    ap.add_argument("--out", default="gate_dynamics.csv")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "gate_dynamics.cfg")
        design_path = os.path.join(tmp, "design.json")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write(f"[trap]\nomega_z_mhz_override = {args.omega_z_mhz!r}\n"
                         f"eta_override = {args.eta!r}\n"
                         f"[simulation]\nblockade_mhz = {args.blockade_mhz!r}\n"
                         f"n_phonon_max = {args.n_phonon_max}\n"
                         f"tau0_us = {args.tau0_us!r}\n")
        _run(["evolve", "--config", config, "--output", args.out])
        _run(["gate", "--config", config, "--output", design_path])
        with open(design_path, encoding="utf-8") as handle:
            design = json.load(handle)
    with open(args.out + ".summary.json", encoding="utf-8") as handle:
        summary = json.load(handle)

    gap = rg.wrap_angle(summary["phi_ent_dynamic"] - design["phi_ent"])
    print(f"wrote {args.out} and {args.out}.summary.json")
    print(f"phi_ent (dynamic)   = {summary['phi_ent_dynamic']:.5f} rad")
    print(f"phi_ent (design)    = {design['phi_ent']:.5f} rad  (gap {gap:+.4f})")
    print(f"max p_mm            = {summary['max_p_mm']:.5f}")
    print(f"phonon deviation    = {summary['max_phonon_deviation']:.5f}")
    print(f"P_loss (tau0 = {summary['tau0_us']} us) = {summary['P_loss']:.4f}")


if __name__ == "__main__":
    main()
