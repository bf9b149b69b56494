#!/usr/bin/env python3
"""Design the adiabatic phase gate for a range of interaction strengths.

For each blockade value the detuning scale is re-optimized to hit a pi
entangling phase; the script prints the resulting designs and writes the
phase-accumulation trace of the reference design (B = 2pi x 2.5 MHz)
through `rydgate gate --trace`.
"""

import argparse

import rydgate as rg
from rydgate import cli
from rydgate.constants import mhz, to_mhz

TRACE_BLOCKADE_MHZ = 2.5


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--omega0-mhz", type=float, default=0.5)
    ap.add_argument("--tau-us", type=float, default=60.0)
    ap.add_argument("--blockades-mhz", type=float, nargs="+",
                    default=[1.0, 2.5, 5.0, 10.0])
    ap.add_argument("--trace-out", default="gate_phase_trace.csv")
    args = ap.parse_args()

    omega0 = mhz(args.omega0_mhz)
    print(f"{'B/2pi (MHz)':>12} {'delta0/2pi (MHz)':>17} {'phi_ent (rad)':>14} "
          f"{'adiabaticity':>13}")
    delta0s = {}
    for b_mhz in args.blockades_mhz:
        blockade = mhz(b_mhz)
        delta0 = delta0s[b_mhz] = rg.optimize_pulse(omega0, args.tau_us, blockade)
        pulse = rg.PulseShape(omega0, delta0, args.tau_us)
        design = rg.entangling_phase(pulse, blockade)
        margin = rg.adiabaticity_ratio(pulse, blockade)
        print(f"{b_mhz:12.3f} {to_mhz(delta0):17.6f} {design.phi_ent:14.6f} "
              f"{margin:13.1f}")

    delta0 = delta0s.get(TRACE_BLOCKADE_MHZ)
    if delta0 is None:
        delta0 = rg.optimize_pulse(omega0, args.tau_us, mhz(TRACE_BLOCKADE_MHZ))
    status = cli.main(["gate", "--trace", "--omega0-mhz", repr(args.omega0_mhz),
                       "--delta0-mhz", repr(to_mhz(delta0)), "--tau-us", repr(args.tau_us),
                       "--blockade-mhz", repr(TRACE_BLOCKADE_MHZ),
                       "--output", args.trace_out])
    if status:
        raise SystemExit(status)
    print(f"wrote {args.trace_out}")


if __name__ == "__main__":
    main()
