"""Command-line front end.

Subcommands: modes, fc, dress, interactions, gate, evolve. One config file
(flag --config, else $RYDGATE_CONFIG, else built-in defaults) supplies the
parameters. A flag that sets a run parameter is a config override: its
dest names the key ("pulse.tau_us") and load_config parses and range-checks
it like the file's own value. Output is deterministic: floats are
serialized with 12 significant digits, CSV rows carry a header, JSON is
emitted with sorted keys. Exit codes: 0 success, 2 validation/parse errors,
3 numerical failures.
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import dynamics, franck_condon, gate, interactions, modes
from .config import RunConfig, load_config
from .constants import mhz, to_mhz
from .dressing import dress
from .errors import NUMERICAL_ERRORS, ParseError, ValidationError
from .trap import equilibrium_geometry

ENV_CONFIG = "RYDGATE_CONFIG"


def fmt(x) -> str:
    """12-significant-digit, locale-independent float formatting."""
    return f"{float(x) + 0.0:.12g}"  # +0.0 normalizes negative zero


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(fmt(obj))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def _emit(text: str, path: str):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell if isinstance(cell, str) else fmt(cell) for cell in row])
    return buf.getvalue()


def _json_text(obj) -> str:
    return json.dumps(_json_ready(obj), sort_keys=True, indent=2) + "\n"


def _cmd_modes(cfg: RunConfig, args) -> str:
    trap_cfg = cfg.trap.trap_config()
    geom = equilibrium_geometry(trap_cfg)
    rows = []
    for label, pol in (("ground", (0.0, 0.0)),
                       ("p_state", (cfg.dressing.pol_p, cfg.dressing.pol_p))):
        for axis in modes.AXES:
            basis = modes.diagonalize(modes.build_hessian(axis, trap_cfg, geom, pol))
            for j in range(2):
                rows.append([
                    label, axis, j,
                    to_mhz(basis.frequencies[j]),
                    basis.eigenvectors[0, j],
                    basis.eigenvectors[1, j],
                ])
    return _csv_text(["config", "axis", "mode", "freq_mhz", "v_ion1", "v_ion2"], rows)


def _cmd_fc(cfg: RunConfig, args) -> str:
    trap_cfg = cfg.trap.trap_config()
    geom = equilibrium_geometry(trap_cfg)
    ground = modes.diagonalize(modes.build_hessian(args.axis, trap_cfg, geom))
    pol = (cfg.dressing.pol_p, cfg.dressing.pol_p)
    excited = modes.diagonalize(modes.build_hessian(args.axis, trap_cfg, geom, pol))
    fc = franck_condon.fc_matrix(ground, excited, n_max=args.n_max)
    labels = [f"{m1}.{m2}" for m1, m2 in fc.labels]
    rows = [[f"k={lbl}"] + list(fc.entries[i]) for i, lbl in enumerate(labels)]
    return _csv_text(["bra"] + [f"j={lbl}" for lbl in labels], rows)


def _cmd_dress(cfg: RunConfig, args) -> str:
    pair = dress(cfg.dressing.mw_drive(), cfg.dressing.pol_p, cfg.dressing.pol_s)
    payload = asdict(pair)
    payload["e_plus_mhz"] = to_mhz(pair.e_plus)
    payload["e_minus_mhz"] = to_mhz(pair.e_minus)
    return _json_text(payload)


def _cmd_interactions(cfg: RunConfig, args) -> str:
    drive = cfg.dressing.mw_drive()
    pair = dress(drive, cfg.dressing.pol_p, cfg.dressing.pol_s)
    model = interactions.dd_coefficients(pair, drive.d1, c6=cfg.interactions.c6)
    sweep = cfg.interactions
    rows = []
    for r0 in np.linspace(sweep.r_min_um, sweep.r_max_um, sweep.points):
        eigs = interactions.pair_potential_full(drive, r0)
        rows.append([
            r0,
            to_mhz(interactions.vdw_shift(model.c6, r0)),
            to_mhz(interactions.dd_shift(model.c3_minus, r0)),
            *[to_mhz(e) for e in eigs],
        ])
    header = ["R0_um", "vdw_mhz", "dd_minus_mhz",
              "full_branch_1_mhz", "full_branch_2_mhz",
              "full_branch_3_mhz", "full_branch_4_mhz"]
    return _csv_text(header, rows)


def _cmd_gate(cfg: RunConfig, args) -> str:
    pulse = cfg.pulse.pulse_shape()
    blockade = mhz(cfg.simulation.blockade_mhz)
    if args.optimize:
        delta0 = gate.optimize_pulse(pulse.omega0, pulse.tau, blockade)
        pulse = gate.PulseShape(omega0=pulse.omega0, delta0=delta0, tau=pulse.tau)
    if args.trace:
        times, phi_dd, phi_de, phi_ent = gate.phase_trace(pulse, blockade)
        rows = list(zip(times, phi_dd, phi_de, phi_ent))
        return _csv_text(["t_us", "phi_DD", "phi_DE", "phi_ent"], rows)
    design = gate.entangling_phase(pulse, blockade)
    diag = np.diag(design.unitary)
    payload = {
        "omega0_mhz": to_mhz(pulse.omega0),
        "delta0_mhz": to_mhz(pulse.delta0),
        "tau_us": pulse.tau,
        "blockade_mhz": to_mhz(blockade),
        "phi_dd": design.phi_dd,
        "phi_de": design.phi_de,
        "phi_ent": design.phi_ent,
        "adiabaticity_ratio": gate.adiabaticity_ratio(pulse, blockade),
        "unitary_diag_re": [z.real for z in diag],
        "unitary_diag_im": [z.imag for z in diag],
    }
    return _json_text(payload)


def _cmd_evolve(cfg: RunConfig, args) -> str:
    sim = cfg.sim_config()
    phases = dynamics.entangling_phase_dynamic(sim)
    trace = phases["trace_dd"]
    mean_n, deviation = dynamics.phonon_excitation(trace)
    p_loss = dynamics.loss_probability(trace, cfg.simulation.tau0_us)
    rows = list(zip(trace.times, trace.p_dd, trace.p_dm, trace.p_mm,
                    trace.p_init, mean_n, trace.norms))
    csv_text = _csv_text(
        ["t_us", "p_DD", "p_Dm", "p_mm", "p_init", "mean_phonon", "norm"], rows)
    summary = {
        "phi_ent_dynamic": phases["phi_ent_dynamic"],
        "phi_dd_dynamic": phases["phi_dd_dynamic"],
        "phi_de_dynamic": phases["phi_de_dynamic"],
        "P_loss": p_loss,
        "tau0_us": cfg.simulation.tau0_us,
        "max_p_mm": float(np.max(trace.p_mm)),
        "max_phonon_deviation": deviation,
        "norm_drift": float(np.max(np.abs(trace.norms - 1.0))),
    }
    summary_text = _json_text(summary)
    if cfg.output.path:
        with open(cfg.output.path + ".summary.json", "w", encoding="utf-8") as handle:
            handle.write(summary_text)
    else:
        sys.stderr.write(summary_text)
    return csv_text


_COMMANDS = {
    "modes": _cmd_modes,
    "fc": _cmd_fc,
    "dress": _cmd_dress,
    "interactions": _cmd_interactions,
    "gate": _cmd_gate,
    "evolve": _cmd_evolve,
}


def _override(parser, flag: str, key: str, **kwargs):
    """A flag that sets config key "section.name"; load_config parses it."""
    parser.add_argument(flag, dest=key, metavar=flag[2:].replace("-", "_").upper(), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help=f"config file (default: ${ENV_CONFIG} if set)")
    _override(common, "--output", "output.path",
              help="output file (default: [output] path or stdout)")

    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Design and simulate the dressed-Rydberg entangling phase gate",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("modes", parents=[common],
                   help="phonon mode frequencies and vectors (CSV)")

    p_fc = sub.add_parser("fc", parents=[common],
                          help="Franck-Condon overlap matrix (CSV)")
    p_fc.add_argument("--axis", default="X", choices=list(modes.AXES))
    p_fc.add_argument("--n-max", type=int, default=10, dest="n_max")

    sub.add_parser("dress", parents=[common],
                   help="dressed-state coefficients and energies (JSON)")

    p_int = sub.add_parser("interactions", parents=[common],
                           help="pair-potential sweep over R0 (CSV)")
    _override(p_int, "--r-min", "interactions.r_min_um")
    _override(p_int, "--r-max", "interactions.r_max_um")
    _override(p_int, "--points", "interactions.points")

    p_gate = sub.add_parser("gate", parents=[common],
                            help="adiabatic gate design (JSON or CSV trace)")
    _override(p_gate, "--omega0-mhz", "pulse.omega0_mhz")
    _override(p_gate, "--delta0-mhz", "pulse.delta0_mhz")
    _override(p_gate, "--tau-us", "pulse.tau_us")
    _override(p_gate, "--blockade-mhz", "simulation.blockade_mhz")
    p_gate.add_argument("--optimize", action="store_true",
                        help="solve for the delta0 that yields phi_ent = pi")
    p_gate.add_argument("--trace", action="store_true",
                        help="emit the phase-accumulation CSV instead of JSON")

    sub.add_parser("evolve", parents=[common],
                   help="full gate dynamics (CSV + JSON summary)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config_path = args.config or os.environ.get(ENV_CONFIG) or None
    overrides = {key: raw for key, raw in vars(args).items()
                 if "." in key and raw is not None}
    try:
        cfg = load_config(config_path, overrides)
        _emit(_COMMANDS[args.command](cfg, args), cfg.output.path)
        return 0
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
