"""Command-line front end.

Subcommands: modes, fc, dress, interactions, gate, evolve. One config file
(flag --config, else $RYDGATE_CONFIG, else built-in defaults) supplies the
parameters. A flag that sets a run parameter is a config override: its
dest names the key ("pulse.tau_us") and load_config parses and range-checks
it like the file's own value; "--delta0-mhz -1e-1" reads as
"--delta0-mhz=-1e-1". Output is deterministic: floats are serialized with 12
significant digits, CSV rows carry a header, JSON is emitted with sorted
keys. Each subcommand returns its outputs as (suffix, text) pairs, and main
writes them once the subcommand has returned, the main file first. Exit
codes: 0 success, 2 validation/parse errors and unwritable output files, 3
numerical failures.
"""

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

import numpy as np

from . import dynamics, franck_condon, gate, interactions, modes
from .config import RunConfig, load_config
from .constants import mhz, to_mhz
from .dressing import dress
from .errors import ParseError, RydgateError, ValidationError
from .trap import equilibrium_geometry

ENV_CONFIG = "RYDGATE_CONFIG"


def fmt(x) -> str:
    """12-significant-digit, locale-independent float formatting."""
    return f"{float(x) + 0.0:.12g}"  # +0.0 normalizes negative zero


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(fmt(obj))
    return obj


class _OutputError(Exception):
    """An output file could not be written (exit code 2)."""


def _emit(outputs, path: str):
    """Write (suffix, text) pairs in order: to path + suffix, else stdout then stderr."""
    for i, (suffix, text) in enumerate(outputs):
        if not path:
            (sys.stderr if i else sys.stdout).write(text)
            continue
        try:
            with open(path + suffix, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise _OutputError(f"cannot write output file {path + suffix}: {exc}") from exc


def _csv_text(header, block, text=()) -> str:
    """CSV of the numeric 2-D block, each row led by its cells of the text columns.

    text holds 0, 1 or 2 columns of str, one cell per row of block. Numbers
    are written as fmt writes them: "%.12g" and format(x, ".12g") share
    CPython's float-to-string path, and the array's + 0.0 normalizes negative
    zero as fmt's does. Header and text cells are labels this module makes
    (column names, "ground", "X", "k=1.2"); none holds a comma, quote or line
    break, so no cell needs CSV quoting.
    """
    values = (np.asarray(block, dtype=float) + 0.0).tolist()
    n_text = len(text)
    template = ",".join(["%s"] * n_text + ["%.12g"] * (len(header) - n_text)) + "\n"
    return ",".join(header) + "\n" + "".join(
        [template % (*cells, *row) for *cells, row in zip(*text, values)])


def _json_text(obj) -> str:
    return json.dumps(_json_ready(obj), sort_keys=True, indent=2) + "\n"


def _cmd_modes(cfg: RunConfig, args) -> list:
    trap_cfg = cfg.trap.trap_config()
    geom = equilibrium_geometry(trap_cfg)
    labels, axes, rows = [], [], []
    for label, pol in (("ground", (0.0, 0.0)),
                       ("p_state", (cfg.dressing.pol_p, cfg.dressing.pol_p))):
        for axis in modes.AXES:
            basis = modes.diagonalize(modes.build_hessian(axis, trap_cfg, geom, pol))
            for j in range(2):
                labels.append(label)
                axes.append(axis)
                rows.append([
                    j,
                    to_mhz(basis.frequencies[j]),
                    basis.eigenvectors[0, j],
                    basis.eigenvectors[1, j],
                ])
    return [("", _csv_text(["config", "axis", "mode", "freq_mhz", "v_ion1", "v_ion2"], rows,
                           (labels, axes)))]


def _cmd_fc(cfg: RunConfig, args) -> list:
    trap_cfg = cfg.trap.trap_config()
    geom = equilibrium_geometry(trap_cfg)
    ground = modes.diagonalize(modes.build_hessian(args.axis, trap_cfg, geom))
    pol = (cfg.dressing.pol_p, cfg.dressing.pol_p)
    excited = modes.diagonalize(modes.build_hessian(args.axis, trap_cfg, geom, pol))
    fc = franck_condon.fc_matrix(ground, excited, n_max=args.n_max)
    labels = [f"{m1}.{m2}" for m1, m2 in fc.labels]
    return [("", _csv_text(["bra"] + [f"j={lbl}" for lbl in labels], fc.entries,
                           ([f"k={lbl}" for lbl in labels],)))]


def _cmd_dress(cfg: RunConfig, args) -> list:
    pair = dress(cfg.dressing.mw_drive(), cfg.dressing.pol_p, cfg.dressing.pol_s)
    payload = asdict(pair)
    payload["e_plus_mhz"] = to_mhz(pair.e_plus)
    payload["e_minus_mhz"] = to_mhz(pair.e_minus)
    return [("", _json_text(payload))]


def _cmd_interactions(cfg: RunConfig, args) -> list:
    drive = cfg.dressing.mw_drive()
    pair = dress(drive, cfg.dressing.pol_p, cfg.dressing.pol_s)
    model = interactions.dd_coefficients(pair, drive.d1)
    sweep = cfg.interactions
    r0s = np.linspace(sweep.r_min_um, sweep.r_max_um, sweep.points)
    # the power laws on Python floats, point by point: numpy's array ** can
    # differ from scalar pow in the last bit
    points = r0s.tolist()
    vdw = [interactions.vdw_shift(sweep.c6, r0) for r0 in points]
    dd = [interactions.dd_shift(model.c3_minus, r0) for r0 in points]
    eigs = interactions.pair_potential_full(drive, r0s)
    header = ["R0_um", "vdw_mhz", "dd_minus_mhz",
              "full_branch_1_mhz", "full_branch_2_mhz",
              "full_branch_3_mhz", "full_branch_4_mhz"]
    shifts = to_mhz(np.column_stack([vdw, dd, eigs]))
    return [("", _csv_text(header, np.column_stack([r0s, shifts])))]


def _cmd_gate(cfg: RunConfig, args) -> list:
    pulse = cfg.pulse.pulse_shape()
    blockade = mhz(cfg.simulation.blockade_mhz)
    if args.optimize:
        delta0 = gate.optimize_pulse(pulse.omega0, pulse.tau, blockade)
        pulse = gate.PulseShape(omega0=pulse.omega0, delta0=delta0, tau=pulse.tau)
    if args.trace:
        times, phi_dd, phi_de, phi_ent = gate.phase_trace(pulse, blockade)
        return [("", _csv_text(["t_us", "phi_DD", "phi_DE", "phi_ent"],
                               np.column_stack([times, phi_dd, phi_de, phi_ent])))]
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
    return [("", _json_text(payload))]


def _cmd_evolve(cfg: RunConfig, args) -> list:
    sim = cfg.sim_config()
    phases = dynamics.entangling_phase_dynamic(sim)
    trace = phases["trace_dd"]
    mean_n, deviation = dynamics.phonon_excitation(trace)
    p_loss = dynamics.loss_probability(trace, cfg.simulation.tau0_us)
    csv_text = _csv_text(
        ["t_us", "p_DD", "p_Dm", "p_mm", "p_init", "mean_phonon", "norm"],
        np.column_stack([trace.times, trace.p_dd, trace.p_dm, trace.p_mm,
                         trace.p_init, mean_n, trace.norms]))
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
    return [("", csv_text), (".summary.json", _json_text(summary))]


_COMMANDS = {
    "modes": _cmd_modes,
    "fc": _cmd_fc,
    "dress": _cmd_dress,
    "interactions": _cmd_interactions,
    "gate": _cmd_gate,
    "evolve": _cmd_evolve,
}


def _fc_n_max(raw: str) -> int:
    """argparse type of `fc --n-max`: an integer in [0, franck_condon.N_MAX_LIMIT]."""
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or not 0 <= value <= franck_condon.N_MAX_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must be an integer in [0, {franck_condon.N_MAX_LIMIT}], got {raw!r}")
    return value


def _is_number(raw: str) -> bool:
    try:
        float(raw)
    except ValueError:
        return False
    return True


def _join_negative_values(argv) -> list:
    """argv with each "--flag" followed by a negative number joined as "--flag=-1e-1".

    argparse takes "-1" and "-0.5" as values but, depending on the Python
    version, reads "-1e-1", "-inf" or "-nan" as an unknown option; joined, the
    number reaches its flag on every version.
    """
    out = []
    for raw in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and "=" not in prev and raw.startswith("-") and _is_number(raw):
            out[-1] = f"{prev}={raw}"
        else:
            out.append(raw)
    return out


def _override(parser, flag: str, key: str, **kwargs):
    """A flag that sets config key "section.name"; load_config parses it."""
    parser.add_argument(flag, dest=key, metavar=flag[2:].replace("-", "_").upper(), **kwargs)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and reused by later calls; parsing leaves it as is."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None,
                        help=f"config file (default: ${ENV_CONFIG} if set)")
    _override(common, "--output", "output.path",
              help="output file (default: [output] path or stdout)")

    parser = argparse.ArgumentParser(
        prog="rydgate",
        description="Design and simulate the dressed-Rydberg entangling phase gate",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("modes", parents=[common],
                   help="phonon mode frequencies and vectors (CSV)")

    p_fc = sub.add_parser("fc", parents=[common],
                          help="Franck-Condon overlap matrix (CSV)")
    p_fc.add_argument("--axis", default="X", choices=list(modes.AXES))
    p_fc.add_argument("--n-max", type=_fc_n_max, default=10, dest="n_max")

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
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    config_path = args.config or os.environ.get(ENV_CONFIG) or None
    overrides = {key: raw for key, raw in vars(args).items()
                 if "." in key and raw is not None}
    try:
        cfg = load_config(config_path, overrides)
        _emit(_COMMANDS[args.command](cfg, args), cfg.output.path)
        return 0
    except (ParseError, ValidationError, _OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RydgateError as exc:  # every other package error is a numerical failure
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
