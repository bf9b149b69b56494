#!/usr/bin/env python3
"""Compare this tree's outputs with another tree's, bit for bit.

    python scripts/same_bits.py --parent DIR [--small]

DIR is a checkout of the tree to compare against, for example the parent
commit unpacked with `git archive HEAD~1 | tar -x -C DIR`. The script runs
one fixed seeded suite in two fresh processes, one importing rydgate from
DIR/src and one from this tree's src/, and prints for each output either
that its bits are equal or the largest relative difference. It exits 1 if
any output differs. Both sides read this tree's configs/*.cfg and draw the
same inputs.

The suite covers the design chain (optimize_pulse roots and NoRoot cases,
every entangling_phase field and the unitary, adiabaticity_ratio and the
four phase_trace arrays) on 600 benchmark gate_design tasks, 300 random
designs, the first 100 of them scaled in time and energy by 2 and 1/2, and
18 weak-drive corners (omega0 / delta0 <= 1e-9); dress,
dd_coefficients, pair_potential_full and lower_branch_shift; aligned and
rotated fc_matrix, with the row norm each TruncationWarning reports (some
cases within 1e-3 of its threshold); entangling_phase_dynamic, and evolve
under a drive with two breakpoints, at n_phonon_max 1 to 6 on 201 output
times and on more output times than steps; every CLI subcommand on
configs/*.cfg; and load_config on fixed texts in the plain INI form and in
the other INI forms, which it refuses, with and without overrides. --small
runs a slice of it. Bits depend on numpy, libm and the CPU, so the check
compares two trees on one machine; it is not a golden file.
"""

import argparse
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 14
TRACE_POINTS = 201  # phase_trace's output times


# each design output and its shape per case; NaN fills the cases without it
DESIGN_FIELDS = {"blockade": (), "phi_dd": (), "phi_de": (), "phi_ent": (), "unitary": (4, 4),
                 "ratio": (), "times": (TRACE_POINTS,), "trace_dd": (TRACE_POINTS,),
                 "trace_de": (TRACE_POINTS,), "trace_ent": (TRACE_POINTS,)}


def _error(exc):
    return f"{type(exc).__name__}: {exc}"


def _gate_tasks(n):
    """The first n benchmark gate_design tasks (perfbench/generate.py, seed SEED)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from generate import TaskStream
    finally:
        sys.path.pop(0)
    stream = TaskStream("gate_design", SEED)
    tasks, block = [], 0
    while len(tasks) < n:
        tasks += stream.block(block)
        block += 1
    return tasks[:n]


def _random_designs(rng, n):
    """(omega0, tau, blockade) of n random designs; the first three have no root."""
    from rydgate.constants import mhz

    cases = [(mhz(0.5), 60.0, 0.0), (0.0, 60.0, mhz(2.5)), (mhz(0.05), 5.0, mhz(2.5))]
    while len(cases) < n:
        cases.append((mhz(np.exp(rng.uniform(np.log(0.05), np.log(1.5)))),
                      rng.uniform(5.0, 150.0), mhz(rng.uniform(0.0, 10.0))))
    return cases[:n]


def _design_outputs(p, blockade):
    """Every design output of one pulse, or the error it raised, as name -> value."""
    from rydgate import gate
    from rydgate.errors import RydgateError

    got = {"outcome": "ok"}
    try:
        design = gate.entangling_phase(p, blockade)
        got.update(blockade=design.blockade, phi_dd=design.phi_dd, phi_de=design.phi_de,
                   phi_ent=design.phi_ent, unitary=design.unitary)
        got.update(zip(("times", "trace_dd", "trace_de", "trace_ent"),
                       gate.phase_trace(p, blockade)))
        got["ratio"] = gate.adiabaticity_ratio(p, blockade)
    except RydgateError as exc:
        got["outcome"] = _error(exc)
    return got


def _append_design(rows, at, got):
    """Append one pulse's _design_outputs (empty if it had none) to rows[at.*]."""
    rows.setdefault(f"{at}.outcome", []).append(got.get("outcome", "none"))
    for name, shape in DESIGN_FIELDS.items():
        value = got.get(name)
        rows.setdefault(f"{at}.{name}", []).append(
            np.full(shape, np.nan) if value is None else value)


def _design_chain(out, prefix, cases, rng):
    """optimize_pulse, then every design output at the root and at a random delta0."""
    from rydgate import gate
    from rydgate.errors import RydgateError

    rows = {}
    for omega0, tau, blockade in cases:
        try:
            root, outcome = gate.optimize_pulse(omega0, tau, blockade), "root"
        except RydgateError as exc:
            root, outcome = None, _error(exc)
        rows.setdefault("root", []).append(np.nan if root is None else root)
        rows.setdefault("outcome", []).append(outcome)
        off = omega0 * np.exp(rng.uniform(np.log(1e-2), np.log(20.0))) if omega0 else 1.0
        for at, delta0 in (("at_root", root), ("off_root", off)):
            _append_design(rows, at, {} if delta0 is None else _design_outputs(
                gate.PulseShape(omega0, delta0, tau), blockade))
    for name, values in rows.items():
        out[f"{prefix}.{name}"] = np.array(values)


def _scaled_designs(out, cases):
    """The design chain on (s omega0, tau / s, s B) for s = 2 and 1/2.

    Time-energy scaling leaves every phase unchanged, exactly so for a power
    of two s (tests/test_invariants.py). The off-root delta0 are drawn from
    one seed for both s, so they scale with omega0.
    """
    for s, label in ((2.0, "x2"), (0.5, "half")):
        _design_chain(out, f"scaling.{label}", [(s * omega0, tau / s, s * blockade)
                                                for omega0, tau, blockade in cases],
                      np.random.default_rng(SEED))


def _weak_drive_corners(out, small):
    """Every design output at omega0 / delta0 <= 1e-9, at B = 0 and at B > 0.

    The roots lie within 50 omega0 and the chain's off-root delta0 within
    20 omega0, so neither reaches this corner, where the paper's closed-form
    |DD> gap and the |DE> gap agree to the last bits.
    """
    from rydgate import gate
    from rydgate.constants import mhz

    cases = [(weak, delta0, blockade) for weak in (1e-9, 1e-12)
             for delta0 in (mhz(0.1), mhz(0.639), mhz(5.0))
             for blockade in (0.0, mhz(2.5), 1e3)]
    rows = {}
    for weak, delta0, blockade in cases[::7] if small else cases:
        _append_design(rows, "weak_drive", _design_outputs(
            gate.PulseShape(weak * delta0, delta0, 60.0), blockade))
    for name, values in rows.items():
        out[f"corners.{name}"] = np.array(values)


def _pair_outputs(out, prefix, drives):
    """dress, dd_coefficients, pair_potential_full and lower_branch_shift per (drive, r0)."""
    from rydgate import dressing, interactions

    rows = {"dress": [], "dd_coefficients": [], "pair_potential_full": [],
            "lower_branch_shift": []}
    for drive, r0 in drives:
        pair = dressing.dress(drive)
        rows["dress"].append(tuple(vars(pair).values()))
        rows["dd_coefficients"].append(
            tuple(vars(interactions.dd_coefficients(pair, drive.d1)).values()))
        rows["pair_potential_full"].append(interactions.pair_potential_full(drive, r0))
        rows["lower_branch_shift"].append(interactions.lower_branch_shift(drive, r0))
    for name, values in rows.items():
        out[f"{prefix}.{name}"] = np.array(values, dtype=float)


def _fc_outputs(out, traps):
    """fc_matrix entries of each (omega_z, omega_rho in MHz, polarizabilities, axis, n_max).

    Also the row norm its TruncationWarning reports, unrounded (NaN when it
    does not warn), and the warning's text. A tree whose warning carries no
    row_norm reported FCMatrix.row_norms().min(), which then stands in.
    """
    from rydgate import franck_condon, modes, trap
    from rydgate.constants import CA40_MASS, TWO_PI
    from rydgate.errors import TruncationWarning

    for i, (omega_z, omega_rho, pols, axis, n_max) in enumerate(traps):
        cfg = trap.from_secular(TWO_PI * omega_z * 1e6, TWO_PI * omega_rho * 1e6,
                                TWO_PI * 30e6, CA40_MASS)
        geom = trap.equilibrium_geometry(cfg)
        ground = modes.diagonalize(modes.build_hessian(axis, cfg, geom))
        excited = modes.diagonalize(modes.build_hessian(axis, cfg, geom, pols))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncationWarning)
            fc = franck_condon.fc_matrix(ground, excited, n_max)
        key = f"fc.{i}.{'aligned' if pols[0] == pols[1] else 'rotated'}.n{n_max}"
        out[key] = fc.entries
        message = caught[0].message if caught else None
        out[f"{key}.warned_row_norm"] = np.array(
            np.nan if message is None else getattr(message, "row_norm", fc.row_norms().min()))
        out[f"{key}.warning"] = np.array("" if message is None else str(message))


def _dynamics_outputs(out, cases):
    """entangling_phase_dynamic's phases, states, nfev and steps per (delta0 MHz, tau, eta, n,
    n_output), and evolve's under a drive with two breakpoints."""
    from rydgate import dynamics, gate
    from rydgate.constants import mhz

    for i, (delta0_mhz, tau, eta, n, n_output) in enumerate(cases):
        cfg = dynamics.SimConfig(blockade=mhz(2.5), omega_z=mhz(1.0), eta=eta,
                                 pulse=gate.PulseShape(mhz(0.5), mhz(delta0_mhz), tau),
                                 n_phonon_max=n, n_output=n_output)
        phases = dynamics.entangling_phase_dynamic(cfg)
        key = f"dynamics.{i}.n{n}"
        out[f"{key}.phases"] = np.array([phases[k] for k in (
            "phi_dd_dynamic", "phi_de_dynamic", "phi_ent_dynamic")])
        for label in ("trace_dd", "trace_de"):
            out[f"{key}.{label}.states"] = phases[label].states
            out[f"{key}.{label}.nfev_steps"] = np.array([phases[label].nfev,
                                                         phases[label].steps])

        def drive(t):  # steps in Omega at 0.3 tau and 0.6 tau, a linear chirp in E
            level = 0.3 if t < 0.3 * tau else (0.8 if t < 0.6 * tau else 0.5)
            return mhz(level) * math.sin(math.pi * t / tau) ** 2, mhz(delta0_mhz) * (1 - t / tau)

        drive.breakpoints = (0.3 * tau, 0.6 * tau)
        trace = dynamics.evolve(cfg, drive=drive)
        out[f"{key}.evolve_breakpoints.states"] = trace.states
        out[f"{key}.evolve_breakpoints.nfev_steps"] = np.array([trace.nfev, trace.steps])


# config texts in the plain INI form and in other INI forms, which load_config refuses
CONFIG_TEXTS = {
    "plain": "# c\n[pulse]\ntau_us = 55\nOmega0_MHz=0.45\n\n[simulation]\nblockade_mhz = 3.1\n",
    "empty_value": "[output]\npath =\n[interactions]\nr_min_um = 3\npoints = 40\n",
    "default_section": "[DEFAULT]\ntau_us = 50\n\n[pulse]\nomega0_mhz = 0.4\n",
    "inline_comment": "[pulse]\ntau_us = 55 ; us\ndelta0_mhz = 0.6 # MHz\n",
    "round_by_round_comment": "[pulse]\ntau_us = 55#x #y ;z\n",
    "colon_delimiter": "[pulse]\ntau_us: 55\nomega0_mhz : 0.45\n",
    "continuation": "[interactions]\npoints = 40\n  50\n",
    "duplicate_section": "[pulse]\ntau_us = 55\n[pulse]\nomega0_mhz = 0.4\n",
    "duplicate_key": "[pulse]\ntau_us = 55\nTAU_US = 56\n",
    "missing_header": "tau_us = 55\n[pulse]\n",
    "percent": "[pulse]\ntau_us = 60%\n",
    "unknown_section": "[pulse]\ntau_us = 55\n[nonsense]\nx = 1\n",
    "out_of_range": "[simulation]\nblockade_mhz = 60\n[interactions]\npoints = 1\n",
    "range_order": "[simulation]\nn_output = 1\nblockade_mhz = 60\n",
}
CONFIG_FLAGS = {"pulse.tau_us": "58.5", "simulation.blockade_mhz": "2.7",
                "interactions.points": "7"}


def _config_outputs(out):
    """load_config on each fixed text, with and without CONFIG_FLAGS: the RunConfig or the error."""
    from rydgate.config import load_config
    from rydgate.errors import RydgateError

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # error texts name the file by its relative path, the same on both sides
        try:
            for name, text in CONFIG_TEXTS.items():
                Path(f"{name}.cfg").write_bytes(text.encode("utf-8"))
                for label, flags in (("file", None), ("flags", CONFIG_FLAGS)):
                    try:
                        got = repr(load_config(f"{name}.cfg", flags))
                    except RydgateError as exc:
                        got = _error(exc)
                    out[f"config.{name}.{label}"] = np.array(got)
        finally:
            os.chdir(cwd)


def _cli_outputs(out, commands):
    """Exit code and the bytes of every file of each CLI invocation on configs/*.cfg."""
    from rydgate import cli

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        for cfg in sorted((ROOT / "configs").glob("*.cfg")):
            for argv in commands:
                key = f"cli.{cfg.stem}.{'_'.join(a.lstrip('-') for a in argv)}"
                out[f"{key}.exit"] = np.array(cli.main(
                    [*argv, "--config", str(cfg), "--output", str(path)]))
                for suffix in ("", ".summary.json"):
                    written = Path(str(path) + suffix)
                    if written.exists():
                        out[f"{key}.file{suffix}"] = np.frombuffer(written.read_bytes(),
                                                                   dtype=np.uint8)
                        written.unlink()


def suite(small=False):
    """Every output of the suite as name -> array, from the rydgate already importable."""
    from rydgate import dressing, interactions
    from rydgate.constants import mhz

    rng = np.random.default_rng(SEED)
    n_tasks, n_designs, n_drives = (4, 6, 12) if small else (600, 300, 300)
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # WeakDriveWarning and TruncationWarning flag valid inputs
        # the benchmark's chain: dress -> C3 / R0^3 -> the design
        drives, cases = [], []
        for task in _gate_tasks(n_tasks):
            drive = dressing.MWDrive(mhz(task["omega_mw_mhz"]), mhz(task["delta_s_mhz"]),
                                     mhz(task["delta_p_mhz"]))
            c3 = interactions.dd_coefficients(dressing.dress(drive), drive.d1).c3_minus
            drives.append((drive, task["r0_um"]))
            cases.append((mhz(task["omega0_mhz"]), task["tau_us"],
                           interactions.dd_shift(c3, task["r0_um"])))
        _pair_outputs(out, "tasks", drives)
        _design_chain(out, "tasks", cases, rng)
        designs = _random_designs(rng, n_designs)
        _design_chain(out, "designs", designs, rng)
        _scaled_designs(out, designs[:100])
        _weak_drive_corners(out, small)
        # drives of either detuning sign, d1 = 0 and R0 well into the weak drive
        drives = [(dressing.MWDrive(mhz(rng.uniform(1.0, 800.0)), mhz(rng.uniform(-300.0, 300.0)),
                                    mhz(rng.uniform(-300.0, 300.0)), rng.uniform(0.0, 3e-26)),
                   rng.uniform(0.5, 12.0)) for _ in range(n_drives)]
        drives[0] = (dressing.MWDrive(mhz(400.0), mhz(136.074), mhz(293.957), 0.0), 5.0)
        _pair_outputs(out, "drives", drives)
        # aligned at n_max 0 and 1, and on either side of the truncation
        # warning's 0.9999 (row norms 0.999942 and 0.999711)
        traps = [(1.0, 4.0, (-1.5e9, -1.5e9), "X", 6), (1.1, 3.8, (-1.5e9, 0.0), "Y", 4),
                 (0.9, 4.2, (-2e9, -2e9), "Y", 0), (1.05, 3.9, (-5e8, -5e8), "X", 1),
                 (1.0, 4.0, (-1e7, -1e7), "X", 1), (1.0, 4.0, (-1e7, -1e7), "X", 4)]
        if not small:
            traps += [(rng.uniform(0.8, 1.2), rng.uniform(3.5, 4.5), pols, axis, n_max)
                      for n_max in (0, 1, 8, 12, 20)
                      for pols, axis in (((-2e9, -2e9), "X"), ((0.0, -1e9), "Y"))]
        _fc_outputs(out, traps)
        # the default 201 output times, and more output times than steps
        _dynamics_outputs(out, [(0.639, 2.0, 0.5, 1, 201), (0.639, 6.0, 0.5, 1, 3000)] if small
                          else [(0.639, 6.0, 0.5, 1, 201), (0.9, 6.0, 0.0, 2, 201),
                                (0.7, 4.0, 0.3, 3, 201), (0.639, 40.0, 0.5, 6, 10_000),
                                (0.8, 20.0, 0.0, 4, 5000)])
        commands = [["gate"], ["gate", "--optimize"], ["gate", "--trace"], ["dress"]]
        if not small:
            commands += [["gate", "--optimize", "--trace"], ["modes"], ["fc", "--n-max", "6"],
                         ["fc", "--axis", "Y"], ["interactions"], ["evolve"]]
        _cli_outputs(out, commands)
        _config_outputs(out)
    return out


def compare(ref, new):
    """One line per output: equal bits, or how far apart; returns (lines, n_differing)."""
    lines, differing = [], 0
    for name in sorted(set(ref) | set(new)):
        a, b = ref.get(name), new.get(name)
        if a is None or b is None:
            status = f"only in the {'parent' if b is None else 'tree'}"
        elif a.dtype != b.dtype or a.shape != b.shape:
            status = f"{a.dtype}{a.shape} against {b.dtype}{b.shape}"
        elif a.tobytes() == b.tobytes():
            status = ("uint64-equal" if a.dtype.kind in "fc" else
                      "byte-identical" if a.dtype == np.uint8 else "equal")
        elif a.dtype.kind in "fc":
            with np.errstate(invalid="ignore", divide="ignore"):
                scale = np.maximum(np.abs(a), np.abs(b))
                rel = np.where(a == b, 0.0, np.abs(a - b) / scale)
            rel[np.isnan(a) != np.isnan(b)] = np.inf
            rel[np.isnan(a) & np.isnan(b)] = 0.0
            status = f"largest relative difference {np.max(rel):.3g}"
        else:
            status = f"differs in {int(np.sum(a != b))} of {a.size}"
        differing += not status.endswith(("equal", "identical"))
        lines.append(f"{name:48s} {status}")
    return lines, differing


def _run_side(src, small):
    """Run the suite in a fresh process importing rydgate from src; returns its outputs."""
    env = dict(os.environ, PYTHONPATH=str(src), **{k: "1" for k in BLAS_ENV})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "outputs.npz"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--src", str(src),
               "--out", str(path)] + (["--small"] if small else [])
        subprocess.run(cmd, check=True, env=env, cwd=ROOT)
        with np.load(path, allow_pickle=False) as data:
            return {name: data[name] for name in data.files}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the tree to compare against")
    ap.add_argument("--small", action="store_true", help="run a small slice of the suite")
    ap.add_argument("--src", type=Path, help=argparse.SUPPRESS)  # one side, in its own process
    ap.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.src is not None:
        sys.path.insert(0, str(args.src.resolve()))
        import rydgate

        if Path(rydgate.__file__).resolve().parent != (args.src / "rydgate").resolve():
            sys.exit(f"rydgate imported from {rydgate.__file__}, not from {args.src}")
        np.savez(args.out, **suite(args.small))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    ref = _run_side(args.parent / "src", args.small)
    new = _run_side(ROOT / "src", args.small)
    lines, differing = compare(ref, new)
    print("\n".join(lines))
    outcomes = np.concatenate([new["tasks.outcome"], new["designs.outcome"]])
    print(f"{len(lines)} outputs, {differing} differing; {outcomes.size} designs, "
          f"{int(np.sum(outcomes != 'root'))} without a root")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
