"""Task runners, validity checks and warm-ups of the benchmark workloads.

Each workload calls rydgate only through its public module functions
(`gate.optimize_pulse`, `dynamics.evolve`, ...), which are the attributes
the tracing probes replace. `run` returns what the checks need; `check`
returns a list of problems, empty when the task's outputs are valid.
"""

import csv
import json
import shutil
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from rydgate import cli, dressing, dynamics, franck_condon, gate, interactions, modes, trap
from rydgate.constants import CA40_MASS, TWO_PI, mhz
from schemas import parse_output_schemas

PHASE_TOL = 1e-6      # rad, design phase and trace endpoint agreement
UNIT_TOL = 1e-12      # unitary diagonal modulus
NORM_TOL = 1e-6       # state-norm drift of a dynamics run
POP_TOL = 1e-9        # populations inside [0, 1] up to rounding
PARITY_TOL = 1e-12    # odd-parity aligned Franck-Condon entries
LOW_ROW_TOL = 1e-2    # row norms of the lowest Fock states (m1 + m2 <= 1)
BESSEL_TOL = 1e-9     # no row norm may exceed 1
TAU0_US = 132.0       # dressed-state lifetime for the loss estimate
RF_MHZ = 30.0


def _wrap(x):
    return float(gate.wrap_angle(x))


class Workload:
    """Base: `span` opens a benchmark-side span when a tracer is attached."""

    def __init__(self, root: Path):
        self.root = root
        self.span = nullcontext  # replaced by Tracer.span in traced blocks

    def warm_up(self):
        raise NotImplementedError

    def run(self, task):
        raise NotImplementedError

    def check(self, task, out):
        raise NotImplementedError

    def summary(self):
        """Informational fields computed after timing (untraced)."""
        return {}

    def close(self):
        pass


class GateDesign(Workload):
    """dress -> C3 / exact pair shift at R0 -> optimize_pulse -> phases -> trace."""

    def warm_up(self):
        task = {"omega_mw_mhz": 400.0, "delta_s_mhz": 136.074, "delta_p_mhz": 293.957,
                "r0_um": 5.0, "omega0_mhz": 0.5, "tau_us": 60.0}
        self._chain(task, mhz(0.639))

    def _chain(self, task, delta0=None):
        drive = dressing.MWDrive(omega_mw_rabi=mhz(task["omega_mw_mhz"]),
                                 delta_s=mhz(task["delta_s_mhz"]),
                                 delta_p=mhz(task["delta_p_mhz"]))
        pair = dressing.dress(drive)
        model = interactions.dd_coefficients(pair, drive.d1)
        blockade = interactions.dd_shift(model.c3_minus, task["r0_um"])
        interactions.lower_branch_shift(drive, r0=task["r0_um"])
        omega0, tau = mhz(task["omega0_mhz"]), task["tau_us"]
        if delta0 is None:
            delta0 = gate.optimize_pulse(omega0, tau, blockade)
        pulse = gate.PulseShape(omega0, delta0, tau)
        design = gate.entangling_phase(pulse, blockade)
        ratio = gate.adiabaticity_ratio(pulse, blockade)
        trace = gate.phase_trace(pulse, blockade)
        return {"blockade": blockade, "design": design, "ratio": ratio, "trace": trace}

    def run(self, task):
        return self._chain(task)

    def check(self, task, out):
        problems = []
        design = out["design"]
        _, phi_dd, phi_de, phi_ent = out["trace"]
        if not (np.isfinite(out["blockade"]) and out["blockade"] > 0.0):
            problems.append(f"blockade {out['blockade']} not positive")
        if abs(_wrap(design.phi_ent - np.pi)) > PHASE_TOL:
            problems.append(f"phi_ent {design.phi_ent} is not pi")
        if abs(phi_dd[-1] - design.phi_dd) > PHASE_TOL or abs(phi_de[-1] - design.phi_de) > PHASE_TOL:
            problems.append("phase_trace endpoint differs from the design phases")
        if abs(_wrap(phi_ent[-1] - design.phi_ent)) > PHASE_TOL:
            problems.append("phase_trace phi_ent endpoint differs from the design")
        unitary = np.asarray(design.unitary)
        if unitary.shape != (4, 4) or np.max(np.abs(np.abs(np.diag(unitary)) - 1.0)) > UNIT_TOL:
            problems.append("unitary diagonal is not of unit modulus")
        if not (np.isfinite(out["ratio"]) and out["ratio"] > 0.0):
            problems.append(f"adiabaticity ratio {out['ratio']}")
        return problems


class GateDynamics(Workload):
    """entangling_phase_dynamic + loss_probability + phonon_excitation."""

    GAP_SAMPLES = 8

    def __init__(self, root):
        super().__init__(root)
        self._phases = []  # (task, phi_ent_dynamic) of the first completed tasks

    @staticmethod
    def _config(task):
        pulse = gate.PulseShape(mhz(task["omega0_mhz"]), mhz(task["delta0_mhz"]), task["tau_us"])
        return dynamics.SimConfig(blockade=mhz(task["blockade_mhz"]), omega_z=mhz(1.0),
                                  eta=task["eta"], pulse=pulse,
                                  n_phonon_max=task["n_phonon_max"])

    def warm_up(self):
        self.run({"blockade_mhz": 2.5, "omega0_mhz": 0.5, "delta0_mhz": 0.639,
                  "tau_us": 2.0, "eta": 0.5, "n_phonon_max": 2})

    def run(self, task):
        phases = dynamics.entangling_phase_dynamic(self._config(task))
        trace = phases["trace_dd"]
        p_loss = dynamics.loss_probability(trace, TAU0_US)
        mean_n, deviation = dynamics.phonon_excitation(trace)
        return {"phases": phases, "p_loss": p_loss, "mean_n": mean_n, "deviation": deviation}

    def check(self, task, out):
        problems = []
        phases = out["phases"]
        for label in ("trace_dd", "trace_de"):
            tr = phases[label]
            drift = float(np.max(np.abs(tr.norms - 1.0)))
            if not drift <= NORM_TOL:
                problems.append(f"{label} norm drift {drift:.3g}")
            pops = np.concatenate([tr.p_dd, tr.p_dm, tr.p_mm, tr.p_init])
            if not (np.all(pops >= -POP_TOL) and np.all(pops <= 1.0 + POP_TOL)):
                problems.append(f"{label} population outside [0, 1]")
        if not (np.isfinite(out["p_loss"]) and out["p_loss"] >= 0.0):
            problems.append(f"P_loss {out['p_loss']}")
        if not np.all(np.isfinite(out["mean_n"])) or np.min(out["mean_n"]) < -POP_TOL:
            problems.append("mean phonon number invalid")
        if not np.isfinite(phases["phi_ent_dynamic"]):
            problems.append("phi_ent_dynamic not finite")
        if not problems and len(self._phases) < self.GAP_SAMPLES:
            self._phases.append((task, phases["phi_ent_dynamic"]))
        return problems

    def summary(self):
        """Design-vs-dynamics phase gap (criterion 6(c)); informational, never a check."""
        same, opposite = [], []
        for task, phi_dyn in self._phases:
            cfg = self._config(task)
            phi_design = gate.entangling_phase(cfg.pulse, cfg.blockade).phi_ent
            same.append(abs(_wrap(phi_dyn - phi_design)))
            opposite.append(abs(_wrap(phi_dyn + phi_design)))
        if not same:
            return {}
        return {"phase_gap_rad": {
            "tasks": len(same),
            "median_same_sign": float(np.median(same)),
            "median_opposite_sign": float(np.median(opposite)),
        }}


def _parity_mask(n_max):
    """True where <m1 m2|n1 n2> has an odd m1+n1 or m2+n2 (flat FCMatrix layout)."""
    idx = np.arange(n_max + 1)
    odd = (idx[:, None] + idx[None, :]) % 2 == 1
    mask = odd[:, None, :, None] | odd[None, :, None, :]
    dim = (n_max + 1) ** 2
    return mask.reshape(dim, dim)


class PhononFC(Workload):
    """from_secular -> geometry -> ground and Rydberg modes -> fc_matrix."""

    def warm_up(self):
        for kind, pol in (("aligned", (-1.5e9, -1.5e9)), ("rotated", (-1.5e9, 0.0))):
            self.run({"kind": kind, "axis": "X", "omega_z_mhz": 1.0, "omega_rho_mhz": 4.0,
                      "pol_per_ion": pol, "n_max": 3})

    def run(self, task):
        cfg = trap.from_secular(TWO_PI * task["omega_z_mhz"] * 1e6,
                                TWO_PI * task["omega_rho_mhz"] * 1e6,
                                TWO_PI * RF_MHZ * 1e6, CA40_MASS)
        geom = trap.equilibrium_geometry(cfg)
        ground = modes.diagonalize(modes.build_hessian(task["axis"], cfg, geom))
        excited = modes.diagonalize(
            modes.build_hessian(task["axis"], cfg, geom, task["pol_per_ion"]))
        return franck_condon.fc_matrix(ground, excited, n_max=task["n_max"])

    def check(self, task, fc):
        problems = []
        n_max = task["n_max"]
        dim = (n_max + 1) ** 2
        entries = np.asarray(fc.entries)
        if entries.shape != (dim, dim):
            return [f"entries shape {entries.shape}, expected {(dim, dim)}"]
        if not np.all(np.isfinite(entries)):
            return ["non-finite entries"]
        if task["kind"] == "aligned" and np.max(np.abs(entries[_parity_mask(n_max)])) > PARITY_TOL:
            problems.append("odd-parity aligned entries are not zero")
        norms = np.sqrt(np.sum(entries**2, axis=1))
        low = [fc.flat_index(0, 0), fc.flat_index(0, 1), fc.flat_index(1, 0)] if n_max else [0]
        if np.max(np.abs(norms[low] - 1.0)) > LOW_ROW_TOL:
            problems.append(f"low-block row norms {norms[low]}")
        if np.max(norms) > 1.0 + BESSEL_TOL:
            problems.append(f"row norm {np.max(norms)} exceeds 1")
        return problems


class CliFailure(RuntimeError):
    """`rydgate.cli.main` returned a nonzero exit code."""


def _csv_header(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return next(csv.reader(handle))


def _read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class Cli(Workload):
    """One task is one in-process `rydgate.cli.main` invocation; a block is a full pass."""

    def __init__(self, root, scratch: Path):
        super().__init__(root)
        schemas = parse_output_schemas(
            (root / "docs" / "output_schemas.md").read_text(encoding="utf-8"))
        self.expected = {
            "modes": ("csv", schemas["modes"][0]),
            "dress": ("json", schemas["dress"][0]),
            "interactions": ("csv", schemas["interactions"][0]),
            "gate": ("json", schemas["gate"][0]),
            "gate_optimize": ("json", schemas["gate"][0]),
            "gate_trace": ("csv", schemas["gate --trace"][0]),
            "evolve": ("csv", schemas["evolve"][0]),
        }
        self.summary_keys = schemas["evolve"][1]
        for cfg in ("defaults.cfg", "gate_design.cfg", "gate_dynamics.cfg"):
            if not (root / "configs" / cfg).is_file():
                raise FileNotFoundError(root / "configs" / cfg)
        self.out_dir = scratch
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def _argv(self, task):
        out = self.out_dir / f"{task['name']}.out"
        argv = [str(self.root / a) if a.startswith("configs/") else a for a in task["argv"]]
        return argv + ["--output", str(out)], out

    def warm_up(self):
        for argv in (["modes"], ["dress"], ["fc", "--n-max", "2"], ["gate"],
                     ["interactions", "--points", "2"]):
            self.run({"name": "warm_up", "argv": argv + ["--config", "configs/defaults.cfg"]})

    def run(self, task):
        argv, out = self._argv(task)
        with self.span(f"cli.{task['name']}"):
            code = cli.main(argv)
            if code != 0:
                raise CliFailure(f"exit code {code} for {' '.join(task['argv'])}")
        return out

    def check(self, task, out):
        try:
            return self._check_outputs(task, out)
        finally:  # a later invocation must not pass on this one's files
            out.unlink(missing_ok=True)
            Path(str(out) + ".summary.json").unlink(missing_ok=True)

    def _check_outputs(self, task, out):
        name = task["name"]
        if name == "fc":
            header = _csv_header(out)
            n_max = int(task["argv"][task["argv"].index("--n-max") + 1])
            labels = [f"j={m1}.{m2}" for m1 in range(n_max + 1) for m2 in range(n_max + 1)]
            return [] if header == ["bra"] + labels else [f"fc header {header[:3]}..."]
        kind, fields = self.expected[name]
        if kind == "csv":
            header = _csv_header(out)
            problems = [] if header == fields else [f"{name} header {header} != {fields}"]
        else:
            payload = _read_json(out)
            problems = [] if sorted(payload) == sorted(fields) else [
                f"{name} keys {sorted(payload)} != {sorted(fields)}"]
            if name == "gate_optimize" and abs(_wrap(payload["phi_ent"] - np.pi)) > PHASE_TOL:
                problems.append(f"gate --optimize phi_ent {payload['phi_ent']} is not pi")
        if name == "evolve":
            summary = _read_json(Path(str(out) + ".summary.json"))
            if sorted(summary) != sorted(self.summary_keys):
                problems.append(f"evolve summary keys {sorted(summary)}")
            elif not summary["norm_drift"] <= NORM_TOL:
                problems.append(f"evolve norm drift {summary['norm_drift']}")
        return problems

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


def make(name, root: Path, scratch: Path) -> Workload:
    if name == "cli":
        return Cli(root, scratch)
    return {"gate_design": GateDesign, "gate_dynamics": GateDynamics,
            "phonon_fc": PhononFC}[name](root)
