"""Seeded task generation for the benchmark workloads.

Tasks come in blocks and a run executes whole blocks. Within a block every
continuous parameter is stratified (one draw per equal-width stratum, the
strata shuffled) and every discrete parameter takes each of its values a
fixed number of times, so runs on different seeds share one work mix and
differ only in the exact values drawn. Block i depends only on (workload,
seed, i). This module imports nothing from the program under test.
"""

import random

WORKLOADS = ("gate_design", "gate_dynamics", "phonon_fc", "cli")


def _strata(rng, k, lo, hi):
    order = list(range(k))
    rng.shuffle(order)
    return [lo + (hi - lo) * (s + rng.random()) / k for s in order]


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def gate_design_block(rng):
    """Design points of the paper's chain: drive, R0, Omega0 and tau."""
    k = 4
    omega0, tau, r0 = (_strata(rng, k, lo, hi)
                       for lo, hi in ((0.3, 0.7), (40.0, 80.0), (4.0, 6.0)))
    return [{
        "omega_mw_mhz": rng.uniform(350.0, 450.0),
        "delta_s_mhz": 136.074 * rng.uniform(0.97, 1.03),
        "delta_p_mhz": 293.957 * rng.uniform(0.97, 1.03),
        "r0_um": r0[i],
        "omega0_mhz": omega0[i],
        "tau_us": tau[i],
    } for i in range(k)]


def gate_dynamics_block(rng):
    """Full-dynamics runs; one task per phonon cutoff 4..8 (state dims 45..81)."""
    n_phonon = _shuffled(rng, range(4, 9))
    k = len(n_phonon)
    blockade, omega0, ratio, tau, eta = (
        _strata(rng, k, lo, hi)
        for lo, hi in ((2.0, 3.5), (0.4, 0.6), (1.0, 1.4), (35.0, 45.0), (0.0, 0.5)))
    return [{
        "blockade_mhz": blockade[i],
        "omega0_mhz": omega0[i],
        "delta0_mhz": ratio[i] * omega0[i],
        "tau_us": tau[i],
        "eta": eta[i],
        "n_phonon_max": n_phonon[i],
    } for i in range(k)]


def phonon_fc_block(rng):
    """Nine symmetric-polarizability (aligned) and four single-ion (rotated) traps."""
    kinds = [("aligned", n) for n in range(6, 15)] + [("rotated", n) for n in (6, 8, 10, 12)]
    k = len(kinds)
    omega_z, omega_rho, pol = (_strata(rng, k, lo, hi)
                               for lo, hi in ((0.8, 1.2), (3.5, 4.5), (-2.0e9, -1.0e9)))
    tasks = []
    for i, (kind, n_max) in enumerate(_shuffled(rng, kinds)):
        if kind == "aligned":
            pol_per_ion = (pol[i], pol[i])
        else:
            pol_per_ion = _shuffled(rng, (pol[i], 0.0))
        tasks.append({
            "kind": kind,
            "axis": rng.choice("XY"),
            "omega_z_mhz": omega_z[i],
            "omega_rho_mhz": omega_rho[i],
            "pol_per_ion": tuple(pol_per_ion),
            "n_max": n_max,
        })
    return tasks


def cli_block(rng):
    """One pass over the CLI subcommands on the repository configs.

    Sizes keep the invocations in classes of clearly different latency:
    four cheap ones, three `gate` designs, `gate --trace`, three
    `gate --optimize` designs and `evolve`. The median thus falls inside the
    `gate` class, and the tail (ten invocations beyond it) inside the
    `gate --optimize` class for any pass count from 4 to 10.
    """
    design = "configs/gate_design.cfg"
    defaults = "configs/defaults.cfg"

    def num(lo, hi):
        return f"{rng.uniform(lo, hi):.4f}"

    blockades = [num(2.2, 3.0), num(2.2, 3.0), num(4.0, 5.0)]
    gates = [{"name": "gate", "argv": ["gate", "--config", design, "--blockade-mhz", b,
                                       "--tau-us", num(55.0, 65.0)]} for b in blockades]
    optimized = [{"name": "gate_optimize", "argv": ["gate", "--optimize", "--config", design,
                                                    "--blockade-mhz", b,
                                                    "--omega0-mhz", num(0.45, 0.55)]}
                 for b in blockades]
    return [
        {"name": "modes", "argv": ["modes", "--config", defaults]},
        {"name": "fc", "argv": ["fc", "--config", defaults, "--axis", rng.choice("XY"),
                                "--n-max", str(rng.randint(5, 7))]},
        {"name": "dress", "argv": ["dress", "--config", defaults]},
        {"name": "interactions", "argv": [
            "interactions", "--config", defaults, "--r-min", num(2.0, 2.5),
            "--r-max", num(9.0, 11.0), "--points", str(rng.randint(40, 60))]},
        *gates,
        {"name": "gate_trace", "argv": ["gate", "--trace", "--config", design,
                                        "--blockade-mhz", blockades[0]]},
        *optimized,
        {"name": "evolve", "argv": ["evolve", "--config", "configs/gate_dynamics.cfg"]},
    ]


_BLOCKS = {
    "gate_design": gate_design_block,
    "gate_dynamics": gate_dynamics_block,
    "phonon_fc": phonon_fc_block,
    "cli": cli_block,
}


class TaskStream:
    """Blocks of one workload's tasks for one seed, generated on first use."""

    def __init__(self, workload: str, seed: int):
        if workload not in _BLOCKS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self._blocks = []

    def block(self, index: int):
        while len(self._blocks) <= index:
            rng = random.Random(f"{self.workload}/{self.seed}/{len(self._blocks)}")
            self._blocks.append(_BLOCKS[self.workload](rng))
        return self._blocks[index]
