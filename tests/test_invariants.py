"""The model's exact symmetries and scaling laws, checked without a reference.

Time-energy scaling: (Omega0, delta0, B, tau) -> (s Omega0, s delta0, s B, tau / s)
leaves every phase of the gate unchanged, since each phase integrates an
energy over a time. For a power of two s the scaling is exact in floating
point through the design's node ladder and its Newton steps, so the design
phases and the adiabaticity ratio keep their bits. The dynamics, with the
trap frequency scaled as well, keeps its phases to rounding. Ion exchange
maps |DE> onto |ED>, and without a drive the qubit states pick up no phase.
"""

import numpy as np
import pytest

from rydgate import (
    PulseShape,
    SimConfig,
    adiabaticity_ratio,
    entangling_phase,
    entangling_phase_dynamic,
    evolve,
    initial_state,
    optimize_pulse,
)
from rydgate import gate
from rydgate.dynamics import IDX_D, IDX_E, basis_index
from rydgate.errors import NoRoot

TWO_PI = 2 * np.pi
SCALES = (2.0, 0.5, 4.0)
REFERENCE = (TWO_PI * 0.5, TWO_PI * 0.639, 60.0, TWO_PI * 2.5)  # omega0, delta0, tau, B


def scaled(omega0, delta0, tau, blockade, s):
    return s * omega0, s * delta0, tau / s, s * blockade


def seeded_designs(n=150):
    """(omega0, delta0, tau, B) over the optimizer's range, the reference first."""
    rng = np.random.default_rng(16)
    designs = [REFERENCE]
    while len(designs) < n:
        omega0 = TWO_PI * np.exp(rng.uniform(np.log(0.05), np.log(1.5)))
        delta0 = omega0 * np.exp(rng.uniform(np.log(1e-2), np.log(20.0)))
        designs.append((omega0, delta0, rng.uniform(5.0, 150.0), TWO_PI * rng.uniform(0.0, 10.0)))
    return designs


@pytest.mark.parametrize("s", SCALES)
def test_design_phases_keep_their_bits_under_time_energy_scaling(s):
    for design in seeded_designs():
        omega0, delta0, tau, blockade = design
        base = entangling_phase(PulseShape(omega0, delta0, tau), blockade)
        omega0, delta0, tau, blockade = scaled(*design, s)
        other = entangling_phase(PulseShape(omega0, delta0, tau), blockade)
        assert (other.phi_dd, other.phi_de) == (base.phi_dd, base.phi_de), design


@pytest.mark.parametrize("s", SCALES)
def test_adiabaticity_ratio_keeps_its_bits_under_time_energy_scaling(s):
    omega0, delta0, tau, blockade = REFERENCE
    base = adiabaticity_ratio(PulseShape(omega0, delta0, tau), blockade)
    omega0, delta0, tau, blockade = scaled(*REFERENCE, s)
    assert adiabaticity_ratio(PulseShape(omega0, delta0, tau), blockade) == base


@pytest.mark.parametrize("s", SCALES)
def test_optimized_root_scales_within_brents_tolerance(s):
    # the objective scales bit for bit (f_s(s x) = f(x) for every float x),
    # but BRENT_XTOL is absolute in rad/us and the scan's geomspace grid is
    # not scaled exactly, so Brent stops elsewhere in the rounding-level
    # wiggle of the objective around its root. The bound is twice the sum of
    # the two runs' stopping widths XTOL + RTOL |root|, in unscaled units;
    # the gap reached 1.35 times that sum on 408 seeded designs
    roots = 0
    for omega0, _, tau, blockade in seeded_designs(60):
        try:
            root = optimize_pulse(omega0, tau, blockade)
        except NoRoot:
            continue
        root_s = optimize_pulse(s * omega0, tau / s, s * blockade)
        width = gate.BRENT_XTOL * (1.0 + 1.0 / s) + 2.0 * gate.BRENT_RTOL * root
        assert abs(root_s / s - root) <= 2.0 * width
        roots += 1
    assert roots >= 40


def dynamic_config(omega0, delta0, tau, blockade, omega_z, eta=0.5):
    return SimConfig(blockade=blockade, omega_z=omega_z, eta=eta,
                     pulse=PulseShape(omega0, delta0, tau), n_phonon_max=3)


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("eta", [0.0, 0.5])
def test_dynamic_phases_follow_time_energy_scaling(s, eta):
    # a shorter pulse than the reference keeps the solves fast; the trap
    # frequency scales with the other energies
    design = (TWO_PI * 0.5, TWO_PI * 0.639, 12.0, TWO_PI * 2.5)
    base = entangling_phase_dynamic(dynamic_config(*design, TWO_PI * 1.0, eta))
    other = entangling_phase_dynamic(dynamic_config(*scaled(*design, s), s * TWO_PI * 1.0, eta))
    for key in ("phi_dd_dynamic", "phi_de_dynamic", "phi_ent_dynamic"):
        assert abs(other[key] - base[key]) <= 1e-12, key


def test_ion_exchange_gives_equal_phases():
    cfg = dynamic_config(*REFERENCE[:3], REFERENCE[3], TWO_PI * 1.0)
    phases = []
    for label, (e1, e2) in (("DE", (IDX_D, IDX_E)), ("ED", (IDX_E, IDX_D))):
        trace = evolve(cfg, initial_state(cfg, label, 0))
        phases.append(-np.angle(trace.states[-1, basis_index(e1, e2, 0, cfg.n_phonon_max)]))
        assert trace.p_init[-1] > 0.99  # the adiabatic return the phase is read from
    assert abs(phases[0] - phases[1]) <= 1e-12


def test_no_drive_gives_no_dynamic_phase():
    cfg = dynamic_config(0.0, *REFERENCE[1:], TWO_PI * 1.0)
    phases = entangling_phase_dynamic(cfg)
    for key in ("phi_dd_dynamic", "phi_de_dynamic", "phi_ent_dynamic"):
        assert phases[key] == 0.0, key
