"""Design and simulation of a dressed-Rydberg entangling phase gate for two trapped ions."""

from .config import RunConfig, load_config
from .dressing import DressedPair, MWDrive, dress, effective_rabi, solve_zero_polarizability
from .dynamics import (
    EvolutionTrace,
    SimConfig,
    build_hamiltonian,
    entangling_phase_dynamic,
    evolve,
    initial_state,
    loss_probability,
    phonon_excitation,
)
from .franck_condon import FCMatrix, fc_matrix
from .gate import (
    GateDesign,
    PulseShape,
    adiabatic_energies,
    adiabaticity_ratio,
    entangling_phase,
    gate_unitary,
    optimize_pulse,
    phase_trace,
    pulse_at,
    wrap_angle,
)
from .interactions import (
    InteractionModel,
    dd_coefficients,
    dd_shift,
    lower_branch_shift,
    pair_potential_full,
    vdw_shift,
)
from .modes import HessianSpec, PhononBasis, build_hessian, diagonalize, polarizability_shift
from .trap import (
    CrystalGeometry,
    SecularFrequencies,
    TrapConfig,
    equilibrium_geometry,
    from_secular,
    lamb_dicke,
    secular_frequencies,
)

__version__ = "0.1.0"
