"""State-dependent phonon modes of the two-ion crystal.

The 2x2 Hessians are second derivatives of the potential energy divided by
the ion mass, so every entry carries rad^2/us^2 and the eigenfrequencies come
out in rad/us. A Rydberg-manifold ion acquires an extra transverse
ponderomotive curvature -2 q^2 alpha^2 P / M set by its polarizability P;
the axial direction never does (the rf gradient has no z component).
"""

from dataclasses import dataclass

import numpy as np

from .constants import COULOMB_C0, E_CHARGE, RAD_S_TO_RAD_US
from .errors import DomainError, ModeInstability
from .trap import CrystalGeometry, TrapConfig, secular_frequencies

AXES = ("X", "Y", "Z")

# Coulomb coupling sign per axis: transverse displacements soften the pair,
# axial displacements stiffen the stretch.
_C_AXIS = {"X": 1.0, "Y": 1.0, "Z": -2.0}


@dataclass(frozen=True)
class HessianSpec:
    """Ingredients of a 2x2 mass-scaled Hessian along one axis.

    omega_chi            : bare secular frequency along the axis, rad/us
    coulomb_coupling     : C0/(M R0^3), rad^2/us^2
    polarizability_shift : per-ion 2 q^2 alpha^2 P_j / M, rad^2/us^2
    """

    axis: str
    omega_chi: float
    coulomb_coupling: float
    polarizability_shift: tuple

    @property
    def c_axis(self) -> float:
        return _C_AXIS[self.axis]

    def matrix(self) -> np.ndarray:
        c_kappa = self.c_axis * self.coulomb_coupling
        s1, s2 = self.polarizability_shift
        w2 = self.omega_chi**2
        return np.array(
            [[w2 - s1 - c_kappa, c_kappa],
             [c_kappa, w2 - s2 - c_kappa]]
        )


@dataclass(frozen=True)
class PhononBasis:
    """Mode frequencies (rad/us, ascending) and orthonormal mode vectors.

    eigenvectors[:, j] is the j-th mode; its first nonzero component is
    positive so overlap signs are reproducible.
    """

    frequencies: np.ndarray
    eigenvectors: np.ndarray


def polarizability_shift(cfg: TrapConfig, pol: float) -> float:
    """Transverse Hessian shift 2 q^2 alpha^2 P / M in rad^2/us^2.

    pol is the reduced polarizability P (m^2/J), i.e. the conventional SI
    polarizability divided by q^2.
    """
    return 2.0 * E_CHARGE**2 * cfg.alpha**2 * pol / cfg.mass * RAD_S_TO_RAD_US**2


def build_hessian(axis: str, cfg: TrapConfig, geom: CrystalGeometry,
                  pol_per_ion=(0.0, 0.0)) -> HessianSpec:
    """Assemble the Hessian along an axis for given per-ion polarizabilities.

    pol_per_ion holds the reduced polarizability of each ion's electronic
    state (zero for low-lying states). Both-ion, single-ion and ground
    configurations are all expressible this way.
    """
    if axis not in AXES:
        raise DomainError(f"axis must be one of {AXES}, got {axis!r}")
    sf = secular_frequencies(cfg)
    omega = sf.omega_z if axis == "Z" else sf.omega_rho
    kappa = COULOMB_C0 / (cfg.mass * geom.r0**3) * RAD_S_TO_RAD_US**2
    if axis == "Z":
        shifts = (0.0, 0.0)
    else:
        shifts = tuple(polarizability_shift(cfg, p) for p in pol_per_ion)
    return HessianSpec(
        axis=axis,
        omega_chi=omega * RAD_S_TO_RAD_US,
        coulomb_coupling=kappa,
        polarizability_shift=shifts,
    )


def diagonalize(h: HessianSpec) -> PhononBasis:
    """Solve the mode problem H v = omega^2 v.

    Raises ModeInstability when any eigenvalue is <= 0.
    """
    evals, evecs = np.linalg.eigh(h.matrix())
    # the eigenvalue check and the sign rule compare Python floats: the same
    # comparisons as on numpy scalars, without their per-call overhead
    if any(value <= 0.0 for value in evals.tolist()):
        raise ModeInstability(
            f"non-positive Hessian eigenvalue(s) {evals[evals <= 0.0]} on axis {h.axis}"
        )
    first, second = evecs.tolist()
    for j, (top, bottom) in enumerate(zip(first, second)):
        if (top if abs(top) > 1e-14 else bottom) < 0.0:
            evecs[:, j] = -evecs[:, j]
    return PhononBasis(frequencies=np.sqrt(evals), eigenvectors=evecs)
