"""Secular trap frequencies, two-ion crystal geometry and Lamb-Dicke parameter.

Both ions are singly ionized, each carrying e = E_CHARGE. Everything here is
SI: gradients in V/m^2, angular frequencies in rad/s, lengths in m. The
phonon-mode module converts to the internal rad/us units.
"""

from dataclasses import dataclass

import numpy as np

from .constants import COULOMB_C0, E_CHARGE, HBAR
from .errors import DomainError, Unconfined


@dataclass(frozen=True)
class TrapConfig:
    """Linear Paul trap and ion parameters.

    alpha    : rf field gradient (V/m^2)
    beta     : static field gradient (V/m^2)
    omega_rf : rf drive angular frequency (rad/s)
    mass     : ion mass (kg)
    """

    alpha: float
    beta: float
    omega_rf: float
    mass: float


@dataclass(frozen=True)
class SecularFrequencies:
    omega_rho: float  # radial, rad/s
    omega_z: float    # axial, rad/s


@dataclass(frozen=True)
class CrystalGeometry:
    z2_bar: float  # m, ion 2 on the axis; ion 1 sits at -z2_bar
    r0: float      # ion separation, m


def secular_frequencies(cfg: TrapConfig) -> SecularFrequencies:
    """Pseudopotential secular frequencies of a single ion in the trap.

    Raises Unconfined if either the radial or the axial radicand is <= 0.
    """
    q_over_m = E_CHARGE / cfg.mass
    axial_sq = q_over_m * cfg.beta
    if axial_sq <= 0.0:
        raise Unconfined(f"axial confinement requires beta > 0, got beta={cfg.beta}")
    radial_sq = (q_over_m * cfg.alpha / cfg.omega_rf) ** 2 - axial_sq
    if radial_sq <= 0.0:
        raise Unconfined(
            "radial confinement requires (q*alpha/(M*Omega_rf))^2 > q*beta/M"
        )
    return SecularFrequencies(
        omega_rho=np.sqrt(2.0 * radial_sq),
        omega_z=2.0 * np.sqrt(axial_sq),
    )


def equilibrium_geometry(cfg: TrapConfig) -> CrystalGeometry:
    """Equilibrium positions of the two-ion crystal on the trap axis.

    The ions sit at -+ z2_bar with z2_bar = (C0/(16 e beta))^(1/3); the trap
    restoring force M omega_z^2 z2_bar balances the Coulomb repulsion
    C0/(2 z2_bar)^2 there.
    """
    if cfg.beta <= 0.0:
        raise Unconfined(f"equilibrium geometry requires beta > 0, got beta={cfg.beta}")
    z2 = (COULOMB_C0 / (16.0 * E_CHARGE * cfg.beta)) ** (1.0 / 3.0)
    return CrystalGeometry(z2_bar=z2, r0=2.0 * z2)


def lamb_dicke(k_laser: float, omega_z: float, mass: float) -> float:
    """Lamb-Dicke parameter k_L * xi_z / sqrt(2) of the axial CM mode.

    xi_z is the oscillator length of the CM mode, whose effective mass is 2M
    (both ions moving in phase). k_laser in 1/m, omega_z in rad/s, mass in kg.
    """
    if k_laser < 0.0 or omega_z <= 0.0 or mass <= 0.0:
        raise DomainError("lamb_dicke requires k_laser >= 0, omega_z > 0, mass > 0")
    xi_z = np.sqrt(HBAR / (2.0 * (2.0 * mass) * omega_z))
    return k_laser * xi_z / np.sqrt(2.0)


def axial_gradient(omega_z: float, mass: float) -> float:
    """Static gradient beta = M omega_z^2 / (4 e) (V/m^2) giving the axial frequency omega_z."""
    return mass * omega_z**2 / (4.0 * E_CHARGE)


def from_secular(omega_z: float, omega_rho: float, omega_rf: float, mass: float) -> TrapConfig:
    """Invert the secular-frequency formulas to obtain trap gradients."""
    if omega_z <= 0.0 or omega_rho <= 0.0:
        raise Unconfined("target secular frequencies must be positive")
    beta = axial_gradient(omega_z, mass)
    alpha = (mass * omega_rf / E_CHARGE) * np.sqrt(omega_rho**2 / 2.0 + omega_z**2 / 4.0)
    return TrapConfig(alpha=alpha, beta=beta, omega_rf=omega_rf, mass=mass)
