"""Physical constants and unit conventions.

Internal convention: angular frequencies in rad/us, times in us, lengths in
um, hbar = 1 (energies are angular frequencies). Trap-level quantities
(field gradients, masses, positions) are SI; conversion happens where the
phonon Hessians are built. Config files take ordinary frequencies in MHz.
"""

import numpy as np

E_CHARGE = 1.602176634e-19        # C
EPSILON_0 = 8.8541878128e-12      # F/m
HBAR = 6.62607015e-34 / (2.0 * np.pi)  # J s, from the exact SI Planck constant
ATOMIC_MASS = 1.66053906660e-27   # kg
CA40_MASS_AMU = 39.962590866      # u, mass of Ca-40
CA40_MASS = CA40_MASS_AMU * ATOMIC_MASS  # kg

# Coulomb energy scale of two singly charged ions, e^2/(4 pi eps0), in J m
COULOMB_C0 = E_CHARGE**2 / (4.0 * np.pi * EPSILON_0)

TWO_PI = 2.0 * np.pi

RAD_S_TO_RAD_US = 1e-6
M_TO_UM = 1e6


def mhz(f):
    """Ordinary frequency in MHz -> angular frequency in rad/us."""
    return TWO_PI * f


def to_mhz(w):
    """Angular frequency in rad/us -> ordinary frequency in MHz."""
    return w / TWO_PI


def joule_to_rad_us(energy_j):
    """Energy in J -> angular frequency in rad/us (hbar = 1 convention)."""
    return energy_j / HBAR * RAD_S_TO_RAD_US
