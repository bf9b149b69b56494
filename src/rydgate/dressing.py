"""Microwave-dressed Rydberg pair states and their tunable polarizability.

The two-level {P, S} manifold of each ion, driven at Rabi frequency
Omega_MW with detunings Delta_P, Delta_S, mixes into dressed states

    |+-> = N_pm (C_pm |P> + |S>),   C_pm = (D_- +- sqrt(Omega^2 + D_-^2)) / Omega

with D_pm = Delta_P +- Delta_S. Because the P and S polarizabilities carry
opposite signs, the dressed polarizability N^2 (C^2 P_P + P_S) can be tuned
through zero, which removes the state-dependent trapping distortion. It
vanishes where C_pm^2 = q = -P_S / P_P, that is at
D_- = +-Omega (q - 1) / (2 sqrt(q)) on the upper (+) and lower (-) branch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoRoot

# Reduced polarizabilities (m^2/J, conventional polarizability over q^2) of
# the target Rydberg P and auxiliary S states. Magnitudes follow the n^7
# scaling at n ~ 65; the ratio -0.4625 puts the zero-polarizability point of
# the lower dressed branch at |C_-| = 0.680.
POL_P_DEFAULT = -2.0e9
POL_S_DEFAULT = 0.925e9

# P<->S transition dipole (C m), calibrated so the lower-branch pair-dipole
# coefficient C0*d_-^2 equals 2*pi*0.309 GHz um^3 at the reference drive
# (Omega_MW, Delta_S, Delta_P) = 2*pi*(400, 136.074, 293.957) MHz.
D1_DEFAULT = 1.0262584988416888e-26


@dataclass(frozen=True)
class MWDrive:
    """Microwave drive parameters, angular frequencies in rad/us.

    d1 is the P<->S transition dipole moment in C m.
    """

    omega_mw_rabi: float
    delta_s: float
    delta_p: float
    d1: float = D1_DEFAULT

    @property
    def delta_minus(self) -> float:
        return self.delta_p - self.delta_s

    @property
    def delta_plus(self) -> float:
        return self.delta_p + self.delta_s

    @property
    def splitting(self) -> float:
        """Autler-Townes splitting sqrt(Omega^2 + D_-^2), rad/us."""
        return np.hypot(self.omega_mw_rabi, self.delta_minus)


@dataclass(frozen=True)
class DressedPair:
    """Mixing coefficients, energies and polarizabilities of the dressed states."""

    c_plus: float
    c_minus: float
    n_plus: float
    n_minus: float
    e_plus: float
    e_minus: float
    pol_plus: float
    pol_minus: float


def dress(drive: MWDrive, pol_p: float = POL_P_DEFAULT,
          pol_s: float = POL_S_DEFAULT) -> DressedPair:
    """Closed-form dressed states of the driven {P, S} manifold.

    The smaller-magnitude coefficient is obtained from C_+ C_- = -1 exactly,
    avoiding the subtraction D_- - sqrt(Omega^2 + D_-^2) for |D_-| >> Omega.
    """
    om = drive.omega_mw_rabi
    dm = drive.delta_minus
    root = drive.splitting
    if dm >= 0.0:
        c_p = (dm + root) / om
        c_m = -1.0 / c_p
    else:
        c_m = (dm - root) / om
        c_p = -1.0 / c_m
    n_p = 1.0 / np.sqrt(1.0 + c_p**2)
    n_m = 1.0 / np.sqrt(1.0 + c_m**2)
    return DressedPair(
        c_plus=c_p,
        c_minus=c_m,
        n_plus=n_p,
        n_minus=n_m,
        e_plus=0.5 * (drive.delta_plus + root),
        e_minus=0.5 * (drive.delta_plus - root),
        pol_plus=n_p**2 * (c_p**2 * pol_p + pol_s),
        pol_minus=n_m**2 * (c_m**2 * pol_p + pol_s),
    )


def solve_zero_polarizability(pol_p: float, pol_s: float, omega_mw_rabi: float,
                              branch: str = "-") -> float:
    """Detuning difference Delta_- at which the chosen branch polarizability vanishes.

    The branch polarizability N^2 (C^2 pol_p + pol_s) vanishes exactly where
    C^2 = q = -pol_s / pol_p, which needs finite pol_p and pol_s of opposite
    signs (otherwise raises NoRoot). Solving C_pm(Delta_-) = +-sqrt(q) gives
    Delta_- = +-Omega (q - 1) / (2 sqrt(q)), "+" on the upper branch. Raises
    DomainError for a branch other than "+" or "-", or unless omega_mw_rabi
    is finite and positive.
    """
    if branch not in ("+", "-"):
        raise DomainError(f"branch must be '+' or '-', got {branch!r}")
    if not (np.isfinite(omega_mw_rabi) and omega_mw_rabi > 0.0):
        raise DomainError(f"omega_mw_rabi must be finite and > 0, got {omega_mw_rabi}")
    if not (pol_p * pol_s < 0.0 and np.isfinite(pol_p * pol_s)):
        raise NoRoot(
            "zero dressed polarizability needs finite pol_p and pol_s of opposite signs"
        )
    q = -pol_s / pol_p
    delta_minus = omega_mw_rabi * (q - 1.0) / (2.0 * np.sqrt(q))
    return delta_minus if branch == "+" else -delta_minus


def effective_rabi(drive: MWDrive, omega_laser_rabi: float) -> float:
    """Laser Rabi frequency into the lower dressed state.

    Omega_- = Omega |C_-| / sqrt(1 + C_-^2) = Omega |N_- C_-|, the bare Rabi
    frequency projected on the P admixture of |->; at Delta_- = 0 it equals
    Omega / sqrt(2).
    """
    pair = dress(drive)
    return abs(pair.n_minus * pair.c_minus) * omega_laser_rabi
