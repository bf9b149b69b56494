"""Microwave-dressed Rydberg pair states and their tunable polarizability.

The two-level {P, S} manifold of each ion, driven at Rabi frequency
Omega_MW with detunings Delta_P, Delta_S, mixes into dressed states

    |+-> = N_pm (C_pm |P> + |S>),   C_pm = (D_- +- sqrt(Omega^2 + D_-^2)) / Omega

with D_pm = Delta_P +- Delta_S. Because the P and S polarizabilities carry
opposite signs, the dressed polarizability N^2 (C^2 P_P + P_S) can be tuned
through zero, which removes the state-dependent trapping distortion.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoRoot

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


def _mixing_coefficients(om: float, dm: float):
    """C_+ and C_- evaluated without cancellation for |dm| >> om.

    The smaller-magnitude coefficient is obtained from C_+ C_- = -1 exactly,
    avoiding the subtraction dm - sqrt(om^2 + dm^2).
    """
    root = np.hypot(om, dm)
    if dm >= 0.0:
        c_p = (dm + root) / om
        c_m = -1.0 / c_p
    else:
        c_m = (dm - root) / om
        c_p = -1.0 / c_m
    return c_p, c_m


def dress(drive: MWDrive, pol_p: float = POL_P_DEFAULT,
          pol_s: float = POL_S_DEFAULT) -> DressedPair:
    """Closed-form dressed states of the driven {P, S} manifold."""
    om = drive.omega_mw_rabi
    dm = drive.delta_minus
    root = drive.splitting
    c_p, c_m = _mixing_coefficients(om, dm)
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


def _pol_branch(delta_minus: float, omega: float, pol_p: float, pol_s: float,
                branch: str) -> float:
    c_p, c_m = _mixing_coefficients(omega, delta_minus)
    c = c_p if branch == "+" else c_m
    return (c**2 * pol_p + pol_s) / (1.0 + c**2)


def solve_zero_polarizability(pol_p: float, pol_s: float, omega_mw_rabi: float,
                              branch: str = "-") -> float:
    """Detuning difference Delta_- at which the chosen branch polarizability vanishes.

    Requires pol_p and pol_s of opposite signs (otherwise no branch can be
    nulled: raises NoRoot). Bisection on the closed form, which is monotone
    in Delta_- on each branch; the search bracket is +-100 Omega.
    """
    if branch not in ("+", "-"):
        raise NoRoot(f"branch must be '+' or '-', got {branch!r}")
    if pol_p * pol_s >= 0.0:
        raise NoRoot(
            "zero dressed polarizability needs pol_p and pol_s of opposite signs"
        )
    lo, hi = -100.0 * omega_mw_rabi, 100.0 * omega_mw_rabi
    f_lo = _pol_branch(lo, omega_mw_rabi, pol_p, pol_s, branch)
    f_hi = _pol_branch(hi, omega_mw_rabi, pol_p, pol_s, branch)
    if f_lo * f_hi > 0.0:
        raise NoRoot("no polarizability sign change inside the search bracket")
    tol = 1e-10 * abs(pol_p)
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _pol_branch(mid, omega_mw_rabi, pol_p, pol_s, branch)
        if abs(f_mid) < tol:
            break
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    else:
        raise NoRoot("bisection failed to reach the polarizability tolerance")
    return mid


def effective_rabi(drive: MWDrive, omega_laser_rabi: float) -> float:
    """Laser Rabi frequency into the lower dressed state.

    Omega_- = Omega_MW * Omega / sqrt(4 N_-^2 (Omega_MW^2 + Delta_-^2)),
    which is algebraically the bare Rabi frequency projected on the P
    admixture of |->; at Delta_- = 0 it equals Omega/sqrt(2).
    """
    om = drive.omega_mw_rabi
    dm = drive.delta_minus
    _, c_m = _mixing_coefficients(om, dm)
    n_m_sq = 1.0 / (1.0 + c_m**2)
    return om * omega_laser_rabi / np.sqrt(4.0 * n_m_sq * (om**2 + dm**2))
