"""Interaction energies between two Rydberg(-dressed) ions.

Bare pair states interact through a van der Waals tail C6/R0^6. Microwave
dressed states carry a rotating dipole and exchange photons resonantly,
giving the much stronger C3/R0^3 channel with C3(+-) = C0 d_pm^2 and
d_pm = N_pm^2 C_pm |d1| / q.

pair_potential_full diagonalizes the 4x4 two-ion Hamiltonian (per-ion drive
terms plus the resonant |PS><SP| exchange) instead of projecting on one
dressed branch. The exchange coefficient is C0 d1^2 / (2 q^2 R0^3): the
factor 1/2 keeps only the co-rotating part of the dipole exchange, which
makes the first-order |--> shift coincide with C3(-)/R0^3.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .constants import COULOMB_C0, E_CHARGE, M_TO_UM, joule_to_rad_us, mhz
from .dressing import DressedPair, MWDrive, dress
from .errors import DomainError, WeakDriveWarning

C6_DEFAULT = mhz(300.0)  # rad/us um^6, dispersion coefficient of the bare pair


@dataclass(frozen=True)
class InteractionModel:
    """Dispersion and dipole-exchange coefficients of the ion pair.

    c6 in rad/us um^6, c3_plus/c3_minus in rad/us um^3, d_plus/d_minus in m.
    """

    c6: float
    c3_minus: float
    c3_plus: float
    d_minus: float
    d_plus: float


def vdw_shift(c6: float, r0: float) -> float:
    """van der Waals energy C6/R0^6 (rad/us) at separation r0 (um)."""
    if r0 <= 0.0:
        raise DomainError("separation must be positive")
    return c6 / r0**6


def dd_shift(c3: float, r0: float) -> float:
    """Dipole-exchange energy C3/R0^3 (rad/us) at separation r0 (um)."""
    if r0 <= 0.0:
        raise DomainError("separation must be positive")
    return c3 / r0**3


def dd_coefficients(pair: DressedPair, d1: float, c6: float = C6_DEFAULT) -> InteractionModel:
    """Effective pair dipoles and C3 coefficients of the dressed branches."""
    d_minus = pair.n_minus**2 * pair.c_minus * abs(d1) / E_CHARGE
    d_plus = pair.n_plus**2 * pair.c_plus * abs(d1) / E_CHARGE
    to_internal = joule_to_rad_us(COULOMB_C0) * M_TO_UM**3  # (rad/us um^3) per m^2
    return InteractionModel(
        c6=c6,
        c3_minus=to_internal * d_minus**2,
        c3_plus=to_internal * d_plus**2,
        d_minus=d_minus,
        d_plus=d_plus,
    )


def exchange_coupling(d1: float, r0: float) -> float:
    """Co-rotating |PS><SP| exchange coefficient C0 d1^2/(2 q^2 R0^3), rad/us."""
    g_si = COULOMB_C0 * (d1 / E_CHARGE) ** 2 / (2.0 * (r0 / M_TO_UM) ** 3)
    return joule_to_rad_us(g_si)


def pair_potential_full(drive: MWDrive, r0: float = 5.0) -> np.ndarray:
    """Sorted eigenvalues (rad/us) of the driven two-ion pair Hamiltonian.

    Basis {PP, PS, SP, SS}: the single-ion drive Hamiltonian acts on each
    factor and the resonant exchange couples PS <-> SP. Valid deep in the
    strong-drive regime; emits WeakDriveWarning when Omega_MW is less than
    ten times the bare exchange energy C0 d1^2/(q^2 R0^3), d1 = drive.d1.
    """
    if r0 <= 0.0:
        raise DomainError("separation must be positive")
    g = exchange_coupling(drive.d1, r0)
    bare_exchange = 2.0 * g
    if drive.d1 != 0.0 and drive.omega_mw_rabi < 10.0 * bare_exchange:
        warnings.warn(
            f"Omega_MW / exchange = {drive.omega_mw_rabi / bare_exchange:.2f} < 10 "
            f"at R0 = {r0} um; dressed branches are no longer well separated",
            WeakDriveWarning,
            stacklevel=2,
        )
    half = 0.5 * drive.omega_mw_rabi
    h1 = np.array([[drive.delta_p, half], [half, drive.delta_s]])
    eye = np.eye(2)
    h = np.kron(h1, eye) + np.kron(eye, h1)
    h[1, 2] += g
    h[2, 1] += g
    return np.sort(np.linalg.eigvalsh(h))


def lower_branch_shift(drive: MWDrive, r0: float = 5.0) -> float:
    """Interaction energy of the lowest pair branch relative to its asymptote."""
    pair = dress(drive)
    eigs = pair_potential_full(drive, r0=r0)
    return eigs[0] - 2.0 * pair.e_minus
