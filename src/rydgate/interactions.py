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

import numpy as np

from ._record import Record
from .constants import COULOMB_C0, E_CHARGE, M_TO_UM, joule_to_rad_us
from .dressing import DressedPair, MWDrive, dress
from .errors import DomainError, WeakDriveWarning


class InteractionModel(Record):
    """Dipole-exchange coefficients of the dressed ion pair.

    c3_plus/c3_minus in rad/us um^3, d_plus/d_minus in m.
    """

    c3_minus: float
    c3_plus: float
    d_minus: float
    d_plus: float


def _inverse_power(coefficient: float, r0, power: int):
    """coefficient / r0**power at r0 > 0 (else DomainError): a float, or an array for one.

    np.float_power gives Python's scalar ** bit for bit; array ** can differ in the last bit.
    """
    if not np.all(np.greater(r0, 0.0)):  # NaN fails too
        raise DomainError("separation must be positive")
    value = coefficient / np.float_power(r0, power)
    return value if value.ndim else float(value)


def vdw_shift(c6: float, r0):
    """van der Waals energy C6/R0^6 (rad/us) at separation r0 (um), a float or an array."""
    return _inverse_power(c6, r0, 6)


def dd_shift(c3: float, r0):
    """Dipole-exchange energy C3/R0^3 (rad/us) at separation r0 (um), a float or an array."""
    return _inverse_power(c3, r0, 3)


def dd_coefficients(pair: DressedPair, d1: float) -> InteractionModel:
    """Effective pair dipoles and C3 coefficients of the dressed branches."""
    d_minus = pair.n_minus**2 * pair.c_minus * abs(d1) / E_CHARGE
    d_plus = pair.n_plus**2 * pair.c_plus * abs(d1) / E_CHARGE
    to_internal = joule_to_rad_us(COULOMB_C0) * M_TO_UM**3  # (rad/us um^3) per m^2
    return InteractionModel(
        c3_minus=to_internal * d_minus**2,
        c3_plus=to_internal * d_plus**2,
        d_minus=d_minus,
        d_plus=d_plus,
    )


def exchange_coupling(d1: float, r0):
    """Co-rotating |PS><SP| exchange C0 d1^2/(2 q^2 R0^3), rad/us: a C3/R0^3 law, as dd_shift."""
    return joule_to_rad_us(dd_shift(COULOMB_C0 * (d1 / E_CHARGE) ** 2 / 2.0, r0 / M_TO_UM))


def pair_potential_full(drive: MWDrive, r0=5.0) -> np.ndarray:
    """Sorted eigenvalues (rad/us) of the driven two-ion pair Hamiltonian.

    Basis {PP, PS, SP, SS}: the single-ion drive Hamiltonian acts on each
    factor and the resonant exchange couples PS <-> SP. r0 (um) is a scalar,
    giving shape (4,), or a 1-D array, giving one sorted row per separation;
    each row has the bits of the scalar call. Valid deep in the strong-drive
    regime; emits WeakDriveWarning, once per separation in order, when
    Omega_MW is less than ten times the bare exchange energy
    C0 d1^2/(q^2 R0^3), d1 = drive.d1. Raises DomainError at the first
    separation that is not > 0, NaN included; inf is the non-interacting
    limit.
    """
    flat = np.asarray(r0, dtype=float).ravel()
    valid = flat > 0.0  # NaN fails too
    n_valid = flat.size if valid.all() else int(valid.argmin())  # up to the first bad one
    exchange = exchange_coupling(drive.d1, flat[:n_valid])
    for r, g in zip(flat[:n_valid].tolist(), exchange.tolist()):
        if drive.d1 != 0.0 and drive.omega_mw_rabi < 10.0 * (2.0 * g):
            warnings.warn(f"Omega_MW / exchange = {drive.omega_mw_rabi / (2.0 * g):.2f} < 10 "
                          f"at R0 = {r} um; dressed branches are no longer well separated",
                          WeakDriveWarning, stacklevel=2)
    if n_valid < flat.size:
        raise DomainError("separation must be positive")
    # h1 (x) 1 + 1 (x) h1 with h1 = [[Delta_P, Omega/2], [Omega/2, Delta_S]], plus
    # the exchange, entry by entry as the two Kronecker products sum them
    dp, ds, half = drive.delta_p, drive.delta_s, 0.5 * drive.omega_mw_rabi
    h = np.empty((flat.size, 4, 4))
    h[:] = [[dp + dp, half, half, 0.0],
            [half, dp + ds, 0.0, half],
            [half, 0.0, ds + dp, half],
            [0.0, half, half, ds + ds]]
    h[:, 1, 2] = h[:, 2, 1] = exchange
    # eigvalsh diagonalizes a stack one matrix at a time, so each row keeps its bits
    eigs = np.linalg.eigvalsh(h.reshape(np.shape(r0) + (4, 4)))
    eigs.sort()
    return eigs


def lower_branch_shift(drive: MWDrive, r0: float = 5.0) -> float:
    """Interaction energy of the lowest pair branch relative to its asymptote."""
    pair = dress(drive)
    eigs = pair_potential_full(drive, r0=r0)
    return eigs[0] - 2.0 * pair.e_minus
