import numpy as np
import pytest
import scipy.constants as const
from hypothesis import given, strategies as st

from rydgate import (
    TrapConfig,
    equilibrium_geometry,
    from_secular,
    lamb_dicke,
    secular_frequencies,
)
from rydgate.constants import CA40_MASS, COULOMB_C0
from rydgate.errors import DomainError, Unconfined

TWO_PI = 2 * np.pi


def ca40_trap(omega_z_hz=1e6, omega_rho_hz=4e6, omega_rf_hz=30e6):
    return from_secular(TWO_PI * omega_z_hz, TWO_PI * omega_rho_hz,
                        TWO_PI * omega_rf_hz, CA40_MASS)


def test_round_trip_secular_frequencies():
    cfg = ca40_trap()
    sf = secular_frequencies(cfg)
    assert sf.omega_z == pytest.approx(TWO_PI * 1e6, rel=1e-12)
    assert sf.omega_rho == pytest.approx(TWO_PI * 4e6, rel=1e-12)


def test_beta_zero_is_unconfined():
    cfg = TrapConfig(alpha=1e9, beta=0.0, omega_rf=TWO_PI * 30e6, mass=CA40_MASS)
    with pytest.raises(Unconfined):
        secular_frequencies(cfg)


def test_weak_rf_gradient_is_radially_unconfined():
    cfg = TrapConfig(alpha=1e3, beta=4e6, omega_rf=TWO_PI * 30e6, mass=CA40_MASS)
    with pytest.raises(Unconfined):
        secular_frequencies(cfg)


def test_doubling_beta_scales_omega_z_by_sqrt2():
    cfg = ca40_trap()
    doubled = TrapConfig(alpha=cfg.alpha, beta=2 * cfg.beta,
                         omega_rf=cfg.omega_rf, mass=cfg.mass)
    w1 = secular_frequencies(cfg).omega_z
    w2 = secular_frequencies(doubled).omega_z
    assert w2 == pytest.approx(np.sqrt(2) * w1, rel=1e-12)


def test_separation_matches_direct_constant_arithmetic():
    # independent oracle: z2 = (C0 / (4 M omega_z^2))^(1/3) straight from
    # scipy.constants, since M omega_z^2 z = C0/(2z)^2 at equilibrium
    cfg = ca40_trap()
    geom = equilibrium_geometry(cfg)
    c0 = const.e**2 / (4 * np.pi * const.epsilon_0)
    z2_direct = (c0 / (4 * CA40_MASS * (TWO_PI * 1e6) ** 2)) ** (1 / 3)
    assert geom.z2_bar == pytest.approx(z2_direct, rel=1e-12)
    assert geom.r0 == pytest.approx(2 * z2_direct, rel=1e-12)
    assert geom.r0 * 1e6 == pytest.approx(5.6, abs=0.05)  # ~5.6 um operating point


def test_geometry_symmetry_and_unit_vector():
    geom = equilibrium_geometry(ca40_trap())
    assert geom.r0 == 2.0 * geom.z2_bar


def test_scaling_beta_by_8_halves_z2():
    cfg = ca40_trap()
    geom = equilibrium_geometry(cfg)
    scaled = TrapConfig(alpha=cfg.alpha, beta=8 * cfg.beta,
                        omega_rf=cfg.omega_rf, mass=cfg.mass)
    assert equilibrium_geometry(scaled).z2_bar == pytest.approx(
        geom.z2_bar / 2, rel=1e-12)


def test_force_balance_residual():
    cfg = ca40_trap()
    sf = secular_frequencies(cfg)
    geom = equilibrium_geometry(cfg)
    trap_force = cfg.mass * sf.omega_z**2 * geom.z2_bar
    coulomb_force = COULOMB_C0 / (2 * geom.z2_bar) ** 2
    assert abs(trap_force - coulomb_force) / coulomb_force < 1e-12


def test_equilibrium_rejects_nonpositive_beta():
    cfg = TrapConfig(alpha=1e9, beta=-1.0, omega_rf=TWO_PI * 30e6, mass=CA40_MASS)
    with pytest.raises(Unconfined):
        equilibrium_geometry(cfg)


@given(st.floats(min_value=0.1, max_value=10.0))
def test_omega_z_invariant_under_joint_mass_beta_scaling(s):
    # alpha co-scales to keep the radial direction confined; it does not
    # enter omega_z
    cfg = ca40_trap()
    scaled = TrapConfig(alpha=s * cfg.alpha, beta=s * cfg.beta,
                        omega_rf=cfg.omega_rf, mass=s * cfg.mass)
    w_ref = 2 * np.sqrt(const.e * cfg.beta / cfg.mass)
    w_scaled = secular_frequencies(scaled).omega_z
    assert abs(w_scaled - w_ref) / w_ref < 1e-12


class TestLambDicke:
    def test_zero_wavenumber(self):
        assert lamb_dicke(0.0, TWO_PI * 1e6, CA40_MASS) == 0.0

    def test_quadrupling_frequency_halves_eta(self):
        k = TWO_PI / 123e-9
        eta1 = lamb_dicke(k, TWO_PI * 1e6, CA40_MASS)
        eta4 = lamb_dicke(k, TWO_PI * 4e6, CA40_MASS)
        assert eta4 == pytest.approx(eta1 / 2, rel=1e-12)

    def test_matches_cm_mode_oscillator_length(self):
        # oracle: xi_z = sqrt(hbar / (2 * 2M * omega_z)) for the in-phase mode
        k = TWO_PI / 123e-9
        omega_z = TWO_PI * 1e6
        xi = np.sqrt(const.hbar / (2 * (2 * CA40_MASS) * omega_z))
        assert lamb_dicke(k, omega_z, CA40_MASS) == pytest.approx(
            k * xi / np.sqrt(2), rel=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            lamb_dicke(-1.0, TWO_PI * 1e6, CA40_MASS)
        with pytest.raises(DomainError):
            lamb_dicke(1e7, 0.0, CA40_MASS)
        with pytest.raises(DomainError):
            lamb_dicke(1e7, TWO_PI * 1e6, 0.0)
