import numpy as np
import pytest
from hypothesis import given, strategies as st

from rydgate import MWDrive, dress, effective_rabi, solve_zero_polarizability
from rydgate.dressing import POL_P_DEFAULT, POL_S_DEFAULT
from rydgate.errors import DomainError, NoRoot

TWO_PI = 2 * np.pi


def reference_drive():
    return MWDrive(omega_mw_rabi=TWO_PI * 400.0,
                   delta_s=TWO_PI * 136.074,
                   delta_p=TWO_PI * 293.957)


def test_reference_drive_mixing_and_energy():
    pair = dress(reference_drive())
    assert abs(pair.c_minus) == pytest.approx(0.680, abs=0.005)
    assert abs(pair.e_minus) <= TWO_PI * 0.001   # lower branch parked at zero


def test_reference_drive_nulls_default_polarizability():
    pair = dress(reference_drive(), POL_P_DEFAULT, POL_S_DEFAULT)
    assert abs(pair.pol_minus) < 1e-3 * abs(POL_P_DEFAULT)


def test_resonant_drive_symmetric_superpositions():
    drive = MWDrive(omega_mw_rabi=TWO_PI * 100.0, delta_s=TWO_PI * 50.0,
                    delta_p=TWO_PI * 50.0)
    pair = dress(drive)
    assert pair.c_plus == pytest.approx(1.0, rel=1e-14)
    assert pair.c_minus == pytest.approx(-1.0, rel=1e-14)
    assert pair.n_plus == pytest.approx(1 / np.sqrt(2), rel=1e-14)
    assert pair.n_minus == pytest.approx(1 / np.sqrt(2), rel=1e-14)


def _identities_hold(drive, tol=1e-12):
    pair = dress(drive)
    om, dm, dp = drive.omega_mw_rabi, drive.delta_minus, drive.delta_plus
    split = np.hypot(om, dm)
    # recombining the stored absolute energies costs eps times the dominant
    # scale, so the energy identities carry an absolute floor at that scale
    floor = 1e-12 * max(1.0, abs(dp), split)
    assert pair.c_plus * pair.c_minus == pytest.approx(-1.0, abs=tol)
    assert pair.e_plus + pair.e_minus == pytest.approx(dp, rel=tol, abs=floor)
    assert pair.e_plus - pair.e_minus == pytest.approx(split, rel=tol, abs=floor)
    for c, n in ((pair.c_plus, pair.n_plus), (pair.c_minus, pair.n_minus)):
        assert n**2 * (1 + c**2) == pytest.approx(1.0, rel=tol)


def test_identities_over_seeded_ensemble():
    rng = np.random.default_rng(20260808)
    for _ in range(1000):
        drive = MWDrive(omega_mw_rabi=rng.uniform(1e-2, 1e4),
                        delta_s=rng.uniform(-1e4, 1e4),
                        delta_p=rng.uniform(-1e4, 1e4))
        _identities_hold(drive)


@given(st.floats(min_value=1e-2, max_value=1e4),
       st.floats(min_value=-1e4, max_value=1e4),
       st.floats(min_value=-1e4, max_value=1e4))
def test_identities_property(om, ds, dp):
    _identities_hold(MWDrive(omega_mw_rabi=om, delta_s=ds, delta_p=dp))


def test_against_numerical_eigensolver():
    rng = np.random.default_rng(11)
    for _ in range(50):
        drive = MWDrive(omega_mw_rabi=rng.uniform(1.0, 1e3),
                        delta_s=rng.uniform(-1e3, 1e3),
                        delta_p=rng.uniform(-1e3, 1e3))
        pair = dress(drive)
        h = np.array([[drive.delta_p, drive.omega_mw_rabi / 2],
                      [drive.omega_mw_rabi / 2, drive.delta_s]])
        evals, evecs = np.linalg.eigh(h)
        assert pair.e_minus == pytest.approx(evals[0], rel=1e-12, abs=1e-9)
        assert pair.e_plus == pytest.approx(evals[1], rel=1e-12, abs=1e-9)
        minus = pair.n_minus * np.array([pair.c_minus, 1.0])
        plus = pair.n_plus * np.array([pair.c_plus, 1.0])
        assert abs(np.dot(minus, evecs[:, 0])) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.dot(plus, evecs[:, 1])) == pytest.approx(1.0, abs=1e-10)


class TestZeroPolarizability:
    def test_root_matches_closed_form_ratio(self):
        # P_-(D_-) = 0 iff C_-^2 = -pol_s/pol_p = 0.4625, i.e. |C_-| = 0.680
        om = TWO_PI * 400.0
        dm = solve_zero_polarizability(-2.0e9, 0.925e9, om, branch="-")
        drive = MWDrive(omega_mw_rabi=om, delta_s=0.0, delta_p=dm)
        pair = dress(drive, -2.0e9, 0.925e9)
        assert abs(pair.c_minus) == pytest.approx(np.sqrt(0.4625), rel=1e-8)
        assert abs(pair.pol_minus) < 1e-10 * 2.0e9

    def test_plus_branch(self):
        om = TWO_PI * 400.0
        dm = solve_zero_polarizability(-2.0e9, 0.925e9, om, branch="+")
        drive = MWDrive(omega_mw_rabi=om, delta_s=0.0, delta_p=dm)
        pair = dress(drive, -2.0e9, 0.925e9)
        assert abs(pair.pol_plus) < 1e-10 * 2.0e9

    def test_zero_pol_s_has_no_root(self):
        with pytest.raises(NoRoot):
            solve_zero_polarizability(-2.0e9, 0.0, TWO_PI * 400.0)

    def test_equal_signs_have_no_root(self):
        with pytest.raises(NoRoot):
            solve_zero_polarizability(2.0e9, 0.925e9, TWO_PI * 400.0)

    def test_bad_branch_label(self):
        # an argument outside the domain, not a root search that failed
        with pytest.raises(DomainError, match="branch must be"):
            solve_zero_polarizability(-2.0e9, 0.925e9, TWO_PI * 400.0, branch="x")

    @pytest.mark.parametrize("pol_p, pol_s", [(float("nan"), 0.925e9), (-2.0e9, float("inf")),
                                              (-float("inf"), 0.925e9)])
    def test_non_finite_polarizabilities_have_no_root(self, pol_p, pol_s):
        with pytest.raises(NoRoot):
            solve_zero_polarizability(pol_p, pol_s, TWO_PI * 400.0)

    @pytest.mark.parametrize("omega", [0.0, -TWO_PI * 400.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_drive_is_domain_error(self, omega):
        with pytest.raises(DomainError, match="omega_mw_rabi"):
            solve_zero_polarizability(-2.0e9, 0.925e9, omega)

    def test_default_null_is_exact(self):
        # C_-^2 = q is solved exactly, so pol_- at the root is rounding only
        # (8e-8 m^2/J here)
        om = TWO_PI * 400.0
        dm = solve_zero_polarizability(POL_P_DEFAULT, POL_S_DEFAULT, om)
        assert dm == pytest.approx(TWO_PI * 158.07114375, rel=1e-10)
        pair = dress(MWDrive(omega_mw_rabi=om, delta_s=0.0, delta_p=dm))
        assert abs(pair.pol_minus) <= 1e-13 * abs(POL_P_DEFAULT)

    def test_near_resonant_null_keeps_its_relative_accuracy(self):
        # q = 1 + 3 eps exactly: q - 1 is exact, while sqrt(q)^2 - 1 would be
        # 2 or 4 eps; the root is Omega (q - 1) / (2 sqrt(q)) ~ 1.5 eps Omega
        om = TWO_PI * 400.0
        q = 1.0 + 3 * 2.0**-52
        dm = solve_zero_polarizability(-2.0**30, q * 2.0**30, om, branch="+")
        assert dm == pytest.approx(1.5 * 2.0**-52 * om, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_null_over_seeded_ensemble(self, branch):
        # |pol| 1e6-1e12 m^2/J and Omega_MW 1-1000 MHz; about 5% of these
        # roots lie beyond 100 Omega_MW from resonance
        rng = np.random.default_rng(20261019)
        for _ in range(2000):
            pol_p, pol_s = 10 ** rng.uniform(6, 12, 2) * rng.permutation([-1.0, 1.0])
            om = TWO_PI * rng.uniform(1.0, 1000.0)
            dm = solve_zero_polarizability(pol_p, pol_s, om, branch=branch)
            pair = dress(MWDrive(omega_mw_rabi=om, delta_s=0.0, delta_p=dm), pol_p, pol_s)
            pol = pair.pol_plus if branch == "+" else pair.pol_minus
            assert abs(pol) <= 1e-13 * max(abs(pol_p), abs(pol_s))


class TestEffectiveRabi:
    def test_zero_laser_rabi(self):
        assert effective_rabi(reference_drive(), 0.0) == 0.0

    def test_resonant_reduction(self):
        drive = MWDrive(omega_mw_rabi=TWO_PI * 100.0, delta_s=0.0, delta_p=0.0)
        om = TWO_PI * 0.5
        assert effective_rabi(drive, om) == pytest.approx(om / np.sqrt(2), rel=1e-12)

    def test_linearity(self):
        drive = reference_drive()
        assert effective_rabi(drive, 2.0) == pytest.approx(
            2 * effective_rabi(drive, 1.0), rel=1e-14)

    def test_equals_projection_on_p_admixture(self):
        # the closed form is exactly |<-|P>| times the bare Rabi frequency
        drive = reference_drive()
        pair = dress(drive)
        om = TWO_PI * 0.5
        assert effective_rabi(drive, om) == pytest.approx(
            abs(pair.n_minus * pair.c_minus) * om, rel=1e-12)

    def test_is_the_p_admixture_dress_reports(self):
        # bit for bit the amplitude |N_- C_-| of dress, over drives on both
        # sides of resonance
        rng = np.random.default_rng(20261020)
        for _ in range(500):
            drive = MWDrive(omega_mw_rabi=rng.uniform(1.0, 1e3),
                            delta_s=rng.uniform(-1e3, 1e3),
                            delta_p=rng.uniform(-1e3, 1e3))
            pair = dress(drive)
            om = rng.uniform(0.1, 10.0)
            assert effective_rabi(drive, om) == abs(pair.n_minus * pair.c_minus) * om
