import dataclasses
import warnings

import numpy as np
import pytest

from rydgate import (
    MWDrive,
    dd_coefficients,
    dd_shift,
    dress,
    lower_branch_shift,
    pair_potential_full,
    vdw_shift,
)
from rydgate.dressing import D1_DEFAULT
from rydgate.errors import DomainError, WeakDriveWarning

TWO_PI = 2 * np.pi


def reference_drive():
    return MWDrive(omega_mw_rabi=TWO_PI * 400.0,
                   delta_s=TWO_PI * 136.074,
                   delta_p=TWO_PI * 293.957)


class TestVdw:
    def test_reference_number(self):
        # C6 = 2pi x 0.3 GHz um^6 at 5 um -> 2pi x 19.2 kHz exactly
        c6 = TWO_PI * 300.0
        shift = vdw_shift(c6, 5.0)
        assert shift == pytest.approx(c6 / 5.0**6, rel=1e-12)
        assert shift / TWO_PI * 1e3 == pytest.approx(19.2, rel=1e-12)
        assert abs(shift / TWO_PI * 1e3 - 20.0) / 20.0 < 0.05

    def test_power_law(self):
        c6 = TWO_PI * 300.0
        assert vdw_shift(c6, 10.0) == pytest.approx(vdw_shift(c6, 5.0) / 64, rel=1e-12)

    def test_zero_coefficient(self):
        assert vdw_shift(0.0, 5.0) == 0.0

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(DomainError):
            vdw_shift(TWO_PI * 300.0, 0.0)


class TestDDCoefficients:
    def test_calibrated_c3_minus(self):
        pair = dress(reference_drive())
        model = dd_coefficients(pair, D1_DEFAULT)
        assert model.c3_minus / TWO_PI / 1e3 == pytest.approx(0.309, rel=1e-9)

    def test_resonant_drive_equal_dipoles(self):
        drive = MWDrive(omega_mw_rabi=TWO_PI * 400.0, delta_s=TWO_PI * 100.0,
                        delta_p=TWO_PI * 100.0)
        model = dd_coefficients(dress(drive), D1_DEFAULT)
        assert model.d_plus**2 == pytest.approx(model.d_minus**2, rel=1e-12)
        assert model.c3_plus == pytest.approx(model.c3_minus, rel=1e-12)

    def test_zero_dipole(self):
        model = dd_coefficients(dress(reference_drive()), 0.0)
        assert model.c3_minus == 0.0 and model.c3_plus == 0.0

    def test_coefficients_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            drive = MWDrive(omega_mw_rabi=rng.uniform(10, 5000),
                            delta_s=rng.uniform(-3000, 3000),
                            delta_p=rng.uniform(-3000, 3000))
            model = dd_coefficients(dress(drive), D1_DEFAULT)
            assert model.c3_minus >= 0.0 and model.c3_plus >= 0.0


class TestDDShift:
    def test_reference_number(self):
        shift = dd_shift(TWO_PI * 309.0, 5.0)
        assert shift / TWO_PI == pytest.approx(2.472, rel=1e-12)
        assert abs(shift / TWO_PI - 2.5) / 2.5 < 0.05

    def test_power_law(self):
        assert dd_shift(TWO_PI * 309.0, 10.0) == pytest.approx(
            dd_shift(TWO_PI * 309.0, 5.0) / 8, rel=1e-12)

    def test_dominates_vdw_at_operating_point(self):
        assert dd_shift(TWO_PI * 309.0, 5.0) > 100 * vdw_shift(TWO_PI * 300.0, 5.0)


class TestPairPotentialFull:
    def test_decoupled_limit_at_large_separation(self):
        drive = reference_drive()
        pair = dress(drive)
        eigs = pair_potential_full(drive, r0=1e4)
        expected = np.sort([2 * pair.e_minus, pair.e_plus + pair.e_minus,
                            pair.e_plus + pair.e_minus, 2 * pair.e_plus])
        assert eigs == pytest.approx(expected, abs=1e-6)

    def test_zero_dipole_is_exactly_decoupled(self):
        drive = reference_drive()
        pair = dress(drive)
        for r0 in (2.0, 5.0, 9.0):
            eigs = pair_potential_full(dataclasses.replace(drive, d1=0.0), r0=r0)
            expected = np.sort([2 * pair.e_minus, pair.e_plus + pair.e_minus,
                                pair.e_plus + pair.e_minus, 2 * pair.e_plus])
            assert eigs == pytest.approx(expected, rel=1e-12, abs=1e-9)

    def test_trace_invariant(self):
        # the exchange term is traceless, so the eigenvalue sum equals the
        # drive trace: each ion's (delta_p + delta_s) counted over the two
        # states of the partner, 4 (delta_p + delta_s) in total
        drive = reference_drive()
        for r0 in (2.0, 3.7, 5.0, 8.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeakDriveWarning)
                eigs = pair_potential_full(drive, r0=r0)
            assert np.sum(eigs) == pytest.approx(
                4 * (drive.delta_s + drive.delta_p), rel=1e-12)

    def test_spectrum_invariant_under_ion_swap(self):
        drive = reference_drive()
        # swap = permutation exchanging PS and SP in the {PP, PS, SP, SS} basis
        swap = np.eye(4)[[0, 2, 1, 3]]
        half = 0.5 * drive.omega_mw_rabi
        h1 = np.array([[drive.delta_p, half], [half, drive.delta_s]])
        h = np.kron(h1, np.eye(2)) + np.kron(np.eye(2), h1)
        from rydgate.interactions import exchange_coupling
        g = exchange_coupling(D1_DEFAULT, 5.0)
        h[1, 2] += g
        h[2, 1] += g
        swapped = swap @ h @ swap.T
        assert np.allclose(np.linalg.eigvalsh(h), np.linalg.eigvalsh(swapped),
                           rtol=1e-14, atol=1e-12)

    def test_weak_drive_warning_at_close_range(self):
        with pytest.warns(WeakDriveWarning):
            pair_potential_full(reference_drive(), r0=2.0)

    def test_no_warning_at_operating_point(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", WeakDriveWarning)
            pair_potential_full(reference_drive(), r0=5.0)


class TestFullVsApproximate:
    def test_agreement_within_2_percent_in_strong_drive_regime(self):
        # the cross-branch repulsion scales as 1/R0^6 relative 1/R0^3, and
        # crosses 2 percent of the first-order shift near R0 = 3.1 um for
        # these parameters; beyond that the projected formula is exact to 2%
        drive = reference_drive()
        pair = dress(drive)
        model = dd_coefficients(pair, D1_DEFAULT)
        for r0 in np.linspace(3.2, 10.0, 35):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeakDriveWarning)
                full = lower_branch_shift(drive, r0=r0)
            approx = dd_shift(model.c3_minus, r0)
            assert abs(full - approx) / approx < 0.02

    def test_deviation_bounded_and_sub_10_percent_down_to_2um(self):
        drive = reference_drive()
        model = dd_coefficients(dress(drive), D1_DEFAULT)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakDriveWarning)
            for r0 in np.linspace(2.0, 10.0, 17):
                full = lower_branch_shift(drive, r0=r0)
                approx = dd_shift(model.c3_minus, r0)
                assert abs(full - approx) / approx < 0.10

    def test_deviation_monotonically_decreasing_in_separation(self):
        drive = reference_drive()
        model = dd_coefficients(dress(drive), D1_DEFAULT)
        grid = np.linspace(2.0, 10.0, 25)
        devs = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakDriveWarning)
            for r0 in grid:
                full = lower_branch_shift(drive, r0=r0)
                approx = dd_shift(model.c3_minus, r0)
                devs.append(abs(full - approx) / approx)
        assert all(a > b for a, b in zip(devs[:-1], devs[1:]))
