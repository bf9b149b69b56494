import numpy as np
import pytest

from rydgate import (
    build_hessian,
    diagonalize,
    equilibrium_geometry,
    from_secular,
    polarizability_shift,
    secular_frequencies,
)
from rydgate.constants import CA40_MASS
from rydgate.errors import DomainError, ModeInstability

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def trap():
    return from_secular(TWO_PI * 1e6, TWO_PI * 4e6, TWO_PI * 30e6, CA40_MASS)


@pytest.fixture(scope="module")
def geom(trap):
    return equilibrium_geometry(trap)


def test_zero_polarizability_reduces_to_ground_hessian(trap, geom):
    h0 = build_hessian("X", trap, geom)
    h = build_hessian("X", trap, geom, pol_per_ion=(0.0, 0.0))
    assert np.array_equal(h.matrix(), h0.matrix())


def test_axial_hessian_ignores_polarizability(trap, geom):
    h0 = build_hessian("Z", trap, geom)
    h = build_hessian("Z", trap, geom, pol_per_ion=(3e9, -1e9))
    assert np.array_equal(h.matrix(), h0.matrix())


def test_symmetric_shift_keeps_ground_eigenvectors(trap, geom):
    ground = diagonalize(build_hessian("X", trap, geom))
    shifted = diagonalize(build_hessian("X", trap, geom, pol_per_ion=(-1e9, -1e9)))
    assert np.max(np.abs(ground.eigenvectors - shifted.eigenvectors)) < 1e-12
    assert not np.allclose(ground.frequencies, shifted.frequencies)


def test_axial_modes_analytic(trap, geom):
    # analytic 2x2 eigensolve: in-phase mode at omega_z, stretch at
    # sqrt(omega_z^2 + 4 kappa) = sqrt(3) omega_z since kappa = omega_z^2 / 2
    basis = diagonalize(build_hessian("Z", trap, geom))
    omega_z = secular_frequencies(trap).omega_z * 1e-6
    assert basis.frequencies[0] == pytest.approx(omega_z, rel=1e-12)
    assert basis.frequencies[1] == pytest.approx(np.sqrt(3) * omega_z, rel=1e-12)


def test_transverse_modes_analytic(trap, geom):
    # analytic eigensolve of [[w^2 - k, k], [k, w^2 - k]]: eigenvalues w^2
    # (in-phase) and w^2 - 2k (rocking)
    h = build_hessian("X", trap, geom)
    basis = diagonalize(h)
    w2 = h.omega_chi**2
    kappa = h.coulomb_coupling
    expected = np.sort(np.sqrt([w2, w2 - 2 * kappa]))
    assert basis.frequencies == pytest.approx(expected, rel=1e-12)
    # equivalently sqrt(omega_rho^2 - omega_z^2) for this crystal
    sf = secular_frequencies(trap)
    rocking = np.sqrt((sf.omega_rho**2 - sf.omega_z**2)) * 1e-6
    assert basis.frequencies[0] == pytest.approx(rocking, rel=1e-10)


def test_strong_antitrapping_raises_mode_instability(trap, geom):
    # a large positive reduced polarizability (S-like state) removes the
    # transverse confinement entirely
    big = 1e11
    with pytest.raises(ModeInstability):
        diagonalize(build_hessian("X", trap, geom, pol_per_ion=(big, big)))


def test_eigen_residuals(trap, geom):
    rng = np.random.default_rng(7)
    for _ in range(20):
        pol = tuple(rng.uniform(-2e9, 2e9, size=2))
        h = build_hessian("X", trap, geom, pol_per_ion=pol)
        try:
            basis = diagonalize(h)
        except ModeInstability:
            continue
        m = h.matrix()
        for j in range(2):
            v = basis.eigenvectors[:, j]
            lam = basis.frequencies[j] ** 2
            assert np.linalg.norm(m @ v - lam * v) < 1e-10 * np.linalg.norm(m)


def test_eigenvectors_orthonormal_and_sign_fixed(trap, geom):
    basis = diagonalize(build_hessian("X", trap, geom, pol_per_ion=(-5e8, 0.0)))
    gram = basis.eigenvectors.T @ basis.eigenvectors
    assert np.max(np.abs(gram - np.eye(2))) < 1e-12
    for j in range(2):
        lead = basis.eigenvectors[:, j][np.abs(basis.eigenvectors[:, j]) > 1e-14][0]
        assert lead > 0


def test_sign_rule_keeps_the_numpy_scalar_bits(trap, geom):
    # the eigenvalue test and the sign rule run on Python floats; the basis
    # keeps the bits of the numpy-scalar rule, also where the first component
    # vanishes (no Coulomb coupling: unit mode vectors) and an unstable case
    # raises with the same text
    from rydgate.modes import HessianSpec

    rng = np.random.default_rng(3)
    specs = [build_hessian(axis, trap, geom, pol_per_ion=tuple(rng.uniform(-2e9, 2e8, 2)))
             for axis in "XYZ" for _ in range(20)]
    specs += [HessianSpec(axis, 54.0, 0.0, shifts)
              for axis, shifts in (("X", (10.0, -10.0)), ("Y", (-10.0, 10.0)), ("X", (0.0, 0.0)))]
    for h in specs:
        evals, evecs = np.linalg.eigh(h.matrix())
        for j in range(2):
            lead = evecs[0, j] if abs(evecs[0, j]) > 1e-14 else evecs[1, j]
            if lead < 0.0:
                evecs[:, j] = -evecs[:, j]
        basis = diagonalize(h)
        assert basis.frequencies.tobytes() == np.sqrt(evals).tobytes()
        assert basis.eigenvectors.tobytes() == evecs.tobytes()
    unstable = HessianSpec("X", 1.0, 0.0, (2.0, 0.5))
    evals = np.linalg.eigvalsh(unstable.matrix())
    with pytest.raises(ModeInstability) as caught:
        diagonalize(unstable)
    assert str(caught.value) == (
        f"non-positive Hessian eigenvalue(s) {evals[evals <= 0.0]} on axis X")


def test_frequencies_continuous_in_polarizability(trap, geom):
    for pol0 in (-1e9, -2e8, 2e8):
        deltas = [1e7, 5e6, 2.5e6]
        gaps = []
        for d in deltas:
            f0 = diagonalize(build_hessian("X", trap, geom, (pol0, pol0))).frequencies
            f1 = diagonalize(build_hessian("X", trap, geom, (pol0 + d, pol0 + d))).frequencies
            gaps.append(np.max(np.abs(f1 - f0)))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.3 * gaps[0]  # ~linear response to the shift


def test_invalid_axis(trap, geom):
    with pytest.raises(DomainError):
        build_hessian("Q", trap, geom)


def test_polarizability_shift_sign_and_units(trap):
    # negative reduced polarizability (P-like state) stiffens the transverse
    # confinement: diagonal omega^2 - shift grows
    shift = polarizability_shift(trap, -2e9)
    assert shift < 0
    omega_rho_sq = (secular_frequencies(trap).omega_rho * 1e-6) ** 2
    assert abs(shift) > 0.1 * omega_rho_sq  # Rydberg-scale effect, not noise
