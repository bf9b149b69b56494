import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import eval_hermite, factorial

from rydgate import (
    build_hessian,
    diagonalize,
    equilibrium_geometry,
    fc_matrix,
    from_secular,
)
from rydgate import franck_condon
from rydgate.constants import CA40_MASS
from rydgate.errors import DomainError, TruncationWarning

TWO_PI = 2 * np.pi


def overlap_table(nu, omega, n_max):
    """Table of <m_nu|n_omega> for m, n = 0..n_max (same-center oscillators)."""
    return franck_condon._overlap_tables(np.array([nu], dtype=float),
                                         np.array([omega], dtype=float), n_max)[0]


def oscillator_eigenfunction(n, w, x):
    """Independent construction from scipy's physicists' Hermite polynomials."""
    norm = (w / np.pi) ** 0.25 / np.sqrt(2.0**n * factorial(n))
    return norm * eval_hermite(n, np.sqrt(w) * x) * np.exp(-0.5 * w * x**2)


def overlap_by_quadrature(nu, omega, m, n):
    val, _ = quad(lambda x: oscillator_eigenfunction(m, nu, x)
                  * oscillator_eigenfunction(n, omega, x),
                  -40, 40, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val


def hermite_reference(n_max, y):
    """H_n(y) / sqrt(2^n n! sqrt(pi)) from scipy's physicists' Hermite polynomials."""
    return np.array([eval_hermite(n, y) / np.sqrt(2.0**n * factorial(n) * np.sqrt(np.pi))
                     for n in range(n_max + 1)])


def einsum_reference(ground, excited, n_max, order):
    """Rotated-mode overlaps by tensor Gauss-Hermite quadrature, one 5-operand einsum.

    The integrand is a polynomial of degree <= 4 n_max along each principal
    axis of the combined Gaussian, so every order >= 2 n_max + 1 is exact.
    """
    rot = excited.eigenvectors.T @ ground.eigenvectors
    gauss = np.diag(ground.frequencies) + rot.T @ np.diag(excited.frequencies) @ rot
    d, r = np.linalg.eigh(gauss)
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    ta, tb = np.meshgrid(nodes, nodes, indexing="ij")
    q_ket = r @ (np.stack([ta.ravel(), tb.ravel()]) * np.sqrt(2.0 / d)[:, None])
    q_bra = rot @ q_ket
    wgt = np.outer(weights, weights).ravel() * np.prod(np.sqrt(2.0 / d))
    g1, g2 = (w**0.25 * hermite_reference(n_max, np.sqrt(w) * q)
              for w, q in zip(ground.frequencies, q_ket))
    e1, e2 = (w**0.25 * hermite_reference(n_max, np.sqrt(w) * q)
              for w, q in zip(excited.frequencies, q_bra))
    dim = (n_max + 1) ** 2
    return np.einsum("an,bn,cn,dn,n->abcd", e1, e2, g1, g2, wgt).reshape(dim, dim)


def overlap_table_reference(nu, omega, n_max):
    """The two-term recursion entry by entry, in scalar arithmetic."""
    t = (nu - omega) / (nu + omega)
    sech = 2.0 * np.sqrt(nu * omega) / (nu + omega)
    k = np.zeros((n_max + 1, n_max + 1))
    k[0, 0] = np.sqrt(sech)
    for n in range(n_max):
        prev = k[0, n - 1] if n >= 1 else 0.0
        k[0, n + 1] = -t * np.sqrt(n) * prev / np.sqrt(n + 1)
    for m in range(n_max):
        for n in range(n_max + 1):
            a = np.sqrt(n) * sech * k[m, n - 1] if n >= 1 else 0.0
            b = t * np.sqrt(m) * k[m - 1, n] if m >= 1 else 0.0
            k[m + 1, n] = (a + b) / np.sqrt(m + 1)
    return k


def row_recursion_reference(nu, omega, n_max):
    """The one-mode row recursion on numpy scalars, as fc_matrix ran it per mode before
    the stacked recursion; its bits, zero signs included, are the ones to keep."""
    t = (nu - omega) / (nu + omega)
    sech = 2.0 * np.sqrt(nu * omega) / (nu + omega)
    root = np.sqrt(np.arange(n_max + 1))
    k = np.zeros((n_max + 2, n_max + 2))
    k[1, 1] = np.sqrt(sech)
    for n in range(1, n_max, 2):
        k[1, n + 2] = -t * root[n] * k[1, n] / root[n + 1]
    root_sech = root * sech
    for m in range(n_max):
        k[m + 2, 1:] = (root_sech * k[m + 1, :-1] + t * root[m] * k[m, 1:]) / root[m + 1]
    return k[1:, 1:]


def aligned_case(rng, axis, n_max, pol):
    """(ground, excited, n_max) of a seeded trap whose two ions share polarizability pol."""
    trap = from_secular(TWO_PI * rng.uniform(0.8e6, 1.2e6), TWO_PI * rng.uniform(3.5e6, 4.5e6),
                        TWO_PI * 30e6, CA40_MASS)
    geom = equilibrium_geometry(trap)
    ground = diagonalize(build_hessian(axis, trap, geom))
    return ground, diagonalize(build_hessian(axis, trap, geom, pol_per_ion=(pol, pol))), n_max


def seeded_aligned_cases(seed, n_maxes, pol_range):
    """One aligned case per n_max on X, Y and Z in turn, pol log-uniform in -pol_range.

    Both ions carry one polarizability, so the mode vectors agree; on Z the
    surfaces coincide (nu = omega).
    """
    rng = np.random.default_rng(seed)
    return [aligned_case(rng, "XYZ"[i % 3], n_max, -np.exp(rng.uniform(*np.log(pol_range))))
            for i, n_max in enumerate(n_maxes)]


def straddling_cases(seed, axis, n_max, offset=1e-3):
    """Two aligned cases whose smallest row norm lies just above and just below 1 - tol.

    Bisects the shared polarizability (log scale) onto the threshold, then
    steps it by a relative offset either way.
    """
    threshold = 1.0 - franck_condon.ROW_NORM_DEFECT_TOL
    lo, hi = np.log(1e4), np.log(1e10)  # pol magnitudes that pass and fail

    def make(log_pol):
        return aligned_case(np.random.default_rng(seed), axis, n_max, -np.exp(log_pol))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if fc_matrix(*make(mid)).row_norms().min() < threshold:
                hi = mid
            else:
                lo = mid
    return [make(lo + np.log1p(-offset)), make(hi + np.log1p(offset))]


class TestOverlap1D:
    # the aligned path's 1D table <m_nu|n_omega>, m, n = 0..n_max

    def test_identical_frequencies_gives_kronecker(self):
        table = overlap_table(2.3, 2.3, 4)
        assert np.max(np.abs(table - np.eye(5))) <= 1e-14

    def test_ground_ground_closed_form(self):
        nu, omega = 3.1, 1.7
        expected = np.sqrt(2 * np.sqrt(nu * omega) / (nu + omega))
        assert overlap_table(nu, omega, 0)[0, 0] == pytest.approx(
            expected, rel=1e-14)
        assert overlap_by_quadrature(nu, omega, 0, 0) == pytest.approx(expected, rel=1e-12)

    def test_parity_selection_rule(self):
        table = overlap_table(3.1, 1.7, 5)
        assert table[0, 1] == 0.0
        assert table[2, 5] == 0.0

    def test_against_quadrature_oracle(self):
        nu, omega = 3.7, 1.3
        table = overlap_table(nu, omega, 5)
        for m in range(6):
            for n in range(6):
                assert table[m, n] == pytest.approx(
                    overlap_by_quadrature(nu, omega, m, n), abs=1e-10)

    @settings(max_examples=50)
    @given(st.floats(min_value=0.2, max_value=8.0),
           st.floats(min_value=0.2, max_value=8.0),
           st.integers(min_value=0, max_value=9))
    def test_exchange_symmetry(self, nu, omega, n_max):
        # <m_nu|n_omega> = <n_omega|m_nu>: swapping the frequencies transposes
        forward = overlap_table(nu, omega, n_max)
        backward = overlap_table(omega, nu, n_max)
        assert np.max(np.abs(forward - backward.T)) <= 1e-12

    @settings(max_examples=200)
    @given(st.floats(min_value=0.05, max_value=10.0),
           st.floats(min_value=0.05, max_value=10.0),
           st.integers(min_value=0, max_value=24))
    def test_row_recursion_equals_scalar_recursion(self, nu, omega, n_max):
        # same IEEE operations in the same order: equal values (== ignores
        # the sign of exact zeros)
        table = overlap_table(nu, omega, n_max)
        assert table.shape == (n_max + 1, n_max + 1)
        assert np.array_equal(table, overlap_table_reference(nu, omega, n_max))

    @pytest.mark.parametrize("n_max", [0, 1, 2, 7, 20])
    def test_stacked_recursion_equals_one_mode_tables(self, n_max):
        # the stacked recursion of fc_matrix's aligned path gives each pair
        # the bits of its one-pair table and of the numpy-scalar row
        # recursion, nu = omega included
        rng = np.random.default_rng(n_max)
        nu = np.append(rng.uniform(0.05, 10.0, 4), 2.3)
        omega = np.append(rng.uniform(0.05, 10.0, 4), 2.3)
        stacked = franck_condon._overlap_tables(nu, omega, n_max)
        assert stacked.shape == (5, n_max + 1, n_max + 1)
        for j in range(5):
            one = overlap_table(nu[j], omega[j], n_max)
            assert stacked[j].tobytes() == one.tobytes()
            assert one.tobytes() == row_recursion_reference(nu[j], omega[j], n_max).tobytes()
        assert np.array_equal(stacked[4], np.eye(n_max + 1))


@pytest.fixture(scope="module")
def bases():
    trap = from_secular(TWO_PI * 1e6, TWO_PI * 4e6, TWO_PI * 30e6, CA40_MASS)
    geom = equilibrium_geometry(trap)

    def make(pol):
        return diagonalize(build_hessian("X", trap, geom, pol_per_ion=pol))

    return make


@pytest.mark.filterwarnings("ignore::rydgate.errors.TruncationWarning")
class TestMatrix:
    # warning-behavior tests below re-enable the filter locally

    def test_identical_bases_give_identity(self, bases):
        ground = bases((0.0, 0.0))
        fc = fc_matrix(ground, ground, n_max=4)
        assert np.array_equal(fc.entries, np.eye(25))

    def test_aligned_tensor_product_structure(self, bases):
        ground = bases((0.0, 0.0))
        excited = bases((-1e9, -1e9))  # symmetric shift keeps vectors aligned
        fc = fc_matrix(ground, excited, n_max=5)
        t1, t2 = (overlap_table(nu, omega, 5)
                  for nu, omega in zip(excited.frequencies, ground.frequencies))
        for (k1, k2) in [(0, 0), (1, 1), (2, 0), (3, 2)]:
            for (j1, j2) in [(0, 0), (2, 0), (1, 1), (2, 2)]:
                product = t1[k1, j1] * t2[k2, j2]
                assert fc.entries[fc.flat_index(k1, k2), fc.flat_index(j1, j2)] \
                    == pytest.approx(product, abs=1e-14)

    def test_aligned_entries_are_kron_of_tables_bits(self):
        # one broadcast product per entry, as np.kron forms it: uint64-equal
        # on seeded aligned traps on X, Y and Z at every n_max from 0 to 20
        for ground, excited, n_max in seeded_aligned_cases(
                25, [n for n in range(21) for _ in range(3)], (1e5, 3e9)):
            t1, t2 = (overlap_table(nu, omega, n_max)
                      for nu, omega in zip(excited.frequencies, ground.frequencies))
            entries = fc_matrix(ground, excited, n_max).entries
            assert entries.shape == ((n_max + 1) ** 2,) * 2
            assert np.array_equal(entries.view(np.uint64), np.kron(t1, t2).view(np.uint64))

    def test_aligned_truncation_check_on_the_factors(self):
        # the warning fires exactly when the whole matrix's smallest row norm
        # is below 1 - tol, and reports that norm to within 4 ulp: on seeded
        # cases across the threshold and on pairs within 1e-5 either side of it
        threshold = 1.0 - franck_condon.ROW_NORM_DEFECT_TOL
        cases = seeded_aligned_cases(26, [n % 15 for n in range(90)], (1e5, 1e9))
        for i, (axis, n_max) in enumerate([("X", 0), ("Y", 1), ("X", 6), ("Y", 14)]):
            cases += straddling_cases(i, axis, n_max)
        gaps = []
        for ground, excited, n_max in cases:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fc = fc_matrix(ground, excited, n_max)
            worst = fc.row_norms().min()
            assert [w.category for w in caught] == ([TruncationWarning] if worst < threshold else [])
            if caught:
                reported = caught[0].message.row_norm
                assert abs(reported - worst) <= 4 * np.spacing(worst)
                assert f"FC row norm {reported:.6f} < {threshold}" in str(caught[0].message)
            gaps.append(worst - threshold)
        gaps = np.array(gaps)
        assert np.sum(gaps < -1e-3) >= 10 and np.sum(gaps > 0) >= 10
        assert np.sum((gaps < 0) & (gaps > -1e-5)) >= 4 and np.sum((gaps > 0) & (gaps < 1e-5)) >= 4

    def test_quadrature_path_matches_recursion_on_aligned_case(self, bases):
        # cross-check of the two code paths: the rotated path's two-mode
        # recursion, called on an aligned problem with a ~2x frequency
        # mismatch, against the tensor product of 1D tables
        ground = bases((0.0, 0.0))
        excited = bases((-2.0e9, -2.0e9))
        ratio = excited.frequencies / ground.frequencies
        assert ratio.max() > 1.9  # the intended stress level
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            direct = fc_matrix(ground, excited, n_max=6)
        two_mode = franck_condon._two_mode_table(ground, excited, 6)
        assert np.max(np.abs(direct.entries - two_mode)) <= 1e-13

    def test_rotated_case_row_norms(self, bases):
        # a single-ion shift rotates the quasi-degenerate transverse modes;
        # high Fock rows delocalize as (rotation x n), so "small" means small
        # against 1/n_max here
        ground = bases((0.0, 0.0))
        excited = bases((-1e5, 0.0))
        assert np.max(np.abs(ground.eigenvectors - excited.eigenvectors)) > 1e-3
        fc = fc_matrix(ground, excited, n_max=10)
        assert fc.row_norms().min() >= 0.999

    def test_parity_zeros_for_aligned_symmetric_modes(self, bases):
        ground = bases((0.0, 0.0))
        excited = bases((-1e9, -1e9))
        fc = fc_matrix(ground, excited, n_max=5)
        for (k1, k2) in [(0, 0), (1, 0), (2, 1)]:
            for (j1, j2) in [(1, 0), (0, 1), (2, 2), (3, 1)]:
                if (k1 + j1) % 2 == 1 or (k2 + j2) % 2 == 1:
                    assert fc.entries[fc.flat_index(k1, k2), fc.flat_index(j1, j2)] == 0.0

    def test_unitarity_improves_with_truncation(self, bases):
        ground = bases((0.0, 0.0))
        excited = bases((-1.5e9, -1.5e9))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            small = fc_matrix(ground, excited, n_max=6)
            large = fc_matrix(ground, excited, n_max=12)
        block = 5 * 5  # compare the shared leading ket block

        def gram_deviation(fc):
            n = fc.n_max + 1
            idx = [m1 * n + m2 for m1 in range(5) for m2 in range(5)]
            g = fc.entries.T @ fc.entries
            return np.abs(g[np.ix_(idx, idx)] - np.eye(block))

        dev_small = gram_deviation(small)
        dev_large = gram_deviation(large)
        assert np.all(dev_large <= dev_small + 1e-12)
        assert dev_large.max() < dev_small.max()

    def test_truncation_warning_fires_for_harsh_mismatch(self, bases):
        ground = bases((0.0, 0.0))
        excited = bases((-2.0e9, -2.0e9))
        with pytest.warns(TruncationWarning):
            fc_matrix(ground, excited, n_max=3)

    def test_no_warning_for_mild_mismatch(self, bases):
        # near the dressed-state polarizability null the surfaces almost
        # coincide and the truncated matrix stays unitary to < 1e-4
        ground = bases((0.0, 0.0))
        excited = bases((-2e6, -2e6))
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            fc_matrix(ground, excited, n_max=10)

    def test_row_norms_bounded_by_one(self, bases):
        ground = bases((0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            fc = fc_matrix(ground, bases((-2.0e9, 0.0)), n_max=8)
        assert np.all(fc.row_norms() <= 1.0 + 1e-12)

    # eigenvector changes from 1e-3 to 0.7 and cutoffs from 0 to 12; the last case
    # has a frequency ratio above 2.5. Every order is >= 2 n_max + 1, where
    # the oracle's Gauss-Hermite rule is exact.
    @pytest.mark.parametrize("pol, n_max, order", [
        (-2e8, 0, 3), (-2e8, 1, 7), (-1e5, 6, 16), (-2e9, 6, 23), (-2e8, 12, 28),
        (-3e9, 12, 28)])
    def test_rotated_matches_einsum_oracle(self, bases, pol, n_max, order):
        ground = bases((0.0, 0.0))
        excited = bases((pol, 0.0))
        assert np.max(np.abs(ground.eigenvectors - excited.eigenvectors)) > 1e-3
        if pol == -3e9:
            assert (excited.frequencies / ground.frequencies).max() >= 2.5
        reference = einsum_reference(ground, excited, n_max, order)
        assert np.max(np.abs(fc_matrix(ground, excited, n_max).entries - reference)) <= 1e-12

    @pytest.mark.parametrize("pol, n_max", [(-1e5, 6), (-2e9, 8), (-3e9, 12)])
    def test_rotated_exchange_symmetry(self, bases, pol, n_max):
        # <m_e|n_g> = <n_g|m_e>: swapping the surfaces transposes the matrix
        ground = bases((0.0, 0.0))
        excited = bases((pol, 0.0))
        forward = fc_matrix(ground, excited, n_max).entries
        backward = fc_matrix(excited, ground, n_max).entries
        assert np.max(np.abs(forward.T - backward)) <= 1e-13

    def test_rotated_high_cutoff_stays_bounded(self, bases):
        ground = bases((0.0, 0.0))
        excited = bases((-3e9, 0.0))
        assert (excited.frequencies / ground.frequencies).max() >= 2.5
        fc = fc_matrix(ground, excited, n_max=20)
        assert np.all(np.isfinite(fc.entries))
        assert np.all(fc.row_norms() <= 1.0 + 1e-12)

    @pytest.mark.parametrize("pol", [(-1e9, -1e9), (-1e5, 0.0)], ids=["aligned", "rotated"])
    def test_n_max_bounded_before_allocating(self, bases, pol):
        # at n_max = 400 the matrix or the two-mode table would take about
        # 195 GiB; above the limit nothing is allocated before DomainError
        ground, excited = bases((0.0, 0.0)), bases(pol)
        limit = franck_condon.N_MAX_LIMIT
        assert fc_matrix(ground, excited, limit).entries.shape == ((limit + 1) ** 2,) * 2
        assert fc_matrix(ground, excited, np.int64(2)).n_max == 2
        for n_max in (-1, limit + 1, 400, 2.5, 3.0):
            tracemalloc.start()
            try:
                with pytest.raises(DomainError, match=rf"n_max must be an integer in \[0, {limit}\]"):
                    fc_matrix(ground, excited, n_max)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1e5

    def test_rotated_transient_memory_bounded(self, bases):
        # the recursion's padded table holds 14**4 doubles (0.3 MB) at
        # n_max = 12, and the flat copy returned 169**2 (0.2 MB)
        ground = bases((0.0, 0.0))
        excited = bases((-1e5, 0.0))
        fc_matrix(ground, excited, n_max=12)
        tracemalloc.start()
        try:
            fc_matrix(ground, excited, n_max=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6
