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
    fc_overlap_1d,
    from_secular,
)
from rydgate import franck_condon
from rydgate.errors import DomainError, ToleranceFailure, TruncationWarning

TWO_PI = 2 * np.pi
CA40 = 39.962590866 * 1.66053906660e-27


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
    """The rotated-mode quadrature as one 5-operand einsum over the whole grid."""
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


class TestOverlap1D:
    def test_identical_frequencies_gives_kronecker(self):
        for m in range(5):
            for n in range(5):
                assert fc_overlap_1d(2.3, 2.3, m, n) == pytest.approx(
                    1.0 if m == n else 0.0, abs=1e-14)

    def test_ground_ground_closed_form(self):
        nu, omega = 3.1, 1.7
        expected = np.sqrt(2 * np.sqrt(nu * omega) / (nu + omega))
        assert fc_overlap_1d(nu, omega, 0, 0) == pytest.approx(expected, rel=1e-14)
        assert overlap_by_quadrature(nu, omega, 0, 0) == pytest.approx(expected, rel=1e-12)

    def test_parity_selection_rule(self):
        assert fc_overlap_1d(3.1, 1.7, 0, 1) == 0.0
        assert fc_overlap_1d(3.1, 1.7, 2, 5) == 0.0

    def test_against_quadrature_oracle(self):
        nu, omega = 3.7, 1.3
        for m in range(6):
            for n in range(6):
                assert fc_overlap_1d(nu, omega, m, n) == pytest.approx(
                    overlap_by_quadrature(nu, omega, m, n), abs=1e-10)

    @settings(max_examples=50)
    @given(st.floats(min_value=0.2, max_value=8.0),
           st.floats(min_value=0.2, max_value=8.0),
           st.integers(min_value=0, max_value=9),
           st.integers(min_value=0, max_value=9))
    def test_exchange_symmetry(self, nu, omega, m, n):
        assert fc_overlap_1d(nu, omega, m, n) == pytest.approx(
            fc_overlap_1d(omega, nu, n, m), abs=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            fc_overlap_1d(-1.0, 1.0, 0, 0)
        with pytest.raises(DomainError):
            fc_overlap_1d(1.0, 1.0, -1, 0)

    @settings(max_examples=200)
    @given(st.floats(min_value=0.05, max_value=10.0),
           st.floats(min_value=0.05, max_value=10.0),
           st.integers(min_value=0, max_value=24))
    def test_row_recursion_equals_scalar_recursion(self, nu, omega, n_max):
        # same IEEE operations in the same order: equal values (== ignores
        # the sign of exact zeros)
        table = franck_condon._overlap_table(nu, omega, n_max)
        assert table.shape == (n_max + 1, n_max + 1)
        assert np.array_equal(table, overlap_table_reference(nu, omega, n_max))


@pytest.fixture(scope="module")
def bases():
    trap = from_secular(TWO_PI * 1e6, TWO_PI * 4e6, TWO_PI * 30e6, CA40)
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
        for (k1, k2) in [(0, 0), (1, 1), (2, 0), (3, 2)]:
            for (j1, j2) in [(0, 0), (2, 0), (1, 1), (2, 2)]:
                product = (fc_overlap_1d(excited.frequencies[0], ground.frequencies[0], k1, j1)
                           * fc_overlap_1d(excited.frequencies[1], ground.frequencies[1], k2, j2))
                assert fc.entries[fc.flat_index(k1, k2), fc.flat_index(j1, j2)] \
                    == pytest.approx(product, abs=1e-14)

    def test_quadrature_path_matches_recursion_on_aligned_case(self, bases):
        # cross-check of the two code paths: the rotated-coordinate quadrature,
        # at the order the doubling loop ends on (4 n_max + 8), on an aligned
        # problem with a ~2x frequency mismatch
        ground = bases((0.0, 0.0))
        excited = bases((-2.0e9, -2.0e9))
        ratio = excited.frequencies / ground.frequencies
        assert ratio.max() > 1.9  # the intended stress level
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            direct = fc_matrix(ground, excited, n_max=6)
        quadr = franck_condon._quadrature_fc(ground, excited, 6, 4 * 6 + 8)
        assert np.max(np.abs(direct.entries - quadr)) < 1e-10

    def test_rotated_case_row_norms(self, bases):
        # a single-ion shift rotates the quasi-degenerate transverse modes;
        # high Fock rows delocalize as (rotation x n), so "small" means small
        # against 1/n_max here
        ground = bases((0.0, 0.0))
        excited = bases((-1e5, 0.0))
        assert np.max(np.abs(ground.eigenvectors - excited.eigenvectors)) > 1e-3
        fc = fc_matrix(ground, excited, n_max=10)
        assert fc.row_norms().min() >= 0.999

    def test_rotated_case_stable_under_order_doubling(self, bases):
        ground = bases((0.0, 0.0))
        excited = bases((-2e8, 0.0))
        a = franck_condon._quadrature_fc(ground, excited, 6, 16)
        b = franck_condon._quadrature_fc(ground, excited, 6, 32)
        assert np.max(np.abs(a - b)) < 1e-9

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

    # with NODE_BLOCK = 256 nodes, orders 3 and 7 fill less than one block,
    # 16 exactly one, and 23 and 28 end on a partial block
    @pytest.mark.parametrize("pol, n_max, order", [
        (-2e8, 0, 3), (-2e8, 1, 7), (-1e5, 6, 16), (-2e9, 6, 23), (-2e8, 12, 28)])
    def test_blocked_gemm_matches_einsum(self, bases, pol, n_max, order):
        ground = bases((0.0, 0.0))
        excited = bases((pol, 0.0))
        assert np.max(np.abs(ground.eigenvectors - excited.eigenvectors)) > 1e-3
        blocked = franck_condon._quadrature_fc(ground, excited, n_max, order)
        reference = einsum_reference(ground, excited, n_max, order)
        assert np.max(np.abs(blocked - reference)) <= 1e-13

    def test_start_order_is_exact(self, bases):
        # the integrand has degree <= 4 n_max per principal axis, so order
        # 2 n_max + 1 is exact and 2 n_max is not; the doubling only verifies
        ground = bases((0.0, 0.0))
        excited = bases((-1e9, 0.0))
        assert (excited.frequencies / ground.frequencies).max() > 1.8
        n = 6
        exact = franck_condon._quadrature_fc(ground, excited, n, 4 * n + 8)
        assert np.max(np.abs(franck_condon._quadrature_fc(ground, excited, n, 2 * n + 1)
                             - exact)) <= 1e-13
        assert np.max(np.abs(franck_condon._quadrature_fc(ground, excited, n, 2 * n)
                             - exact)) > 1e-10

    def test_rotated_transient_memory_bounded(self, bases):
        # node blocks keep the transient at ~1.7 MB; contracting all order**2
        # nodes at once peaks near 11 MB at n_max = 12
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

    def test_unconverged_quadrature_raises(self, bases, monkeypatch):
        # entries that move by the order itself never settle under doubling;
        # the loop must stop at its order cap and raise, not return them
        orders = []

        def never_converges(ground, excited, n_max, order):
            orders.append(order)
            return np.full(((n_max + 1) ** 2,) * 2, float(order))

        monkeypatch.setattr(franck_condon, "_quadrature_fc", never_converges)
        ground = bases((0.0, 0.0))
        with pytest.raises(ToleranceFailure):
            fc_matrix(ground, bases((-1e5, 0.0)), n_max=2)
        assert orders[-1] > 128 * 3 and orders[-2] > 64 * 3
