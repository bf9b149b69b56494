"""Franck-Condon overlap matrices between phonon bases of two potential surfaces.

Two code paths:

* aligned mode vectors -- the overlap factorizes into 1D same-center
  different-frequency oscillator overlaps, evaluated by a stable two-term
  recursion (a Bogoliubov relation between the two ladder algebras):

      K[m, n+1] = ( sqrt(m) * sech * K[m-1, n] - t * sqrt(n) * K[m, n-1] ) / sqrt(n+1)
      K[m+1, n] = ( sqrt(n) * sech * K[m, n-1] + t * sqrt(m) * K[m-1, n] ) / sqrt(m+1)

  with t = (nu - omega)/(nu + omega), sech = 2 sqrt(nu omega)/(nu + omega)
  and K[0, 0] = sqrt(sech). Entries with odd m+n vanish identically. Row 0
  follows from the first relation, every further row from the second, one
  whole row at a time.

* rotated mode vectors -- a genuine 2D integral over the shared mass-scaled
  coordinates, with the bra modes living on rotated coordinates (rotation
  S = B^T A between the two eigenvector matrices). The combined Gaussian of
  bra and ket is diagonalized once; what remains is a polynomial of degree
  <= 4 n_max along each principal axis, so tensor Gauss-Hermite quadrature
  of order q >= 2 n_max + 1 is exact. The matrix is contracted as a sum of
  GEMMs over blocks of NODE_BLOCK grid nodes, (bra functions) x (weighted ket
  functions)^T, evaluating coordinates and Hermite functions block by block.
  The entries come from order 2 n_max + 2 and must agree to 1e-9 with the
  smallest exact order 2 n_max + 1, which shares none of their nodes; else
  ToleranceFailure. No other order is ever evaluated.

All eigenfunctions are taken real with positive leading coefficient, so
every overlap is real.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceFailure, TruncationWarning
from .modes import PhononBasis

ALIGNMENT_TOL = 1e-8
ROW_NORM_DEFECT_TOL = 1e-4
QUADRATURE_CHECK_TOL = 1e-9  # largest entry change between the two exact orders
NODE_BLOCK = 256          # quadrature nodes per GEMM block of the rotated path


@dataclass(frozen=True)
class FCMatrix:
    """Overlap amplitudes between truncated two-mode Fock bases.

    entries[k, j] = <bra multi-index k | ket multi-index j> with the flat
    index (m1, m2) -> m1 * (n_max + 1) + m2. Rows are bra (excited-surface)
    states, columns ket (ground-surface) states.
    """

    n_max: int
    entries: np.ndarray

    def flat_index(self, m1: int, m2: int) -> int:
        return m1 * (self.n_max + 1) + m2

    @property
    def labels(self):
        n = self.n_max + 1
        return [(i // n, i % n) for i in range(n * n)]

    def row_norms(self) -> np.ndarray:
        return np.sqrt(np.sum(self.entries**2, axis=1))


def _overlap_table(nu: float, omega: float, n_max: int) -> np.ndarray:
    """Table of <m_nu|n_omega> for m, n = 0..n_max (same-center oscillators)."""
    t = (nu - omega) / (nu + omega)
    sech = 2.0 * np.sqrt(nu * omega) / (nu + omega)
    root = np.sqrt(np.arange(n_max + 1))
    k = np.zeros((n_max + 2, n_max + 2))  # zero row/column 0 closes both recursions
    k[1, 1] = np.sqrt(sech)
    for n in range(1, n_max, 2):
        k[1, n + 2] = -t * root[n] * k[1, n] / root[n + 1]
    root_sech = root * sech
    for m in range(n_max):
        k[m + 2, 1:] = (root_sech * k[m + 1, :-1] + t * root[m] * k[m, 1:]) / root[m + 1]
    return k[1:, 1:]


def fc_overlap_1d(nu: float, omega: float, m: int, n: int) -> float:
    """Overlap <m_nu|n_omega> of two oscillator eigenstates sharing a center.

    nu is the bra frequency, omega the ket frequency (both > 0, any common
    unit). Zero whenever m+n is odd; reduces to delta_mn for nu == omega.
    """
    if nu <= 0.0 or omega <= 0.0:
        raise DomainError("oscillator frequencies must be positive")
    if m < 0 or n < 0:
        raise DomainError("quantum numbers must be non-negative")
    if (m + n) % 2 == 1:
        return 0.0
    return float(_overlap_table(nu, omega, max(m, n))[m, n])


def _hermite_functions(n_max: int, y: np.ndarray) -> np.ndarray:
    """h[n, ...] = H_n(y) / sqrt(2^n n! sqrt(pi)), stable upward recursion."""
    h = np.empty((n_max + 1,) + y.shape)
    h[0] = np.pi**-0.25
    if n_max >= 1:
        h[1] = np.sqrt(2.0) * y * h[0]
    for n in range(1, n_max):
        h[n + 1] = y * np.sqrt(2.0 / (n + 1)) * h[n] - np.sqrt(n / (n + 1.0)) * h[n - 1]
    return h


def _quadrature_fc(ground: PhononBasis, excited: PhononBasis, n_max: int,
                   order: int) -> np.ndarray:
    """2D Gauss-Hermite overlap matrix on rotated modes, one GEMM per node block."""
    w_g = ground.frequencies   # Gaussian widths exp(-w Q^2 / 2), hbar = M = 1
    w_e = excited.frequencies
    rot = excited.eigenvectors.T @ ground.eigenvectors  # ket coords -> bra coords
    gauss = np.diag(w_g) + rot.T @ np.diag(w_e) @ rot
    d, r = np.linalg.eigh(gauss)
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    freqs = np.concatenate([w_g, w_e])
    scale = np.sqrt(2.0 / d)   # principal-axis coordinate per Hermite node
    # Hermite nodes -> ket and bra mode coordinates in oscillator lengths
    to_modes = np.vstack([r, rot @ r]) * scale * np.sqrt(freqs)[:, None]
    norm = np.prod(freqs) ** 0.25 * np.prod(scale)
    dim = (n_max + 1) ** 2
    entries = np.zeros((dim, dim))
    for start in range(0, order * order, NODE_BLOCK):
        ia, ib = np.divmod(np.arange(start, min(start + NODE_BLOCK, order * order)), order)
        h = _hermite_functions(n_max, to_modes @ np.stack([nodes[ia], nodes[ib]]))
        g1, g2, e1, e2 = h.swapaxes(0, 1)
        wgt = weights[ia] * weights[ib] * norm
        bra = (e1[:, None] * e2[None]).reshape(dim, -1)
        ket = (g1[:, None] * (g2 * wgt)[None]).reshape(dim, -1)
        entries += bra @ ket.T
    return entries


def fc_matrix(ground: PhononBasis, excited: PhononBasis, n_max: int = 10) -> FCMatrix:
    """Overlap matrix between the truncated Fock spaces of two phonon bases.

    Both bases must describe the same axis and geometry. When the mode
    vectors agree the matrix is an exact tensor product of 1D overlaps;
    otherwise it is computed by rotated-coordinate Gauss-Hermite quadrature,
    contracted as one GEMM per block of grid nodes. The integrand's polynomial
    degree per principal axis is <= 4 n_max, so every order >= 2 n_max + 1 is
    exact (Golub & Welsch, Math. Comp. 23, 221, 1969). The entries are those
    of order 2 n_max + 2, returned only if no entry differs by more than 1e-9
    from order 2 n_max + 1; otherwise ToleranceFailure is raised. The two
    rules share no node, so the check bounds their rounding error when the
    degree bound holds and shows the smaller rule's quadrature error when it
    does not, as for a rule one order short of exact. Emits TruncationWarning
    when any bra row norm drops below 1 - 1e-4.
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    aligned = np.max(np.abs(ground.eigenvectors - excited.eigenvectors)) <= ALIGNMENT_TOL
    if aligned:
        t1 = _overlap_table(excited.frequencies[0], ground.frequencies[0], n_max)
        t2 = _overlap_table(excited.frequencies[1], ground.frequencies[1], n_max)
        entries = np.kron(t1, t2)
    else:
        q = 2 * n_max + 1
        exact = _quadrature_fc(ground, excited, n_max, q)
        entries = _quadrature_fc(ground, excited, n_max, q + 1)
        gap = np.max(np.abs(entries - exact))
        if not gap <= QUADRATURE_CHECK_TOL:  # also catches nan
            raise ToleranceFailure(f"rotated FC quadrature orders {q} and {q + 1} differ "
                                   f"by {gap:.3g} > {QUADRATURE_CHECK_TOL}")
    result = FCMatrix(n_max=n_max, entries=entries)
    worst = result.row_norms().min()
    if worst < 1.0 - ROW_NORM_DEFECT_TOL:
        warnings.warn(
            f"FC row norm {worst:.6f} < {1.0 - ROW_NORM_DEFECT_TOL}; "
            f"raise n_max={n_max} to restore truncated unitarity",
            TruncationWarning,
            stacklevel=2,
        )
    return result
