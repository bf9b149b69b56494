"""Franck-Condon overlap matrices between phonon bases of two potential surfaces.

Two code paths:

* aligned mode vectors -- the overlap factorizes into 1D same-center
  different-frequency oscillator overlaps, evaluated by a stable two-term
  recursion (a Bogoliubov relation between the two ladder algebras):

      K[m, n+1] = ( sqrt(m) * sech * K[m-1, n] - t * sqrt(n) * K[m, n-1] ) / sqrt(n+1)
      K[m+1, n] = ( sqrt(n) * sech * K[m, n-1] + t * sqrt(m) * K[m-1, n] ) / sqrt(m+1)

  with t = (nu - omega)/(nu + omega), sech = 2 sqrt(nu omega)/(nu + omega)
  and K[0, 0] = sqrt(sech). Entries with odd m+n vanish identically. Row 0
  follows from the first relation, on Python floats, every further row from
  the second. Both modes' tables are built in one stacked recursion, one set
  of numpy calls per row for the pair, and the matrix is their broadcast
  product K1[m1, n1] K2[m2, n2]: one product per entry, as in np.kron. A row
  norm of that product is the product of the factors' row norms, so the
  truncation check takes the smallest from the two tables (O(n_max^2)
  work) instead of summing the (n_max+1)^2 x (n_max+1)^2 matrix.

* rotated mode vectors -- the two-mode (Duschinsky) form of the same
  recursion (Doktorov, Malkin & Man'ko, J. Mol. Spectrosc. 64, 302, 1977).
  With nu, omega the bra and ket frequencies, J = E^T G the rotation from ket
  (G) to bra (E) mode coordinates and M = (J^T diag(nu) J + diag(omega))^-1:

      A = 2 nu^1/2 J M J^T nu^1/2 - 1,  B = 2 nu^1/2 J M omega^1/2,  C = 2 omega^1/2 M omega^1/2 - 1
      <0|0> = (4 sqrt(nu1 nu2 omega1 omega2) det M)^1/2
      <0|n+e_i> = sum_j C_ij sqrt(n_j) <0|n-e_j> / sqrt(n_i+1)
      <m+e_i|n> = sum_j [A_ij sqrt(m_j) <m-e_j|n> + B_ij sqrt(n_j) <m|n-e_j>] / sqrt(m_i+1)

  Row <0|.> comes first, then one bra row at a time over the ket grid. At
  J = 1 these are the 1D relations (A = t, B = sech, C = -t); the aligned
  path keeps the tensor product of 1D tables: faster, with exact parity zeros.
  A rotated matrix has no factors, so its truncation check sums the squares
  of the whole matrix (FCMatrix.row_norms).

All eigenfunctions are taken real with positive leading coefficient, so
every overlap is real.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationWarning
from .modes import PhononBasis

ALIGNMENT_TOL = 1e-8
ROW_NORM_DEFECT_TOL = 1e-4
# largest n_max: at 40 the matrix is 1681 x 1681 (about 23 MB) and its CSV
# about 16 MB, which `rydgate fc` writes in about 0.75 s at a 210 MB peak
# (one BLAS thread); callers use 5-14, and 400 would ask for 193 GiB (the
# aligned product) or 195 GiB (the two-mode table)
N_MAX_LIMIT = 40


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


def _overlap_tables(nu: np.ndarray, omega: np.ndarray, n_max: int) -> np.ndarray:
    """Tables <m_nu|n_omega>, m, n = 0..n_max, of each frequency pair, stacked.

    One recursion for all pairs: shape (len(nu), n_max + 1, n_max + 1). Row 0
    runs on Python floats, every further row is one set of numpy calls for
    all pairs, with the IEEE operations of the one-pair recursion.
    """
    t = (nu - omega) / (nu + omega)
    sech = 2.0 * np.sqrt(nu * omega) / (nu + omega)
    root = np.sqrt(np.arange(n_max + 1))
    # zero row/column 0 of each table closes both recursions
    k = np.zeros((len(t), n_max + 2, n_max + 2))
    roots = root.tolist()
    for j, (t_j, sech_j) in enumerate(zip(t.tolist(), sech.tolist())):
        row = [math.sqrt(sech_j)]  # <0|0>, <0|2>, <0|4>, ...
        for n in range(1, n_max, 2):
            row.append(-t_j * roots[n] * row[-1] / roots[n + 1])
        k[j, 1, 1::2] = row
    root_sech = root * sech[:, None]
    t_root = t[:, None] * root
    for m in range(n_max):
        k[:, m + 2, 1:] = (root_sech * k[:, m + 1, :-1]
                           + t_root[:, m, None] * k[:, m, 1:]) / root[m + 1]
    return k[:, 1:, 1:]


def _two_mode_table(ground: PhononBasis, excited: PhononBasis, n_max: int) -> np.ndarray:
    """Flat matrix of <m1 m2|n1 n2> for rotated modes (the Duschinsky recursion)."""
    nu = excited.frequencies
    omega = ground.frequencies
    rot = excited.eigenvectors.T @ ground.eigenvectors  # ket coords -> bra coords
    inv = np.linalg.inv(rot.T @ np.diag(nu) @ rot + np.diag(omega))
    sn, so = np.sqrt(nu), np.sqrt(omega)
    a = 2.0 * sn[:, None] * (rot @ inv @ rot.T) * sn[None] - np.eye(2)
    b = 2.0 * sn[:, None] * (rot @ inv) * so[None]
    c = 2.0 * so[:, None] * inv * so[None] - np.eye(2)
    root = np.sqrt(np.arange(n_max + 1))
    # k[m1 + 1, m2 + 1, n1 + 1, n2 + 1] = <m1 m2|n1 n2>; the zero first slot
    # on every axis closes the recursions
    k = np.zeros((n_max + 2,) * 4)
    z = k[1, 1]  # the bra row <0 0|.>
    z[1, 1] = np.sqrt(4.0 * np.sqrt(np.prod(nu) * np.prod(omega)) * np.linalg.det(inv))
    for n in range(n_max):  # <0|0 n2>, then <0|n1 n2> one n1 at a time
        z[1, n + 2] = c[1, 1] * root[n] * z[1, n] / root[n + 1]
    for n in range(n_max):
        z[n + 2, 1:] = (c[0, 0] * root[n] * z[n, 1:] + c[0, 1] * root * z[n + 1, :-1]) / root[n + 1]
    b_n1 = [b[i, 0] * root[:, None] for i in range(2)]  # B_i1 sqrt(n1) on the ket grid
    b_n2 = [b[i, 1] * root for i in range(2)]           # B_i2 sqrt(n2)
    for m1 in range(n_max + 1):
        for m2 in range(m1 == 0, n_max + 1):
            # raise mode 1 from (m1 - 1, m2); along m1 = 0, mode 2 from (0, m2 - 1)
            i, p1, p2 = (0, m1 - 1, m2) if m1 else (1, 0, m2 - 1)
            src = k[p1 + 1, p2 + 1]
            k[m1 + 1, m2 + 1, 1:, 1:] = (a[i, 0] * root[p1] * k[p1, p2 + 1, 1:, 1:]
                                         + a[i, 1] * root[p2] * k[p1 + 1, p2, 1:, 1:]
                                         + b_n1[i] * src[:-1, 1:]
                                         + b_n2[i] * src[1:, :-1]) / root[(m1, m2)[i]]
    dim = (n_max + 1) ** 2
    return k[1:, 1:, 1:, 1:].reshape(dim, dim)


def fc_matrix(ground: PhononBasis, excited: PhononBasis, n_max: int = 10) -> FCMatrix:
    """Overlap matrix between the truncated Fock spaces of two phonon bases.

    Both bases must describe the same axis and geometry. When the mode
    vectors agree the matrix is an exact tensor product of 1D overlaps;
    otherwise it comes from the two-mode recursion of the module docstring.
    Both are exact recursions, so no order or tolerance is involved. Emits
    TruncationWarning when any bra row norm drops below 1 - 1e-4; its
    row_norm attribute holds the smallest row norm, unrounded. Raises
    DomainError, before allocating, unless n_max is an integer in
    [0, N_MAX_LIMIT].
    """
    if not (isinstance(n_max, (int, np.integer)) and 0 <= n_max <= N_MAX_LIMIT):
        raise DomainError(f"n_max must be an integer in [0, {N_MAX_LIMIT}], got {n_max!r}")
    aligned = np.max(np.abs(ground.eigenvectors - excited.eigenvectors)) <= ALIGNMENT_TOL
    if aligned:
        tables = _overlap_tables(excited.frequencies, ground.frequencies, n_max)
        t1, t2 = tables
        dim = (n_max + 1) ** 2
        result = FCMatrix(n_max, (t1[:, None, :, None] * t2[None, :, None, :]).reshape(dim, dim))
        # a row norm of the product is the product of its factors' row norms,
        # so the smallest is sqrt(min |t1 row|^2 * min |t2 row|^2): O(n^2) work
        least1, least2 = np.sum(tables**2, axis=2).min(axis=1).tolist()
        worst = math.sqrt(least1 * least2)
    else:
        result = FCMatrix(n_max, _two_mode_table(ground, excited, n_max))
        worst = result.row_norms().min()
    if worst < 1.0 - ROW_NORM_DEFECT_TOL:
        warnings.warn(TruncationWarning(
            f"FC row norm {worst:.6f} < {1.0 - ROW_NORM_DEFECT_TOL}; "
            f"raise n_max={n_max} to restore truncated unitarity", worst), stacklevel=2)
    return result
