"""Adiabatic controlled-phase gate design.

A sin^2 laser pulse drives the qubit |D> towards the lower dressed Rydberg
state while the detuning sweeps from 1.5 Delta_0 down to 0.5 Delta_0 and
back. Integrating the instantaneous light shifts of the doubly-driven
(|DD>, blockaded) and singly-driven (|DE>) manifolds over the pulse gives
the accumulated phases; the entangling phase is their blockade-sensitive
combination phi_DD - 2 phi_DE. Phases follow the positive convention
phi = integral E dt. The integrands are smooth and tau-periodic, so one
trapezoid rule on nested uniform grids, exponentially convergent, serves
entangling_phase, optimize_pulse (its scan as one array) and phase_trace.
Most single delta0 settle on 32 or 64 nodes, so the first light-shift call
of an integral covers 64 nodes at once; finer grids add odd nodes only for
the delta0 that still move. The optimizer's scan needs only the sign of
phi_ent - pi on each row, so a row far from the root stops once its sign is
settled; the two rows that bracket the root are integrated again, converged.
The converged integral of one design point (omega0, delta0, tau, B) is kept
(the last 16), so Brent's evaluation at the root serves entangling_phase and
phase_trace there. phase_trace's sine table takes the fractional part of
k t / tau as u - floor(u), exact for u >= 0.

Both light shifts are exact adiabatic eigenvalues: E_DE of the 2x2
{|DE>, |-E>} block and E_DD of the ion-symmetric 3x3 block {|DD>, |D->_+,
|-->}. The paper's closed form for E_DD, which eliminates |--> to second
order, is kept as adiabatic_energies_closed_form for reference; at the
reference design it is 0.07 rad away from the exact phase.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, NoRoot, SingularDenominator, ToleranceFailure,
                     ValidationError)

QUAD_ABS_TOL = 1e-8  # rad, last change of the accumulated phases on node doubling
# A scan row stops once |phi_ent - pi| exceeds SIGN_MARGIN times phi_ent's last
# change, which bounds the finer sum's error (exponential convergence; at most
# 0.075 of it over 12 000 scan rows of 300 random designs), so 10 keeps the sign
# with room; rows needing > 64 nodes sat >= 239 changes from pi and stop by 64.
SIGN_MARGIN = 10.0
MAX_NODES = 2**17  # trapezoid nodes per pulse before ToleranceFailure; a power of two
EIG_STEP_RTOL = 1e-7  # relative size of the last Newton step; about its square remains
EIG_MAX_STEPS = 50
BRENT_XTOL, BRENT_RTOL, BRENT_MAX_ITER = 1e-14, 8.9e-16, 100  # root polish in optimize_pulse
_TINY = np.finfo(float).tiny  # keeps the all-zero block at 0 instead of 0/0


def wrap_angle(x):
    """Map an angle to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x), 2.0 * np.pi)


@dataclass(frozen=True)
class PulseShape:
    """sin^2 pulse: peak Rabi omega0, detuning scale delta0, duration tau (us)."""

    omega0: float
    delta0: float
    tau: float

    def __post_init__(self):
        for name in ("omega0", "delta0", "tau"):
            value = getattr(self, name)
            if np.size(value) != 1 or not np.isfinite(value).all():
                raise ValidationError(f"pulse {name} must be one finite number, got {value}")
        if self.tau <= 0.0:
            raise ValidationError(f"pulse duration must be positive, got {self.tau}")
        if self.omega0 < 0.0:
            raise ValidationError(f"peak Rabi frequency must be >= 0, got {self.omega0}")


@dataclass(frozen=True)
class GateDesign:
    """Accumulated phases and the resulting two-qubit phase rotation.

    blockade in rad/us; phi_dd and phi_de unwrapped; phi_ent in (-pi, pi];
    unitary is the 4x4 diagonal on the basis {EE, DE, ED, DD}, written in
    the convention phi = +integral E dt, so the amplitudes an evolution
    i dpsi/dt = H psi produces are its complex conjugate.
    """

    blockade: float
    phi_dd: float
    phi_de: float
    phi_ent: float
    unitary: np.ndarray


def pulse_at(t, p: PulseShape):
    """Instantaneous (Omega_-, E_-) of the pulse at time t in [0, tau]."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or np.any(t_arr > p.tau):
        raise DomainError(f"t must lie in [0, {p.tau}]")
    phase = np.pi * t_arr / p.tau
    omega_minus = p.omega0 * np.sin(phase) ** 2
    e_minus = p.delta0 * (0.5 + np.cos(phase) ** 2)
    return omega_minus, e_minus


def _light_shift_de(om, e):
    """Exact lower eigenvalue of the singly-driven {|DE>, |-E>}, free of cancellation."""
    om2 = om * om
    return 0.5 * (e - abs(e)) - om2 / (2.0 * (abs(e) + np.sqrt(e * e + om2)) + _TINY)


def _light_shift_dd(om, e, blockade):
    """Exact lowest eigenvalue of the doubly-driven symmetric 3x3 block.

    The block [[0, c, 0], [c, a, c], [0, c, b]] (c^2 = Omega^2 / 2, a = E_-,
    b = 2 E_- + B) is first shifted so that b >= 0: reversing the basis
    order maps it onto the same form with a - b, -b and an offset b. Its
    lowest eigenvalue lam then lies at or below min(0, a) and is the
    smallest root of the characteristic cubic
        p(lam) = lam (lam - a)(b - lam) + 2 c^2 lam - c^2 b,
    which is convex and decreasing there. The start is the lower root of
    the 2x2 {|DD>, |D->_+} block (an upper bound by interlacing) followed by
    one sweep of the secular equation lam (lam - a + c^2 / (b - lam)) = c^2,
    which lands below the root; Newton steps on p then climb to the root
    monotonically. Raises ToleranceFailure if they do not settle.
    """
    c2 = 0.5 * om * om
    b = 2.0 * e + blockade
    shift = 0.5 * (b - abs(b))  # min(b, 0)
    a = e - shift
    b = abs(b)
    lam = 0.5 * (a - np.sqrt(a * a + 4.0 * c2))
    a_eff = a - c2 / (b - lam + _TINY)
    lam = 0.5 * (a_eff - np.sqrt(a_eff * a_eff + 4.0 * c2))
    k2, k1, k0 = a + b, 2.0 * c2 - a * b, c2 * b
    two_k2 = 2.0 * k2
    moving = True  # each entry stops on its own step, so batching does not change it
    for _ in range(EIG_MAX_STEPS):
        poly = ((k2 - lam) * lam + k1) * lam - k0
        slope = (two_k2 - 3.0 * lam) * lam + k1
        step = poly / (slope - _TINY) * moving
        lam = lam - step
        moving = moving & (abs(step) > EIG_STEP_RTOL * abs(lam))
        if not moving.any():
            return lam + shift
    raise ToleranceFailure("doubly-driven light shift did not converge")


def adiabatic_energies(omega_minus, e_minus, blockade):
    """Lower adiabatic light shifts (E_DD, E_DE) of the driven manifolds.

    E_DE = min(E_-, 0) - Omega^2 / (2 (|E_-| + sqrt(E_-^2 + Omega^2))) is the
    lower eigenvalue of {|DE>, |-E>} without cancellation. E_DD is the exact
    lowest eigenvalue of the ion-symmetric block {|DD>, |D->_+, |-->} =
    [[0, c, 0], [c, E_-, c], [0, c, 2 E_- + B]] with c = Omega_- / sqrt(2);
    it has no pole, unlike adiabatic_energies_closed_form. Only Omega_-^2
    enters. Accepts scalars or arrays of equal shape.
    """
    om = np.asarray(omega_minus, dtype=float)[()]
    e = np.asarray(e_minus, dtype=float)[()]
    return _light_shift_dd(om, e, blockade), _light_shift_de(om, e)


def _blockade_denominator(e, blockade):
    """4 E_- + 2 B of the closed form; SingularDenominator where it vanishes."""
    denom = 4.0 * e + 2.0 * blockade
    scale = np.maximum(np.abs(4.0 * e) + np.abs(2.0 * blockade), 1.0)
    if np.any(np.abs(denom) <= 1e-12 * scale):
        raise SingularDenominator("4 E_- + 2 B vanished in the blockade light shift")
    return denom


def adiabatic_energies_closed_form(omega_minus, e_minus, blockade):
    """The paper's closed-form light shifts (E_DD, E_DE), kept as a reference.

    E_DD = [delta0_eff - sqrt(delta0_eff^2 + 2 Omega^2)] / 2 with
    delta0_eff = E_- - Omega^2 / (4 E_- + 2 B) eliminates |--> to second
    order; E_DE is exact. Raises SingularDenominator when 4 E_- + 2 B
    vanishes to machine precision.
    """
    om = np.abs(np.asarray(omega_minus, dtype=float))
    e = np.asarray(e_minus, dtype=float)
    delta_eff = e - om**2 / _blockade_denominator(e, blockade)
    e_dd = 0.5 * (delta_eff - np.sqrt(delta_eff**2 + 2.0 * om**2))
    return e_dd, _light_shift_de(om, e)


def gate_unitary(phi_ent: float, phi_de: float) -> np.ndarray:
    """diag(1, e^{i phi_DE}, e^{i phi_DE}, e^{i (phi_ent + 2 phi_DE)})."""
    return np.diag(
        [
            1.0,
            np.exp(1j * phi_de),
            np.exp(1j * phi_de),
            np.exp(1j * (phi_ent + 2.0 * phi_de)),
        ]
    )


def _accumulated_phases(omega0, delta0, tau, blockade, target=None):
    """Trapezoid integrals (2, m) of (E_DD, E_DE) over the pulse, one column per delta0.

    N doubles from 16 until a doubling moves no integral of a row by more than
    QUAD_ABS_TOL. Given a target, a row also stops once its phi_DD - 2 phi_DE
    - target lies farther from 0 than SIGN_MARGIN times the doubling's change
    |d phi_DD| + 2 |d phi_DE|; its integrals are then that level's, good for
    the sign of phi_ent - target only. The first energy call covers every row
    on 64 nodes (fewer if MAX_NODES is lower), and the 16- and 32-node levels
    are every fourth and second of them; past 64, each doubling adds the odd
    nodes of the rows not done. The nodes are exact dyadic fractions and each
    entry of _light_shift_dd stops on its own Newton step, so every level has
    the bits of evaluating it on its own. Also returns the nodes (2, k, N) of
    the k rows done last.
    """
    def energies(d, x):  # at pulse fractions x = t / tau, shape (2, len(d), len(x))
        om = omega0 * np.sin(np.pi * x) ** 2
        e = d[:, None] * (0.5 + np.cos(np.pi * x) ** 2)
        out = np.empty((2,) + e.shape)
        out[0], out[1] = adiabatic_energies(np.broadcast_to(om, e.shape), e, blockade)
        return out

    delta0 = np.atleast_1d(np.asarray(delta0, dtype=float))
    phi, rows = np.empty((2, delta0.size)), np.arange(delta0.size)
    n_ahead = max(16, min(64, MAX_NODES))
    ahead = energies(delta0, np.arange(n_ahead) / n_ahead)
    vals = ahead[..., ::n_ahead // 16].copy()
    prev = tau * (vals.sum(axis=-1) / 16)  # np.mean's own sum and divide
    while vals.shape[-1] < MAX_NODES:
        n = 2 * vals.shape[-1]
        if n <= n_ahead:  # contiguous, so the sum runs as over a level made alone
            vals = ahead[..., ::n_ahead // n].copy()
        else:
            odd = energies(delta0[rows], (np.arange(n // 2) + 0.5) / (n // 2))
            vals = np.stack([vals, odd], axis=-1).reshape(2, rows.size, n)
        new = tau * (vals.sum(axis=-1) / n)
        change = np.abs(new - prev)
        done = (change <= QUAD_ABS_TOL).all(axis=0)
        if target is not None:
            done |= (np.abs(new[0] - 2.0 * new[1] - target)
                     > SIGN_MARGIN * (change[0] + 2.0 * change[1]))
        phi[:, rows[done]] = new[:, done]
        if done.all():
            return phi, vals
        rows, vals, prev = rows[~done], vals[:, ~done], new[:, ~done]
        if n < n_ahead:
            ahead = ahead[:, ~done]
    raise ToleranceFailure(f"phase integrals not converged on {MAX_NODES} nodes")


# The root Brent returns was one of its last 4 evaluations on 400 random designs,
# so 16 entries keep it for entangling_phase and phase_trace with room. An entry
# holds about 1 KB (32-64 nodes), at most 2 MB (MAX_NODES nodes).
@functools.lru_cache(maxsize=16)
def _root_integral(omega0, delta0, tau, blockade):
    phi, vals = _accumulated_phases(omega0, delta0, tau, blockade)
    phi.flags.writeable = vals.flags.writeable = False
    return phi, vals


def _design_phases(omega0, delta0, tau, blockade):
    """_accumulated_phases of one delta0, converged; kept for the last 16 design points.

    The arguments are keyed as Python floats, so numpy scalars, 0-d and
    1-element arrays share an entry. The arrays returned are read-only.
    """
    return _root_integral(*(np.asarray(v, dtype=float).item()
                            for v in (omega0, delta0, tau, blockade)))


def entangling_phase(p: PulseShape, blockade: float) -> GateDesign:
    """Integrate the adiabatic energies over the pulse and assemble the gate."""
    phi, _ = _design_phases(p.omega0, p.delta0, p.tau, blockade)
    phi_dd, phi_de = phi[:, 0].tolist()
    phi_ent = float(wrap_angle(phi_dd - 2.0 * phi_de))
    return GateDesign(
        blockade=blockade,
        phi_dd=phi_dd,
        phi_de=phi_de,
        phi_ent=phi_ent,
        unitary=gate_unitary(phi_ent, phi_de),
    )


def phase_trace(p: PulseShape, blockade: float):
    """Cumulative phi_DD(t), phi_DE(t), phi_ent(t) on 201 uniform times.

    Integrates the cosine series through the design's nodes, so the endpoint
    is the design phase. Returns (times, phi_dd, phi_de, phi_ent), phi_ent
    wrapped to (-pi, pi].
    """
    times = np.linspace(0.0, p.tau, 201)
    phi, vals = _design_phases(p.omega0, p.delta0, p.tau, blockade)
    n = vals.shape[-1]
    amp = np.fft.rfft(vals[:, 0]).real * (2.0 / n)
    amp[:, -1] /= 2.0  # the Nyquist term is not doubled
    k = np.arange(1, n // 2 + 1)
    x = times / p.tau
    # sin(2 pi k x) from the fractional part of k x, which is exactly 0 at x = 1;
    # k x >= 0, so u - floor(u) is exact and equals np.mod(u, 1.0) bit for bit
    u = np.outer(k, x)
    waves = np.sin(2.0 * np.pi * (u - np.floor(u))) / (2.0 * np.pi * k[:, None])
    phi_dd, phi_de = phi[:, :1] * x + p.tau * (amp[:, 1:] @ waves)
    return times, phi_dd, phi_de, wrap_angle(phi_dd - 2.0 * phi_de)


def _brent(f, xpre, xcur, fpre, fcur):
    """Root of f bracketed by [xpre, xcur], given f there; returns (root, f(root)).

    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4) as SciPy's brentq.c writes it, operation for operation, at
    xtol = BRENT_XTOL and rtol = BRENT_RTOL: from the same end values it
    visits the same points and returns the same root as SciPy's brentq.
    Raises NoRoot after BRENT_MAX_ITER iterations.
    """
    if fpre == 0:
        return xpre, fpre
    if fcur == 0:
        return xcur, fcur
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (BRENT_XTOL + BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur, fcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise NoRoot(f"Brent's method did not converge in {BRENT_MAX_ITER} iterations")


def optimize_pulse(omega0: float, tau: float, blockade: float) -> float:
    """Detuning scale delta0 at which the pulse accumulates phi_ent = pi.

    Scans [1e-3, 50] * omega0 for a sign change of the unwrapped phi_ent - pi;
    scan rows far from the root stop as soon as their sign is settled (see
    SIGN_MARGIN). The two ends of the first sign change are then evaluated
    again, converged, and Brent's method polishes from those end values to
    |phi_ent - pi| < 1e-6. Raises NoRoot for a flat objective (omega0 = 0)
    or when the scan finds no sign change, and ToleranceFailure when the
    converged ends no longer change sign.
    """
    if omega0 <= 0.0:
        raise NoRoot("phase is independent of delta0 when omega0 = 0")

    def objective(delta0, target=None):  # one value per entry of delta0
        phi, _ = _accumulated_phases(omega0, delta0, tau, blockade, target)
        return phi[0] - 2.0 * phi[1] - np.pi

    def converged(delta0):  # Brent's objective, kept for entangling_phase and phase_trace
        phi, _ = _design_phases(omega0, delta0, tau, blockade)
        return float(phi[0, 0] - 2.0 * phi[1, 0] - np.pi)

    grid = np.geomspace(1e-3 * omega0, 50.0 * omega0, 40)
    values = objective(grid, np.pi)  # signs only; a row stopped early is nonzero
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if fa == 0.0:
            return float(a)
        if fa * fb < 0.0:
            fa, fb = objective(np.array([a, b]))
            if not fa * fb < 0.0:
                raise ToleranceFailure(
                    f"the scan's sign change in [{a}, {b}] is gone once converged")
            root, f_root = _brent(converged, a, b, fa, fb)
            if abs(f_root) >= 1e-6:
                raise NoRoot("root polish did not reach the phase tolerance")
            return float(root)
    raise NoRoot("no sign change of phi_ent - pi inside [1e-3, 50] * omega0")


def adiabaticity_ratio(p: PulseShape, blockade: float) -> float:
    """min gap^2 / max slew, the dimensionless adiabaticity margin of the pulse.

    Gap is the smaller of the two avoided-crossing gaps on 401 uniform times,
    slew the larger of |dOmega/dt| and |dE/dt|. Reported as a diagnostic; the
    design is considered adiabatic when the ratio is well above ~3. The
    doubly-driven gap uses the closed form's delta0_eff, so the ratio raises
    SingularDenominator where 4 E_- + 2 B vanishes on the grid.
    """
    times = np.linspace(0.0, p.tau, 401)
    om, e = pulse_at(times, p)
    delta_eff = e - om**2 / _blockade_denominator(e, blockade)
    gap_dd = np.sqrt(delta_eff**2 + 2.0 * om**2)
    gap_de = np.sqrt(e**2 + om**2)
    min_gap = min(gap_dd.min(), gap_de.min())
    slew = np.pi / p.tau * max(p.omega0, abs(p.delta0))
    return float(min_gap**2 / slew)
