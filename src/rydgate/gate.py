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
The optimizer's scan needs only the sign of phi_ent - pi on each row, so a
row far from the root stops once its sign is settled.

Six devices speed the design chain up at the same bits, each priced where
it is defined by the gate_design throughput it buys (BENCH_26.json): the
pulse-shape tables of each grid, built once per process (_node_tables); the
first light-shift call of an integral on 64 nodes, 32 in the scan, whose
columns the bracket's rows reuse (_look_ahead); the ladder's bookkeeping on
Python floats; the kept integral of the last 16 design points, so Brent's
evaluation at the root serves entangling_phase and phase_trace there
(_root_integral); Newton steps that skip the mask on the first step; and
the light shifts' 0-d array constants.

Both light shifts are exact adiabatic eigenvalues: E_DE of the 2x2
{|DE>, |-E>} block and E_DD of the ion-symmetric 3x3 block {|DD>, |D->_+,
|-->}. They are the package's one gap model: adiabaticity_ratio takes its
gap from the same |DE> block. The paper's closed form for E_DD, which
eliminates |--> to second order, lives in the tests as a reference; at the
reference design it is 0.07 rad away from the exact phase.
"""

import functools

import numpy as np

from ._record import Record
from .errors import DomainError, NoRoot, ToleranceFailure, ValidationError

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
# 0-d arrays, which numpy 2 does not convert on each ufunc call as it does a Python float:
# +2.6% gate_design throughput (12 perfbench pairs; +3.1% in process), same results
_HALF, _TWO, _THREE, _FOUR = (np.array(v) for v in (0.5, 2.0, 3.0, 4.0))
_TINY = np.array(np.finfo(float).tiny)  # keeps the all-zero block at 0 instead of 0/0


def wrap_angle(x):
    """Map an angle to the interval (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x), 2.0 * np.pi)


class PulseShape(Record):
    """sin^2 pulse: peak Rabi omega0, detuning scale delta0 > 0, duration tau (us).

    delta0 > 0 keeps E_- > 0 over the pulse, where the qubit states |DD> and
    |DE> are the lowest levels of their blocks and follow the light shifts
    the design integrates; at delta0 <= 0 they follow another branch.
    """

    omega0: float
    delta0: float
    tau: float

    def __post_init__(self):
        for name in ("omega0", "delta0", "tau"):
            value = getattr(self, name)
            if not (np.size(value) == 1 and np.isfinite(value).all()):
                raise ValidationError(f"pulse {name} must be one finite number, got {value}")
        if self.tau <= 0.0:
            raise ValidationError(f"pulse duration must be positive, got {self.tau}")
        if self.omega0 < 0.0:
            raise ValidationError(f"peak Rabi frequency must be >= 0, got {self.omega0}")
        if self.delta0 <= 0.0:
            raise ValidationError(f"pulse detuning scale delta0 must be > 0, got {self.delta0}")


class GateDesign(Record):
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
    return _pulse(t_arr, p)


def _pulse(t, p):
    """pulse_at without its domain check, for times known to lie in [0, tau]."""
    phase = np.pi * t / p.tau
    return p.omega0 * np.sin(phase) ** 2, p.delta0 * (0.5 + np.cos(phase) ** 2)


def _light_shift_de(om, e):
    """Exact lower eigenvalue of the singly-driven {|DE>, |-E>}, free of cancellation."""
    om2, abs_e = om * om, abs(e)
    return _HALF * (e - abs_e) - om2 / (_TWO * (abs_e + np.sqrt(e * e + om2)) + _TINY)


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
    c2 = _HALF * om * om
    four_c2 = _FOUR * c2
    b = _TWO * e + blockade
    abs_b = abs(b)
    shift = _HALF * (b - abs_b)  # min(b, 0)
    a = e - shift
    b = abs_b
    lam = _HALF * (a - np.sqrt(a * a + four_c2))
    a_eff = a - c2 / (b - lam + _TINY)
    lam = _HALF * (a_eff - np.sqrt(a_eff * a_eff + four_c2))
    k2, k1, k0 = a + b, _TWO * c2 - a * b, c2 * b
    two_k2 = _TWO * k2
    # Buys +6.5% gate_design throughput (6 perfbench pairs; +6.1% in process).
    moving = True  # each entry stops on its own step, so batching does not change it
    for _ in range(EIG_MAX_STEPS):
        poly = ((k2 - lam) * lam + k1) * lam - k0
        slope = (two_k2 - _THREE * lam) * lam + k1
        step = poly / (slope - _TINY)
        if moving is not True:  # the first step moves every entry
            step = step * moving
        lam = lam - step
        still = abs(step) > EIG_STEP_RTOL * abs(lam)
        moving = still if moving is True else moving & still
        if not np.count_nonzero(moving):
            return lam + shift
    raise ToleranceFailure("doubly-driven light shift did not converge")


def adiabatic_energies(omega_minus, e_minus, blockade):
    """Lower adiabatic light shifts (E_DD, E_DE) of the driven manifolds.

    E_DE = min(E_-, 0) - Omega^2 / (2 (|E_-| + sqrt(E_-^2 + Omega^2))) is the
    lower eigenvalue of {|DE>, |-E>} without cancellation. E_DD is the exact
    lowest eigenvalue of the ion-symmetric block {|DD>, |D->_+, |-->} =
    [[0, c, 0], [c, E_-, c], [0, c, 2 E_- + B]] with c = Omega_- / sqrt(2),
    free of the pole at 4 E_- + 2 B = 0 that the paper's second-order closed
    form has. Only Omega_-^2 enters. Accepts scalars or arrays of equal shape.
    """
    om = np.asarray(omega_minus, dtype=float)[()]
    e = np.asarray(e_minus, dtype=float)[()]
    return _light_shift_dd(om, e, blockade), _light_shift_de(om, e)


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


# Buys +7.7% gate_design throughput (6 perfbench pairs; +7.5% in process).
@functools.lru_cache(maxsize=None)  # n is a power of two <= MAX_NODES: a few entries
def _node_tables(n, odd):
    """sin^2(pi x) and 0.5 + cos^2(pi x) at x = j / n, or (j + 1/2) / n if odd; read-only.

    The pulse shape at the ladder's nodes does not depend on delta0, so each
    table is built once per process and shared by every integral; all the
    levels up to MAX_NODES take about 2 MB.
    """
    x = (np.arange(n) + 0.5) / n if odd else np.arange(n) / n
    sin2, cos2_half = np.sin(np.pi * x) ** 2, 0.5 + np.cos(np.pi * x) ** 2
    sin2.flags.writeable = cos2_half.flags.writeable = False
    return sin2, cos2_half


def _ladder_energies(omega0, delta0, blockade, n, odd=False):
    """(E_DD, E_DE) as (2, len(delta0), n) on _node_tables(n, odd), one light-shift call."""
    sin2, cos2_half = _node_tables(n, odd)
    e = delta0[:, None] * cos2_half
    om = np.multiply(omega0, sin2, out=np.empty(e.shape))  # omega0 * sin2 on every row
    out = np.empty((2,) + e.shape)
    out[0], out[1] = adiabatic_energies(om, e, blockade)
    return out


def _look_ahead(omega0, delta0, blockade, n=64):
    """The ladder's first energy call: each row of a 1-D delta0 on n nodes, MAX_NODES if lower.

    Most single delta0 end on 64 nodes; the optimizer's scan rows settle their
    sign on 32, so it passes 32.
    """
    return _ladder_energies(omega0, delta0, blockade, max(16, min(n, MAX_NODES)))


def _as_float(value):
    """A Python float of one number given as a float, a numpy scalar or a 1-element array."""
    return np.asarray(value, dtype=float).item()


def _accumulated_phases(omega0, delta0, tau, blockade, target=None, ahead=None):
    """Trapezoid integrals (2, m) of (E_DD, E_DE) over the pulse, one column per delta0.

    N doubles from 16 until a doubling moves no integral of a row by more than
    QUAD_ABS_TOL. Given a target, a row also stops once its phi_DD - 2 phi_DE
    - target lies farther from 0 than SIGN_MARGIN times the doubling's change
    |d phi_DD| + 2 |d phi_DE|; its integrals are then that level's, good for
    the sign of phi_ent - target only. The first energy call, _look_ahead,
    covers every row on 64 nodes, and the coarser levels are every second,
    fourth, ... of them; a caller that already holds such columns (the scan's
    32-node call) passes them as ahead, and the ladder makes no call for
    levels they cover. Past them, each doubling adds the odd nodes of the rows
    not done. The nodes are exact dyadic fractions and each entry of
    _light_shift_dd stops on its own Newton step, so every level has the bits
    of evaluating it on its own, however its nodes were computed. A level's
    sums are numpy's pairwise sums over its contiguous nodes; the bookkeeping
    on Python floats makes numpy's IEEE operations. Also returns the nodes
    (2, k, N) of the k rows done last.
    """
    delta0 = np.atleast_1d(np.asarray(delta0, dtype=float))
    tau = _as_float(tau)
    if ahead is None:
        ahead = _look_ahead(omega0, delta0, blockade)
    n_ahead = ahead.shape[-1]
    # Python floats buy +3.2% gate_design throughput (12 perfbench pairs; +4.8% in process).
    phi, rows = [[0.0] * delta0.size, [0.0] * delta0.size], list(range(delta0.size))
    vals = ahead[..., ::n_ahead // 16].copy()
    prev = [[tau * (s / 16) for s in sums] for sums in vals.sum(axis=-1).tolist()]
    n = 16
    while n < MAX_NODES:
        n *= 2
        if n <= n_ahead:  # contiguous, so the sum runs as over a level made alone
            vals = ahead[..., ::n_ahead // n].copy()
        else:
            odd = _ladder_energies(omega0, delta0[rows], blockade, n // 2, odd=True)
            vals = np.stack([vals, odd], axis=-1).reshape(2, len(rows), n)
        new = [[tau * (s / n) for s in sums] for sums in vals.sum(axis=-1).tolist()]
        done = []
        for dd, de, prev_dd, prev_de in zip(*new, *prev):
            change_dd, change_de = abs(dd - prev_dd), abs(de - prev_de)
            done.append((change_dd <= QUAD_ABS_TOL and change_de <= QUAD_ABS_TOL)
                        or (target is not None and abs(dd - 2.0 * de - target)
                            > SIGN_MARGIN * (change_dd + 2.0 * change_de)))
        if not any(done):  # every row goes on: no subsets to take
            prev = new
            continue
        for row, dd, de, row_done in zip(rows, *new, done):
            if row_done:
                phi[0][row], phi[1][row] = dd, de
        if all(done):
            return np.array(phi), vals
        going = [j for j, d in enumerate(done) if not d]
        rows, vals = [rows[j] for j in going], vals[:, going]
        prev = [[x[j] for j in going] for x in new]
        if n < n_ahead:
            ahead = ahead[:, going]
    raise ToleranceFailure(f"phase integrals not converged on {MAX_NODES} nodes")


# Buys +14.9% gate_design throughput (6 perfbench pairs; +12.9% in process).
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
    return _root_integral(*[_as_float(v) for v in (omega0, delta0, tau, blockade)])


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
    u = k[:, None] * x
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

    def objective(delta0, target=None, ahead=None):  # one value per entry of delta0
        phi, _ = _accumulated_phases(omega0, delta0, tau, blockade, target, ahead)
        return phi[0] - 2.0 * phi[1] - np.pi

    def converged(delta0):  # Brent's objective, kept for entangling_phase and phase_trace
        phi, _ = _design_phases(omega0, delta0, tau, blockade)
        phi_dd, phi_de = phi[:, 0].tolist()
        return phi_dd - 2.0 * phi_de - np.pi

    grid = np.geomspace(1e-3 * omega0, 50.0 * omega0, 40)
    # 32 nodes and the bracket's reuse buy +9.6% gate_design throughput over a 64-node
    # scan and a fresh bracket (6 perfbench pairs; +9.6% in process)
    ahead = _look_ahead(omega0, grid, blockade, 32)
    values = objective(grid, np.pi, ahead).tolist()  # signs only; a row stopped early is nonzero
    for i, (fa, fb) in enumerate(zip(values[:-1], values[1:])):
        if fa == 0.0:
            return float(grid[i])
        if fa * fb < 0.0:  # converged from the two rows' columns of the scan's look-ahead
            a, b = float(grid[i]), float(grid[i + 1])
            fa, fb = objective(grid[i:i + 2], ahead=ahead[:, i:i + 2]).tolist()
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

    Gap is the exact |DE> avoided-crossing gap sqrt(E_-^2 + Omega^2) at its
    smallest over 401 uniform times, slew the larger of |dOmega/dt| and
    |dE/dt|. Reported as a diagnostic; the design is considered adiabatic when
    the ratio is well above ~3. For E_- > 0 (delta0 > 0) and B >= 0 the
    |DD> block's gap lies at or above the |DE> gap (equal at B = 0, where the
    ions are independent), so the |DE> gap is the smaller one; raises
    DomainError for B < 0, where the |DD> gap can be the smaller.
    """
    if not blockade >= 0.0:
        raise DomainError(f"adiabaticity_ratio needs blockade >= 0, got {blockade}")
    times = np.linspace(0.0, p.tau, 401)
    om, e = _pulse(times, p)
    min_gap = np.sqrt(e**2 + om**2).min()
    slew = np.pi / p.tau * max(p.omega0, p.delta0)
    return float(min_gap**2 / slew)
