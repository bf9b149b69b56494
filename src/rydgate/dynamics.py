"""Gate dynamics on the two-ion electronic basis tensored with the CM phonon mode.

Per-ion electronic levels are |E> (spectator qubit state, index 0), |D>
(driven qubit state, index 1) and |-> (lower dressed Rydberg state, index 2).
The Hamiltonian is

    H(t) = omega_z a^dag a + B |--><--|
           + sum_j { E_-(t) |->_j<-| + Omega_-(t)/2 [1 + i eta (a^dag + a)] sigma+_j + h.c. }

with sigma+ = |-><D|. |E> couples to nothing, so any population there only
rotates with the phonon ladder. build_hamiltonian assembles H(t) densely on
the full 9 (n_phonon_max + 1) basis, as the reference. The integrator keeps
only the components the Rabi coupling links to the initial state: with
nph = n_phonon_max + 1, 4 nph of them from |DD,0> and 2 nph from |DE,0>
(4 and 2 at eta = 0). The two sets are disjoint, so entangling_phase_dynamic integrates both gate
runs in one adaptive high-order Runge-Kutta solve, with the sin^2 pulse
evaluated inline.

On the reached components the equation is linear,
y' = (d0 + E_-(t) d_det) * y + Omega_-(t) (R @ y) with diagonal d0, d_det
and a constant R. The integrator hands exactly these (d0, d_det, R and the
drive) to the package's DOP853 stepper (rydgate._dop853), which is written for
this one system. It takes the same steps as SciPy 1.17's
solve_ivp(method="DOP853") on that right-hand side and returns the same bits,
so states, phases and RHS counts equal those of a SciPy solve.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._dop853 import RTOL_FLOOR, dop853
from .errors import DomainError, ValidationError
from .gate import PulseShape, pulse_at, wrap_angle

N_ELEC = 3
IDX_E, IDX_D, IDX_M = 0, 1, 2
_LABEL = {"E": IDX_E, "D": IDX_D, "M": IDX_M, "-": IDX_M}
# largest n_phonon_max: the dense operators are (9 (n + 1))^2; a gate solve
# takes about 0.9 s at 40 against 0.1 s at 10 (one BLAS thread)
N_PHONON_MAX_LIMIT = 40
# largest n_output: 10 000 samples at n_phonon_max = 40 take about 230 MB
# and 1.5 s and write a 1 MB CSV, 100 000 about 1.9 GB (one BLAS thread)
N_OUTPUT_LIMIT = 10_000
# SimConfig field -> (predicate, requirement text); config.load_config checks
# the [simulation] keys of the same names by these rules
SIM_RANGES = {
    "n_phonon_max": (lambda v: 1 <= v <= N_PHONON_MAX_LIMIT,
                     f"must lie in [1, {N_PHONON_MAX_LIMIT}]"),
    "rtol": (lambda v: RTOL_FLOOR <= v <= 1e-3, f"must lie in [{RTOL_FLOOR:.3g}, 1e-3]"),
    # at atol 1e-200 the first step's error norm overflows and the stepper
    # fails after 100 000 attempts; 1e-150 still finishes, so 1e-100 has margin
    "atol": (lambda v: 1e-100 <= v <= 1e-3, "must lie in [1e-100, 1e-3]"),
    "n_output": (lambda v: 2 <= v <= N_OUTPUT_LIMIT, f"must lie in [2, {N_OUTPUT_LIMIT}]"),
}


@dataclass(frozen=True)
class SimConfig:
    """Gate-dynamics parameters, angular frequencies in rad/us.

    blockade     : pair interaction energy B on |-->
    omega_z      : axial CM phonon frequency
    eta          : Lamb-Dicke parameter
    pulse        : laser pulse shape
    n_phonon_max : largest Fock state kept (dimension n_phonon_max + 1)
    rtol, atol   : integrator step-size control
    n_output     : uniform output grid size over [0, tau]

    The last four must satisfy their SIM_RANGES rules; n_phonon_max and
    n_output must be integers (int or numpy.integer, not bool).
    """

    blockade: float
    omega_z: float
    eta: float
    pulse: PulseShape
    n_phonon_max: int = 5
    rtol: float = 1e-9
    atol: float = 1e-12
    n_output: int = 201

    def __post_init__(self):
        for name in ("blockade", "omega_z", "eta"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("n_phonon_max", "n_output"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an integer, got {value}")
        for name, (ok, requirement) in SIM_RANGES.items():
            if not ok(getattr(self, name)):
                raise ValidationError(f"{name} {requirement}, got {getattr(self, name)}")

    @property
    def dim(self) -> int:
        return N_ELEC * N_ELEC * (self.n_phonon_max + 1)


@dataclass(frozen=True)
class EvolutionTrace:
    """Time grid, state vectors and traced electronic populations.

    p_dm sums the |D->, |-D> pair; p_init is the survival probability of the
    exact initial state (phonons included).
    """

    times: np.ndarray
    states: np.ndarray  # (n_t, dim) complex
    p_dd: np.ndarray
    p_dm: np.ndarray
    p_mm: np.ndarray
    p_init: np.ndarray
    norms: np.ndarray
    n_phonon_max: int
    nfev: int = 0  # RHS evaluations of the solve, summed over segments
    steps: int = 0  # accepted integrator steps, summed over segments


def basis_index(e1: int, e2: int, n: int, n_phonon_max: int) -> int:
    """Flat index of |e1, e2> tensor |n>."""
    nph = n_phonon_max + 1
    if not (0 <= e1 < N_ELEC and 0 <= e2 < N_ELEC and 0 <= n < nph):
        raise DomainError("basis labels out of range")
    return (e1 * N_ELEC + e2) * nph + n


def initial_state(cfg: SimConfig, electronic: str = "DD", n: int = 0) -> np.ndarray:
    """Product state |e1 e2> tensor |n>, e.g. 'DD' or 'DE'."""
    label = electronic.upper()
    if len(label) != 2 or not set(label) <= _LABEL.keys():
        raise DomainError(
            f"electronic label must be two of E, D, M, -, e.g. 'DD'; got {electronic!r}")
    e1, e2 = (_LABEL[c] for c in label)
    psi = np.zeros(cfg.dim, dtype=complex)
    psi[basis_index(e1, e2, n, cfg.n_phonon_max)] = 1.0
    return psi


def _operators(cfg: SimConfig):
    """(h0, h_det, H_rabi) with H(t) = diag(h0 + E_- h_det) + Omega_- H_rabi."""
    nph = cfg.n_phonon_max + 1
    a = np.diag(np.sqrt(np.arange(1, nph)), 1)
    is_m = (np.arange(N_ELEC) == IDX_M).astype(float)
    n_m = np.add.outer(is_m, is_m).ravel()  # ions in |-> per electronic pair state
    sigma_p = np.zeros((N_ELEC, N_ELEC))
    sigma_p[IDX_M, IDX_D] = 1.0
    eye_e = np.eye(N_ELEC)

    raise_both = np.kron(sigma_p, eye_e) + np.kron(eye_e, sigma_p)
    sideband = np.eye(nph) + 1j * cfg.eta * (a.T + a)

    h0 = np.add.outer(cfg.blockade * (n_m == 2), cfg.omega_z * np.diag(a.T @ a)).ravel()
    h_det = np.repeat(n_m, nph)
    half_raise = 0.5 * np.kron(raise_both, sideband)
    h_rabi = half_raise + half_raise.conj().T
    return h0, h_det, h_rabi


def build_hamiltonian(t: float, cfg: SimConfig, drive=None) -> np.ndarray:
    """Hermitian H(t) on the flat basis (exact Hermiticity by construction)."""
    h0, h_det, h_rabi = _operators(cfg)
    omega_minus, e_minus = pulse_at(t, cfg.pulse) if drive is None else drive(t)
    return np.diag(h0 + e_minus * h_det) + omega_minus * h_rabi


def _reachable(psi0: np.ndarray, coupled: np.ndarray) -> np.ndarray:
    """Flat indices connected to the support of psi0 by the coupling pattern."""
    reach = psi0 != 0
    while True:
        grown = reach | (coupled @ reach)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _propagate(cfg: SimConfig, initial, drive=None):
    """Integrate i dpsi/dt = H(t) psi for each initial state in one solve.

    Each state keeps only the components its support reaches under the
    pattern of H; the others stay exactly zero. The reduced blocks are
    stacked block-diagonally and integrated together as the linear system
    (d0, d_det, r, drive) of rydgate._dop853. The default sin^2 pulse is
    evaluated inline; a custom drive(t) -> (Omega_-, E_-) with a
    `breakpoints` attribute is integrated segment by segment. Returns the
    output times, the full-basis states (n_output, dim) of each initial
    state, the number of RHS evaluations and the accepted steps. Raises
    ToleranceFailure when the step size underflows, as it does on a NaN drive.
    """
    h0, h_det, h_rabi = _operators(cfg)
    parts = [_reachable(psi, h_rabi != 0) for psi in initial]  # H0, H_det are diagonal
    idx = np.concatenate(parts)
    # -i H0, -i H_det and -i H_rabi on the reached components. Each part is
    # closed under H, so H couples no two parts and R is block-diagonal, one
    # block per initial state
    d0 = -1j * h0[idx]
    d_det = -1j * h_det[idx]
    r = -1j * h_rabi[np.ix_(idx, idx)]
    y = np.concatenate([psi[p] for psi, p in zip(initial, parts)])
    # DOP853's error norm is an RMS over components; rescaling the
    # tolerances by sqrt(full / reduced) keeps the step control of a
    # full-basis solve, in which the unreached components weigh in as zeros
    scale = np.sqrt(len(initial) * cfg.dim / idx.size)

    tau = cfg.pulse.tau
    if drive is None:
        omega0, delta0 = cfg.pulse.omega0, cfg.pulse.delta0

        # pulse_at's sin^2 pulse on Python floats, without its domain check (the
        # solve stays in [0, tau]). Not bitwise: x ** 2 is C pow here, x * x in
        # numpy, so a few values in 10 000 differ from pulse_at's by one ulp
        def drive(t):
            phase = math.pi * t / tau
            return omega0 * math.sin(phase) ** 2, delta0 * (0.5 + math.cos(phase) ** 2)

    times = np.linspace(0.0, tau, cfg.n_output)
    breaks = sorted({float(t) for t in getattr(drive, "breakpoints", ()) if 0.0 < t < tau})
    edges = [0.0] + breaks + [tau]
    out = np.empty((cfg.n_output, idx.size), dtype=complex)
    out[0] = y
    nfev = steps = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        # keep Runge-Kutta stage evaluations strictly inside the segment, so
        # right-continuous piecewise drives are integrated exactly
        hi_safe = np.nextafter(hi, lo) if breaks else hi
        rows = np.flatnonzero((times > lo) & (times <= hi))
        t_eval = times[rows]
        if not rows.size or t_eval[-1] != hi:
            t_eval = np.append(t_eval, hi)
        sampled, seg_nfev, seg_steps = dop853(d0, d_det, r, drive, lo, hi, y, cfg.rtol * scale,
                                              cfg.atol * scale, t_eval, hi_safe)
        out[rows] = sampled[:rows.size]
        y = sampled[-1]
        nfev += seg_nfev
        steps += seg_steps

    states, offset = [], 0
    for p in parts:
        full = np.zeros((cfg.n_output, cfg.dim), dtype=complex)
        full[:, p] = out[:, offset:offset + p.size]
        states.append(full)
        offset += p.size
    return times, states, nfev, steps


def _trace(cfg: SimConfig, times, states, psi0, nfev, steps) -> EvolutionTrace:
    nph = cfg.n_phonon_max + 1
    blocks = states.reshape(cfg.n_output, N_ELEC, N_ELEC, nph)
    pops = np.sum(np.abs(blocks) ** 2, axis=3)
    return EvolutionTrace(
        times=times,
        states=states,
        p_dd=pops[:, IDX_D, IDX_D],
        p_dm=pops[:, IDX_D, IDX_M] + pops[:, IDX_M, IDX_D],
        p_mm=pops[:, IDX_M, IDX_M],
        p_init=np.abs(states @ psi0.conj()) ** 2,
        norms=np.linalg.norm(states, axis=1),
        n_phonon_max=cfg.n_phonon_max,
        nfev=nfev,
        steps=steps,
    )


def evolve(cfg: SimConfig, psi0: np.ndarray = None, drive=None) -> EvolutionTrace:
    """Integrate i dpsi/dt = H(t) psi over the pulse.

    psi0 defaults to |DD> tensor |0>. A custom drive(t) -> (Omega_-, E_-)
    may carry a `breakpoints` attribute (times inside (0, tau)); integration
    is then restarted at each breakpoint so discontinuous drives stay within
    the step-size controller's reach.
    """
    if psi0 is None:
        psi0 = initial_state(cfg, "DD", 0)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (cfg.dim,):
        raise DomainError(f"psi0 must have shape ({cfg.dim},)")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise DomainError("psi0 must be normalized")
    times, (states,), nfev, steps = _propagate(cfg, [psi0], drive)
    return _trace(cfg, times, states, psi0, nfev, steps)


def loss_probability(trace: EvolutionTrace, tau0: float) -> float:
    """Perturbative spontaneous-loss estimate from the singly-excited states.

    Each of |D-> and |-D> decays at the dressed-state rate 1/tau0; their
    summed population is the trace's p_dm, so the accumulated loss is
    (2/tau0) * integral of the per-state population = integral(p_dm)/tau0.
    """
    if tau0 <= 0.0:
        raise DomainError("lifetime must be positive")
    per_state = 0.5 * trace.p_dm
    return float(2.0 / tau0 * np.trapezoid(per_state, trace.times))


def phonon_excitation(trace: EvolutionTrace):
    """Mean phonon number over time and the peak |p_DD - p_init| deviation."""
    nph = trace.n_phonon_max + 1
    blocks = trace.states.reshape(len(trace.times), N_ELEC * N_ELEC, nph)
    weights = np.arange(nph)
    mean_n = np.einsum("tbn,n->t", np.abs(blocks) ** 2, weights)
    deviation = float(np.max(np.abs(trace.p_dd - trace.p_init)))
    return mean_n, deviation


def entangling_phase_dynamic(cfg: SimConfig) -> dict:
    """Gate phases extracted from the evolutions of |DD,0> and |DE,0>.

    The |EE,0> reference amplitude is stationary with zero phase. The
    returned phases follow the design convention phi = +integral E dt of
    rydgate.gate, so each is minus the argument of its final amplitude
    (an adiabatic amplitude evolves as exp(-i integral E dt));
    phi_ent_dynamic = phi_dd - 2 phi_de wrapped to (-pi, pi]. Both states
    are integrated in one solve, so both traces report its nfev and steps.
    """
    psi_dd = initial_state(cfg, "DD", 0)
    psi_de = initial_state(cfg, "DE", 0)
    times, (states_dd, states_de), nfev, steps = _propagate(cfg, [psi_dd, psi_de])
    trace_dd = _trace(cfg, times, states_dd, psi_dd, nfev, steps)
    trace_de = _trace(cfg, times, states_de, psi_de, nfev, steps)
    i_dd = basis_index(IDX_D, IDX_D, 0, cfg.n_phonon_max)
    i_de = basis_index(IDX_D, IDX_E, 0, cfg.n_phonon_max)
    phi_dd = -float(np.angle(trace_dd.states[-1, i_dd]))
    phi_de = -float(np.angle(trace_de.states[-1, i_de]))
    return {
        "phi_dd_dynamic": phi_dd,
        "phi_de_dynamic": phi_de,
        "phi_ent_dynamic": float(wrap_angle(phi_dd - 2.0 * phi_de)),
        "trace_dd": trace_dd,
        "trace_de": trace_de,
    }
