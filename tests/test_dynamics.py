import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from rydgate import (
    PulseShape,
    SimConfig,
    build_hamiltonian,
    entangling_phase,
    entangling_phase_dynamic,
    evolve,
    initial_state,
    loss_probability,
    phonon_excitation,
    wrap_angle,
)
from rydgate.dynamics import RTOL_FLOOR, basis_index
from rydgate.errors import DomainError, ValidationError

TWO_PI = 2 * np.pi


def reference_config(**overrides):
    defaults = dict(
        blockade=TWO_PI * 2.5,
        omega_z=TWO_PI * 1.0,
        eta=0.5,
        pulse=PulseShape(omega0=TWO_PI * 0.5, delta0=TWO_PI * 0.639, tau=60.0),
        n_phonon_max=5,
    )
    defaults.update(overrides)
    return SimConfig(**defaults)


def brute_force_hamiltonian(t, cfg):
    """Independent construction: loop over basis kets and apply the operator
    definitions term by term (no kron products)."""
    from rydgate.gate import pulse_at

    omega_minus, e_minus = pulse_at(t, cfg.pulse)
    nph = cfg.n_phonon_max + 1
    dim = 9 * nph
    diag = np.zeros((dim, dim), dtype=complex)
    raising = np.zeros((dim, dim), dtype=complex)

    for e1 in range(3):
        for e2 in range(3):
            for n in range(nph):
                ket = basis_index(e1, e2, n, cfg.n_phonon_max)
                diag[ket, ket] += cfg.omega_z * n
                if e1 == 2 and e2 == 2:
                    diag[ket, ket] += cfg.blockade
                diag[ket, ket] += e_minus * ((e1 == 2) + (e2 == 2))
                # raising part Omega/2 [1 + i eta (a^dag + a)] sigma+ per ion
                for ion, state in ((0, e1), (1, e2)):
                    if state != 1:  # sigma+ only acts on |D>
                        continue
                    new = (2, e2) if ion == 0 else (e1, 2)
                    bra0 = basis_index(new[0], new[1], n, cfg.n_phonon_max)
                    raising[bra0, ket] += omega_minus / 2
                    if n + 1 < nph:
                        bra_up = basis_index(new[0], new[1], n + 1, cfg.n_phonon_max)
                        raising[bra_up, ket] += omega_minus / 2 * 1j * cfg.eta * np.sqrt(n + 1)
                    if n - 1 >= 0:
                        bra_dn = basis_index(new[0], new[1], n - 1, cfg.n_phonon_max)
                        raising[bra_dn, ket] += omega_minus / 2 * 1j * cfg.eta * np.sqrt(n)
    return diag + raising + raising.conj().T


def full_basis_evolution(cfg, psi0):
    """Reference solve: DOP853 on the whole basis with H(t) from build_hamiltonian."""
    from rydgate.gate import pulse_at

    h0 = build_hamiltonian(0.0, cfg, drive=lambda t: (0.0, 0.0))
    h_det = build_hamiltonian(0.0, cfg, drive=lambda t: (0.0, 1.0)) - h0
    h_rabi = build_hamiltonian(0.0, cfg, drive=lambda t: (1.0, 0.0)) - h0

    def rhs(t, y):
        omega_minus, e_minus = pulse_at(t, cfg.pulse)
        return -1j * ((h0 + e_minus * h_det + omega_minus * h_rabi) @ y)

    times = np.linspace(0.0, cfg.pulse.tau, cfg.n_output)
    sol = solve_ivp(rhs, (0.0, cfg.pulse.tau), psi0, method="DOP853",
                    rtol=cfg.rtol, atol=cfg.atol, t_eval=times)
    return sol.y.T


def spectator_state(cfg):
    """sqrt(0.3)|EE,0> + sqrt(0.2)|EE,2> + sqrt(0.5)|DD,0>, as in the spectator test."""
    nmax = cfg.n_phonon_max
    psi0 = np.zeros(cfg.dim, complex)
    psi0[basis_index(0, 0, 0, nmax)] = np.sqrt(0.3)
    psi0[basis_index(0, 0, 2, nmax)] = np.sqrt(0.2)
    psi0[basis_index(1, 1, 0, nmax)] = np.sqrt(0.5)
    return psi0


class TestHamiltonian:
    def test_matches_brute_force_oracle(self):
        cfg = reference_config(n_phonon_max=3)
        rng = np.random.default_rng(17)
        for t in rng.uniform(0, 60.0, size=4):
            built = build_hamiltonian(t, cfg)
            oracle = brute_force_hamiltonian(t, cfg)
            assert np.max(np.abs(built - oracle)) < 1e-12

    def test_exactly_hermitian(self):
        cfg = reference_config()
        for t in (0.0, 13.7, 30.0, 59.9):
            h = build_hamiltonian(t, cfg)
            assert np.array_equal(h, h.conj().T)

    def test_carrier_matrix_element(self):
        # <D,-;n|H|D,D;n> = Omega_-/2 at eta = 0
        cfg = reference_config(eta=0.0, n_phonon_max=2)
        from rydgate.gate import pulse_at

        t = 21.3
        omega_minus, _ = pulse_at(t, cfg.pulse)
        h = build_hamiltonian(t, cfg)
        for n in range(3):
            bra = basis_index(1, 2, n, 2)
            ket = basis_index(1, 1, n, 2)
            assert h[bra, ket] == pytest.approx(omega_minus / 2, rel=1e-14)

    def test_block_diagonal_without_drive(self):
        cfg = reference_config(eta=0.0)
        pulse_off = SimConfig(blockade=cfg.blockade, omega_z=cfg.omega_z, eta=0.0,
                              pulse=PulseShape(0.0, TWO_PI * 0.639, 60.0),
                              n_phonon_max=2)
        h = build_hamiltonian(30.0, pulse_off)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


class TestEvolve:
    def test_initial_populations(self):
        cfg = reference_config(n_phonon_max=2)
        trace = evolve(cfg)
        assert trace.p_dd[0] == 1.0
        assert trace.p_init[0] == 1.0
        assert trace.times[0] == 0.0 and trace.times[-1] == cfg.pulse.tau

    def test_norm_conservation(self):
        trace = evolve(reference_config())
        assert np.max(np.abs(trace.norms - 1.0)) < 1e-8

    def test_population_bounds_and_ordering(self):
        trace = evolve(reference_config())
        for name in ("p_dd", "p_dm", "p_mm", "p_init"):
            pop = getattr(trace, name)
            assert np.all(pop >= -1e-12) and np.all(pop <= 1.0 + 1e-12)
        # tracing out phonons can only add population on top of the exact
        # initial-state survival
        assert np.all(trace.p_dd >= trace.p_init - 1e-12)

    def test_spectator_sector_modulus_preserved(self):
        cfg = reference_config(n_phonon_max=3, rtol=1e-11, atol=1e-13)
        psi0 = np.zeros(cfg.dim, complex)
        psi0[basis_index(0, 0, 0, 3)] = np.sqrt(0.3)
        psi0[basis_index(0, 0, 2, 3)] = np.sqrt(0.2)
        psi0[basis_index(1, 1, 0, 3)] = np.sqrt(0.5)
        trace = evolve(cfg, psi0)
        amp00 = np.abs(trace.states[:, basis_index(0, 0, 0, 3)])
        amp02 = np.abs(trace.states[:, basis_index(0, 0, 2, 3)])
        assert np.max(np.abs(amp00 - np.sqrt(0.3))) < 1e-9
        assert np.max(np.abs(amp02 - np.sqrt(0.2))) < 1e-9

    def test_zero_lamb_dicke_never_excites_phonons(self):
        cfg = reference_config(eta=0.0)
        trace = evolve(cfg)
        _, deviation = phonon_excitation(trace)
        assert deviation < 1e-12

    def test_blockade_suppresses_double_excitation(self):
        trace = evolve(reference_config())
        assert np.max(trace.p_mm) < 0.02
        assert np.max(trace.p_dm) > 0.2

    def test_double_excitation_grows_as_blockade_shrinks(self):
        peaks = []
        for b_mhz in (2.5, 1.0, 0.25):
            trace = evolve(reference_config(blockade=TWO_PI * b_mhz))
            peaks.append(np.max(trace.p_mm))
        assert peaks[0] < peaks[1] < peaks[2]

    def test_truncation_robustness(self):
        t5 = evolve(reference_config(n_phonon_max=5))
        t8 = evolve(reference_config(n_phonon_max=8))
        for name in ("p_dd", "p_dm", "p_mm", "p_init"):
            assert np.max(np.abs(getattr(t5, name) - getattr(t8, name))) < 1e-3

    def test_phonon_softening_with_stiffer_trap(self):
        _, dev1 = phonon_excitation(evolve(reference_config()))
        _, dev4 = phonon_excitation(evolve(reference_config(omega_z=TWO_PI * 4.0)))
        assert 0.0 < dev1 < 0.05  # small but nonzero phonon excitation
        assert dev4 < dev1

    def test_rejects_bad_initial_state(self):
        cfg = reference_config(n_phonon_max=2)
        with pytest.raises(DomainError):
            evolve(cfg, np.zeros(cfg.dim, complex))
        with pytest.raises(DomainError):
            evolve(cfg, np.ones(5, complex))
        for label in ("DX", "D", "DDD"):  # an unknown level, then wrong lengths
            with pytest.raises(DomainError, match="E, D, M, -"):
                initial_state(cfg, label)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            reference_config(n_phonon_max=0)
        with pytest.raises(ValidationError):
            reference_config(rtol=1e-2)
        with pytest.raises(ValidationError):
            reference_config(atol=0.0)

    @pytest.mark.parametrize("field", ["blockade", "omega_z", "eta"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            reference_config(**{field: value})

    def test_rtol_below_stepper_floor_rejected(self):
        # the stepper would raise such an rtol to its floor with only a warning
        with pytest.raises(ValidationError, match="rtol"):
            reference_config(rtol=1e-15)
        with pytest.raises(ValidationError, match="rtol"):
            reference_config(rtol=np.nextafter(RTOL_FLOOR, 0.0))
        cfg = reference_config(rtol=RTOL_FLOOR, n_phonon_max=1, n_output=3,
                               pulse=PulseShape(TWO_PI * 0.5, TWO_PI * 0.639, 2.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evolve(cfg)


class TestReducedKernel:
    TIGHT = dict(rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("label, n_phonon_max", [("DD", 2), ("DE", 2), ("mix", 3)])
    def test_matches_full_basis_solve(self, label, n_phonon_max):
        cfg = reference_config(n_phonon_max=n_phonon_max, **self.TIGHT)
        psi0 = spectator_state(cfg) if label == "mix" else initial_state(cfg, label, 0)
        trace = evolve(cfg, psi0)
        # bound at the integrators' accuracy: a reduced solve without the
        # tolerance rescaling is 4e-10 off on the mixed state; with the same
        # step control as the full-basis solve they agree to 1e-14
        assert np.max(np.abs(trace.states - full_basis_evolution(cfg, psi0))) < 1e-9

    def test_fused_traces_equal_separate_evolutions(self):
        cfg = reference_config(n_phonon_max=2, **self.TIGHT)
        dyn = entangling_phase_dynamic(cfg)
        for label, key in (("DD", "trace_dd"), ("DE", "trace_de")):
            alone = evolve(cfg, initial_state(cfg, label, 0))
            fused = dyn[key]
            assert np.array_equal(fused.times, alone.times)
            assert np.max(np.abs(fused.states - alone.states)) < 1e-9
            for name in ("p_dd", "p_dm", "p_mm", "p_init", "norms"):
                assert np.max(np.abs(getattr(fused, name) - getattr(alone, name))) < 1e-10
            i0 = basis_index(1, 1 if label == "DD" else 0, 0, 2)
            phi_alone = -np.angle(alone.states[-1, i0])
            phi_fused = dyn["phi_dd_dynamic" if label == "DD" else "phi_de_dynamic"]
            assert abs(wrap_angle(phi_fused - phi_alone)) < 1e-10
            assert alone.nfev > 0
        # both traces come from one solve and report its RHS evaluations
        assert dyn["trace_dd"].nfev == dyn["trace_de"].nfev > 0

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_unreached_components_exactly_zero(self, eta):
        cfg = reference_config(eta=eta, n_phonon_max=3)
        dyn = entangling_phase_dynamic(cfg)
        n_t = cfg.n_output
        dd = dyn["trace_dd"].states.reshape(n_t, 3, 3, 4)
        de = dyn["trace_de"].states.reshape(n_t, 3, 3, 4)
        # |E> is inert: the DD run never touches it, the DE run keeps ion 2 there
        assert not dd[:, 0].any() and not dd[:, :, 0].any()
        assert not de[:, 0].any() and not de[:, :, 1:].any()
        assert dd[:, 1:, 1:].any() and de[:, 1:, 0].any()
        if eta == 0.0:
            assert not dd[..., 1:].any() and not de[..., 1:].any()
        else:
            assert dd[:, 1, 1, 1:].any()


class TestMatrixExponentialOracle:
    def test_piecewise_constant_evolution(self):
        cfg = reference_config(n_phonon_max=1, n_output=7,
                               pulse=PulseShape(TWO_PI * 0.5, TWO_PI * 0.639, 6.0),
                               rtol=1e-11, atol=1e-13)
        segments = [(0.0, 2.0), (2.0, 4.0), (4.0, 6.0)]
        levels = [(TWO_PI * 0.3, TWO_PI * 0.9), (TWO_PI * 0.5, TWO_PI * 0.4),
                  (TWO_PI * 0.2, TWO_PI * 0.7)]

        def drive(t):
            for (lo, hi), lv in zip(segments, levels):
                if lo <= t < hi:
                    return lv
            return levels[-1]

        drive.breakpoints = (2.0, 4.0)

        psi0 = initial_state(cfg, "DD", 0)
        trace = evolve(cfg, psi0, drive=drive)

        psi = psi0.astype(complex)
        for (lo, hi), _ in zip(segments, levels):
            h = build_hamiltonian((lo + hi) / 2, cfg, drive=drive)
            psi = expm(-1j * h * (hi - lo)) @ psi
        assert np.linalg.norm(trace.states[-1] - psi) < 1e-8


class TestLoss:
    def test_reference_loss_value(self):
        trace = evolve(reference_config())
        p = loss_probability(trace, 132.0)
        assert abs(p - 0.052) / 0.052 < 0.20

    def test_infinite_lifetime(self):
        trace = evolve(reference_config(n_phonon_max=2))
        assert loss_probability(trace, 1e12) < 1e-10

    def test_linear_in_decay_rate(self):
        trace = evolve(reference_config(n_phonon_max=2))
        assert loss_probability(trace, 264.0) == pytest.approx(
            loss_probability(trace, 132.0) / 2, rel=1e-12)

    def test_rejects_nonpositive_lifetime(self):
        trace = evolve(reference_config(n_phonon_max=2))
        with pytest.raises(DomainError):
            loss_probability(trace, 0.0)


class TestPhaseCrossCheck:
    def test_dynamic_phase_close_to_adiabatic_design(self):
        # the design integrates the exact adiabatic eigenvalues; the measured
        # gap at these parameters is 0.0054 rad (0.0040 at eta = 0), the
        # residual non-adiabatic and phonon-coupling correction
        cfg = reference_config()
        dyn = entangling_phase_dynamic(cfg)
        design = entangling_phase(cfg.pulse, cfg.blockade)
        gap = wrap_angle(dyn["phi_ent_dynamic"] - design.phi_ent)
        assert abs(gap) < 0.05

    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_phase_sign_agrees_away_from_pi(self, eta):
        # near phi_ent = pi a sign flip between design and dynamics is
        # invisible; at delta0 = 2pi x 0.9 MHz phi_ent is about 1.72 rad, so
        # opposite conventions would differ by about 2.9 rad
        pulse = PulseShape(omega0=TWO_PI * 0.5, delta0=TWO_PI * 0.9, tau=60.0)
        cfg = reference_config(eta=eta, pulse=pulse)
        dyn = entangling_phase_dynamic(cfg)
        design = entangling_phase(pulse, cfg.blockade)
        assert abs(wrap_angle(dyn["phi_ent_dynamic"] - design.phi_ent)) < 0.05

    def test_traces_are_reused(self):
        cfg = reference_config(n_phonon_max=2)
        dyn = entangling_phase_dynamic(cfg)
        assert dyn["trace_dd"].p_dd[0] == 1.0
        assert dyn["trace_de"].times[-1] == cfg.pulse.tau
