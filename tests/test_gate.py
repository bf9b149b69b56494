import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from rydgate import (
    PulseShape,
    adiabatic_energies,
    adiabaticity_ratio,
    entangling_phase,
    gate_unitary,
    optimize_pulse,
    phase_trace,
    pulse_at,
    wrap_angle,
)
from rydgate import gate
from rydgate.errors import DomainError, NoRoot, ToleranceFailure, ValidationError

TWO_PI = 2 * np.pi


def reference_pulse():
    return PulseShape(omega0=TWO_PI * 0.5, delta0=TWO_PI * 0.639, tau=60.0)


REF_BLOCKADE = TWO_PI * 2.5


def ladder_from_16(omega0, delta0, tau, blockade, target=None):
    """Reference phase ladder with one adiabatic_energies call per level, from 16 nodes up.

    Its bookkeeping runs on numpy arrays, one level at a time. Returns
    (phi, vals) as gate._accumulated_phases does, and the node count at
    which each row stopped.
    """
    def energies(d, x):
        om = omega0 * np.sin(np.pi * x) ** 2
        e = d[:, None] * (0.5 + np.cos(np.pi * x) ** 2)
        return np.stack(adiabatic_energies(np.broadcast_to(om, e.shape), e, blockade))

    delta0 = np.atleast_1d(np.asarray(delta0, dtype=float))
    phi, rows = np.empty((2, delta0.size)), np.arange(delta0.size)
    nodes = np.zeros(delta0.size, dtype=int)
    vals = energies(delta0, np.arange(16) / 16)
    while vals.shape[-1] < gate.MAX_NODES:
        n = vals.shape[-1]
        odd = energies(delta0[rows], (np.arange(n) + 0.5) / n)
        prev = tau * vals.mean(axis=-1)
        vals = np.stack([vals, odd], axis=-1).reshape(2, rows.size, 2 * n)
        new = tau * vals.mean(axis=-1)
        change = np.abs(new - prev)
        done = np.all(change <= gate.QUAD_ABS_TOL, axis=0)
        if target is not None:
            done |= (np.abs(new[0] - 2.0 * new[1] - target)
                     > gate.SIGN_MARGIN * (change[0] + 2.0 * change[1]))
        phi[:, rows[done]] = new[:, done]
        nodes[rows[done]] = 2 * n
        if done.all():
            return phi, vals, nodes
        rows, vals = rows[~done], vals[:, ~done]
    raise ToleranceFailure("reference ladder not converged")


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64)


def closed_form_delta_eff(om, e, blockade):
    """delta0_eff = E_- - Omega^2 / (4 E_- + 2 B), the paper's second-order elimination of |-->."""
    return e - om**2 / (4.0 * e + 2.0 * blockade)


def adiabatic_energies_closed_form(omega_minus, e_minus, blockade):
    """The paper's closed-form light shifts (E_DD, E_DE), a reference for the exact ones.

    E_DD = [delta0_eff - sqrt(delta0_eff^2 + 2 Omega^2)] / 2; E_DE is exact.
    It has a pole where 4 E_- + 2 B vanishes, which E_- > 0 and B >= 0 avoid.
    """
    om = np.abs(np.asarray(omega_minus, dtype=float))
    e = np.asarray(e_minus, dtype=float)
    delta_eff = closed_form_delta_eff(om, e, blockade)
    e_dd = 0.5 * (delta_eff - np.sqrt(delta_eff**2 + 2.0 * om**2))
    return e_dd, gate._light_shift_de(om, e)


def ratio_with_closed_form_gap(p, blockade):
    """adiabaticity_ratio as it was: the smaller of the closed-form |DD> and the |DE> gap."""
    times = np.linspace(0.0, p.tau, 401)
    om, e = gate._pulse(times, p)
    delta_eff = closed_form_delta_eff(om, e, blockade)
    gap_dd = np.sqrt(delta_eff**2 + 2.0 * om**2)
    gap_de = np.sqrt(e**2 + om**2)
    min_gap = min(gap_dd.min(), gap_de.min())
    slew = np.pi / p.tau * max(p.omega0, p.delta0)
    return float(min_gap**2 / slew)


def gap_ensemble():
    """Seeded (PulseShape, B) designs over the optimizer's range and the weak-drive corner.

    delta0 in [1e-3, 50] omega0, omega0 = 0, and omega0 / delta0 down to 1e-12;
    each at B = 0 and at a B in [1e-3, 1e3] rad/us.
    """
    rng = np.random.default_rng(20261020)
    designs = []
    for _ in range(120):
        omega0 = TWO_PI * np.exp(rng.uniform(np.log(0.05), np.log(1.5)))
        delta0 = omega0 * np.exp(rng.uniform(np.log(1e-3), np.log(50.0)))
        designs.append((omega0, delta0))
    for _ in range(60):
        delta0 = TWO_PI * np.exp(rng.uniform(np.log(0.05), np.log(5.0)))
        designs.append((delta0 * 10.0 ** rng.uniform(-12.0, -3.0), delta0))
    designs += [(0.0, TWO_PI * 0.639), (TWO_PI * 1e-12, TWO_PI * 0.639)]
    return [(PulseShape(omega0, delta0, rng.uniform(5.0, 150.0)), b)
            for omega0, delta0 in designs
            for b in (0.0, np.exp(rng.uniform(np.log(1e-3), np.log(1e3))))]


@pytest.fixture(autouse=True)
def fresh_design_cache():
    # the design-point integrals outlive a test: one that patches MAX_NODES,
    # QUAD_ABS_TOL, EIG_MAX_STEPS or adiabatic_energies must integrate anew,
    # and must leave no entry made under its patch behind
    gate._root_integral.cache_clear()
    yield
    gate._root_integral.cache_clear()


def trace_with_mod(p, blockade):
    """phase_trace with np.mod taking the fractional part of k x."""
    times = np.linspace(0.0, p.tau, 201)
    phi, vals = gate._accumulated_phases(p.omega0, p.delta0, p.tau, blockade)
    n = vals.shape[-1]
    amp = np.fft.rfft(vals[:, 0]).real * (2.0 / n)
    amp[:, -1] /= 2.0
    k = np.arange(1, n // 2 + 1)
    x = times / p.tau
    waves = np.sin(2.0 * np.pi * np.mod(np.outer(k, x), 1.0)) / (2.0 * np.pi * k[:, None])
    phi_dd, phi_de = phi[:, :1] * x + p.tau * (amp[:, 1:] @ waves)
    return times, phi_dd, phi_de, wrap_angle(phi_dd - 2.0 * phi_de), n


class TestPulse:
    def test_endpoints(self):
        p = reference_pulse()
        om, e = pulse_at(0.0, p)
        assert om == 0.0
        assert e == pytest.approx(1.5 * p.delta0, rel=1e-14)
        om, e = pulse_at(p.tau, p)
        assert om == pytest.approx(0.0, abs=1e-25)
        assert e == pytest.approx(1.5 * p.delta0, rel=1e-12)

    def test_midpoint(self):
        p = reference_pulse()
        om, e = pulse_at(p.tau / 2, p)
        assert om == pytest.approx(p.omega0, rel=1e-14)
        assert e == pytest.approx(0.5 * p.delta0, rel=1e-12)

    def test_outside_domain(self):
        p = reference_pulse()
        with pytest.raises(DomainError):
            pulse_at(-0.1, p)
        with pytest.raises(DomainError):
            pulse_at(p.tau + 0.1, p)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            PulseShape(omega0=1.0, delta0=1.0, tau=0.0)
        with pytest.raises(ValidationError):
            PulseShape(omega0=-1.0, delta0=1.0, tau=1.0)

    @pytest.mark.parametrize("delta0", [0.0, -0.1, np.float64(-1.0)])
    def test_non_positive_delta0_refused(self, delta0):
        # for E_- <= 0 the qubit states are not the lowest levels the design integrates
        with pytest.raises(ValidationError, match="delta0 must be > 0"):
            PulseShape(omega0=1.0, delta0=delta0, tau=1.0)

    @pytest.mark.parametrize("field", ["omega0", "delta0", "tau"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.array([np.inf]),
                                       np.array([1.0, 2.0])])
    def test_fields_must_be_one_finite_number(self, field, value):
        # an infinite tau or omega0 would run the phase ladder up to MAX_NODES;
        # of several delta0, entangling_phase used to report the first alone
        kwargs = {"omega0": 1.0, "delta0": 1.0, "tau": 1.0, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be one finite number"):
            PulseShape(**kwargs)


class TestAdiabaticEnergies:
    def test_zero_rabi_gives_zero_shifts(self):
        e_dd, e_de = adiabatic_energies(0.0, TWO_PI * 0.5, REF_BLOCKADE)
        assert e_dd == 0.0 and e_de == 0.0

    def test_infinite_blockade_limit(self):
        # B -> infinity: the blockade term drops out of the effective detuning
        om, e = TWO_PI * 0.5, TWO_PI * 0.3
        e_dd, _ = adiabatic_energies(om, e, 1e12)
        expected = 0.5 * (e - np.sqrt(e**2 + 2 * om**2))
        assert e_dd == pytest.approx(expected, rel=1e-9)

    def test_lower_branch_is_nonpositive(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            om = rng.uniform(0, 10)
            e = rng.uniform(1e-3, 10)
            b = rng.uniform(1e-3, 50)
            e_dd, e_de = adiabatic_energies(om, e, b)
            assert e_dd <= 1e-14 and e_de <= 1e-14

    def test_magnitude_only_dependence_on_rabi(self):
        a = adiabatic_energies(1.5, 2.0, 3.0)
        b = adiabatic_energies(-1.5, 2.0, 3.0)
        assert a == b

    def test_matches_eigvalsh_of_symmetric_block(self):
        # seeded ensemble over the optimizer's scan range
        # delta0 in [1e-3, 50] omega0, at every point of the pulse
        rng = np.random.default_rng(20260809)
        omega0 = TWO_PI * 0.5
        phase = rng.uniform(0.0, np.pi, 4000)
        om = omega0 * np.sin(phase) ** 2
        e = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), phase.size)) \
            * omega0 * (0.5 + np.cos(phase) ** 2)
        b = TWO_PI * rng.uniform(0.0, 10.0, phase.size)
        c = om / np.sqrt(2.0)
        zero = np.zeros_like(c)
        # negative detunings exercise the 2 E_- + B < 0 branch as well
        for e_minus in (e, -e):
            blocks = np.stack([np.stack([zero, c, zero], -1),
                               np.stack([c, e_minus, c], -1),
                               np.stack([zero, c, 2 * e_minus + b], -1)], -2)
            oracle = np.linalg.eigvalsh(blocks)[:, 0]
            e_dd, _ = adiabatic_energies(om, e_minus, b)
            # eigvalsh is accurate to a few ulp of the block's norm, which
            # dominates near the pulse edges where the shift itself is tiny
            norm = np.abs(blocks).sum(axis=(1, 2))
            assert np.all(np.abs(e_dd - oracle) <= 1e-11 * np.abs(oracle) + 4e-16 * norm)
        # B = 0: the ions are independent, so E_DD = 2 E_DE (E_DE's closed
        # form also rounds to a few ulp of |E_-| + Omega_- near the edges)
        e_dd0, e_de0 = adiabatic_energies(om, e, 0.0)
        assert np.all(np.abs(e_dd0 - 2 * e_de0)
                      <= 1e-11 * np.abs(e_dd0) + 1e-15 * (np.abs(e) + om))

    def test_batched_entries_equal_entries_alone(self, monkeypatch):
        # each entry stops on its own Newton step, so batching it with entries
        # that need more steps leaves its bits; the phase ladder evaluates
        # nodes ahead of need in one batch and relies on this
        rng = np.random.default_rng(20261018)
        omega0 = TWO_PI * 0.5
        phase = rng.uniform(0.0, np.pi, 60)
        om = omega0 * np.sin(phase) ** 2
        e = np.exp(rng.uniform(np.log(5e-4), np.log(100.0), phase.size)) \
            * omega0 * (0.5 + np.cos(phase) ** 2) * rng.choice([-1.0, 1.0], phase.size)
        for b in (0.0, REF_BLOCKADE, TWO_PI * 10.0):
            e_dd, e_de = adiabatic_energies(om, e, b)
            alone = [adiabatic_energies(om[i:i + 1], e[i:i + 1], b) for i in range(om.size)]
            assert np.array_equal(bits(e_dd), bits([a[0][0] for a in alone]))
            assert np.array_equal(bits(e_de), bits([a[1][0] for a in alone]))

        max_steps = gate.EIG_MAX_STEPS

        def newton_steps(i):  # the fewest steps with which entry i alone returns
            for k in range(1, max_steps + 1):
                monkeypatch.setattr(gate, "EIG_MAX_STEPS", k)
                try:
                    adiabatic_energies(om[i:i + 1], e[i:i + 1], REF_BLOCKADE)
                    return k
                except ToleranceFailure:
                    pass

        steps = [newton_steps(i) for i in range(om.size)]
        assert None not in steps and len(set(steps)) >= 3

    def test_scalar_entries_equal_array_entries(self):
        # a float64 scalar's ** 0.5 calls libm pow, which misses sqrt's
        # rounding for about one value in a thousand; arrays take sqrt
        rng = np.random.default_rng(20261019)
        om = TWO_PI * rng.uniform(0.0, 2.0, 2000)
        e = TWO_PI * rng.uniform(-5.0, 5.0, om.size)
        for b in (0.0, REF_BLOCKADE, TWO_PI * 10.0):
            e_dd, e_de = adiabatic_energies(om, e, b)
            alone = [adiabatic_energies(om[i], e[i], b) for i in range(om.size)]
            assert np.array_equal(bits(e_dd), bits([a[0] for a in alone]))
            assert np.array_equal(bits(e_de), bits([a[1] for a in alone]))

    def test_singly_driven_shift_without_cancellation(self):
        # Omega << E_-: the textbook form [E - sqrt(E^2 + Omega^2)] / 2 rounds
        # to 0 here; the true value is -Omega^2 / (4 E) to O(Omega^2 / E^2)
        om, e = 7.3e-9, 139.0
        _, e_de = adiabatic_energies(om, e, REF_BLOCKADE)
        assert e_de == pytest.approx(-om**2 / (4 * e), rel=1e-12, abs=0.0)
        # E_- < 0 branch: [E - sqrt(E^2 + Omega^2)] / 2 has no cancellation there
        _, e_de = adiabatic_energies(1.0, -1.0, REF_BLOCKADE)
        assert e_de == pytest.approx(-0.5 * (1 + np.sqrt(2.0)), rel=1e-15, abs=0.0)

    def test_closed_form_converges_in_weak_drive(self):
        # the closed form evaluates the |--> energy denominator at the bare
        # |DD> energy instead of at E_DD, so its relative error shrinks as
        # (Omega^2 / (E_- (2 E_- + B)))^2
        e, b = TWO_PI * 0.5, REF_BLOCKADE
        errs = []
        for om in (TWO_PI * 0.1, TWO_PI * 0.05):
            exact = adiabatic_energies(om, e, b)
            closed = adiabatic_energies_closed_form(om, e, b)
            assert closed[1] == exact[1]
            errs.append(abs(closed[0] - exact[0]) / abs(exact[0]))
        assert 0 < errs[1] < errs[0] < 1e-2
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.1)


class TestEntanglingPhase:
    def test_reference_design_reaches_pi(self):
        design = entangling_phase(reference_pulse(), REF_BLOCKADE)
        assert abs(wrap_angle(design.phi_ent - np.pi)) < 0.05 * np.pi

    def test_zero_rabi_gives_identity(self):
        p = PulseShape(omega0=0.0, delta0=TWO_PI * 0.639, tau=60.0)
        design = entangling_phase(p, REF_BLOCKADE)
        assert design.phi_ent == 0.0
        assert np.array_equal(design.unitary, np.eye(4))

    def test_no_blockade_no_entanglement_in_perturbative_regime(self):
        # at B = 0 the doubly-driven shift is twice the single-ion shift up
        # to O((omega/delta)^4), so phi_ent nearly cancels
        p = PulseShape(omega0=TWO_PI * 0.1, delta0=TWO_PI * 0.5, tau=60.0)
        design = entangling_phase(p, 0.0)
        assert abs(design.phi_ent) < 0.05

    def test_quadrature_convergence(self, monkeypatch):
        p = reference_pulse()
        a = entangling_phase(p, REF_BLOCKADE)
        monkeypatch.setattr(gate, "QUAD_ABS_TOL", 5e-9)
        b = entangling_phase(p, REF_BLOCKADE)
        assert abs(a.phi_ent - b.phi_ent) < 1e-7

    def test_monotone_in_blockade(self):
        p = reference_pulse()
        raws = []
        for b_mhz in np.linspace(0.0, 10.0, 9):
            d = entangling_phase(p, TWO_PI * b_mhz)
            raws.append(d.phi_dd - 2 * d.phi_de)
        diffs = np.diff(raws)
        assert np.all(diffs > 0)

    def test_unitary_pattern(self):
        design = entangling_phase(reference_pulse(), REF_BLOCKADE)
        u = design.unitary
        assert np.allclose(np.abs(np.diag(u)), 1.0, atol=1e-14)
        assert np.count_nonzero(u - np.diag(np.diag(u))) == 0
        assert u[1, 1] == u[2, 2]
        assert u[3, 3] == pytest.approx(
            np.exp(1j * (design.phi_ent + 2 * design.phi_de)), abs=1e-14)


class TestPhasePrimitive:
    """The periodic trapezoid rule behind every design phase, against quad."""

    @staticmethod
    def quad_phases(p, blockade, t_end=None):
        def shift(i):
            return lambda t: adiabatic_energies(*pulse_at(t, p), blockade)[i]
        t_end = p.tau if t_end is None else t_end
        return [quad(shift(i), 0.0, t_end, epsabs=1e-13, epsrel=1e-13, limit=500)[0]
                for i in (0, 1)]

    @pytest.mark.parametrize("b_mhz", [0.0, 2.5, 10.0])
    def test_phases_match_tight_quadrature(self, b_mhz):
        # the optimizer's scan range [1e-3, 50] omega0, widened to
        # [5e-4, 100] omega0
        omega0 = TWO_PI * 0.5
        for ratio in np.geomspace(5e-4, 100.0, 9):
            p = PulseShape(omega0, ratio * omega0, 60.0)
            design = entangling_phase(p, TWO_PI * b_mhz)
            phi_dd, phi_de = self.quad_phases(p, TWO_PI * b_mhz)
            assert design.phi_dd == pytest.approx(phi_dd, rel=1e-12, abs=0.0)
            assert design.phi_de == pytest.approx(phi_de, rel=1e-12, abs=0.0)

    def test_vectorized_scan_equals_scalar_calls(self):
        omega0 = TWO_PI * 0.5
        grid = np.geomspace(1e-3 * omega0, 50 * omega0, 40)
        scan, _ = gate._accumulated_phases(omega0, grid, 60.0, REF_BLOCKADE)
        for column, delta0 in zip(scan.T, grid):
            design = entangling_phase(PulseShape(omega0, delta0, 60.0), REF_BLOCKADE)
            assert abs(column[0] - design.phi_dd) <= 1e-15 * abs(design.phi_dd)
            assert abs(column[1] - design.phi_de) <= 1e-15 * abs(design.phi_de)

    @pytest.mark.parametrize("ratio", [1.2955, 0.01])
    def test_trace_is_the_antiderivative(self, ratio):
        p = PulseShape(TWO_PI * 0.5, ratio * TWO_PI * 0.5, 60.0)
        design = entangling_phase(p, REF_BLOCKADE)
        times, phi_dd, phi_de, phi_ent = phase_trace(p, REF_BLOCKADE)
        assert (phi_dd[0], phi_de[0]) == (0.0, 0.0)
        assert (phi_dd[-1], phi_de[-1], phi_ent[-1]) == (
            design.phi_dd, design.phi_de, design.phi_ent)
        for i in (17, 50, 100, 167, 183):
            direct = self.quad_phases(p, REF_BLOCKADE, t_end=times[i])
            assert abs(phi_dd[i] - direct[0]) <= 1e-10
            assert abs(phi_de[i] - direct[1]) <= 1e-10

    @pytest.mark.parametrize("ratio", [1.278, 0.05])
    def test_trace_equals_the_np_mod_table(self, ratio):
        # u - floor(u) for u = k x >= 0 is exact, so the sine table keeps the
        # bits np.mod(u, 1.0) gives, on 64 and on 128 nodes
        p = PulseShape(TWO_PI * 0.5, ratio * TWO_PI * 0.5, 60.0)
        *expected, n = trace_with_mod(p, REF_BLOCKADE)
        assert n == (64 if ratio > 1 else 128)
        for got, want in zip(phase_trace(p, REF_BLOCKADE), expected):
            assert np.array_equal(bits(got), bits(want))

    @pytest.mark.parametrize("b_mhz", [0.0, 2.5, 10.0])
    def test_ladder_keeps_its_bits(self, b_mhz):
        # the look-ahead to 64 nodes returns what level-by-level calls give,
        # on the optimizer's scan and on single delta0 over [5e-4, 100] omega0
        omega0, blockade = TWO_PI * 0.5, TWO_PI * b_mhz
        levels = set()
        delta0s = [np.geomspace(1e-3 * omega0, 50 * omega0, 40)]
        delta0s += list(np.geomspace(5e-4, 100.0, 13) * omega0)
        for delta0 in delta0s:
            phi, vals = gate._accumulated_phases(omega0, delta0, 60.0, blockade)
            ref_phi, ref_vals, nodes = ladder_from_16(omega0, delta0, 60.0, blockade)
            assert np.array_equal(bits(phi), bits(ref_phi))
            assert vals.shape == ref_vals.shape
            assert np.array_equal(bits(vals), bits(ref_vals))
            levels.update(nodes.tolist())
        # rows settle at every level the look-ahead covers and past it
        assert {32, 64, 128, 256, 512} <= levels

    @pytest.mark.parametrize("first", [32, 64])
    @pytest.mark.parametrize("target", [None, np.pi])
    @pytest.mark.parametrize("rows", [[2], [2, 20], range(40)])
    def test_ladder_bookkeeping_equals_numpy_levels(self, rows, target, first):
        # the ladder's bookkeeping on Python floats keeps the bits of the same
        # operations on numpy arrays, level by level, on 1, 2 and 40 rows of
        # a scan whose rows stop on 32 to 512 nodes, from a first call on 32
        # (the scan's) or 64 nodes
        omega0, tau, blockade = TWO_PI * 0.051, 68.1, TWO_PI * 2.84
        delta0 = np.geomspace(1e-3 * omega0, 50 * omega0, 40)[list(rows)]
        ahead = gate._look_ahead(omega0, delta0, blockade, first)
        phi, vals = gate._accumulated_phases(omega0, delta0, tau, blockade, target, ahead)
        ref_phi, ref_vals, nodes = ladder_from_16(omega0, delta0, tau, blockade, target)
        assert phi.shape == ref_phi.shape and vals.shape == ref_vals.shape
        assert np.array_equal(bits(phi), bits(ref_phi))
        assert np.array_equal(bits(vals), bits(ref_vals))
        assert nodes.max() > first
        assert len(set(nodes.tolist())) == min(len(delta0), 5 if target is None else 4)

    def test_node_tables_are_shared_and_read_only(self):
        # the pulse shape on the nodes is built once per (n, odd), with the
        # bits of the expressions the ladder used to evaluate per call
        for n, odd in ((64, False), (32, True), (256, True)):
            tables = gate._node_tables(n, odd)
            assert gate._node_tables(n, odd) is tables
            x = (np.arange(n) + 0.5) / n if odd else np.arange(n) / n
            expected = (np.sin(np.pi * x) ** 2, 0.5 + np.cos(np.pi * x) ** 2)
            for table, want in zip(tables, expected):
                assert np.array_equal(bits(table), bits(want))
                assert not table.flags.writeable
                with pytest.raises(ValueError):
                    table[0] = 1.0

    @pytest.mark.parametrize("cap", [32, 64])
    def test_node_cap_bounds_the_look_ahead(self, monkeypatch, cap):
        # delta0 = 1e-3 omega0 needs 512 nodes; under a lower cap it raises,
        # and no row is evaluated on more than MAX_NODES nodes on the way
        monkeypatch.setattr(gate, "MAX_NODES", cap)
        node_counts = []

        def counting(omega_minus, e_minus, blockade):
            node_counts.append(np.shape(omega_minus)[-1])
            return adiabatic_energies(omega_minus, e_minus, blockade)

        monkeypatch.setattr(gate, "adiabatic_energies", counting)
        omega0 = TWO_PI * 0.5
        for delta0 in (1e-3 * omega0, np.geomspace(1e-3 * omega0, 50 * omega0, 40)):
            node_counts.clear()
            with pytest.raises(ToleranceFailure):
                gate._accumulated_phases(omega0, delta0, 60.0, REF_BLOCKADE)
            # every call after the first covers a subset of the rows before it
            assert sum(node_counts) == cap

    def test_node_cap_raises(self, monkeypatch):
        # delta0 = 1e-3 omega0 needs 512 nodes; a cap of 64 must not return
        # the unconverged sums
        monkeypatch.setattr(gate, "MAX_NODES", 64)
        p = PulseShape(TWO_PI * 0.5, 1e-3 * TWO_PI * 0.5, 60.0)
        with pytest.raises(ToleranceFailure):
            entangling_phase(p, REF_BLOCKADE)
        with pytest.raises(ToleranceFailure):
            phase_trace(p, REF_BLOCKADE)
        # the reference design converges on 64 nodes
        entangling_phase(reference_pulse(), REF_BLOCKADE)


class TestDesignCache:
    """One converged integral per design point, shared by Brent and the design."""

    def test_hit_equals_a_fresh_integral_and_is_read_only(self):
        p = reference_pulse()
        args = (p.omega0, p.delta0, p.tau, REF_BLOCKADE)
        first = gate._design_phases(*args)
        hit = gate._design_phases(*args)
        assert hit is first
        for cached, fresh in zip(hit, gate._accumulated_phases(*args)):
            assert cached.shape == fresh.shape
            assert np.array_equal(bits(cached), bits(fresh))
            with pytest.raises(ValueError):
                cached[(0,) * cached.ndim] = 0.0
        assert entangling_phase(p, REF_BLOCKADE).phi_dd == hit[0][0, 0]

    def test_numpy_scalars_and_arrays_share_an_entry(self):
        p = reference_pulse()
        entry = gate._design_phases(p.omega0, p.delta0, p.tau, REF_BLOCKADE)
        for delta0 in (np.float64(p.delta0), np.array(p.delta0), np.array([p.delta0])):
            assert gate._design_phases(np.float64(p.omega0), delta0, np.array(p.tau),
                                       REF_BLOCKADE) is entry
        assert gate._root_integral.cache_info().currsize == 1
        one = entangling_phase(PulseShape(p.omega0, np.array([p.delta0]), p.tau), REF_BLOCKADE)
        design = entangling_phase(p, REF_BLOCKADE)
        assert (one.phi_dd, one.phi_de, one.phi_ent) == (design.phi_dd, design.phi_de,
                                                         design.phi_ent)

    def test_design_at_the_root_reuses_brents_integral(self, monkeypatch):
        calls = []

        def counting(omega_minus, e_minus, blockade):
            calls.append(np.size(omega_minus))
            return adiabatic_energies(omega_minus, e_minus, blockade)

        monkeypatch.setattr(gate, "adiabatic_energies", counting)
        delta0 = optimize_pulse(TWO_PI * 0.5, 60.0, REF_BLOCKADE)
        assert calls
        calls.clear()
        p = PulseShape(TWO_PI * 0.5, delta0, 60.0)
        design, trace = entangling_phase(p, REF_BLOCKADE), phase_trace(p, REF_BLOCKADE)
        assert calls == []
        # and they have the bits of integrating the root anew
        gate._root_integral.cache_clear()
        fresh = entangling_phase(p, REF_BLOCKADE)
        assert bits([design.phi_dd, design.phi_de, design.phi_ent]).tolist() == \
            bits([fresh.phi_dd, fresh.phi_de, fresh.phi_ent]).tolist()
        for got, want in zip(trace, phase_trace(p, REF_BLOCKADE)):
            assert np.array_equal(bits(got), bits(want))
        assert calls


class TestGateUnitary:
    def test_canonical_cz(self):
        u = gate_unitary(np.pi, 0.0)
        assert np.allclose(u, np.diag([1, 1, 1, -1]), atol=1e-15)

    def test_pure_local_phases_factorize(self):
        phi = 0.7321
        u = gate_unitary(0.0, phi)
        single = np.diag([1.0, np.exp(1j * phi)])
        assert np.allclose(u, np.kron(single, single), atol=1e-15)

    def test_local_phase_stripping_yields_perfect_cz(self):
        delta0 = optimize_pulse(TWO_PI * 0.5, 60.0, REF_BLOCKADE)
        design = entangling_phase(PulseShape(TWO_PI * 0.5, delta0, 60.0), REF_BLOCKADE)
        single = np.diag([1.0, np.exp(-1j * design.phi_de)])
        stripped = np.kron(single, single) @ design.unitary
        cz = np.diag([1, 1, 1, -1])
        fidelity = abs(np.trace(stripped @ cz.conj().T)) / 4
        assert fidelity == pytest.approx(1.0, abs=1e-9)


class TestOptimizePulse:
    def test_recovers_reference_detuning(self):
        delta0 = optimize_pulse(TWO_PI * 0.5, 60.0, REF_BLOCKADE)
        assert delta0 / TWO_PI == pytest.approx(0.639, rel=0.02)

    def test_result_hits_target_phase(self):
        delta0 = optimize_pulse(TWO_PI * 0.5, 60.0, REF_BLOCKADE)
        design = entangling_phase(PulseShape(TWO_PI * 0.5, delta0, 60.0), REF_BLOCKADE)
        assert abs(design.phi_dd - 2 * design.phi_de - np.pi) < 1e-6

    def test_zero_rabi_is_flat(self):
        with pytest.raises(NoRoot):
            optimize_pulse(0.0, 60.0, REF_BLOCKADE)

    def test_no_sign_change(self):
        # without blockade phi_ent is 0 at every delta0, never pi
        assert entangling_phase(reference_pulse(), 0.0).phi_ent == 0.0
        with pytest.raises(NoRoot):
            optimize_pulse(TWO_PI * 0.5, 60.0, 0.0)

    @staticmethod
    def check_scan_and_bracket(monkeypatch, omega0_mhz, tau, b_mhz, bracket_entries):
        """optimize_pulse's light-shift calls are the scan's and then bracket_entries.

        The ends it hands to Brent are Python floats with the bits of
        entangling_phase there, each converged on 32 nodes, or on 64 nodes
        with its odd 32 in bracket_entries.
        """
        entries, ends = [], []

        def counting(omega_minus, e_minus, blockade):
            entries.append(np.size(omega_minus))
            return adiabatic_energies(omega_minus, e_minus, blockade)

        def record_ends(f, a, b, fa, fb):  # stands in for the polish
            ends.append((a, b, fa, fb))
            return a, 0.0

        monkeypatch.setattr(gate, "adiabatic_energies", counting)
        monkeypatch.setattr(gate, "_brent", record_ends)
        omega0, blockade = TWO_PI * omega0_mhz, TWO_PI * b_mhz
        optimize_pulse(omega0, tau, blockade)
        assert entries == [40 * 32] + bracket_entries
        (a, b, fa, fb), = ends
        assert {type(v) for v in (a, b, fa, fb)} == {float}
        nodes = []
        for delta0, value in ((a, fa), (b, fb)):
            design = entangling_phase(PulseShape(omega0, delta0, tau), blockade)
            assert bits(value) == bits(design.phi_dd - 2.0 * design.phi_de - np.pi)
            nodes.append(gate._design_phases(omega0, delta0, tau, blockade)[1].shape[-1])
        assert sum(nodes) == 2 * 32 + sum(bracket_entries)

    def test_scan_stays_on_the_look_ahead(self, monkeypatch):
        # the 40 scan rows take one 32-node call, where their signs settle;
        # the bracket converges from its rows' columns of it, and Brent starts
        # from the bracket's converged values. At the reference design one end
        # needs 64 nodes and adds their odd 32
        self.check_scan_and_bracket(monkeypatch, 0.5, 60.0, 2.5, [32])

    @pytest.mark.parametrize("omega0_mhz, tau, b_mhz, bracket_entries", [
        (0.285, 142.8, 1.44, []),  # both ends converge on 32 nodes: no call of their own
        (0.234, 24.4, 4.03, [2 * 32]),  # both ends converge on 64 nodes
    ])
    def test_bracket_ends_on_32_or_64_nodes(self, monkeypatch, omega0_mhz, tau, b_mhz,
                                            bracket_entries):
        self.check_scan_and_bracket(monkeypatch, omega0_mhz, tau, b_mhz, bracket_entries)

    @pytest.mark.parametrize("omega0_mhz, tau, b_mhz, no_root", [
        (0.051, 68.1, 2.84, False),  # scan rows settle on 32, 64, 128 and 256 nodes
        (0.05, 5.0, 2.5, True),  # no sign change
    ])
    def test_scan_keeps_the_roots_of_a_64_node_look_ahead(self, monkeypatch, omega0_mhz, tau,
                                                         b_mhz, no_root):
        # scan rows whose sign does not settle on the 32-node call add odd
        # nodes (test_ladder_bookkeeping_equals_numpy_levels counts them on
        # the first design); the root, or the NoRoot text, is that of a scan
        # whose first call covers 64 nodes
        omega0, blockade = TWO_PI * omega0_mhz, TWO_PI * b_mhz

        def outcome():
            gate._root_integral.cache_clear()
            try:
                return bits(optimize_pulse(omega0, tau, blockade))
            except NoRoot as exc:
                return str(exc)

        got = outcome()
        assert isinstance(got, str) is no_root
        look_ahead = gate._look_ahead
        monkeypatch.setattr(gate, "_look_ahead",
                            lambda omega0, delta0, blockade, n=64: look_ahead(omega0, delta0,
                                                                               blockade))
        assert outcome() == got

    @pytest.mark.parametrize("b_mhz", [0.5, 2.5, 10.0])
    def test_settled_signs_hold_converged(self, b_mhz):
        # over the corners of the design space, every scan row stopped by
        # its sign has the sign of its converged phi_ent - pi
        stopped_rows = 0
        for omega0 in TWO_PI * np.array([0.1, 0.5, 1.0]):
            grid = np.geomspace(1e-3 * omega0, 50 * omega0, 40)
            for tau in (20.0, 60.0, 120.0):
                early, _ = gate._accumulated_phases(omega0, grid, tau, TWO_PI * b_mhz, np.pi)
                full, _ = gate._accumulated_phases(omega0, grid, tau, TWO_PI * b_mhz)
                stopped = np.any(bits(early) != bits(full), axis=0)
                signs = [np.sign(phi[0] - 2.0 * phi[1] - np.pi)[stopped] for phi in (early, full)]
                assert np.array_equal(*signs)
                stopped_rows += stopped.sum()
        assert stopped_rows >= 9 * 20

    def test_node_cap_spares_settled_scan_rows(self, monkeypatch):
        # the scan's smallest delta0 need 512 nodes, but their signs settle
        # within 64; the bracket's rows converge on 64 and not on 32
        args = (TWO_PI * 0.5, 60.0, REF_BLOCKADE)
        root = optimize_pulse(*args)
        monkeypatch.setattr(gate, "MAX_NODES", 64)
        assert bits(optimize_pulse(*args)) == bits(root)
        monkeypatch.setattr(gate, "MAX_NODES", 32)
        with pytest.raises(ToleranceFailure):
            optimize_pulse(*args)

    def test_sign_change_gone_once_converged_raises(self, monkeypatch):
        # a settled sign that the converged values contradict must not reach Brent
        ladder = gate._accumulated_phases

        def false_change(omega0, delta0, tau, blockade, target=None, ahead=None):
            phi, vals = ladder(omega0, delta0, tau, blockade, target, ahead)
            if target is not None:  # phi_ent - pi = +1, -1 on the first two rows
                phi[0, :2] = 2.0 * phi[1, :2] + np.pi + np.array([1.0, -1.0])
            return phi, vals

        monkeypatch.setattr(gate, "_accumulated_phases", false_change)
        with pytest.raises(ToleranceFailure, match="once converged"):
            optimize_pulse(TWO_PI * 0.5, 60.0, REF_BLOCKADE)


class TestDiagnostics:
    def test_reference_pulse_is_adiabatic(self):
        assert adiabaticity_ratio(reference_pulse(), REF_BLOCKADE) > 3.0

    def test_adiabaticity_ratio_refuses_negative_blockade(self):
        # only at B < 0 can a |DD> gap be the smaller one
        p = reference_pulse()
        for blockade in (-1.0, -p.delta0, -1e-300, np.nan):
            with pytest.raises(DomainError, match="blockade >= 0"):
                adiabaticity_ratio(p, blockade)

    def test_adiabaticity_ratio_keeps_the_closed_form_ratios_bits(self):
        # with E_- > 0 and B >= 0 the closed-form |DD> gap was never the
        # smaller, so dropping it leaves every ratio's bits
        ratios = [(adiabaticity_ratio(p, b), ratio_with_closed_form_gap(p, b))
                  for p, b in gap_ensemble()]
        assert np.array_equal(*(bits(r) for r in zip(*ratios)))

    def test_exact_dd_gap_is_not_below_the_de_gap(self):
        # the premise on the exact 3x3 block: its gap lam_1 - lam_0 lies at or
        # above the |DE> gap sqrt(E_-^2 + Omega^2), and equals it at B = 0
        for p, b in gap_ensemble():
            om, e = gate._pulse(np.linspace(0.0, p.tau, 401), p)
            c, zero = om / np.sqrt(2.0), np.zeros_like(om)
            blocks = np.stack([np.stack([zero, c, zero], -1),
                               np.stack([c, e, c], -1),
                               np.stack([zero, c, 2 * e + b], -1)], -2)
            lam = np.linalg.eigvalsh(blocks)
            gap_dd, gap_de = lam[:, 1] - lam[:, 0], np.sqrt(e**2 + om**2)
            assert np.all(gap_dd >= gap_de * (1.0 - 1e-12))
            if b == 0.0:
                assert np.all(np.abs(gap_dd - gap_de) <= 1e-12 * gap_de)

    def test_phase_trace_matches_quadrature_endpoint(self):
        p = reference_pulse()
        design = entangling_phase(p, REF_BLOCKADE)
        times, phi_dd, phi_de, phi_ent = phase_trace(p, REF_BLOCKADE)
        assert times[0] == 0.0 and times[-1] == p.tau
        assert phi_dd[-1] == pytest.approx(design.phi_dd, abs=1e-6)
        assert phi_de[-1] == pytest.approx(design.phi_de, abs=1e-6)
        assert phi_ent[-1] == pytest.approx(design.phi_ent, abs=1e-6)

    def test_phase_trace_against_direct_quadrature(self):
        # independent oracle: cumulative quad to a few interior times
        p = reference_pulse()
        times, phi_dd, _, _ = phase_trace(p, REF_BLOCKADE)

        def integrand(t):
            om, e = pulse_at(t, p)
            return adiabatic_energies(om, e, REF_BLOCKADE)[0]

        for i in (67, 133, 200):
            direct, _ = quad(integrand, 0, times[i], epsabs=1e-11, epsrel=1e-12)
            assert phi_dd[i] == pytest.approx(direct, abs=1e-7)


class TestWrapAngle:
    @given(st.floats(min_value=-1e6, max_value=1e6))
    def test_range(self, x):
        w = wrap_angle(x)
        assert -np.pi < w <= np.pi

    @given(st.floats(min_value=-100, max_value=100), st.integers(-50, 50))
    def test_periodicity(self, x, k):
        assert wrap_angle(x + 2 * np.pi * k) == pytest.approx(
            wrap_angle(x), abs=1e-9)

    def test_pi_maps_to_pi(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi
        assert wrap_angle(3 * np.pi) == pytest.approx(np.pi, abs=1e-12)
