"""The package's DOP853 and Brent ports against the scipy routines they copy.

Both ports promise the same floating-point operations in the same order as
scipy, so these tests ask for bitwise equality: the same states, RHS counts,
visited points and roots. scipy is a test dependency only; the last test
checks that importing the package does not load it.
"""

import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from rydgate import PulseShape, SimConfig, entangling_phase_dynamic, evolve, gate, optimize_pulse
from rydgate import _dop853, cli, dynamics
from rydgate._dop853 import N_STAGES, dop853
from rydgate.errors import ToleranceFailure

TWO_PI = 2 * np.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def scipy_solve(d0, d_det, r, drive, t0, t1, y0, rtol, atol, t_eval, drive_end):
    """solve_ivp on dop853's problem; with t_eval None, sol.t holds the accepted steps' ends.

    The right-hand side is the package's former closure, operation for
    operation, so bitwise equality with it shows that the linear stepper
    changed no floating-point operation.
    """
    def rhs(t, y):
        omega_minus, e_minus = drive(min(max(t, t0), drive_end))
        return (d0 + e_minus * d_det) * y + omega_minus * (r @ y)

    sol = solve_ivp(rhs, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol, t_eval=t_eval)
    assert sol.success
    return sol


def scipy_dop853(*args):
    """dop853's contract met by solve_ivp; it does not report accepted steps."""
    sol = scipy_solve(*args)
    return sol.y.T, sol.nfev, 0


def scipy_dop853_with_steps(d0, d_det, r, drive, t0, t1, y0, rtol, atol, t_eval, drive_end):
    """scipy_dop853 with the accepted steps, from a second solve returning one state per step."""
    args = (d0, d_det, r, drive, t0, t1, y0, rtol, atol)
    states, nfev, _ = scipy_dop853(*args, t_eval, drive_end)
    step_states, _, _ = scipy_dop853(*args, None, drive_end)
    return states, nfev, len(step_states) - 1


def assert_dop853_equals_scipy(args, t_eval, drive_end):
    """dop853 on args gives the states, RHS count and accepted steps of solve_ivp, bit for bit."""
    states, nfev, steps = dop853(*args, t_eval, drive_end)
    ref, ref_nfev, ref_steps = scipy_dop853_with_steps(*args, t_eval, drive_end)
    assert np.array_equal(states.view(np.uint64), np.ascontiguousarray(ref).view(np.uint64))
    assert (nfev, steps) == (ref_nfev, ref_steps)


def gate_config(**overrides):
    params = dict(blockade=TWO_PI * 2.5, omega_z=TWO_PI * 1.0, eta=0.3, n_phonon_max=4,
                  pulse=PulseShape(TWO_PI * 0.5, TWO_PI * 0.639, 20.0))
    params.update(overrides)
    return SimConfig(**params)


def assert_gate_solve_equals_scipy(cfg, monkeypatch):
    ours = entangling_phase_dynamic(cfg)
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "dop853", scipy_dop853)
        ref = entangling_phase_dynamic(cfg)
    for key in ("trace_dd", "trace_de"):
        assert np.array_equal(ours[key].states, ref[key].states)
        assert ours[key].nfev == ref[key].nfev
    for key in ("phi_dd_dynamic", "phi_de_dynamic", "phi_ent_dynamic"):
        assert ours[key] == ref[key]


# a damped two-level system with a narrow kick in E at t = 6 after a quiet
# stretch: steps grown on the quiet part overshoot the kick and are rejected.
# The gate's diagonals are imaginary, which makes (d0 + E d_det) * y exact
# in either operand order; the damping here makes the order count.
KICK_SYSTEM = (np.array([-0.02 - 0.1j, -0.01 - 0.3j]), np.array([-40j, -40j]),
               np.array([[0.0, -1j], [-1j, 0.0]]))


def kick_drive(t):
    return 0.2 * math.cos(0.3 * t), math.exp(-((t - 6.0) / 0.05) ** 2)


class TestDop853:
    def test_reduced_gate_solve_equals_scipy(self, monkeypatch):
        assert_gate_solve_equals_scipy(gate_config(), monkeypatch)

    @pytest.mark.parametrize("n_phonon_max, eta, tau", [(8, 0.5, 45.0), (4, 0.0, 20.0)])
    def test_gate_solve_equals_scipy_at_benchmark_corners(self, monkeypatch, n_phonon_max,
                                                          eta, tau):
        # the largest state and longest pulse of perfbench gate_dynamics, and
        # eta = 0, where the reduced blocks are smallest
        cfg = gate_config(n_phonon_max=n_phonon_max, eta=eta,
                          pulse=PulseShape(TWO_PI * 0.5, TWO_PI * 0.639, tau))
        assert_gate_solve_equals_scipy(cfg, monkeypatch)

    def test_piecewise_drive_with_breakpoints_equals_scipy(self, monkeypatch):
        cfg = gate_config(n_phonon_max=2, eta=0.5, n_output=31)

        def drive(t):  # jumps at the breakpoints, smooth in between
            level = 0.3 if t < 7.0 else (0.8 if t < 13.5 else 0.5)
            return TWO_PI * level * math.sin(0.2 * t) ** 2, TWO_PI * (0.9 - 0.03 * t)

        drive.breakpoints = (7.0, 13.5)
        ours = evolve(cfg, drive=drive)
        monkeypatch.setattr(dynamics, "dop853", scipy_dop853)
        ref = evolve(cfg, drive=drive)
        assert np.array_equal(ours.states, ref.states)
        assert ours.nfev == ref.nfev

    @pytest.mark.parametrize("kind", ["int", "float64", "clamped"])
    def test_drive_contract_equals_scipy(self, monkeypatch, kind):
        # drive(t) may return any real numbers: Python ints and numpy scalars
        # must give scipy's bits, as must the drive at stage times clamped to
        # just below a breakpoint
        seen = []

        def drive(t):
            seen.append(t)
            if kind == "int":
                return (2 if t < 7.0 else 1), (5 if t < 13.5 else 4)
            omega, e = TWO_PI * 0.5 * math.sin(0.2 * t) ** 2, TWO_PI * (0.9 - 0.03 * t)
            if kind == "float64":
                return np.float64(omega), np.float64(e)
            return omega * (1.0 if t < 7.0 else 1.6), e

        if kind != "float64":
            drive.breakpoints = (7.0, 13.5)
        cfg = gate_config(n_phonon_max=2, eta=0.5, n_output=31)
        ours = evolve(cfg, drive=drive)
        if kind != "float64":  # each segment's last step samples the drive at its clamp
            assert {math.nextafter(7.0, 0.0), math.nextafter(13.5, 0.0)} <= set(seen)
        monkeypatch.setattr(dynamics, "dop853", scipy_dop853_with_steps)
        ref = evolve(cfg, drive=drive)
        assert np.array_equal(ours.states.view(np.uint64), ref.states.view(np.uint64))
        assert (ours.nfev, ours.steps) == (ref.nfev, ref.steps)
        assert ours.steps > 0

    @pytest.mark.parametrize("n_output, eta", [(2, 0.5), (201, 0.0), (201, 0.5), (5000, 0.0),
                                               (5000, 0.5)])
    def test_gate_solve_over_output_grids_equals_scipy(self, monkeypatch, n_output, eta):
        # 432 steps at eta = 0.5: with 2 output times every step but the last
        # passes none, with 201 a step passes none or one, with 5000 about 12
        cfg = gate_config(eta=eta, n_output=n_output)
        ours = entangling_phase_dynamic(cfg)
        monkeypatch.setattr(dynamics, "dop853", scipy_dop853_with_steps)
        ref = entangling_phase_dynamic(cfg)
        for key in ("trace_dd", "trace_de"):
            assert np.array_equal(ours[key].states.view(np.uint64), ref[key].states.view(np.uint64))
            assert (ours[key].nfev, ours[key].steps) == (ref[key].nfev, ref[key].steps)
        assert ours["trace_dd"].steps > _dop853.CHUNK

    def test_piecewise_drive_over_many_output_times_equals_scipy(self, monkeypatch):
        cfg = gate_config(n_phonon_max=2, eta=0.5, n_output=5000)

        def drive(t):
            level = 0.3 if t < 7.0 else (0.8 if t < 13.5 else 0.5)
            return TWO_PI * level * math.sin(0.2 * t) ** 2, TWO_PI * (0.9 - 0.03 * t)

        drive.breakpoints = (7.0, 13.5)
        ours = evolve(cfg, drive=drive)
        monkeypatch.setattr(dynamics, "dop853", scipy_dop853_with_steps)
        ref = evolve(cfg, drive=drive)
        assert np.array_equal(ours.states.view(np.uint64), ref.states.view(np.uint64))
        assert (ours.nfev, ours.steps) == (ref.nfev, ref.steps)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_output_steps_around_the_chunk_size_equal_scipy(self, extra):
        # the first CHUNK + extra steps pass one output time each, at their
        # midpoints: a chunk one row short, one full chunk, and one row over
        args = (*KICK_SYSTEM, kick_drive, 0.0, 10.0, np.array([1.0, 0.5j]), 1e-9, 1e-12)
        ends = scipy_solve(*args, None, 10.0).t
        k = _dop853.CHUNK + extra
        assert len(ends) > k + 1
        assert_dop853_equals_scipy(args, 0.5 * (ends[:k] + ends[1:k + 1]), 10.0)

    def test_zero_one_and_many_output_times_per_step_equal_scipy(self):
        # steps 5-40 pass one time each, across a chunk's end, steps 43-46
        # seven each, and the others none
        args = (*KICK_SYSTEM, kick_drive, 0.0, 10.0, np.array([1.0, 0.5j]), 1e-9, 1e-12)
        ends = scipy_solve(*args, None, 10.0).t
        assert len(ends) > 48 and 36 > _dop853.CHUNK
        one = 0.5 * (ends[5:41] + ends[6:42])
        many = np.concatenate([np.linspace(a, b, 9)[1:-1] for a, b in zip(ends[43:47], ends[44:48])])
        assert_dop853_equals_scipy(args, np.concatenate([one, many]), 10.0)

    def test_output_rows_do_not_alias_the_chunk_buffers(self, monkeypatch):
        # overwriting every array the dense output read or wrote in the solve
        # leaves the returned states as they were
        seen = []

        def recording(K, y_old, y, *rest):
            seen.extend((K, y_old, y))
            dense_output(K, y_old, y, *rest)

        dense_output = _dop853._dense_output
        monkeypatch.setattr(_dop853, "_dense_output", recording)
        args = (*KICK_SYSTEM, kick_drive, 0.0, 10.0, np.array([1.0, 0.5j]), 1e-9, 1e-12)
        states, _, _ = dop853(*args, np.linspace(0.1, 10.0, 300), 10.0)
        kept = states.copy()
        assert len(seen) >= 6  # two chunks or more
        for buffer in seen:
            assert not np.shares_memory(states, buffer)
            buffer[...] = np.nan
        assert np.array_equal(states, kept)

    def test_rejected_steps_equal_scipy(self):
        y0 = np.array([1.0, 0.5j], dtype=complex)
        t_eval = np.linspace(0.5, 10.0, 20)
        args = (*KICK_SYSTEM, kick_drive, 0.0, 10.0, y0, 1e-9, 1e-12)
        states, nfev, steps = dop853(*args, t_eval, 10.0)
        ref, ref_nfev, _ = scipy_dop853(*args, t_eval, 10.0)
        assert np.array_equal(states, ref)
        assert nfev == ref_nfev
        # with one sample, nfev = 2 (start) + 12 per attempt + 3 (dense output)
        _, nfev_end, steps_end = dop853(*args, np.array([10.0]), 10.0)
        assert steps_end == steps
        attempts, rest = divmod(nfev_end - 5, N_STAGES)
        assert rest == 0 and attempts > steps

    def test_tiny_rtol_raised_with_warning_as_in_scipy(self):
        # the floor stays for direct callers; SimConfig rejects such an rtol
        d0, d_det = np.zeros(2, dtype=complex), np.array([-1j, -1j])
        r = np.array([[0.0, -0.5j], [-0.5j, 0.0]])
        y0 = np.array([1.0, 0.3j], dtype=complex)
        args = (d0, d_det, r, lambda t: (0.1, 1.0 + t), 0.0, 1.0, y0, 1e-16, 1e-18,
                np.array([0.5, 1.0]), 1.0)
        with pytest.warns(UserWarning, match="rtol"):
            states, nfev, _ = dop853(*args)
        with pytest.warns(UserWarning, match="rtol"):
            ref, ref_nfev, _ = scipy_dop853(*args)
        assert np.array_equal(states, ref)
        assert nfev == ref_nfev

    def test_buffers_are_not_shared_between_calls(self):
        # the stepper's returned states are its own array; y0 is only read
        y0 = np.array([1.0, 0.5j], dtype=complex)
        first, _, _ = dop853(*KICK_SYSTEM, kick_drive, 0.0, 10.0, y0, 1e-9, 1e-12,
                             np.linspace(0.5, 10.0, 20), 10.0)
        kept = first.copy()
        second, _, _ = dop853(*KICK_SYSTEM, kick_drive, 0.0, 4.0, y0[::-1].copy(), 1e-7, 1e-10,
                              np.linspace(0.5, 4.0, 20), 4.0)
        assert np.array_equal(y0, [1.0, 0.5j])
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert first.base is None and second.base is None

    def test_steps_reported_on_traces(self):
        dyn = entangling_phase_dynamic(gate_config(n_phonon_max=2))
        trace = dyn["trace_dd"]
        assert dyn["trace_de"].steps == trace.steps > 0
        assert trace.nfev >= 2 + N_STAGES * trace.steps

    def test_second_solve_leaves_first_result_unchanged(self):
        first = entangling_phase_dynamic(gate_config(n_phonon_max=2))
        kept = {key: first[key].states.copy() for key in ("trace_dd", "trace_de")}
        phases = {key: first[key] for key in first if key.startswith("phi")}
        second = entangling_phase_dynamic(gate_config(n_phonon_max=2, eta=0.1, n_output=51))
        for key, states in kept.items():
            assert np.array_equal(first[key].states, states)
            assert not np.shares_memory(first[key].states, second[key].states)
        assert {key: first[key] for key in phases} == phases

    def test_cli_evolve_files_equal_scipy_solve(self, tmp_path, monkeypatch):
        cfg = str(SRC.parent / "configs" / "gate_dynamics.cfg")
        ours, ref = tmp_path / "ours.csv", tmp_path / "scipy.csv"
        assert cli.main(["evolve", "--config", cfg, "--output", str(ours)]) == 0
        monkeypatch.setattr(dynamics, "dop853", scipy_dop853)
        assert cli.main(["evolve", "--config", cfg, "--output", str(ref)]) == 0
        assert ours.read_bytes() == ref.read_bytes()
        summary = Path(f"{ours}.summary.json").read_bytes()
        assert summary == Path(f"{ref}.summary.json").read_bytes()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("nan_from", [0.0, 8.0])
    def test_nan_drive_raises_tolerance_failure(self, nan_from):
        def drive(t):
            return (math.nan, math.nan) if t >= nan_from else (TWO_PI * 0.3, TWO_PI * 0.6)

        with pytest.raises(ToleranceFailure, match="step size"):
            evolve(gate_config(n_phonon_max=1), drive=drive)

    def test_attempt_cap_raises_tolerance_failure(self, monkeypatch):
        # a fault that keeps steps small but above 10 ulp must fail, not hang;
        # with one sample at t1, nfev = 2 + 12 per attempt + 3 (dense output)
        args = (*KICK_SYSTEM, kick_drive, 0.0, 10.0, np.array([1.0, 0.5j]), 1e-9, 1e-12,
                np.array([10.0]), 10.0)
        states, nfev, steps = dop853(*args)
        attempts = (nfev - 5) // N_STAGES
        assert attempts > steps
        monkeypatch.setattr(_dop853, "MAX_ATTEMPTS", attempts)
        capped, _, _ = dop853(*args)
        assert np.array_equal(capped, states)
        monkeypatch.setattr(_dop853, "MAX_ATTEMPTS", attempts - 1)
        with pytest.raises(ToleranceFailure, match="attempts"):
            dop853(*args)
        monkeypatch.setattr(_dop853, "MAX_ATTEMPTS", 3)
        with pytest.raises(ToleranceFailure, match="attempts"):
            evolve(gate_config(n_phonon_max=1))


class TestBrent:
    CASES = {
        "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        "step": (lambda x: math.copysign(1.0, x - 1.0 / 3.0), 0.0, 1.0),
        "steep": (lambda x: math.tanh(20.0 * (x - 0.7)) + 0.1, 0.0, 3.0),
    }

    @staticmethod
    def branches_taken(f, a, b):
        """Run _brent and return which of its marked branches executed."""
        source, first = inspect.getsourcelines(gate._brent)
        marked = {}  # line after a '# <branch>' comment -> branch
        for i, line in enumerate(source):
            for tag in ("interpolate", "extrapolate", "bisect"):
                if f"# {tag}" in line:
                    marked[first + i + 1] = tag
        hit = set()

        def on_line(frame, event, arg):
            if event == "line" and frame.f_lineno in marked:
                hit.add(marked[frame.f_lineno])
            return on_line

        sys.settrace(lambda frame, event, arg:
                     on_line if frame.f_code is gate._brent.__code__ else None)
        try:
            gate._brent(f, a, b, f(a), f(b))
        finally:
            sys.settrace(None)
        return hit

    @pytest.mark.parametrize("name", CASES)
    def test_same_points_and_root_as_brentq(self, name):
        f, a, b = self.CASES[name]
        ours, theirs = [], []
        root, f_root = gate._brent(lambda x: ours.append(x) or f(x), a, b, f(a), f(b))
        ref = brentq(lambda x: theirs.append(x) or f(x), a, b, xtol=gate.BRENT_XTOL,
                     rtol=gate.BRENT_RTOL, maxiter=gate.BRENT_MAX_ITER)
        assert root == ref
        assert ours == theirs[2:]  # brentq first evaluates the two ends
        assert f_root == f(root)

    def test_cases_reach_every_branch(self):
        reached = set()
        for f, a, b in self.CASES.values():
            reached |= self.branches_taken(f, a, b)
        assert reached == {"interpolate", "extrapolate", "bisect"}

    @pytest.mark.parametrize("b_mhz", [1.0, 2.5, 3.0, 4.5, 10.0])
    def test_optimize_pulse_root_equals_brentq(self, b_mhz):
        # brentq on the fully converged scan: the scan settles far rows by
        # sign only, and the polish starts from the bracket's converged end
        # values; at the reference (omega0, tau) and the corners around it
        blockade = TWO_PI * b_mhz
        for omega0_mhz, tau in [(0.5, 60.0), (0.3, 40.0), (0.3, 80.0), (0.7, 40.0), (0.7, 80.0)]:
            omega0 = TWO_PI * omega0_mhz

            def objective(d):
                phi, _ = gate._accumulated_phases(omega0, d, tau, blockade)
                return float(phi[0, 0] - 2.0 * phi[1, 0] - np.pi)

            grid = np.geomspace(1e-3 * omega0, 50.0 * omega0, 40)
            values = [objective(d) for d in grid]
            i = next(k for k in range(39) if values[k] * values[k + 1] < 0.0)
            ref = brentq(objective, grid[i], grid[i + 1], xtol=gate.BRENT_XTOL,
                         rtol=gate.BRENT_RTOL)
            assert optimize_pulse(omega0, tau, blockade) == ref


def test_import_loads_no_scipy():
    code = ("import sys, rydgate, rydgate.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
