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
from rydgate import dynamics
from rydgate._dop853 import N_STAGES, dop853
from rydgate.errors import ToleranceFailure

TWO_PI = 2 * np.pi
SRC = Path(__file__).resolve().parents[1] / "src"


def scipy_dop853(fun, t0, t1, y0, rtol, atol, t_eval):
    """dop853's contract met by solve_ivp; it does not report accepted steps."""
    sol = solve_ivp(fun, (t0, t1), y0, method="DOP853", rtol=rtol, atol=atol, t_eval=t_eval)
    assert sol.success
    return sol.y.T, sol.nfev, 0


def gate_config(**overrides):
    params = dict(blockade=TWO_PI * 2.5, omega_z=TWO_PI * 1.0, eta=0.3, n_phonon_max=4,
                  pulse=PulseShape(TWO_PI * 0.5, TWO_PI * 0.639, 20.0))
    params.update(overrides)
    return SimConfig(**params)


class TestDop853:
    def test_reduced_gate_solve_equals_scipy(self, monkeypatch):
        cfg = gate_config()
        ours = entangling_phase_dynamic(cfg)
        monkeypatch.setattr(dynamics, "dop853", scipy_dop853)
        ref = entangling_phase_dynamic(cfg)
        for key in ("trace_dd", "trace_de"):
            assert np.array_equal(ours[key].states, ref[key].states)
            assert ours[key].nfev == ref[key].nfev
        for key in ("phi_dd_dynamic", "phi_de_dynamic", "phi_ent_dynamic"):
            assert ours[key] == ref[key]

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

    def test_rejected_steps_equal_scipy(self):
        # a narrow kick at t = 6 after a quiet stretch: steps grown on the
        # quiet part overshoot the kick and are rejected
        def rhs(t, y):
            return 1j * (0.1 + 40.0 * math.exp(-((t - 6.0) / 0.05) ** 2)) * y

        y0 = np.array([1.0, 0.5j], dtype=complex)
        t_eval = np.linspace(0.5, 10.0, 20)
        states, nfev, steps = dop853(rhs, 0.0, 10.0, y0, 1e-9, 1e-12, t_eval)
        ref = solve_ivp(rhs, (0.0, 10.0), y0, method="DOP853", rtol=1e-9, atol=1e-12,
                        t_eval=t_eval)
        assert np.array_equal(states, ref.y.T)
        assert nfev == ref.nfev
        # with one sample, nfev = 2 (start) + 12 per attempt + 3 (dense output)
        _, nfev_end, steps_end = dop853(rhs, 0.0, 10.0, y0, 1e-9, 1e-12, np.array([10.0]))
        assert steps_end == steps
        attempts, rest = divmod(nfev_end - 5, N_STAGES)
        assert rest == 0 and attempts > steps

    def test_tiny_rtol_raised_with_warning_as_in_scipy(self):
        def rhs(t, y):
            return -1j * (1.0 + t) * y

        y0 = np.array([1.0, 0.3j], dtype=complex)
        t_eval = np.array([0.5, 1.0])
        with pytest.warns(UserWarning, match="rtol"):
            states, nfev, _ = dop853(rhs, 0.0, 1.0, y0, 1e-16, 1e-18, t_eval)
        with pytest.warns(UserWarning, match="rtol"):
            ref = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853", rtol=1e-16, atol=1e-18,
                            t_eval=t_eval)
        assert np.array_equal(states, ref.y.T)
        assert nfev == ref.nfev

    def test_steps_reported_on_traces(self):
        dyn = entangling_phase_dynamic(gate_config(n_phonon_max=2))
        trace = dyn["trace_dd"]
        assert dyn["trace_de"].steps == trace.steps > 0
        assert trace.nfev >= 2 + N_STAGES * trace.steps

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("nan_from", [0.0, 8.0])
    def test_nan_drive_raises_tolerance_failure(self, nan_from):
        def drive(t):
            return (math.nan, math.nan) if t >= nan_from else (TWO_PI * 0.3, TWO_PI * 0.6)

        with pytest.raises(ToleranceFailure, match="step size"):
            evolve(gate_config(n_phonon_max=1), drive=drive)


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

    @pytest.mark.parametrize("b_mhz", [2.5, 3.0, 4.5])
    def test_optimize_pulse_root_equals_brentq(self, b_mhz):
        # the polish starts from the scan's end values instead of re-evaluating them
        omega0, tau, blockade = TWO_PI * 0.5, 60.0, TWO_PI * b_mhz

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
