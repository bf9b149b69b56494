"""Spans and work counters recorded around calls into rydgate's public functions.

Nothing inside the package is edited: `instrument` replaces each probed
function at every module attribute that holds it (the package namespace,
its defining module and every module that imported it by name), so a call
is seen whichever binding the caller resolves. `uninstall` puts the
originals back. Spans are kept in memory and written out when the run ends.
"""

import functools
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

# (defining module, function, span name). The first dotted part of a span
# name is its layer.
SPAN_PROBES = (
    ("rydgate.trap", "from_secular", "trap"),
    ("rydgate.trap", "equilibrium_geometry", "trap"),
    ("rydgate.trap", "secular_frequencies", "trap"),
    ("rydgate.modes", "build_hessian", "modes"),
    ("rydgate.modes", "diagonalize", "modes"),
    ("rydgate.dressing", "dress", "dressing"),
    ("rydgate.interactions", "dd_coefficients", "interactions"),
    ("rydgate.interactions", "dd_shift", "interactions"),
    ("rydgate.interactions", "lower_branch_shift", "interactions"),
    ("rydgate.interactions", "pair_potential_full", "interactions"),
    ("rydgate.gate", "optimize_pulse", "gate.optimize_pulse"),
    ("rydgate.gate", "entangling_phase", "gate.entangling_phase"),
    ("rydgate.gate", "phase_trace", "gate.phase_trace"),
    ("rydgate.gate", "adiabaticity_ratio", "gate.adiabaticity_ratio"),
    ("rydgate.dynamics", "entangling_phase_dynamic", "dynamics.entangling_phase_dynamic"),
    ("rydgate.dynamics", "evolve", "dynamics.evolve"),
    ("rydgate.dynamics", "loss_probability", "dynamics.postprocess"),
    ("rydgate.dynamics", "phonon_excitation", "dynamics.postprocess"),
    ("rydgate.config", "load_config", "cli.config"),
)

# Work counters, read per task; each belongs to the layer named by its first part.
COUNTERS = (
    "gate.energy_evals",        # calls to gate.adiabatic_energies
    "gate.energy_points",       # elements passed to them
    "dynamics.rhs_evals",       # calls to pulse_at as resolved in rydgate.dynamics
    "franck_condon.entries",    # overlap-matrix entries returned
    "franck_condon.truncation_warnings",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    task: int
    failed: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def self_times(spans):
    """Self time of each span: its duration minus the part its children cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, cursor = 0.0, span.start
        for lo, hi in sorted((spans[k].start, spans[k].end) for k in kids):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


class Tracer:
    """In-memory span recorder with named counters; single-threaded."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._open = []
        self.task = -1

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.task))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int, failed: bool = False):
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.failed = failed
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        failed = True
        try:
            yield idx
            failed = False
        finally:
            self.close(idx, failed)


def _span_wrapper(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _fc_wrapper(tracer, fn, alignment_tol, truncation_warning):
    """fc_matrix span named by the input geometry, counting entries and warnings."""

    @functools.wraps(fn)
    def wrapper(ground, excited, *args, **kwargs):
        diff = abs(ground.eigenvectors - excited.eigenvectors).max()
        kind = "aligned" if diff <= alignment_tol else "rotated"
        with tracer.span(f"franck_condon.{kind}"), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", truncation_warning)
            result = fn(ground, excited, *args, **kwargs)
        tracer.counters["franck_condon.entries"] += result.entries.size
        tracer.counters["franck_condon.truncation_warnings"] += sum(
            issubclass(w.category, truncation_warning) for w in caught)
        return result

    return wrapper


def _energy_counter(tracer, fn):
    @functools.wraps(fn)
    def wrapper(omega_minus, *args, **kwargs):
        tracer.counters["gate.energy_evals"] += 1
        tracer.counters["gate.energy_points"] += getattr(omega_minus, "size", 1)
        return fn(omega_minus, *args, **kwargs)

    return wrapper


def _call_counter(tracer, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counters[counter] += 1
        return fn(*args, **kwargs)

    return wrapper


class Instrumentation:
    """Installed probes; `uninstall` restores every replaced attribute."""

    def __init__(self):
        self._replaced = []  # (module, attribute, original)

    def _set(self, module, attr, wrapper):
        self._replaced.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def replace_everywhere(self, original, wrapper):
        for name, module in list(sys.modules.items()):
            if name != "rydgate" and not name.startswith("rydgate."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()


def instrument(tracer: Tracer) -> Instrumentation:
    """Install every probe of this file around the loaded rydgate modules."""
    from rydgate import dynamics, errors, franck_condon, gate

    inst = Instrumentation()
    for module_name, func, span_name in SPAN_PROBES:
        original = getattr(sys.modules[module_name], func)
        inst.replace_everywhere(original, _span_wrapper(tracer, original, span_name))
    inst.replace_everywhere(
        franck_condon.fc_matrix,
        _fc_wrapper(tracer, franck_condon.fc_matrix, franck_condon.ALIGNMENT_TOL,
                    errors.TruncationWarning))
    inst.replace_everywhere(gate.adiabatic_energies,
                            _energy_counter(tracer, gate.adiabatic_energies))
    # only the binding the dynamics right-hand side resolves: one call per RHS evaluation
    inst._set(dynamics, "pulse_at", _call_counter(tracer, dynamics.pulse_at, "dynamics.rhs_evals"))
    return inst
