"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On the small shared machines this benchmark runs on, the speed of the
same computation drifts by up to a third over tens of seconds, for
Python bytecode and BLAS alike (other tenants, clock changes). A fixed
reference kernel that imports nothing from rydgate is therefore timed
between tasks, and every task time is divided by the kernel's slowdown
against REFERENCE_S, the kernel's time on a quiet machine. Reported times
are thus "reference-speed" times: a change to rydgate moves them in full,
while a slow spell of the machine moves task and kernel alike and cancels.
Raw, unscaled figures are kept next to the results.
"""

import time

import numpy as np

REFERENCE_S = 0.010   # kernel seconds on a quiet 2-core x86-64 machine

_rng = np.random.default_rng(20130621)
_H = _rng.standard_normal((54, 54)) + 1j * _rng.standard_normal((54, 54))
_Y = _rng.standard_normal(54) + 0j
_M = _rng.standard_normal((120, 120))
_Q = [_rng.standard_normal((6, 400)) for _ in range(4)]
_W = _rng.standard_normal(400)


def kernel() -> float:
    """Work shaped like the program's: small-array numpy calls from Python, an
    unoptimized 5-operand einsum, BLAS and a bytecode loop."""
    acc = 0.0
    for i in range(400):
        phase = np.pi * np.asarray(1e-3 * i) / 60.0
        omega = 0.5 * np.sin(phase) ** 2
        energy = 0.6 * (0.5 + np.cos(phase) ** 2)
        acc += float((-1j * (_H @ _Y * energy + omega * _Y))[0].real)
    acc += float(np.einsum("an,bn,cn,dn,n->abcd", *_Q, _W)[0, 0, 0, 0])
    for _ in range(4):
        acc += float((_M @ _M)[0, 0])
    total = 0
    for i in range(20000):
        total += i * i
    return acc + total


def slowdown(repeats: int = 1) -> float:
    """Current machine slowdown: the fastest of `repeats` kernel runs over REFERENCE_S."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best / REFERENCE_S
