"""Adaptive Dormand-Prince 5(4) integrator.

Self-contained embedded Runge-Kutta pair (Hairer, Norsett & Wanner, Solving
ODEs I, II.4-5) with PI-free step control, used by the ensemble simulator.
Works on complex state vectors. The seven stages of a step live in one
preallocated (7, n) array and are combined through the tableau matrix; the
last stage is the derivative at the 5th-order solution and becomes the first
stage of the next step (FSAL). Fixed-step mode runs the same loop and only
skips the accept test. Requested sample times are hit exactly by clipping
the step, which avoids carrying a dense interpolant.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StepUnderflow

# Dormand-Prince tableau. Row i of _A weights the earlier stages of stage i;
# row 6 is the FSAL 5th-order solution. _E is the 5th- minus 4th-order row.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_E = np.append(_A[6], 0.0) - _B4

_MIN_STEP = 1e-15  # s; adaptive control below this aborts the run
_MAX_ATTEMPTS = 10_000_000


def _error_norm(err, y0, y1, rtol, atol):
    sc = atol + rtol * np.maximum(np.abs(y0), np.abs(y1))
    return math.sqrt(float(np.mean(np.abs(err / sc) ** 2)))


def dormand_prince(f, t0, y0, t1, *, rtol=1e-8, atol=1e-10, max_step=None,
                   fixed_step=None, sample_times=None):
    """Integrate dy/dt = f(t, y) from t0 to t1.

    Returns (y_end, samples) where samples is an array of states at the
    requested sample_times (empty array when none were requested). The
    integrator never steps across a sample time. fixed_step disables error
    control and marches with the given step; max_step caps the adaptive step.

    Raises StepUnderflow if error control pushes the step below 1e-15 s.
    """
    y = np.asarray(y0, dtype=complex).copy()
    t = float(t0)
    t1 = float(t1)
    span = t1 - t
    if span < 0:
        raise ValueError("t1 must be >= t0")

    stops = [] if sample_times is None else [float(ts) for ts in sample_times]
    for ts in stops:
        if ts < t0 - 1e-18 or ts > t1 + abs(t1) * 1e-12 + 1e-18:
            raise ValueError("sample time outside integration span")

    hmax = span if max_step is None else min(max_step, span)
    # fixed step, or a cheap conservative start that control rescales fast
    h = min(hmax, span / 50.0 if fixed_step is None else fixed_step)
    k = np.empty((7, y.size), dtype=complex)
    if span > 0:
        k[0] = f(t, y)
    attempts = 0
    samples = []
    # the last stop is t1 itself; its "sample" is y_end and is dropped
    for stop in stops + [t1]:
        stop = min(stop, t1)
        while t < stop - 1e-18 * max(1.0, abs(stop)):
            attempts += 1
            if attempts > _MAX_ATTEMPTS:
                raise StepUnderflow("step budget exhausted before reaching t1")
            if fixed_step is None and h < _MIN_STEP:
                raise StepUnderflow(f"dt={h:.3e} s below 1e-15 s at t={t:.6e}")
            h_try = min(h, stop - t)
            # rows past i are stale (or unset): 0 * nan would poison the sum
            for i in range(1, 7):
                y_new = y + h_try * (_A[i, :i] @ k[:i])
                k[i] = f(t + _C[i] * h_try, y_new)
            if fixed_step is None:
                err = _error_norm(h_try * (_E @ k), y, y_new, rtol, atol)
                if not math.isfinite(err):
                    h = h_try / 10.0
                    continue
                if err > 1.0:
                    h = h_try * max(0.2, 0.9 * err ** -0.2)
                    continue
                grow = 5.0 if err == 0 else min(5.0, 0.9 * err ** -0.2)
                h = min(hmax, h_try * max(1.0, grow))
            t += h_try
            y = y_new  # rebound, never written in place: samples may hold it
            k[0] = k[6]  # FSAL
        samples.append(y)
    return y, np.array(samples[:-1])
