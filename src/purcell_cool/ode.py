"""Dormand-Prince 5(4) integrator with an exact diagonal linear part.

Self-contained embedded Runge-Kutta pair (Hairer, Norsett & Wanner, Solving
ODEs I, II.4-6) with PI-free step control, used by the ensemble simulator.
It integrates dy/dt = L y + f(t, y) for a diagonal L given by its entries
(one per column of the state): the linear part is advanced exactly and the
pair integrates only f (Lawson's integrating factor; Lawson, SIAM J. Numer.
Anal. 4, 372 (1967); Hochbruck & Ostermann, Acta Numerica 19, 209 (2010)).
A step runs in the interaction frame of its start: each k_j = f(t + c_j h,
Y_j) is stored as K_j = e^{-c_j hL} k_j, stage i is Y_i = e^{c_i hL} (y +
h sum_j a_ij K_j) and the error estimate is e^{hL} h sum_j e_j K_j. So each
sum is one real-coefficient matrix product over the whole state, and L
enters through one row of factors e^{c hL} (and one of e^{-c hL}) per
nonzero node, built from the distinct entries of L; columns past the last
nonzero entry of L need no factors. With L = 0 the step is classical DP5.
The step is capped at h max(-Re L) <= 600, in fixed-step mode too, so that
no factor e^{c h |Re L|} overflows.

Works on complex states of any shape; a 2-D state (R, m) is R independent
rows advanced with one shared step. The state and the seven stages of a
step live in one preallocated (8,) + shape array; the last stage is the
derivative at the 5th-order solution and becomes the first stage of the
next step (FSAL). The error norm is the RMS of each row, maximised over
rows, so every row meets its own tolerance; with observe, a row's norm is
at least the RMS over its observed entries, which a wide state would
otherwise dilute. Fixed-step mode runs the same loop and only skips the
accept test. Steps are not clipped to the requested sample times:
observe(y) at a sample inside a step is e^{theta hL} (y + h sum_j b_j(theta)
K_j), the DP5 continuous extension (Hairer's contd5 weights b_j) in the
frame; a sample at t0 or t1 is the state itself.
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
_B5 = np.append(_A[6], 0.0)
_E = _B5 - _B4
# continuous extension (Hairer's contd5): the theta^2 (1 - theta)^2 term
_D5 = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                -10690763975 / 1880347072, 701980252875 / 199316789632,
                -1453857185 / 822651844, 69997945 / 29380423])

# every nonzero node once: stage 6 and the error estimate share c = 1
_NODES = _C[1:6]

_MIN_STEP = 1e-15  # s; adaptive control below this aborts the run
_MAX_ATTEMPTS = 10_000_000
_MAX_DECAY = 600.0  # cap on h max(-Re L): e^{600} ~ 4e260 is finite


def _rms_rows(scaled, rows):
    sq = np.abs(scaled.reshape(rows, -1)) ** 2
    return np.sqrt(np.add.reduce(sq, axis=-1) / sq.shape[-1])


def _error_norm(err, y0, y1, rtol, atol, observe=None):
    """Largest per-row RMS of the scaled error (the plain RMS for 1-D).

    With observe, each row's norm is the larger of its RMS and the RMS of
    observe(scaled error) on that row, so the observed entries meet the
    tolerance however wide the rest of the state is.
    """
    scaled = err / (atol + rtol * np.maximum(np.abs(y0), np.abs(y1)))
    rows = scaled.shape[0] if scaled.ndim > 1 else 1
    norm = _rms_rows(scaled, rows)
    if observe is not None:
        norm = np.maximum(norm, _rms_rows(np.asarray(observe(scaled)), rows))
    return float(norm.max())


def _dense_weights(theta):
    """b_j(theta), shape (len(theta), 7): y(t + theta h) = y + h sum_j b_j k_j."""
    th = np.asarray(theta, dtype=float)[:, None]
    first, last = np.eye(7)[[0, 6]]
    return (th * _B5 + th * (1 - th) * (first - _B5)
            + th**2 * (1 - th) * (2 * _B5 - first - last)
            + th**2 * (1 - th) ** 2 * _D5)


def _dense(theta, h, y, k, lin):
    """Observed state at t + theta h from the observed y, frame stages k
    (7, ...) and linear part lin of one step."""
    frame = y + h * np.tensordot(_dense_weights(theta), k, axes=1)
    return np.exp(np.multiply.outer(theta * h, lin)) * frame


def dormand_prince(f, t0, y0, t1, *, linear=None, rtol=1e-8, atol=1e-10,
                   fixed_step=None, sample_times=None, observe=None):
    """Integrate dy/dt = L y + f(t, y) from t0 to t1.

    y0 is 1-D, or 2-D with one independent system per row; f returns an
    array of the shape of y. linear holds the diagonal of L, one entry per
    column of y (None for L = 0); its real parts should not be positive.
    Returns (y_end, samples) where samples[j] is observe(y) at
    sample_times[j] (the whole state when observe is None), stored in one
    buffer of len(sample_times) entries (empty when none were requested).
    sample_times must not decrease. observe must pick entries of the state
    (a slice or index), keeping the rows of a 2-D state on its first axis.
    fixed_step disables error control and marches with the given step, or
    with 600 / max(-Re L) where that is shorter.

    Raises StepUnderflow if error control pushes the step below 1e-15 s.
    """
    y = np.asarray(y0, dtype=complex).copy()
    t = float(t0)
    t1 = float(t1)
    span = t1 - t
    if span < 0:
        raise ValueError("t1 must be >= t0")
    seen = (lambda v: v) if observe is None else observe

    stops = np.array([] if sample_times is None else sample_times, dtype=float)
    if stops.size and (stops.min() < t0 - 1e-18
                       or stops.max() > t1 + abs(t1) * 1e-12 + 1e-18):
        raise ValueError("sample time outside integration span")
    if np.any(np.diff(stops) < 0):
        raise ValueError("sample times must not decrease")

    lin = np.zeros(y.shape[-1], dtype=complex)
    if linear is not None:
        lin[:] = linear
    nonzero = np.flatnonzero(lin)
    p = nonzero[-1] + 1 if nonzero.size else 0  # columns [p:) have L = 0
    vals, inv = np.unique(lin[:p], return_inverse=True)
    lin_seen = np.asarray(seen(np.broadcast_to(lin, y.shape)))
    decay = -lin.real.min(initial=0.0)
    h_cap = span if decay == 0 else min(span, _MAX_DECAY / decay)

    first = np.asarray(seen(y))
    samples = np.empty((len(stops),) + first.shape, dtype=first.dtype)
    j = int(np.searchsorted(stops, t, side="right"))  # samples at t0: y0
    samples[:j] = first
    # fixed step, or a cheap conservative start that control rescales fast
    h = min(h_cap, span / 50.0 if fixed_step is None else fixed_step)
    # z = [y, K_0, ..., K_6]; rows past a stage's own are stale (or unset)
    z = np.empty((8,) + y.shape, dtype=complex)
    flat = z.reshape(8, -1).view(float)  # real view: the sums are real products
    z[0] = y
    if span > 0:
        z[1] = f(t, y)

    def frame_sum(coef, rows):
        """sum_r coef_r z[rows][r], one real matrix product over every column."""
        return (coef @ flat[rows]).view(complex).reshape(y.shape)

    attempts = 0
    while t < t1 - 1e-18 * max(1.0, abs(t1)):
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise StepUnderflow("step budget exhausted before reaching t1")
        if fixed_step is None and h < _MIN_STEP:
            raise StepUnderflow(f"dt={h:.3e} s below 1e-15 s at t={t:.6e}")
        last = t + h >= t1
        h_try = t1 - t if last else h
        # e^{c hL} and e^{-c hL} per nonzero node, from the distinct entries
        fac = np.exp(np.multiply.outer(h_try * _NODES, vals))
        up, down = np.split(np.take(np.concatenate((fac, 1 / fac)), inv, axis=1), 2)
        coef = np.hstack((np.ones((7, 1)), h_try * _A))  # on [y, K_0, ...]
        for i in range(1, 7):
            node = min(i, len(_NODES)) - 1  # stages 5 and 6 share c = 1
            y_new = frame_sum(coef[i, : i + 1], slice(0, i + 1))
            y_new[..., :p] *= up[node]
            z[i + 1] = f(t + _C[i] * h_try, y_new)
            z[i + 1, ..., :p] *= down[node]
        if fixed_step is None:
            err = frame_sum(h_try * _E, slice(1, 8))
            err[..., :p] *= up[-1]
            err = _error_norm(err, y, y_new, rtol, atol, observe)
            if not math.isfinite(err):
                h = h_try / 10.0
                continue
            if err > 1.0:
                h = h_try * max(0.2, 0.9 * err ** -0.2)
                continue
            grow = 5.0 if err == 0 else min(5.0, 0.9 * err ** -0.2)
            h = min(h_cap, h_try * max(1.0, grow))
        t_new = t1 if last else t + h_try
        # samples inside the step; one at t1 itself is the final state
        j_end = int(np.searchsorted(stops, t_new, side="left" if last else "right"))
        if j_end > j:
            theta = np.clip((stops[j:j_end] - t) / h_try, 0.0, 1.0)
            k_seen = np.stack([np.asarray(seen(z[r])) for r in range(1, 8)])
            samples[j:j_end] = _dense(theta, h_try, np.asarray(seen(y)), k_seen, lin_seen)
            j = j_end
        t = t_new
        y = y_new
        z[0] = y
        z[1] = z[7]  # FSAL, back from the frame
        z[1, ..., :p] *= up[-1]
    samples[j:] = seen(y)
    return y, samples
