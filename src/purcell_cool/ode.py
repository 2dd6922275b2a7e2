"""Dormand-Prince 5(4) integrator with an exact diagonal linear part.

Self-contained embedded Runge-Kutta pair (Hairer, Norsett & Wanner, Solving
ODEs I, II.4-6) with PI-free step control, used by the ensemble simulator.
It integrates dy/dt = L y + f(t, y) for a diagonal L given by its entries
(one per column of the state): the linear part is advanced exactly and the
pair integrates only f (Lawson's integrating factor; Lawson, SIAM J. Numer.
Anal. 4, 372 (1967); Hochbruck & Ostermann, Acta Numerica 19, 209 (2010)).
Stage i is Y_i = e^{c_i hL} y + h sum_j a_ij e^{(c_i - c_j) hL} k_j with
k_j = f(t + c_j h, Y_j). The nodes never decrease, so every factor has
modulus at most 1 when L has no growing entry. The factors are built from
the distinct entries of L, and columns past the last nonzero entry of L take
the plain sums. With L = 0 every factor is 1 and the step is classical DP5.

Works on complex states of any shape; a 2-D state (R, m) is R independent
rows advanced with one shared step. The state and the seven stages of a
step live in one preallocated (8,) + shape array; the last stage is the
derivative at the 5th-order solution and becomes the first stage of the
next step (FSAL). The error norm is the RMS of each row, maximised over
rows, so every row meets its own tolerance; with observe, a row's norm is
at least the RMS over its observed entries, which a wide state would
otherwise dilute. Fixed-step mode runs the same loop and only skips the
accept test. Steps are not clipped to the requested sample times:
observe(y) at a sample inside a step comes from the DP5 continuous
extension (Hairer's contd5 weights) in the interaction frame, mapped back
with e^{theta hL}; a sample at t0 or t1 is the state itself.
"""

from __future__ import annotations

import math
from fractions import Fraction

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

# Stage i (1-6) combines the rows of z = [y, k_0, ..., k_6] up to row i as
# sum_r w_r z_r with weights w = (one + h * coef) * e^{d hL}: e^{c_i hL} on y
# and h a_ij e^{(c_i - c_j) hL} on k_j. The last block, over k_0...k_6, is
# the error estimate with h e_j e^{(1 - c_j) hL}. _SPAN[i] are stage i's rows
# of these tables, _SPAN[7] the error's.
_C_EXACT = [Fraction(n, d)
            for n, d in ((0, 1), (1, 5), (3, 10), (4, 5), (8, 9), (1, 1), (1, 1))]


def _weight_terms():
    """(d, one, coef) of every weight, and the span of rows of each block."""
    terms, spans = [], [None]
    for i in range(1, 8):
        start = len(terms)
        if i < 7:
            terms.append((_C_EXACT[i], 1.0, 0.0))
            terms += [(_C_EXACT[i] - _C_EXACT[j], 0.0, _A[i, j]) for j in range(i)]
        else:
            terms += [(1 - c, 0.0, e) for c, e in zip(_C_EXACT, _E)]
        spans.append((start, len(terms)))
    return terms, spans


_TERMS, _SPAN = _weight_terms()
_D_EXACT = sorted({d for d, _, _ in _TERMS})  # the distinct exponents
_D = np.array([float(d) for d in _D_EXACT])
_W_D = np.array([_D_EXACT.index(d) for d, _, _ in _TERMS])
_W_ONE = np.array([one for _, one, _ in _TERMS])
_W_H = np.array([coef for _, _, coef in _TERMS])

_MIN_STEP = 1e-15  # s; adaptive control below this aborts the run
_MAX_ATTEMPTS = 10_000_000
_MAX_GROWTH = 700.0  # cap on the exponent of a dense-output factor


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
    """Observed state at t + theta h from the observed y, stages k (7, ...)
    and linear part lin of one step, in the interaction frame."""
    w = _dense_weights(theta).reshape(theta.shape + (7,) + (1,) * y.ndim)
    expo = np.multiply.outer(np.subtract.outer(theta, _C), h * lin)
    # for theta < c_j the factor grows (up to e^{h |Re L|}): keep it finite
    grow = np.exp(np.minimum(expo.real, _MAX_GROWTH) + 1j * expo.imag)
    return (np.exp(np.multiply.outer(theta * h, lin)) * y
            + h * np.add.reduce(w * grow * k, axis=1))


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
    fixed_step disables error control and marches with the given step.

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
    row_shape = (1,) * (y.ndim - 1) + (p,)  # a weight row against a state's [..., :p]

    first = np.asarray(seen(y))
    samples = np.empty((len(stops),) + first.shape, dtype=first.dtype)
    j = int(np.searchsorted(stops, t, side="right"))  # samples at t0: y0
    samples[:j] = first
    # fixed step, or a cheap conservative start that control rescales fast
    h = min(span, span / 50.0 if fixed_step is None else fixed_step)
    # z = [y, k_0, ..., k_6]; rows past a stage's own are stale (or unset)
    z = np.empty((8,) + y.shape, dtype=complex)
    z[0] = y
    if span > 0:
        z[1] = f(t, y)

    def combine(rows, coef, wts):
        """sum_r w_r z[rows][r]: the plain coefficients on the columns [p:),
        the per-column weights wts on [:p)."""
        out = np.empty_like(y)
        out[..., p:] = (coef @ z[rows, ..., p:].reshape(len(coef), -1)).reshape(
            out[..., p:].shape)
        out[..., :p] = np.add.reduce(wts.reshape((len(coef),) + row_shape)
                                     * z[rows, ..., :p], axis=0)
        return out

    attempts = 0
    while t < t1 - 1e-18 * max(1.0, abs(t1)):
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise StepUnderflow("step budget exhausted before reaching t1")
        if fixed_step is None and h < _MIN_STEP:
            raise StepUnderflow(f"dt={h:.3e} s below 1e-15 s at t={t:.6e}")
        last = t + h >= t1
        h_try = t1 - t if last else h
        coef = _W_ONE + h_try * _W_H
        # the weights from the distinct entries of L, then one per column
        wts = (coef[:, None] * np.exp(np.multiply.outer(_D[_W_D] * h_try, vals)))[:, inv]
        for i in range(1, 7):
            lo, hi = _SPAN[i]
            y_new = combine(slice(0, i + 1), coef[lo:hi], wts[lo:hi])
            z[i + 1] = f(t + _C[i] * h_try, y_new)
        if fixed_step is None:
            lo, hi = _SPAN[7]
            err = combine(slice(1, 8), coef[lo:hi], wts[lo:hi])
            err = _error_norm(err, y, y_new, rtol, atol, observe)
            if not math.isfinite(err):
                h = h_try / 10.0
                continue
            if err > 1.0:
                h = h_try * max(0.2, 0.9 * err ** -0.2)
                continue
            grow = 5.0 if err == 0 else min(5.0, 0.9 * err ** -0.2)
            h = min(span, h_try * max(1.0, grow))
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
        z[1] = z[7]  # FSAL
    samples[j:] = seen(y)
    return y, samples
