"""Dormand-Prince 5(4) integrator with an exact diagonal linear part.

Self-contained embedded Runge-Kutta pair (Hairer, Norsett & Wanner, Solving
ODEs I, II.4-6), used by the ensemble simulator. It integrates
dy/dt = L y + f(t, y) for a diagonal L given by its entries: the linear part
is advanced exactly and the pair integrates only f (Lawson's integrating
factor; Lawson, SIAM J. Numer. Anal. 4, 372 (1967); Hochbruck & Ostermann,
Acta Numerica 19, 209 (2010)). A step runs in the interaction frame of its
start: each k_j = f(t + c_j h, Y_j) is stored as K_j = e^{-c_j hL} k_j,
stage i is Y_i = e^{c_i hL} (y + h sum_j a_ij K_j) and the error estimate is
e^{hL} h sum_j e_j K_j. So each sum is one real-coefficient matrix product
over the whole state, written into a preallocated row, and L enters through
one row of factors e^{c hL} (and one of e^{-c hL}) per nonzero node, built
from the distinct entries of L only when the step size changes. With L = 0
the step is classical DP5. The step is capped at h max(-Re L) <= 600, in
fixed-step mode too, so that no factor e^{c h |Re L|} overflows.

The state is complex, or real with complex entries packed in front: a real
row of w floats whose L has q entries holds q complex entries as (re, im)
pairs in its first 2q floats, then w - 2q real entries, on which L is 0. A
complex state is the case 2q = w. A 2-D state (R, w) is R independent rows
advanced with one shared step. The state and the seven stages of a step
live in one preallocated float array; the last stage is the derivative at
the 5th-order solution and becomes the first stage of the next step
(FSAL).

The error norm is the RMS of each row over its entries, a complex entry
counting once by its modulus, maximised over rows, so every row meets its
own tolerance; with observe, a row's norm is at least the RMS over its
observed entries, which a wide state would otherwise dilute. Step control
is the PI controller of Hairer's DOPRI5 (Gustafsson, ACM TOMS 17, 533
(1991)): the next step is h 0.9 err^{-0.17} err_prev^{0.04}, between 0.2 h
and 5 h, with err_prev the norm of the previous accepted step. A step right
after a rejection does not grow, and a proposed growth below 1.2 keeps h
(as RADAU5 does), so that the factor rows are reused. Fixed-step mode runs
the same loop and only skips the accept test. Steps are not clipped to the
requested sample times: observe(y) at a sample inside a step is
e^{theta hL} (y + h sum_j b_j(theta) K_j), the DP5 continuous extension
(Hairer's contd5 weights b_j) in the frame; a sample at t0 or t1 is the
state itself.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoConvergence

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
_STAGES = np.hstack((np.ones((7, 1)), _A))  # row i on [y, K_0, ..., K_5], y's weight 1
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_B5 = np.append(_A[6], 0.0)
_E = _B5 - _B4
# continuous extension (Hairer's contd5): the theta^2 (1 - theta)^2 term
_D5 = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
                -10690763975 / 1880347072, 701980252875 / 199316789632,
                -1453857185 / 822651844, 69997945 / 29380423])
# b_j(theta) = theta B5 + theta (1 - theta) (F - B5) + theta^2 (1 - theta)
# (2 B5 - F - L) + theta^2 (1 - theta)^2 D5, F and L the first and last unit
# rows, as the coefficients of theta, ..., theta^4
_FIRST, _LAST = np.eye(7)[[0, 6]]
_DENSE = np.array([_FIRST, 3 * _B5 - 2 * _FIRST - _LAST + _D5,
                   _FIRST + _LAST - 2 * _B5 - 2 * _D5, _D5])

# every nonzero node once: stage 6 and the error estimate share c = 1; the
# factor rows are e^{c hL} for these, then e^{-c hL}
_NODES = _C[1:6]
_SIGNED_NODES = np.concatenate((_NODES, -_NODES))

_MIN_STEP = 1e-15  # s; adaptive control below this aborts the run
_MAX_ATTEMPTS = 10_000_000
_MAX_DECAY = 600.0  # cap on h max(-Re L): e^{600} ~ 4e260 is finite
# PI control as in DOPRI5: err^{-_EXPO} err_prev^{_BETA}, safety 0.9
_BETA = 0.04
_EXPO = 0.2 - 0.75 * _BETA
_HOLD = 1.2  # a proposed growth in [1, _HOLD] keeps the step


def _error_norm(err, scale, observe=None):
    """Largest per-row RMS of err / scale (the plain RMS for 1-D).

    err is the float view of the error estimate, its first 2q floats q
    complex entries as (re, im) pairs; scale has one tolerance per entry,
    the q complex ones first, and a complex entry counts once by its
    modulus. With observe, each row's norm is the larger of its RMS and the
    RMS over observe(its complex entries), so the observed entries meet the
    tolerance however wide the rest of the state is.
    """
    q = err.shape[-1] - scale.shape[-1]
    ratio = np.empty_like(scale)
    np.abs(err[..., : 2 * q].view(complex), out=ratio[..., :q])
    ratio[..., q:] = err[..., 2 * q :]
    ratio /= scale
    rows = ratio.reshape(-1, ratio.shape[-1])
    norm = np.vecdot(rows, rows) / rows.shape[-1]
    if observe is not None:
        seen = np.asarray(observe(ratio[..., :q])).reshape(len(rows), -1)
        norm = np.maximum(norm, np.vecdot(seen, seen) / seen.shape[-1])
    return math.sqrt(norm.max())


def _dense(theta, h, y, k, lin):
    """Observed state at t + theta h from the observed y, frame stages k
    (7, ...) and linear part lin of one step."""
    weights = (theta[:, None] ** np.arange(1, 5)) @ _DENSE  # b_j(theta)
    frame = y + h * (weights @ k.reshape(7, -1)).reshape(theta.shape + y.shape)
    return np.exp(np.multiply.outer(theta * h, lin)) * frame


def dormand_prince(f, t0, y0, t1, *, linear=None, rtol=1e-8, atol=1e-10,
                   fixed_step=None, sample_times=None, observe=None):
    """Integrate dy/dt = L y + f(t, y) from t0 to t1.

    y0 is 1-D, or 2-D with one independent system per row, complex or real
    with packed complex entries (see the module docstring); f(t, y) returns
    an array of the shape and type of y. linear holds the diagonal of L,
    one entry per complex entry of y (for a complex y, per column; None for
    L = 0); its real parts should not be positive. Returns (y_end, samples)
    where samples[j] is observe(c) at sample_times[j], c being the complex
    entries of the state (shape (..., q); the whole state when it is
    complex, and c itself when observe is None), stored in one buffer of
    len(sample_times) entries (empty when none were requested).
    sample_times must not decrease. observe must pick entries of c (a slice
    or index), keeping the rows of a 2-D state on its first axis.
    fixed_step disables error control and marches with the given step, or
    with 600 / max(-Re L) where that is shorter.

    Raises NoConvergence if error control pushes the step below 1e-15 s
    or the step budget runs out.
    """
    y0 = np.asarray(y0)
    dtype = complex if np.iscomplexobj(y0) else float
    state = np.array(y0, dtype=dtype)
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

    y = state.view(float)
    width = y.shape[-1]
    # complex entries: every column of a complex state, one per entry of L otherwise
    if dtype is complex:
        q = state.shape[-1]
    else:
        q = 0 if linear is None else len(linear)
    if 2 * q > width:
        raise ValueError("linear has more entries than the state has room for")
    lin = np.zeros(q, dtype=complex)
    if linear is not None:
        lin[:] = linear
    nonzero = np.flatnonzero(lin)
    p = nonzero[-1] + 1 if nonzero.size else 0  # complex entries [p:) have L = 0
    vals, inv = np.unique(lin[:p], return_inverse=True)
    # the observed entries, as the offsets of their (re, im) floats in z[r]
    ids = np.asarray(seen(np.arange(y.size // width * q).reshape(y.shape[:-1] + (q,))))
    pairs = (ids // q * width + ids % q * 2)[..., None] + np.arange(2)
    lin_seen = lin[ids % q]
    decay = -lin.real.min(initial=0.0)
    h_cap = span if decay == 0 else min(span, _MAX_DECAY / decay)

    samples = np.empty((len(stops),) + ids.shape, dtype=complex)
    j = int(np.searchsorted(stops, t, side="right"))  # samples at t0: y0
    # fixed step, or a cheap conservative start that control rescales fast
    h = min(h_cap, span / 50.0 if fixed_step is None else fixed_step)
    # z = [y, K_0, ..., K_6]; rows past a stage's own are stale (or unset);
    # work = [stage, 5th-order solution, error estimate]
    z = np.empty((8,) + y.shape)
    work = np.empty((3,) + y.shape)
    z[0] = y
    flat, work_flat = z.reshape(8, -1), work.reshape(3, -1)

    def observed(rows):
        """The observed entries of z[rows], complex."""
        return flat[rows].take(pairs, axis=-1).view(complex)[..., 0]

    samples[:j] = observed(0)
    z_lin, work_lin = (a[..., : 2 * p].view(complex) for a in (z, work))  # where L acts
    z_typed = z.view(dtype)
    # |entry| of the state and of the trial solution, and the tolerances
    mag, mag_new, scale = np.empty((3,) + y.shape[:-1] + (width - q,))

    def modulus(v, out):
        np.abs(v[..., : 2 * q].view(complex), out=out[..., :q])
        np.abs(v[..., 2 * q :], out=out[..., q:])

    modulus(y, mag)
    built = None  # the h_try the factor rows hold
    err_prev = 1e-4
    rejected = False

    # an overflowing or non-finite trial step is retried with a smaller h,
    # or ends the run with NoConvergence, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if span > 0:
            z_typed[1] = f(t, state)
        attempts = 0
        while t < t1 - 1e-18 * max(1.0, abs(t1)):
            attempts += 1
            if attempts > _MAX_ATTEMPTS:
                raise NoConvergence("step budget exhausted before reaching t1")
            if fixed_step is None and h < _MIN_STEP:
                raise NoConvergence(f"dt={h:.3e} s below 1e-15 s at t={t:.6e}")
            last = t + h >= t1
            h_try = t1 - t if last else h
            if h_try != built:
                # e^{c hL} and e^{-c hL} per nonzero node, from the distinct entries
                fac = np.take(np.exp(np.multiply.outer(h_try * _SIGNED_NODES, vals)),
                              inv, axis=1)
                up, down = fac[: len(_NODES)], fac[len(_NODES) :]
                coef = h_try * _STAGES
                coef[:, 0] = 1.0
                err_coef = h_try * _E
                built = h_try
            for i in range(1, 7):
                node = min(i, len(_NODES)) - 1  # stages 5 and 6 share c = 1
                out = i // 6  # stage 6 is the 5th-order solution
                np.matmul(coef[i, : i + 1], flat[: i + 1], out=work_flat[out])
                work_lin[out] *= up[node]
                z_typed[i + 1] = f(t + _C[i] * h_try, work[out].view(dtype))
                z_lin[i + 1] *= down[node]
            if fixed_step is None:
                np.matmul(err_coef, flat[1:], out=work_flat[2])
                work_lin[2] *= up[-1]
                modulus(work[1], mag_new)
                np.maximum(mag, mag_new, out=scale)
                scale *= rtol
                scale += atol
                err = _error_norm(work[2], scale, observe)
                if not math.isfinite(err):
                    h, rejected = h_try / 10.0, True
                    continue
                if err > 1.0:
                    h, rejected = h_try * max(0.2, 0.9 * err ** -_EXPO), True
                    continue
                grow = 5.0 if err == 0 else min(5.0, 0.9 * err ** -_EXPO * err_prev ** _BETA)
                if rejected:
                    grow = min(grow, 1.0)
                if 1.0 <= grow <= _HOLD:
                    grow = 1.0
                h = min(h_cap, h_try * grow)
                err_prev, rejected = max(err, 1e-4), False
                mag, mag_new = mag_new, mag
            t_new = t1 if last else t + h_try
            # samples inside the step; one at t1 itself is the final state
            if j < len(stops) and stops[j] <= t_new:
                j_end = int(np.searchsorted(stops, t_new, side="left" if last else "right"))
                theta = np.clip((stops[j:j_end] - t) / h_try, 0.0, 1.0)
                samples[j:j_end] = _dense(theta, h_try, observed(0), observed(slice(1, 8)),
                                          lin_seen)
                j = j_end
            t = t_new
            z[0] = work[1]
            z[1] = z[7]  # FSAL, back from the frame
            z_lin[1] *= up[-1]
    samples[j:] = observed(0)
    return z_typed[0].copy(), samples
