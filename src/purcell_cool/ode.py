"""Dormand-Prince 5(4) integrator with an exact bordered linear part.

Self-contained embedded Runge-Kutta pair (Hairer, Norsett & Wanner, Solving
ODEs I, II.4-6), used by the ensemble simulator. It integrates
dy/dt = L' y + f(t, y), where L' is a diagonal L given by its entries plus,
optionally, one border row f that feeds every other complex entry into
entry 0 (blochsim's cavity, fed by its spins): y_0' = L_0 y_0 + sum_k f_k
y_k. The linear part is advanced exactly and the pair integrates only f
(Lawson's integrating factor; Lawson, SIAM J. Numer. Anal. 4, 372 (1967);
Hochbruck & Ostermann, Acta Numerica 19, 209 (2010)). e^{tL'} is e^{tL}
with the border row f_k psi_{L_k}(t) in entry 0, where
psi_v(t) = (e^{vt} - e^{L_0 t}) / (v - L_0) = t e^{L_0 t} phi1((v - L_0) t)
and phi1(x) = (e^x - 1) / x, exact at v = L_0 and free of cancellation
where (v - L_0) t is tiny. A step runs in the interaction frame of its
start: each k_j = f(t + c_j h, Y_j) is stored as K_j = e^{-c_j hL'} k_j,
stage i is Y_i = e^{c_i hL'} (y + h sum_j a_ij K_j) and the error estimate
is e^{hL'} h sum_j e_j K_j. So each sum is one real-coefficient matrix
product over the whole state, written into a preallocated row, and L'
enters through one row of factors e^{c hL} (and one of e^{-c hL}) per
nonzero node and, with a feed, one border row of e^{c hL'} per node (that
of e^{-c hL'} follows from it and the factors), built into preallocated
rows from the distinct entries of L only when the step size changes. With
L' = 0 the step is classical DP5. The step is capped at
h max(-Re L) <= 600, in fixed-step mode too, so that no factor
e^{c h |Re L|} overflows. The frame is exact to rounding when no fed entry
decays faster than entry 0; otherwise rounding in entry 0 grows as
e^{c h (|Re L_k| - |Re L_0|)}, and error control shortens the step.

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
e^{theta hL'} (y + h sum_j b_j(theta) K_j), the DP5 continuous extension
(Hairer's contd5 weights b_j) in the frame; a sample at t0 or t1 is the
state itself. For an observed entry 0 the feed is summed within each
distinct entry v of L first (8 numbers per row and v per step), then
weighted by psi_v(theta h). The extension scales stage data by up to
e^{(c_j - theta) h max(-Re L)}, so with error control a step that holds a
sample inside it is capped at h max(-Re L) <= 10.
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
_DENSE_DECAY = 10.0  # cap on h max(-Re L) for an adaptive step that holds a sample
_CHUNK = 64  # samples per piece of entry 0's dense feed
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


def _border(t, vals, lam0):
    """psi_v(t) = (e^{vt} - e^{lam0 t}) / (v - lam0) = t e^{lam0 t} phi1((v - lam0) t)
    for each t (rows) and v (columns): entry 0's weight in e^{tL'} of an
    entry whose entry of L is v, per unit feed."""
    x = np.multiply.outer(t, vals - lam0)
    zero = x == 0
    psi = np.expm1(x)
    np.divide(psi, x, out=psi, where=~zero)  # phi1(x) = (e^x - 1) / x, 1 at x = 0
    psi[zero] = 1.0
    psi *= (t * np.exp(t * lam0))[:, None]
    return psi


def _up(w, fac, border):
    """w <- e^{tL'} w in place, on the complex entries (..., p) where L'
    acts: fac is e^{tL} and border the border row of e^{tL'} (None
    without feed)."""
    if border is not None:
        fed = w[..., 1:] @ border
    w *= fac
    if border is not None:
        w[..., 0] += fed


def _down(w, fac, border):
    """w <- e^{-tL'} w in place: fac is e^{-tL} and border the border row
    of e^{tL'}, so that e^{-tL'} has the border row -border fac[0] fac[1:]."""
    w *= fac
    if border is not None:
        w[..., 0] -= fac[0] * (w[..., 1:] @ border)


def _frame(theta, h, y, k):
    """The frame interpolant y + h sum_j b_j(theta) k_j at each theta, for
    y (..., m) and frame stages k (7, ..., m) of one step."""
    weights = (theta[:, None] ** np.arange(1, 5)) @ _DENSE  # b_j(theta)
    # a real product on the float view of complex k: the first complex
    # matrix-matrix product of a run alone raises peak RSS by about 0.5 MB
    flat = k.reshape(7, -1).view(float)
    return y + h * (weights @ flat).view(k.dtype).reshape(theta.shape + y.shape)


def _dense(theta, h, y, k, lin):
    """Observed state at t + theta h from the observed y, frame stages k
    (7, ...) and diagonal lin of one step; _dense_feed adds entry 0's feed."""
    return np.exp(np.multiply.outer(theta * h, lin)) * _frame(theta, h, y, k)


def _dense_feed(theta, h, sums, vals, lam0):
    """Entry 0's feed at t + theta h, sum_v psi_v(theta h) F_v(theta), for
    sums (8, rows, V): the fed entries of y, K_0, ..., K_6, weighted by the
    feed and summed within each entry v of L, and F_v their frame
    interpolant. Samples go in chunks, so memory does not grow with them."""
    out = np.empty((len(theta), sums.shape[1]), dtype=complex)
    for lo in range(0, len(theta), _CHUNK):
        part = theta[lo : lo + _CHUNK]
        psi = _border(part * h, vals, lam0)[:, None]
        out[lo : lo + _CHUNK] = (psi * _frame(part, h, sums[0], sums[1:])).sum(axis=-1)
    return out


def dormand_prince(f, t0, y0, t1, *, linear=None, feed=None, rtol=1e-8, atol=1e-10,
                   fixed_step=None, sample_times=None, observe=None):
    """Integrate dy/dt = L' y + f(t, y) from t0 to t1.

    y0 is 1-D, or 2-D with one independent system per row, complex or real
    with packed complex entries (see the module docstring); f(t, y) returns
    an array of the shape and type of y. linear holds the diagonal of L,
    one entry per complex entry of y (for a complex y, per column; None for
    L = 0); its real parts should not be positive. feed holds one entry per
    complex entry after the first: L' is L plus the border row that feeds
    complex entry k into entry 0 with weight feed[k - 1] (L' = L for None).
    Returns (y_end, samples)
    where samples[j] is observe(c) at sample_times[j], c being the complex
    entries of the state (shape (..., q); the whole state when it is
    complex, and c itself when observe is None), stored in one buffer of
    len(sample_times) entries (empty when none were requested).
    sample_times must not decrease. observe must pick entries of c (a slice
    or index), keeping the rows of a 2-D state on its first axis.
    fixed_step disables error control and marches with the given step, or
    with the step cap (see the module docstring) where that is shorter.

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
    fd = np.zeros(q, dtype=complex)  # fd[k] feeds complex entry k into entry 0
    if feed is not None:
        if len(feed) != q - 1:
            raise ValueError("feed needs one entry per complex entry after the first")
        fd[1:] = feed
    nonzero = np.flatnonzero((lin != 0) | (fd != 0))
    p = nonzero[-1] + 1 if nonzero.size else 0  # complex entries [p:) have L' = 0
    vals, inv = np.unique(lin[:p], return_inverse=True)
    # the observed entries, as the offsets of their (re, im) floats in z[r]
    n_rows = y.size // width
    ids = np.asarray(seen(np.arange(n_rows * q).reshape(y.shape[:-1] + (q,))))
    pairs = (ids // q * width + ids % q * 2)[..., None] + np.arange(2)
    lin_seen = lin[ids % q]
    decay = -lin.real.min(initial=0.0)
    h_cap = span if decay == 0 else min(span, _MAX_DECAY / decay)
    # the dense output scales stage data by up to e^{(c - theta) h decay}
    h_dense = math.inf if decay == 0 else _DENSE_DECAY / decay

    # factor rows e^{c hL} per signed node and, with feed, the border rows
    # of e^{c hL'} per node; the fed entries grouped by their entry of L
    # (fvals) for the dense output of entry 0
    fac = np.empty((len(_SIGNED_NODES), p), dtype=complex)
    border = [None] * len(_NODES)
    feeds = bool(fd.any())
    if feeds:
        border = np.empty((len(_NODES), p - 1), dtype=complex)
        fvals, finv = np.unique(lin[1:p], return_inverse=True)
        order = np.argsort(finv, kind="stable")
        starts = np.flatnonzero(np.diff(finv[order], prepend=-1))
        at0 = ids % q == 0  # the observed entries 0, and their rows
        rows0 = ids[at0] // q

    samples = np.empty((len(stops),) + ids.shape, dtype=complex)
    j = int(np.searchsorted(stops, t, side="right"))  # samples at t0: y0
    # fixed step, or a cheap conservative start that control rescales fast
    h = min(h_cap, span / 50.0 if fixed_step is None else fixed_step)
    # z = [y, K_0, ..., K_6]; rows past a stage's own are stale (or unset);
    # work = [stage, then the error estimate; 5th-order solution]
    z = np.empty((8,) + y.shape)
    work = np.empty((2,) + y.shape)
    z[0] = y
    flat, work_flat = z.reshape(8, -1), work.reshape(2, -1)

    def observed(rows):
        """The observed entries of z[rows], complex."""
        return flat[rows].take(pairs, axis=-1).view(complex)[..., 0]

    samples[:j] = observed(0)
    z_lin, work_lin = (a[..., : 2 * p].view(complex) for a in (z, work))  # where L' acts
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
    up = len(_NODES) - 1  # the node c = 1: e^{hL'}

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
            if (fixed_step is None and h_try > h_dense and j < len(stops)
                    and stops[j] < t + h_try):  # a sample inside the step
                h_try, last = h_dense, False
            if h_try != built:
                # from the distinct entries of L, gathered into preallocated rows
                times = h_try * _SIGNED_NODES
                np.exp(np.multiply.outer(times, vals)).take(inv, axis=1, out=fac, mode="clip")
                if feeds:
                    _border(times[: len(_NODES)], fvals, lin[0]).take(
                        finv, axis=1, out=border, mode="clip")
                    border *= fd[1:p]
                coef = h_try * _STAGES
                coef[:, 0] = 1.0
                err_coef = h_try * _E
                built = h_try
            for i in range(1, 7):
                node = min(i, len(_NODES)) - 1  # stages 5 and 6 share c = 1
                out = i // 6  # stage 6 is the 5th-order solution
                np.matmul(coef[i, : i + 1], flat[: i + 1], out=work_flat[out])
                _up(work_lin[out], fac[node], border[node])
                z_typed[i + 1] = f(t + _C[i] * h_try, work[out].view(dtype))
                _down(z_lin[i + 1], fac[node + len(_NODES)], border[node])
            if fixed_step is None:
                np.matmul(err_coef, flat[1:], out=work_flat[0])
                _up(work_lin[0], fac[up], border[up])
                modulus(work[1], mag_new)
                np.maximum(mag, mag_new, out=scale)
                scale *= rtol
                scale += atol
                err = _error_norm(work[0], scale, observe)
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
                if feeds and rows0.size:
                    # the feed into entry 0, summed within each entry of L
                    sums = np.stack([
                        np.add.reduceat((row * fd[1:p]).take(order, axis=-1), starts, axis=-1)
                        for row in z_lin[..., 1:p]]).reshape(8, n_rows, -1)
                    into0 = _dense_feed(theta, h_try, sums, fvals, lin[0])
                    samples[j:j_end, at0] += into0[:, rows0]
                j = j_end
            t = t_new
            z[0] = work[1]
            z[1] = z[7]  # FSAL, back from the frame
            _up(z_lin[1], fac[up], border[up])
    samples[j:] = observed(0)
    return z_typed[0].copy(), samples
