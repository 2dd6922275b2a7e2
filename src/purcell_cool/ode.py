"""Dormand-Prince 5(4) integrator with an exact bordered linear part.

Self-contained embedded Runge-Kutta pair (Hairer, Norsett & Wanner, Solving
ODEs I, II.4-6), specialised to the ensemble simulator's state. It
integrates dy/dt = L' y + f(t, y), where L' is a diagonal L plus one
border row f that feeds every other complex entry into entry 0 (blochsim's
cavity, fed by its spins): y_0' = L_0 y_0 + sum_k f_k y_k. The fed entries
come in tiles that repeat one period of L (blochsim's detuning comb, once
per coupling), so L is given by L_0 and one period. The linear part is
advanced exactly and the pair integrates only f (Lawson's integrating
factor; Lawson, SIAM J. Numer. Anal. 4, 372 (1967); Hochbruck & Ostermann,
Acta Numerica 19, 209 (2010)). The rhs is called as f(t, y, out) and
writes f(t, y) into out, one of seven rows that the solver owns and
reuses; what it returns is ignored.

e^{tL'} is e^{tL} with the border row f_k psi_{L_k}(t) in entry 0, where
psi_v(t) = (e^{vt} - e^{L_0 t}) / (v - L_0) = t e^{L_0 t} phi1((v - L_0) t)
and phi1(x) = (e^x - 1) / x, exact at v = L_0 and free of cancellation
where (v - L_0) t is tiny. A step runs in the interaction frame of its
start: each k_j = f(t + c_j h, Y_j) is stored as K_j = e^{-c_j hL'} k_j,
and stage i is Y_i = e^{c_i hL'} (y + h sum_j a_ij K_j). The last
derivative, k_6 = f(t + h, Y_6) at the 5th-order solution Y_6 (DOPRI5's
k7), stays out of the frame: since e^{hL'} K_6 = k_6, the error estimate
is e^{hL'} h sum_{j<6} e_j K_j + h e_6 k_6, and k_6 is the next step's
K_0 as it is (FSAL, one row copy). K_6 is framed only on a step that
holds a sample, where the dense output needs it. So each sum is one
real-coefficient matrix product over the whole state, written into a
preallocated row (the error estimate and stage 6 share one product and
one pass out of the frame). A pass into or out of the frame is two numpy
calls on the complex entries: entry 0 of each row becomes one product of
a head row, entry 0's row of e^{c hL'}, with the complex entries, and
the other entries are scaled in place by the factors e^{c hL}, each held
once per row; out of the frame the scaling comes first (see _frame_rows).
The head row and the factors of each node +-c are built into preallocated
rows from L_0 and the period only when the step size changes. The step is
capped at h max(-Re L) <= 600, so that no factor e^{c h |Re L|}
overflows. The frame is exact to rounding when no fed entry decays faster
than entry 0; otherwise rounding in entry 0 grows as
e^{c h (|Re L_k| - |Re L_0|)}, and error control shortens the step.

A third piece is exact when the caller gives the field-spin gains g_k
(blochsim does where its drive is 0: in delays, ring-downs and
acquisitions): the ring-down's action on the spins, frozen over the step.
Each fed entry y_k (an s-) has a real partner x_k (its s_z), and f carries
i g_k y_0 x_k in y_k' and -4 g_k Im(conj(y_0) y_k) in x_k'. Frozen, y_0
rings down on its own decay, a_0 e^{L_0 tau}, y_k follows its linear flow
and x_k is held, so in the frame these are the known exponentials
i g_k a_0 x_k e^{(L_0 - L_k) tau} and -4 g_k Im(conj(a_0) y_k e^{(conj L_0 +
L_k) tau}) (exponential quadrature; Hochbruck & Ostermann, above; Cox &
Matthews, J. Comput. Phys. 176, 430 (2002)). For a term A e^{z tau}, the
5th-order solution gains A W_sol(z), the exact integral h phi1(zh) A less
DP5's quadrature, with W_sol(z) = h [phi1(zh) - sum_j b_j e^{c_j zh}], and
the error estimate loses A h sum_j e_j e^{c_j zh}, DP5's estimate of its
error on that term: the solution no longer makes that error, so the
estimate keeps only that of the rest, which DP5 still integrates. Both go
into the frame rows before the pass out. The first amplitude, i g_k a_0
x_k, is K_0's fed entries as they are, so f's fed entries must be that
term alone (blochsim's are). The weights depend on k only through the
period entry of L_k; they are built with the factor rows, from their
exponentials, when the step size changes, the s_z ones times -4 g_k
(_frozen_rows). The frozen term's image in entry 0 (its feed back into
the field through psi) is left to DP5; it changes nothing measurable.
After a pulse, a's known decay e^{L_0 t} sets these terms' quadrature
error long after the spins' own rotation has slowed, and with an s_z near
0 that error is the whole tolerance; during a pulse the field does not
ring down freely, and the term saves no step.

The state is R independent rows advanced with one shared step: q
complex entries and w - 2q real ones, on which L is 0, per row, held in a
float array (R, w) entry-major, so that one entry's values for the R rows
sit next to each other. Flat, it is the q complex entries as one (q, R)
complex block of (re, im) pairs, then the real entries as one (w - 2q, R)
block (entry_blocks gives both). This is the state's only order: the
caller's y0, the returned state, the rhs's y and out and every
state-sized array of a solve hold it, so each per-entry operation (a
frame's scaling, the rhs's products, the tolerances) is one contiguous
loop over the batch. A single row (R = 1) is its own packed row: its 2q
floats of (re, im) pairs, then its real entries. The state and the
stages of a step live in one preallocated float array, and k_6 in one
more row; each stage's views of them are built once per solve, and its
coefficients are rewritten in place when the step size changes.

The error norm is the RMS of each row over its entries, a complex entry
counting once by its modulus, and at least the row's entry 0, the sampled
one, which a wide state would otherwise dilute; it is maximised over rows,
so every row meets its own tolerance. Step control has no memory: the next
step depends only on the norm err of the attempt just made. A rejected
step is retried at h max(0.2, 0.85 err^{-1/5}); after an accepted one, a
proposed growth min(5, 0.85 max(err, 1e-4)^{-1/5}) below 1.1 keeps h, so
that the factor rows are reused, and one at or above 1.1 grows h by at
least 1.3. Growth comes in few, large jumps, and steps run near the target
error instead of drifting far below it while they wait to grow past the
hold, which saves attempts and rebuilds. Steps are not clipped to
the requested sample times, and only entry 0 of each row is sampled: at a
sample inside a step it is e^{theta hL'} (y + h sum_j b_j(theta) K_j), the
DP5 continuous extension (Hairer's contd5 weights b_j) in the frame: entry
0 itself, weighted by e^{theta hL_0}, and its feed, summed over the tiles
for each entry v of the period first (8 numbers per row and v per step),
then weighted by psi_v(theta h), go through one interpolant; a sample at
t0 or t1 is the state itself. The extension scales stage data by up to
e^{(c_j - theta) h max(-Re L)}, so a step that holds a sample inside it is
capped at h max(-Re L) <= 10.
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
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_B5 = np.append(_A[6], 0.0)
_E = _B5 - _B4
# the weights on [y, K_0, ..., K_5] of stages 1-5, then of the error estimate
# without its k_6 term and of stage 6, the 5th-order solution: h times these,
# but y's weight is 1 in a stage and 0 in the error estimate
_WEIGHTS = np.vstack((np.hstack((np.ones((5, 1)), _A[1:6])), np.append(0.0, _E[:6]),
                      np.append(1.0, _A[6])))
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
# minus the error estimate's and the 5th-order solution's weights at c = 0
# and at _NODES, on a term known at each node: e_5 and e_6 share c = 1
_FROZEN = -np.array([np.append(_E[:5], _E[5] + _E[6]), _A[6]])

_MIN_STEP = 1e-15  # s; error control below this aborts the run
_MAX_ATTEMPTS = 10_000_000
_MAX_DECAY = 600.0  # cap on h max(-Re L): e^{600} ~ 4e260 is finite
_DENSE_DECAY = 10.0  # cap on h max(-Re L) for a step that holds a sample
_CHUNK = 64  # samples per piece of entry 0's dense feed
_SAFETY = 0.85  # the next step is h _SAFETY err^{-1/5} before its bounds
_HOLD = 1.1  # a proposed growth below this keeps the step
_QUANTUM = 1.3  # and one at or above it grows the step by at least this


def _error_norm(err, scale, ratio):
    """Largest over rows of the RMS of err / scale, or of entry 0's ratio
    where that is larger.

    err is the error estimate's complex block (q, R) and real block
    (w - 2q, R), entry-major; scale, (w - q, R), has one tolerance per entry
    and row, the q complex entries first, and a complex entry counts once
    by its modulus. ratio, (R, w - q), receives |err| / scale row by row, so
    that each row's sum of squares is one contiguous sum whatever R is, and
    a row's norm does not depend on the batch it is in. Entry 0, the sampled
    one, meets the tolerance however wide the rest of the state is.
    """
    lin, real = err
    q = len(lin)
    np.abs(lin, out=ratio[:, :q].T)
    ratio[:, q:] = real.T
    ratio /= scale.T
    # the largest row's mean square; a non-finite ratio makes it NaN or inf,
    # which max() keeps because it comes first
    norm = np.vecdot(ratio, ratio).max() / ratio.shape[-1]
    return math.sqrt(max(norm, ratio[:, 0].max() ** 2))


def entry_blocks(a, q):
    """The complex block (..., q, R) and the real block (..., w - 2q, R) of
    state-sized float arrays a (..., R, w), with q complex entries, as
    views: how a caller builds y0 and reads the result, and how an rhs
    reads its y and writes its out."""
    *lead, rows, width = a.shape
    flat = a.reshape(*lead, rows * width)
    return (flat[..., : 2 * q * rows].view(complex).reshape(*lead, q, rows),
            flat[..., 2 * q * rows :].reshape(*lead, width - 2 * q, rows))


def _border(t, lin):
    """psi_v(t) = (e^{vt} - e^{L_0 t}) / (v - L_0) = t e^{L_0 t} phi1((v - L_0) t)
    for each t (rows) and each v of the period lin[1:] (columns), with L_0 =
    lin[0]: entry 0's weight in e^{tL'} of an entry whose entry of L is v,
    per unit feed."""
    x = np.multiply.outer(t, lin[1:] - lin[0])
    zero = x == 0
    psi = np.expm1(x)
    np.divide(psi, x, out=psi, where=~zero)  # phi1(x) = (e^x - 1) / x, 1 at x = 0
    psi[zero] = 1.0
    psi *= (t * np.exp(t * lin[0]))[:, None]
    return psi


def _frame_rows(lin, fd, rows=1, then=None):
    """The rows that apply e^{c hL'} and e^{-c hL'} at each node c of _NODES
    to `rows` rows, and build(h), which fills them in place for the step
    size h.

    lin is L_0 and the period, and fd, (tiles, period), the border row, as
    in dormand_prince. Returns (fac, heads, build): row i of each is node
    c = _NODES[i], and row i + 5 its negative. fac[i] is e^{c hL} on the
    fed entries: each fed entry's factor once per row, entry-major, so that
    fac[i] scales the fed entries (q - 1, rows) of the complex block w in
    one contiguous pass. heads[i], one entry per complex entry, is
    [e^{c hL_0}, border], with border_k = fd_k psi_{L_k}(c h), and
    heads[i + 5] is [e^{-c hL_0}, -e^{-c hL_0} border]. So e^{c hL'} w is two
    products in place: entry 0 becomes heads[i] @ w, then w[1:] *= fac[i];
    e^{-c hL'} w makes its two in the opposite order, w[1:] *= fac[i + 5],
    then entry 0 becomes heads[i + 5] @ w. build(h) ends with then(h,
    period, psi), when given, on the exponentials it made: period[i] is
    e^{c hL} on L_0 and the period at the signed node c = _SIGNED_NODES[i],
    and psi[i] is psi_{L_p}(c h) at the node c = _NODES[i].
    """
    n = len(_NODES)
    fac = np.empty((2 * n, fd.size * rows), dtype=complex)
    heads = np.empty((2 * n, 1 + fd.size), dtype=complex)
    # views of the fed entries as (node, tile, period[, row]): a period
    # broadcasts on them
    fac_tiles = fac.reshape(2 * n, *fd.shape, rows)
    head_tiles = heads[:, 1:].reshape(2 * n, *fd.shape)
    head_rows, feed = list(heads[:, 1:]), fd.ravel()

    period = np.empty((2 * n, len(lin)), dtype=complex)

    def build(h):
        times = h * _NODES
        np.exp(np.multiply.outer(times, lin), out=period[:n])
        np.divide(1.0, period[:n], out=period[n:])  # e^{-c hL} = 1 / e^{c hL}
        heads[:, 0] = period[:, 0]
        fac_tiles[...] = period[:, None, 1:, None]
        psi = _border(times, lin)
        head_tiles[:n] = psi[:, None]
        # a row at a time: a product on the strided block takes numpy's
        # buffered path, whose buffers raise the traced peak of a 40 x 41
        # ensemble's solve by about 0.3 MB
        for i in range(n):
            head_rows[i] *= feed
            np.multiply(head_rows[i], -period[n + i, 0], out=head_rows[n + i])
        if then is not None:
            then(h, period, psi)

    return fac, heads, build


def _frozen_rows(lin, gain):
    """The weights of the frozen ring-down term (see dormand_prince) and
    fill(h, period, psi), which rebuilds them for the step size h from
    _frame_rows' exponentials.

    lin is L_0 and the period, and gain, (tiles, period), the field-spin
    gains, as in dormand_prince. Returns (tiled, fill): tiled (2, 2, tiles,
    period) holds one weight per fed entry, for the s- term in tiled[0] and
    for the s_z term in tiled[1], each with the error estimate's weight in
    row 0 and the 5th-order solution's in row 1. For s- these are W_err(z)
    = -h sum_j e_j e^{c_j zh} and W_sol(z) = h phi1(zh) - h sum_j b_j
    e^{c_j zh} at z = L_0 - L_p, and for s_z -4 gain times the same at z =
    conj L_0 + L_p.
    """
    n, p = len(_NODES), len(lin) - 1
    # the s_z term's exponent, of conj(a) s-; where it is 0 (no decay, no
    # detuning), h phi1 is h
    drift = lin[0].conjugate() + lin[1:]
    zero = drift == 0
    denominator = np.where(zero, 1.0, drift)
    # [e^{c zh} at c = 0 and _NODES, h phi1(zh)]: the s- exponents, then the
    # s_z ones; the weights are M [e^{c zh}, h phi1(zh)], with M = [h _FROZEN,
    # (0, 1)]
    powers = np.ones((n + 2, 2 * p), dtype=complex)
    matrix = np.zeros((2, n + 2))
    matrix[1, -1] = 1.0
    weights = np.empty((2, 2 * p), dtype=complex)
    # complex, so that no product casts and takes numpy's buffered path
    sz_gain = -4.0 * gain.astype(complex)
    tiled = np.empty((2, 2) + gain.shape, dtype=complex)

    def fill(h, period, psi):
        np.multiply(period[:n, :1], period[n:, 1:], out=powers[1:-1, :p])
        np.multiply(period[:n, :1].conj(), period[:n, 1:], out=powers[1:-1, p:])
        # h phi1(h(L_0 - L_p)) = e^{-hL_p} psi_{L_p}(h), and h phi1 of the s_z
        # exponent, both free of cancellation
        np.multiply(psi[-1], period[-1, 1:], out=powers[-1, :p])
        phi = powers[-1, p:]
        np.multiply(h, drift, out=phi)
        np.expm1(phi, out=phi)
        phi /= denominator
        phi[zero] = h
        np.multiply(h, _FROZEN, out=matrix[:, :-1])
        # a real product on the float views: a complex matrix product alone
        # raises the peak RSS by about 0.5 MB (see _dense)
        np.matmul(matrix, powers.view(float), out=weights.view(float))
        tiled[0] = weights[:, None, :p]
        np.multiply(weights[:, None, p:], sz_gain, out=tiled[1])

    return tiled, fill


def _dense(theta, h, sums, lin):
    """Entry 0 at t + theta h, sum_j w_j(theta h) F_j(theta), for sums
    (8, rows, len(lin)) over y, K_0, ..., K_6: column 0 entry 0 itself, with
    w_0(t) = e^{L_0 t}, and column j the fed entries whose L is lin[j],
    weighted by the feed and summed over the tiles, with w_j = psi_{lin[j]};
    F_j is their frame interpolant y + h sum_j b_j(theta) K_j. Samples go in
    chunks, so memory does not grow with them."""
    out = np.empty((len(theta), sums.shape[1]), dtype=complex)
    # a real product on the float view of the complex stages: the first
    # complex matrix-matrix product of a run alone raises peak RSS by about
    # 0.5 MB
    stages = sums[1:].reshape(7, -1).view(float)
    for lo in range(0, len(theta), _CHUNK):
        part = theta[lo : lo + _CHUNK]
        times = part * h
        weight = np.hstack((np.exp(times * lin[0])[:, None], _border(times, lin)))
        b = (part[:, None] ** np.arange(1, 5)) @ _DENSE  # b_j(theta)
        frame = sums[0] + h * (b @ stages).view(complex).reshape(part.shape + sums[0].shape)
        out[lo : lo + _CHUNK] = (weight[:, None] * frame).sum(axis=-1)
    return out


def dormand_prince(f, t0, y0, t1, *, linear, feed, rtol, atol, sample_times=None,
                   gain=None):
    """Integrate dy/dt = L' y + f(t, y) from t0 to t1.

    y0 is the state of R independent rows, a float array (R, w) in the
    entry-major order of the module docstring (entry_blocks gives its
    blocks), with q = 1 + feed.size complex entries. f(t, y, out) writes
    the derivative, a float array of the shape, dtype and order of y, into
    out, a solver-owned row that the solver reuses; y and out are the same
    few row objects on every call, so f may keep its views of them for the
    solve. feed, (tiles, period), is the border row: feed[t, j] feeds
    complex entry 1 + t period + j into entry 0, and that entry's L is
    linear[1 + j]; linear[0] is entry 0's L. A 1-D feed is one tile, so a
    general L is given whole. The real parts of linear should not be
    positive. rtol and atol are the relative and absolute tolerances of
    every entry: finite, >= 0 and not both 0. Returns (y_end, samples):
    y_end is the state at t1, in y0's shape and order, and samples[j, r] is
    complex entry 0 of row r at sample_times[j], stored in one buffer
    (empty when no sample was requested). sample_times must lie in [t0, t1]
    and not decrease.

    gain, None or real and finite like feed, is the field-spin gain g_k of
    each fed entry (module docstring): with it, the state holds one real
    entry per fed one, real entry k - 1 the partner of fed entry k, and the
    frozen ring-down term is integrated exactly.

    A trial step that overflows or turns non-finite is retried, silently,
    with a tenth of its h. Raises NoConvergence if error control pushes the
    step below _MIN_STEP or the budget of _MAX_ATTEMPTS attempts runs out.
    """
    y = np.asarray(y0, dtype=float)
    t = float(t0)
    t1 = float(t1)
    span = t1 - t
    stops = np.array([] if sample_times is None else sample_times, dtype=float)
    in_span = not stops.size or (stops.min() >= t0 - 1e-18
                                 and stops.max() <= t1 + abs(t1) * 1e-12 + 1e-18)
    if not (span >= 0 and in_span and np.all(np.diff(stops) >= 0)):
        raise ValueError("need t0 <= t1 and sample times in order within [t0, t1]")
    if not (0 <= rtol < math.inf and 0 <= atol < math.inf and rtol + atol > 0):
        raise ValueError(f"need finite rtol, atol >= 0, not both 0, got {rtol!r}, {atol!r}")

    lin = np.asarray(linear, dtype=complex)
    fd = np.atleast_2d(np.asarray(feed, dtype=complex))
    if fd.ndim != 2 or fd.shape[1] != len(lin) - 1:
        raise ValueError("feed needs one column per entry of linear after the first")
    q = 1 + fd.size
    if y.ndim != 2 or 2 * q > y.shape[1]:
        raise ValueError("y0 must be rows with room for its 1 + feed.size complex entries")
    if gain is not None:
        gain = np.atleast_2d(np.asarray(gain, dtype=float))
        if gain.shape != fd.shape or y.shape[1] != 3 * q - 1:
            raise ValueError("gain needs the shape of feed and one real entry per fed one")
        if not np.all(np.isfinite(gain)):
            raise ValueError("gain must be finite")
    decay = -lin.real.min(initial=0.0)
    h_cap = span if decay == 0 else min(span, _MAX_DECAY / decay)
    # the dense output scales stage data by up to e^{(c - theta) h decay}
    h_dense = math.inf if decay == 0 else _DENSE_DECAY / decay

    rows, width = y.shape
    frozen = fill = None
    if gain is not None:
        frozen, fill = _frozen_rows(lin, gain)
    fac, heads, build = _frame_rows(lin, fd, rows, fill)

    samples = np.empty((len(stops), rows), dtype=complex)
    j = int(np.searchsorted(stops, t, side="right"))  # samples at t0: y0
    h = min(h_cap, span / 50.0)  # a cheap conservative start that control rescales fast
    # z = [y, K_0, ..., K_6]; rows past a stage's own are stale (or unset),
    # and K_6's row is scratch on a step without samples; work = [stage,
    # then the error estimate; 5th-order solution]; fsal = k_6, f at the
    # 5th-order solution outside the frame: the next step's K_0
    z = np.empty((8,) + y.shape)
    work = np.empty((2,) + y.shape)
    fsal = np.empty_like(y)
    # every row a call reads or writes, made once: the rhs is handed the
    # same row objects on every call
    y_row, k0_row, k6_row = z[0], z[1], z[7]
    stage_row, trial_row = work  # the stage, then the error estimate; stage 6
    weights = np.empty_like(_WEIGHTS)
    flat, work_flat = z.reshape(8, -1), work.reshape(2, -1)
    stage_flat, final_weights, final_rows = work_flat[0], weights[5:], flat[:7]
    # each row's complex block, where L' acts, and real block, entry-major
    (z_lin, z_real), (work_lin, work_real) = entry_blocks(z, q), entry_blocks(work, q)
    y_row[...] = y
    samples[:j] = z_lin[0, 0]

    # |entry| of the state and of the trial solution, each with the views of
    # its complex and real entries, and the tolerances; the error norm's
    # ratio, row by row, goes into K_6's row, scratch by then
    mag, mag_new = ((a, a[:q], a[q:]) for a in np.empty((2, width - q, rows)))
    scale = np.empty_like(mag[0])
    ratio = k6_row.reshape(-1)[: scale.size].reshape(rows, -1)
    np.abs(z_lin[0], out=mag[1])
    np.abs(z_real[0], out=mag[2])
    trial = work_lin[1], work_real[1]  # the trial solution's blocks
    error = work_lin[0], work_real[0]  # the error estimate's
    built = None  # the h_try the factor rows and weights hold
    err_last = 0.0  # h e_6, the weight of k_6 in the error estimate

    def split(w):  # a complex block's rows (R, q), its entry 0 and the rest
        return np.swapaxes(w, -1, -2), w[..., 0, :], w[..., 1:, :]

    n = len(_NODES)
    tails = fac.reshape(2 * n, q - 1, rows)
    # the views of stages 1-5, built once: node, stage weights and the rows
    # they weight, head row and factor tail into the frame and out of it, K
    # row and its complex block (see _frame_rows)
    stages = [(_C[i], weights[i - 1, : i + 1], flat[: i + 1], heads[i - 1], tails[i - 1],
               heads[i - 1 + n], tails[i - 1 + n], z[i + 1], split(z_lin[i + 1]))
              for i in range(1, 6)]
    stage_lin, stage_head, stage_tail = split(work_lin[0])
    # the error estimate and stage 6, rows 0 and 1 of work, go out of the
    # frame together through the node c = 1, and K_6 into it on a step with
    # samples
    final_lin, final_head, final_tail = split(work_lin)
    k6_lin, k6_head, k6_tail = split(z_lin[7])
    head_one, tail_one = heads[n - 1], tails[n - 1]
    head_back, tail_back = heads[-1], tails[-1]
    # the feed into entry 0 as (stage, row, tile, period), for the dense output
    z_tiles = np.moveaxis(z_lin[:, 1:].reshape(8, *fd.shape, rows), -1, 1)
    if frozen is not None:
        # the frozen ring-down term: its s- amplitude, i g a s_z at the step's
        # start, is K_0's fed entries, and its s_z one, -4 g conj(a) s-. The
        # weighted s- terms and conj(a) s- go into scale's rows, and the
        # weighted s_z terms into K_6's, both free until the error norm
        fed_weights, sz_weights = frozen.reshape(2, 2, fd.size, 1)
        k0_fed = z_lin[1, 1:]
        err_fed, sol_fed = work_lin[:, 1:]
        err_sz, sol_sz = work_real
        y_field, y_fed = z_lin[0, 0], z_lin[0, 1:]
        scratch, sz_term = (a.reshape(-1)[: 2 * fd.size * rows].view(complex).reshape(y_fed.shape)
                            for a in (scale, k6_row))

    # an overflowing or non-finite trial step is retried with a smaller h,
    # or ends the run with NoConvergence, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if span > 0:
            f(t, y_row, k0_row)
        attempts = 0
        while t < t1 - 1e-18 * max(1.0, abs(t1)):
            attempts += 1
            if attempts > _MAX_ATTEMPTS:
                raise NoConvergence("step budget exhausted before reaching t1")
            if h < _MIN_STEP:
                raise NoConvergence(f"dt={h:.3e} s below {_MIN_STEP:g} s at t={t:.6e}")
            last = t + h >= t1
            h_try = t1 - t if last else h
            if h_try > h_dense and j < len(stops) and stops[j] < t + h_try:
                h_try, last = h_dense, False  # a sample inside the step
            if h_try != built:
                build(h_try)
                np.multiply(h_try, _WEIGHTS, out=weights)
                weights[:, 0] = _WEIGHTS[:, 0]
                err_last = h_try * _E[6]
                built = h_try
            for c, row_weights, weighted, up, up_fac, down, down_fac, k, k_parts in stages:
                np.matmul(row_weights, weighted, out=stage_flat)
                np.matvec(stage_lin, up, out=stage_head)
                stage_tail *= up_fac
                f(t + c * h_try, stage_row, k)
                k_lin, k_head, k_tail = k_parts
                k_tail *= down_fac
                np.matvec(k_lin, down, out=k_head)
            # e^{hL'} h sum_{j<6} e_j K_j and stage 6, the 5th-order solution,
            # whose derivative k_6 stays outside the frame: as e^{hL'} K_6 =
            # k_6, the error estimate adds h e_6 k_6
            np.matmul(final_weights, final_rows, out=work_flat)
            if frozen is not None:
                # the frozen ring-down term's exact integral less its
                # quadrature, and less its share of the error estimate
                np.multiply(k0_fed, fed_weights[1], out=scratch)
                sol_fed += scratch
                np.multiply(k0_fed, fed_weights[0], out=scratch)
                err_fed += scratch
                np.multiply(y_fed, y_field.conj(), out=scratch)  # conj(a) s-
                np.multiply(scratch, sz_weights[1], out=sz_term)
                sol_sz += sz_term.imag
                np.multiply(scratch, sz_weights[0], out=sz_term)
                err_sz += sz_term.imag
            np.matvec(final_lin, head_one, out=final_head)
            final_tail *= tail_one
            f(t + h_try, trial_row, fsal)
            np.multiply(fsal, err_last, out=k6_row)
            stage_row += k6_row
            np.abs(trial[0], out=mag_new[1])
            np.abs(trial[1], out=mag_new[2])
            np.maximum(mag[0], mag_new[0], out=scale)
            scale *= rtol
            scale += atol
            err = _error_norm(error, scale, ratio)
            if not math.isfinite(err):
                h = h_try / 10.0
                continue
            if err > 1.0:
                h = h_try * max(0.2, _SAFETY * err ** -0.2)
                continue
            grow = min(5.0, _SAFETY * max(err, 1e-4) ** -0.2)
            grow = 1.0 if grow < _HOLD else max(grow, _QUANTUM)
            h = min(h_cap, h_try * grow)
            mag, mag_new = mag_new, mag
            t_new = t1 if last else t + h_try
            # samples inside the step; one at t1 itself is the final state
            if j < len(stops) and stops[j] <= t_new:
                j_end = int(np.searchsorted(stops, t_new, side="left" if last else "right"))
                theta = np.clip((stops[j:j_end] - t) / h_try, 0.0, 1.0)
                k6_row[...] = fsal  # K_6, into the frame for the dense output
                k6_tail *= tail_back
                np.matvec(k6_lin, head_back, out=k6_head)
                # entry 0, then the feed into it summed over the tiles (vecdot
                # conjugates its first argument)
                sums = np.empty((8, rows, len(lin)), dtype=complex)
                sums[..., 0] = z_lin[:, 0]
                np.vecdot(fd.conj(), z_tiles, axis=-2, out=sums[..., 1:])
                samples[j:j_end] = _dense(theta, h_try, sums, lin)
                j = j_end
            t = t_new
            y_row[...] = trial_row
            k0_row[...] = fsal  # FSAL: K_0 of the next step needs no frame
    samples[j:] = z_lin[0, 0]
    return y_row.copy(), samples
