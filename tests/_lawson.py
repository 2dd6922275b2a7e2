"""Fixed-step Lawson DP5 reference for the integrating-factor solver.

lawson_step takes one step of y' = M y + f(t, y) on complex rows, with
scipy's expm of the dense matrix M in place of the solver's closed-form
factors and interaction frame, and lawson_error gives its error estimate.
fixed_step_solver(h) wraps the step in the call signature of
purcell_cool.ode.dormand_prince, its entry-major state and its rhs
f(t, y, out) included, so that monkeypatching blochsim.dormand_prince with
it marches blochsim's own rhs, linear part and feed with fixed steps.

entry_major and from_entry_major convert complex rows to and from the
solver's state order, unpack reads packed float rows (R = 1 states, or
error estimates row by row) as complex rows, and blocks splits complex
rows as the solver's error norm takes an error estimate.
"""

import numpy as np
from scipy.linalg import expm

from purcell_cool import ode


def linear_matrix(linear, feed, width):
    """The dense L' on `width` complex entries, the tiles of the solver's
    linear and feed written out: L is linear[0] on entry 0, then the period
    linear[1:] once per tile of feed, (tiles, period) or one tile (period,),
    and 0 past them; the border row feeds entries 1..feed.size into entry 0
    with the weights of feed, tile by tile."""
    linear, feed = np.asarray(linear), np.atleast_2d(feed)
    diagonal = np.concatenate((linear[:1], np.tile(linear[1:], len(feed))))
    matrix = np.zeros((width, width), dtype=complex)
    matrix[np.diag_indices(len(diagonal))] = diagonal
    matrix[0, 1 : feed.size + 1] = feed.ravel()
    return matrix


def unpack(y, q):
    """Packed float rows (R, w) as complex rows: the q complex entries, then
    the w - 2q real ones."""
    return np.concatenate((y[:, : 2 * q].view(complex), y[:, 2 * q :]), axis=1)


def entry_major(c, q):
    """Complex rows (R, m) as the solver's state: a float array
    (R, m + q) that holds, flat, the q complex entries as one (q, R) block
    of (re, im) pairs, then the m - q real ones as one (m - q, R) block."""
    rows = len(c)
    out = np.empty((rows, q + c.shape[1]))
    flat = out.reshape(-1)
    flat[: 2 * q * rows].view(complex).reshape(q, rows)[...] = c[:, :q].T
    flat[2 * q * rows :].reshape(-1, rows)[...] = c[:, q:].real.T
    return out


def from_entry_major(y, q):
    """The inverse of entry_major: complex rows."""
    rows = len(y)
    flat = y.reshape(-1)
    return np.concatenate((flat[: 2 * q * rows].view(complex).reshape(q, rows).T,
                           flat[2 * q * rows :].reshape(-1, rows).T), axis=1)


def blocks(c, q):
    """The complex block (q, R) and the real block (m - q, R) of complex
    rows (R, m)."""
    return c[:, :q].T, c[:, q:].real.T


def _weight(d, h, matrix, cache, v):
    """v e^{d hM}^T on rows v, the exponential kept in cache per (h, d)."""
    if (h, d) not in cache:
        cache[h, d] = expm(d * h * matrix).T
    return v @ cache[h, d]


def lawson_step(f, t, y, h, matrix, cache, k0=None):
    """One Lawson DP5 step: stage i is e^{c_i hM} y + h sum_j a_ij
    e^{(c_i - c_j) hM} k_j, on complex rows y (R, m); k0 is f(t, y) when
    the caller has it. cache, a dict, keeps the exponentials across steps
    of one matrix. Returns the six stages (the last is the 5th-order
    solution) and the seven derivatives k_j (the last at that solution)."""
    k = [f(t, y) if k0 is None else k0]
    stages = []
    for i in range(1, 7):
        stage = _weight(ode._C[i], h, matrix, cache, y) + h * sum(
            ode._A[i, j] * _weight(ode._C[i] - ode._C[j], h, matrix, cache, k[j])
            for j in range(i))
        stages.append(stage)
        k.append(f(t + ode._C[i] * h, stage))
    return stages, k


def lawson_error(k, h, matrix, cache):
    """The error estimate h sum_j e_j e^{(1 - c_j) hM} k_j of one step."""
    return h * sum(e * _weight(1 - c, h, matrix, cache, kj)
                   for e, c, kj in zip(ode._E, ode._C, k))


def fixed_step_solver(h):
    """A stand-in for ode.dormand_prince that ignores rtol, atol and gain
    and marches round(span / h) equal Lawson DP5 steps: at steps as short
    as the references take, the exact integral of the frozen ring-down term
    that gain enables differs from DP5's quadrature of it below rounding.
    It takes and returns the solver's entry-major state and hands its rhs
    entry-major rows.
    Sample times must lie on that step grid; a sample is complex entry 0 of
    each row there."""

    def solve(f, t0, y0, t1, *, linear, feed, rtol=None, atol=None, sample_times=None,
              gain=None):
        q = 1 + np.size(feed)
        n = max(1, round((t1 - t0) / h))
        step = (t1 - t0) / n
        c = from_entry_major(y0, q)
        matrix = linear_matrix(linear, feed, c.shape[1])
        cache = {}

        def rhs(t, v):
            out = np.empty_like(y0)
            f(t, entry_major(v, q), out)
            return from_entry_major(out, q)

        entry0 = [c[:, 0]]
        k_last = None
        for i in range(n):
            stages, k = lawson_step(rhs, t0 + i * step, c, step, matrix, cache, k_last)
            c, k_last = stages[-1], k[-1]  # FSAL: k_6 is f at the new state
            entry0.append(c[:, 0])
        stops = np.array([] if sample_times is None else sample_times, dtype=float)
        at = np.rint((stops - t0) / step).astype(int)
        assert np.allclose(t0 + at * step, stops, rtol=0, atol=1e-6 * step)
        return entry_major(c, q), np.array(entry0)[at].reshape(len(stops), len(c))

    return solve
