"""Packed state rows, for driving blochsim._advance one sequence at a time.

The state of one sequence is the float row [Re a, Im a, Re s-_1, Im s-_1, ..,
s_z,1..s_z,n]: the complex entries [a, s-_1..s-_n] as (re, im) pairs, then
the real s_z entries.
"""

import inspect

import numpy as np

from purcell_cool import blochsim as bs

# the solver's tolerances unless a test gives its own: run_sweep's defaults
TOLERANCES = {name: param.default for name, param in
              inspect.signature(bs.run_sweep).parameters.items() if name in ("rtol", "atol")}


def row(groups, s_minus=None, s_z=None, cavity=0.0):
    """A packed row; by default the equilibrium of groups."""
    s_minus = np.zeros(len(groups)) if s_minus is None else s_minus
    s_z = np.full(len(groups), groups.sz_eq) if s_z is None else s_z
    entries = np.concatenate(([cavity], s_minus)).astype(complex)
    return np.concatenate((entries.view(float), np.asarray(s_z, dtype=float)))


def split(y, n):
    """(a, s-, s_z) of a packed row of n groups."""
    entries = y[: 2 + 2 * n].view(complex)
    return entries[0], entries[1:], y[2 + 2 * n :]


def advance(y, groups, res, a_in, duration, **solver):
    """Advance one row under the constant drive a_in; returns the row and,
    with sample_dt, the EchoTrace of the output field."""
    y1, t, amp = bs._advance(y[None], groups, res, [a_in], duration,
                             **{**TOLERANCES, **solver})
    return y1[0], None if t is None else bs.EchoTrace(t=t, amp=amp[:, 0])


def bloch_excess(y, n):
    """Largest violation of 4|s-|^2 + s_z^2 <= 1 over the groups of a row."""
    _, s_minus, s_z = split(y, n)
    return float((4 * np.abs(s_minus) ** 2 + s_z**2).max() - 1.0)
