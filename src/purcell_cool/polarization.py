"""Boltzmann populations over the donor levels and echo population differences.

The echo amplitude at one of the quasi-degenerate doublets measures the
population imbalance between the two lower and the two upper states involved,
summed over both transitions. At temperatures large against the in-manifold
splittings this reduces to simple closed forms in x = h omega0 / k T.
"""

from __future__ import annotations

import math
import numpy as np

from .thermal import BOLTZMANN, PLANCK, spin_polarization


def boltzmann_populations(levels, t):
    """Thermal populations p = exp(-E/kT)/Z, aligned with the given levels.

    t = 0 is handled as the limit: all weight spread uniformly over the
    lowest-energy set. Energies are shifted by the minimum before
    exponentiation so low temperatures cannot underflow the partition sum.
    """
    if t < 0:
        raise ValueError("temperature must be nonnegative")
    energies = np.array([lv.energy for lv in levels])
    if BOLTZMANN * t == 0:  # t = 0, or so small that k t underflows
        ground = energies - energies.min() < 1e-6 * max(np.ptp(energies), 1.0)
        return ground / ground.sum()
    w = np.exp(-(energies - energies.min()) * PLANCK / (BOLTZMANN * t))
    return w / w.sum()


def _pair_states(pair):
    """Validate the doublet pattern and return its four (F, m) labels.

    The two transitions must be |f, m-1> <-> |f', m| and |f, m> <-> |f', m-1>
    for one common m; anything else raises ValueError.
    """
    t1, t2 = pair
    states = {t1.lower, t1.upper, t2.lower, t2.upper}
    if len(states) != 4:
        raise ValueError("transitions share a state")
    if t1.lower[0] != t2.lower[0] or t1.upper[0] != t2.upper[0]:
        raise ValueError("transitions do not share manifolds")
    if t1.lower[1] != t2.upper[1] or t1.upper[1] != t2.lower[1]:
        raise ValueError("m labels do not form the crossed doublet pattern")
    return t1, t2


def population_difference(levels, pair, t):
    """Summed population difference of a quasi-degenerate transition pair.

    Returns p(lower1) + p(lower2) - p(upper1) - p(upper2), i.e. the echo
    weight per total donor count N = 1.
    """
    t1, t2 = _pair_states(pair)
    p = boltzmann_populations(levels, t)
    index = {(lv.f, lv.m): k for k, lv in enumerate(levels)}
    return float(
        p[index[t1.lower]] + p[index[t2.lower]] - p[index[t1.upper]] - p[index[t2.upper]]
    )


def find_quasi_degenerate_pair(transitions, target, window=5e6):
    """Pick the transition doublet lying within `window` Hz of `target`.

    The physical degeneracy scale is the resonator linewidth, so the window
    is a config property rather than a constant.
    """
    near = [t for t in transitions if abs(t.frequency - target) <= window]
    for a in range(len(near)):
        for b in range(a + 1, len(near)):
            try:
                _pair_states((near[a], near[b]))
            except ValueError:
                continue
            return near[a], near[b]
    raise ValueError(f"no quasi-degenerate pair within {window:g} Hz of {target:g} Hz")


def approx_population_difference(t, omega0):
    """Spin-1/2 style estimate tanh(x/2)/10 with x = h omega0 / k t."""
    return spin_polarization(t, omega0) / 10.0


def manifold_population_difference(t, omega0, n_lower=9, n_upper=11):
    """Closed form treating the two manifolds as degenerate level sets.

    With x = h omega0 / k t:

        (1/n_lower) (1 + e^-x) / (1 + (n_upper/n_lower) e^-x) tanh(x/2)

    This is the per-transition population difference; the summed doublet
    value of population_difference approaches exactly twice this as B0 -> 0.
    """
    if t <= 0:
        raise ValueError("temperature must be positive")
    kt = BOLTZMANN * t
    x = PLANCK * omega0 / kt if kt else math.inf  # k t may underflow
    u = math.exp(-x)
    return (1.0 / n_lower) * (1 + u) / (1 + (n_upper / n_lower) * u) * math.tanh(x / 2)
