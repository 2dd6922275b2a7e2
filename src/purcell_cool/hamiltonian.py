"""Donor spin Hamiltonian: sector-by-sector eigenpairs, labels, transitions.

The electron (S = 1/2) couples to the host nucleus (I = 9/2 for Bi in Si)
through an isotropic hyperfine term, and both carry a Zeeman term:

    H / h = B0 (gamma_e Sz x 1 - gamma_n 1 x Iz) + A S.I

with everything in cyclic Hz. The 20 eigenstates group into F = 4 (9 levels)
and F = 5 (11 levels) manifolds, split by A(I + 1/2) at zero field. F_z
commutes with H at every field, so each total-projection m sector evolves
independently in B0; within a two-state sector the hyperfine coupling never
vanishes, so the two branches never cross and the adiabatic (F, m) label of
a level is simply its energy rank inside its own m sector. The eigenpairs are
therefore built sector by sector in closed form (Breit & Rabi 1931), as
arrays over a whole field grid: spectrum_vs_field runs the grid, and
labeled_eigensystem and transition_table are its one-field slice. The
transition matrix elements follow in closed form from each level's two
sector amplitudes. No 20 x 20 matrix is built, neither the Hamiltonian nor
its eigenvectors; the test suite keeps both as the reference the sectors
are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpinSystemParams:
    """Gyromagnetic ratios (Hz/T), hyperfine constant (Hz) and the nuclear
    spin I, a positive half-odd-integer; the electron spin is 1/2."""

    gamma_e: float
    gamma_n: float
    hyperfine_a: float
    i: float = 4.5

    def __post_init__(self):
        for name in ("gamma_e", "hyperfine_a"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if not math.isfinite(self.gamma_n):
            raise ValueError(f"gamma_n must be finite, got {self.gamma_n!r}")
        if not (self.i > 0 and 2 * self.i % 2 == 1):
            raise ValueError(f"the nuclear spin I = {self.i!r} is not a positive "
                             "half-odd-integer")


@dataclass(frozen=True)
class LabeledLevel:
    energy: float  # Hz, relative to the mean of all eigenvalues
    f: int
    m: int


@dataclass(frozen=True)
class Transition:
    lower: tuple  # (F, m)
    upper: tuple
    frequency: float  # Hz
    sx_element: float  # |<upper|S_x|lower>|, equal to |S_y| on every link


MATRIX_ELEMENT_FLOOR = 1e-4  # |S_x| below which a transition is not listed


def _sectors(params, b0):
    """Every level on a field grid, from the closed-form F_z sectors.

    For S = 1/2, H conserves m = m_S + m_I. The stretched states
    m = +-(I + 1/2) are eigenstates on their own; every other m couples
    |+1/2, m - 1/2> and |-1/2, m + 1/2> through the hyperfine off-diagonal
    (A/2) sqrt((I + 1/2)^2 - m^2), which never vanishes, so the lower root is
    F = I - 1/2 and the upper root F = I + 1/2 at every field (Breit-Rabi).

    b0 is a 1-D array. Returns the level labels f, m (lower roots by
    ascending m, upper roots, then m = I + 1/2 and -(I + 1/2)) and, one row
    per field, energy (relative to the field's mean) and amplitudes c_p on
    |+1/2, m - 1/2> and c_q on |-1/2, m + 1/2>.
    """
    if not np.all(np.isfinite(b0) & (b0 >= 0)):
        raise ValueError("b0 must be finite and nonnegative")
    a, i = params.hyperfine_a, params.i
    dim_i = int(round(2 * i)) + 1
    # at huge fields this overflows to inf or nan, which the span check rejects
    with np.errstate(over="ignore", invalid="ignore"):
        ze = b0[:, None] * params.gamma_e / 2
        zn = b0[:, None] * params.gamma_n

        m = np.arange(1, dim_i) - (i + 0.5)  # the two-state sectors
        h_pp = ze - zn * (m - 0.5) + a / 2 * (m - 0.5)
        h_qq = -ze - zn * (m + 0.5) - a / 2 * (m + 0.5)
        h_pq = a / 2 * np.sqrt((i + 0.5) ** 2 - m**2)
        half_gap = np.hypot((h_pp - h_qq) / 2, h_pq)
        theta = np.arctan2(h_pq, (h_pp - h_qq) / 2) / 2
        centre = (h_pp + h_qq) / 2
        sin, cos = np.sin(theta), np.cos(theta)
        one, zero = np.ones_like(ze), np.zeros_like(ze)

        energy = np.concatenate([
            centre - half_gap,
            centre + half_gap,
            ze - zn * i + a * i / 2,
            -ze + zn * i + a * i / 2,
        ], axis=1)
        energy -= energy.mean(axis=1, keepdims=True)
        span = energy.max(axis=1) - energy.min(axis=1)
    # a finite span bounds every energy and every transition frequency
    if not np.isfinite(span).all():
        raise ValueError("the level energies overflow at this field")
    c_p = np.concatenate([-sin, cos, one, zero], axis=1)
    c_q = np.concatenate([cos, sin, zero, one], axis=1)
    f = np.repeat([round(i - 0.5), round(i + 0.5)], [dim_i - 1, dim_i + 1])
    m = np.concatenate([m, m, [i + 0.5, -(i + 0.5)]]).astype(int)
    return f, m, energy, c_p, c_q


def _links(f, m, energy, c_p, c_q):
    """Every S+ link between levels of different F, oriented by energy.

    Only S+ takes level j of sector m to level k of sector m + 1, so
    |<k|S_x|j>| = |<k|S_y|j>| = |c_q(j) c_p(k)| / 2. Returns, one column per
    link: the indices of its lower and upper level, E_upper - E_lower, |S_x|.
    """
    j, k = np.nonzero((m == m[:, None] + 1) & (f != f[:, None]))
    element = np.abs(c_q[..., j] * (0.5 * c_p[..., k]))
    flip = energy[..., k] < energy[..., j]
    lower = np.where(flip, k, j)
    upper = np.where(flip, j, k)
    frequency = (np.take_along_axis(energy, upper, axis=-1)
                 - np.take_along_axis(energy, lower, axis=-1))
    return lower, upper, frequency, element


def labeled_eigensystem(params, b0):
    """The levels at field b0 in ascending energy, with their adiabatic
    (F, m) labels: one field of the sector solution that spectrum_vs_field
    runs over a grid."""
    f, m, energy, _, _ = _sectors(params, np.array([b0], dtype=float))
    return [LabeledLevel(energy=float(energy[0, j]), f=int(f[j]), m=int(m[j]))
            for j in np.argsort(energy[0], kind="stable")]


def transition_table(params, b0):
    """All |dF . dm| = 1 transitions at field b0 whose |S_x| matrix element
    reaches MATRIX_ELEMENT_FLOOR, from the sector amplitudes through _links.

    They are ordered by the energy ranks of their lower, then upper level:
    by their positions in labeled_eigensystem's list.
    """
    f, m, energy, c_p, c_q = _sectors(params, np.array([b0], dtype=float))
    lower, upper, frequency, element = _links(f, m, energy[0], c_p[0], c_q[0])
    rank = np.empty_like(m)
    rank[np.argsort(energy[0], kind="stable")] = np.arange(m.size)
    return [
        Transition(
            lower=(int(f[lower[c]]), int(m[lower[c]])),
            upper=(int(f[upper[c]]), int(m[upper[c]])),
            frequency=float(frequency[c]),
            sx_element=float(element[c]),
        )
        for c in np.lexsort((rank[upper], rank[lower]))
        if element[c] >= MATRIX_ELEMENT_FLOOR
    ]


@dataclass(frozen=True)
class ResonantField:
    lower: tuple
    upper: tuple
    b0: float  # tesla where the branch crosses the probe frequency


@dataclass(frozen=True)
class FieldSpectrum:
    """One row per transition and field, in grid order and, within a field,
    in (lower, upper) label order."""

    b0: np.ndarray  # tesla
    lower: np.ndarray  # (rows, 2): (F, m) of the lower level
    upper: np.ndarray  # (rows, 2): (F, m) of the upper level
    frequency: np.ndarray  # Hz
    sx_element: np.ndarray  # |S_x|, equal to |S_y|
    resonances: list  # ResonantField, by crossing field


def spectrum_vs_field(params, b0_grid, omega0):
    """Transition frequencies on a field grid plus resonance crossings.

    A transition crosses omega0 where f - omega0 changes sign between
    adjacent grid points at which it is listed with the same orientation;
    the crossing is located by linear interpolation.
    """
    if not 0 < omega0 < math.inf:
        raise ValueError(f"omega0 must be positive and finite, got {omega0!r}")
    grid = np.asarray(b0_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("b0 grid is empty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("b0 grid must be strictly increasing")
    f, m, energy, c_p, c_q = _sectors(params, grid)
    lower, upper, frequency, element = _links(f, m, energy, c_p, c_q)
    listed = element >= MATRIX_ELEMENT_FLOOR
    labels = np.stack([f, m], axis=-1)

    d = frequency - omega0
    same = listed[:-1] & listed[1:] & (lower[:-1] == lower[1:])
    # a sign change, read from the signs: with a huge omega0 the product of
    # two differences overflows
    r, c = np.nonzero(same & (np.sign(d[:-1]) * np.sign(d[1:]) < 0.0))
    d1, d2 = d[r, c], d[r + 1, c]
    # an exact hit counts where the next interval keeps the transition, and
    # at the trailing grid point
    er, ec = np.nonzero(np.concatenate([same, listed[-1:]]) & (d == 0.0))
    rows, cols = np.concatenate([r, er]), np.concatenate([c, ec])
    fields = np.concatenate([grid[r] + d1 / (d1 - d2) * (grid[r + 1] - grid[r]), grid[er]])
    resonances = sorted(
        (ResonantField(tuple(labels[lo].tolist()), tuple(labels[up].tolist()), b)
         for lo, up, b in zip(lower[rows, cols], upper[rows, cols], fields.tolist())),
        key=lambda res: res.b0,
    )

    rank = np.empty_like(m)
    rank[np.lexsort((m, f))] = np.arange(m.size)
    order = np.argsort(rank[lower] * m.size + rank[upper], axis=1)
    lower, upper, frequency, element, listed = (
        np.take_along_axis(x, order, axis=1) for x in (lower, upper, frequency, element, listed))
    return FieldSpectrum(
        b0=np.broadcast_to(grid[:, None], listed.shape)[listed],
        lower=labels[lower[listed]],
        upper=labels[upper[listed]],
        frequency=frequency[listed],
        sx_element=element[listed],
        resonances=resonances,
    )


def resonance_groups(resonances):
    """Group crossings that address the same quasi-degenerate doublet.

    The |f_low, m-1> <-> |f_up, m> and |f_low, m> <-> |f_up, m-1> branches
    share the unordered {m_lower, m_upper} pair and meet the probe at nearly
    the same field; each group is one operating point. Groups are returned
    sorted by mean crossing field, and each keeps its crossings in input order.
    """
    groups = {}
    for r in resonances:
        key = frozenset((r.lower[1], r.upper[1]))
        groups.setdefault(key, []).append(r)
    out = sorted(groups.values(), key=lambda g: np.mean([r.b0 for r in g]))
    return out
