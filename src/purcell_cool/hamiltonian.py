"""Donor spin Hamiltonian: construction, sector-by-sector eigenpairs, labels.

The electron (S = 1/2) couples to the host nucleus (I = 9/2 for Bi in Si)
through an isotropic hyperfine term, and both carry a Zeeman term:

    H / h = B0 (gamma_e Sz x 1 - gamma_n 1 x Iz) + A S.I

with everything in cyclic Hz. The 20 eigenstates group into F = 4 (9 levels)
and F = 5 (11 levels) manifolds, split by A(I + 1/2) at zero field. F_z
commutes with H at every field, so each total-projection m sector evolves
independently in B0; within a two-state sector the hyperfine coupling never
vanishes, so the two branches never cross and the adiabatic (F, m) label of
a level is simply its energy rank inside its own m sector. The eigenpairs are
therefore built sector by sector in closed form (Breit & Rabi 1931);
build_hamiltonian keeps the full matrix as the reference they are tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MissingLevel

GAMMA_E_SI_BI = 27.997e9  # Hz/T
GAMMA_N_SI_BI = 6.9e6  # Hz/T
HYPERFINE_SI_BI = 1.475e9  # Hz


def angular_momentum_ops(j):
    """Jx, Jy, Jz for spin j in the |j, m> basis with m descending."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jplus[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    return jx, jy, jz


@dataclass(frozen=True)
class SpinSystemParams:
    """Gyromagnetic ratios (Hz/T), hyperfine constant (Hz), spin quantum numbers."""

    gamma_e: float
    gamma_n: float
    hyperfine_a: float
    s: float = 0.5
    i: float = 4.5

    def __post_init__(self):
        if self.gamma_e <= 0:
            raise ValueError("gamma_e must be positive")
        if self.hyperfine_a <= 0:
            raise ValueError("hyperfine_a must be positive")
        for q in (self.s, self.i):
            if abs(2 * q - round(2 * q)) > 1e-12 or q < 0:
                raise ValueError("spin quantum numbers must be nonnegative half-integers")

    @property
    def dim(self):
        return int(round(2 * self.s + 1)) * int(round(2 * self.i + 1))

    @classmethod
    def si_bi(cls):
        return cls(GAMMA_E_SI_BI, GAMMA_N_SI_BI, HYPERFINE_SI_BI, 0.5, 4.5)


@dataclass(frozen=True)
class HermitianOperator:
    dim: int
    entries: np.ndarray  # Hz

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.shape != (self.dim, self.dim):
            raise ValueError("entries shape does not match dim")
        scale = np.linalg.norm(a)
        if scale > 0 and np.linalg.norm(a - a.conj().T) > 1e-12 * scale:
            raise ValueError("operator is not Hermitian to 1e-12 relative")


def _spin_operators(params):
    """Full-space Sx..Iz, F_z and F^2 in the product basis."""
    sx, sy, sz = angular_momentum_ops(params.s)
    ix, iy, iz = angular_momentum_ops(params.i)
    es = np.eye(sx.shape[0])
    ei = np.eye(ix.shape[0])
    ops = {
        "sx": np.kron(sx, ei),
        "sy": np.kron(sy, ei),
        "sz": np.kron(sz, ei),
        "ix": np.kron(es, ix),
        "iy": np.kron(es, iy),
        "iz": np.kron(es, iz),
    }
    ops["fz"] = ops["sz"] + ops["iz"]
    sdoti = ops["sx"] @ ops["ix"] + ops["sy"] @ ops["iy"] + ops["sz"] @ ops["iz"]
    ops["f2"] = (
        params.s * (params.s + 1) * np.eye(params.dim)
        + params.i * (params.i + 1) * np.eye(params.dim)
        + 2 * sdoti
    )
    ops["sdoti"] = sdoti
    return ops


def build_hamiltonian(params, b0):
    """H in Hz for a static field b0 (tesla) along z."""
    if b0 < 0:
        raise ValueError("b0 must be nonnegative")
    ops = _spin_operators(params)
    h = b0 * (params.gamma_e * ops["sz"] - params.gamma_n * ops["iz"])
    h = h + params.hyperfine_a * ops["sdoti"]
    return HermitianOperator(params.dim, h)


@dataclass(frozen=True)
class LabeledLevel:
    index: int
    energy: float  # Hz, relative to the mean of all eigenvalues
    f: int
    m: int


@dataclass(frozen=True)
class Transition:
    lower: tuple  # (F, m)
    upper: tuple
    frequency: float  # Hz
    sx_element: float
    sy_element: float


def labeled_eigensystem(params, b0):
    """Eigenpairs and adiabatic (F, m) labels at field b0, built per m sector.

    For S = 1/2, H conserves m = m_S + m_I. The stretched states
    m = +-(I + 1/2) are eigenstates on their own; every other m couples
    |+1/2, m - 1/2> and |-1/2, m + 1/2> through the hyperfine off-diagonal
    (A/2) sqrt((I + 1/2)^2 - m^2), which never vanishes, so the lower root is
    F = I - 1/2 and the upper root F = I + 1/2 at every field (Breit-Rabi).
    Returns (levels in ascending energy, aligned eigenvector columns in the
    product basis of build_hamiltonian).
    """
    if not (math.isfinite(b0) and b0 >= 0):
        raise ValueError("b0 must be finite and nonnegative")
    if params.s != 0.5:
        raise ValueError("the sector solution needs an electron spin of 1/2")
    if params.i <= 0 or float(params.i).is_integer():
        raise ValueError("the sector solution needs I to be a positive half-odd-integer")
    a, i = params.hyperfine_a, params.i
    dim_i = int(round(2 * i)) + 1
    ze = b0 * params.gamma_e / 2
    zn = b0 * params.gamma_n

    # 2x2 sectors: basis |+1/2, m - 1/2> (index p) and |-1/2, m + 1/2> (index q)
    m = np.arange(1, dim_i) - (i + 0.5)
    p = (i + 0.5 - m).astype(int)
    q = dim_i + p - 1
    h_pp = ze - zn * (m - 0.5) + a / 2 * (m - 0.5)
    h_qq = -ze - zn * (m + 0.5) - a / 2 * (m + 0.5)
    h_pq = a / 2 * np.sqrt((i + 0.5) ** 2 - m**2)
    half_gap = np.hypot((h_pp - h_qq) / 2, h_pq)
    theta = np.arctan2(h_pq, (h_pp - h_qq) / 2) / 2
    centre = (h_pp + h_qq) / 2

    n = params.dim
    energies = np.concatenate([
        centre - half_gap,
        centre + half_gap,
        [ze - zn * i + a * i / 2, -ze + zn * i + a * i / 2],
    ])
    f_vals = np.concatenate([np.full(dim_i - 1, i - 0.5), np.full(dim_i + 1, i + 0.5)])
    m_vals = np.concatenate([m, m, [i + 0.5, -(i + 0.5)]])
    vecs = np.zeros((n, n))
    cols = np.arange(dim_i - 1)
    vecs[p, cols] = -np.sin(theta)
    vecs[q, cols] = np.cos(theta)
    vecs[p, cols + dim_i - 1] = np.cos(theta)
    vecs[q, cols + dim_i - 1] = np.sin(theta)
    vecs[0, n - 2] = 1.0
    vecs[n - 1, n - 1] = 1.0

    order = np.argsort(energies, kind="stable")
    energies = energies[order] - energies.mean()
    levels = [
        LabeledLevel(index=k, energy=float(energies[k]), f=int(f_vals[j]), m=int(m_vals[j]))
        for k, j in enumerate(order)
    ]
    return levels, vecs[:, order]


def transition_table(levels, eigenvectors, params, floor=1e-4):
    """All |dF . dm| = 1 transitions with |S_x|, |S_y| matrix elements.

    Transitions whose sx element falls below the floor are dropped.
    """
    # S (x) 1 acts on the electron index alone: the rows of each column group
    # into one block of I-components per m_S
    sx_e, sy_e, _ = angular_momentum_ops(params.s)
    v = eigenvectors
    blocks = v.reshape(sx_e.shape[0], -1)
    sx = np.abs(v.conj().T @ (sx_e @ blocks).reshape(v.shape))
    sy = np.abs(v.conj().T @ (sy_e @ blocks).reshape(v.shape))
    f = np.array([lv.f for lv in levels])
    m = np.array([lv.m for lv in levels])
    allowed = (np.abs(f[:, None] - f) == 1) & (np.abs(m[:, None] - m) == 1) & (sx >= floor)
    out = []
    for a, b in zip(*np.nonzero(np.triu(allowed, 1))):
        la, lb = levels[a], levels[b]
        out.append(
            Transition(
                lower=(la.f, la.m),
                upper=(lb.f, lb.m),
                frequency=float(lb.energy - la.energy),
                sx_element=float(sx[a, b]),
                sy_element=float(sy[a, b]),
            )
        )
    return out


@dataclass(frozen=True)
class ResonantField:
    lower: tuple
    upper: tuple
    b0: float  # tesla where the branch crosses the probe frequency


@dataclass(frozen=True)
class FieldSpectrum:
    rows: list  # (b0, Transition) in grid order
    resonances: list  # ResonantField


def spectrum_vs_field(params, b0_grid, omega0, floor=1e-4):
    """Transition frequencies on a field grid plus resonance crossings.

    Crossings of each (lower, upper) branch with omega0 are located by linear
    interpolation between adjacent grid points.
    """
    grid = [float(b) for b in b0_grid]
    if not grid:
        raise ValueError("b0 grid is empty")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("b0 grid must be strictly increasing")

    per_field = []
    for b0 in grid:
        levels, vecs = labeled_eigensystem(params, b0)
        table = transition_table(levels, vecs, params, floor)
        per_field.append({(t.lower, t.upper): t for t in table})

    rows = []
    for b0, table in zip(grid, per_field):
        for key in sorted(table):
            rows.append((b0, table[key]))

    resonances = []
    for i in range(len(grid) - 1):
        for key, t1 in per_field[i].items():
            t2 = per_field[i + 1].get(key)
            if t2 is None:
                continue
            d1 = t1.frequency - omega0
            d2 = t2.frequency - omega0
            if d1 == 0.0:
                resonances.append(ResonantField(key[0], key[1], grid[i]))
            elif d1 * d2 < 0.0:
                frac = d1 / (d1 - d2)
                resonances.append(
                    ResonantField(key[0], key[1], grid[i] + frac * (grid[i + 1] - grid[i]))
                )
    # trailing grid point can sit exactly on resonance
    for key, t in per_field[-1].items():
        if t.frequency == omega0:
            resonances.append(ResonantField(key[0], key[1], grid[-1]))
    resonances.sort(key=lambda r: r.b0)
    return FieldSpectrum(rows=rows, resonances=resonances)


def resonance_groups(resonances):
    """Group crossings that address the same quasi-degenerate doublet.

    The |f_low, m-1> <-> |f_up, m> and |f_low, m> <-> |f_up, m-1> branches
    share the unordered {m_lower, m_upper} pair and meet the probe at nearly
    the same field; each group is one operating point. Groups are returned
    sorted by mean crossing field.
    """
    groups = {}
    for r in resonances:
        key = frozenset((r.lower[1], r.upper[1]))
        groups.setdefault(key, []).append(r)
    out = sorted(groups.values(), key=lambda g: np.mean([r.b0 for r in g]))
    return out


def hyperfine_splitting(levels, f, m):
    """E(f, m+1) - E(f, m) within one manifold."""
    by_label = {(lv.f, lv.m): lv for lv in levels}
    lo = by_label.get((f, m))
    hi = by_label.get((f, m + 1))
    if lo is None or hi is None:
        raise MissingLevel(f"levels ({f},{m}) and ({f},{m + 1}) are not both present")
    return hi.energy - lo.energy
