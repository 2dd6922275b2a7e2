"""Vacuum field of the resonator inductor and the ensemble coupling density.

The inductive wire is a thin strip; its zero-point current sets a magnetic
field scale delta_B1 around the cross-section. A donor at position (x, y)
couples with g = gamma_e * |<Sx>| * |delta_B1(x, y)|, and integrating over
the implantation profile gives the coupling density rho(g) that the ensemble
simulator draws groups from. The strip field is evaluated by filament
decomposition, which replaces any finite-element solver at the sub-percent
level checked by the Ampere-contour and far-field tests.

The filaments sit on a grid of n_filaments columns by n_layers layers, and
every layer carries the same column currents I. So field_map builds the
tables dx^2, dx I and I over (grid x, column) once; for each grid row and
layer, at offset dy, one division makes 1/(dx^2 + dy^2), whose dot product
with dx I gives that layer's B_y along the row and with -dy I its B_x. That
is one division per filament-point pair and O(nx n_filaments) scratch.

Geometry convention: the strip occupies |x| <= width/2, 0 <= y <= thickness,
current along z (parallel to the static field B0). Spins live at y < 0 and
depth below the surface is -y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .thermal import PLANCK

HBAR = PLANCK / (2 * math.pi)  # J s
MU0 = 1.25663706127e-06  # H/m, vacuum permeability (CODATA 2022)
N_BINS = 200  # log-spaced histogram bins of rho(g); couplings span decades


def vacuum_current(res):
    """Zero-point current omega0 sqrt(hbar / 2 Z0), omega0 in angular units."""
    return 2 * math.pi * res.omega0 * math.sqrt(HBAR / (2 * res.z0))


@dataclass(frozen=True)
class WireGeometry:
    width: float = 2e-6  # m
    thickness: float = 50e-9  # m
    current_model: str = "uniform"  # or "edge-peaked"
    edge_cutoff: float = 100e-9  # m, clamp for the edge-peaked divergence
    n_filaments: int = 64  # across the width
    n_layers: int = 4  # across the thickness

    def __post_init__(self):
        for name in ("width", "thickness"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)!r}")
        if self.current_model not in ("uniform", "edge-peaked"):
            raise ValueError("current_model must be 'uniform' or 'edge-peaked'")
        if self.n_filaments * self.n_layers < 64:
            raise ValueError("need at least 64 filaments in the cross-section")
        if self.current_model == "edge-peaked" and not 0 <= self.edge_cutoff < self.width / 2:
            raise ValueError("edge cutoff consumes the whole strip" if self.edge_cutoff >= 0
                             else f"edge_cutoff must be >= 0, got {self.edge_cutoff!r}")


@dataclass(frozen=True)
class FieldGrid:
    x: np.ndarray  # m, cell centers
    y: np.ndarray
    bx: np.ndarray  # tesla, shape (ny, nx)
    by: np.ndarray


def _filaments(geom, current):
    """The strip's filaments as n_filaments columns by n_layers layers: the
    column x positions, the layer y positions and the current each column
    carries in every layer."""
    if geom.current_model == "edge-peaked":
        half = geom.width / 2 - geom.edge_cutoff  # positive, as WireGeometry checks
        xs = (np.arange(geom.n_filaments) + 0.5) / geom.n_filaments * 2 * half - half
        wx = 1.0 / np.sqrt(1.0 - (2 * xs / geom.width) ** 2)
    else:
        xs = (np.arange(geom.n_filaments) + 0.5) / geom.n_filaments * geom.width - geom.width / 2
        wx = np.ones(geom.n_filaments)
    ys = (np.arange(geom.n_layers) + 0.5) / geom.n_layers * geom.thickness
    return xs, ys, current * wx / (wx.sum() * geom.n_layers)


def field_map(geom, current, x_range, y_range, nx, ny):
    """2D magnetostatic field of the strip over a rectangular grid.

    The grid must avoid the conductor interior; each filament contributes an
    infinite-line field and the superposition is exact for the discretized
    current distribution.
    """
    bad = [f"{name} {value!r}" for name, value, ok in (
        ("x_range", x_range, all(map(math.isfinite, x_range))),
        ("y_range", y_range, all(map(math.isfinite, y_range))),
        ("nx", nx, nx >= 1), ("ny", ny, ny >= 1)) if not ok]
    if bad:
        raise ValueError(f"need finite ranges and at least 1 point per axis, got {', '.join(bad)}")
    x = np.linspace(x_range[0], x_range[1], nx)
    y = np.linspace(y_range[0], y_range[1], ny)
    inside_x = np.abs(x) <= geom.width / 2
    inside_y = (y >= 0) & (y <= geom.thickness)
    if inside_x.any() and inside_y.any():
        raise ValueError("grid cells fall inside the strip cross-section")
    xs, ys, cur = _filaments(geom, current)
    dx = x[:, None] - xs  # (nx, n_filaments), the same for every row and layer
    dx2 = dx * dx
    dx_cur = dx * cur
    r2 = dx  # dx's buffer, free from here on, holds each row and layer's r^2
    bx = np.zeros((ny, nx))
    by = np.zeros((ny, nx))
    for row, y_row in enumerate(y):
        for dy in y_row - ys:
            inv_r2 = np.divide(1.0, np.add(dx2, dy * dy, out=r2), out=r2)
            by[row] += np.vecdot(inv_r2, dx_cur)
            bx[row] -= inv_r2 @ (dy * cur)
    pref = MU0 / (2 * math.pi)
    return FieldGrid(x=x, y=y, bx=pref * bx, by=pref * by)


def coupling_map(field, matrix_element, gamma_e):
    """Per-cell coupling g = gamma_e * matrix_element * |B| in Hz.

    B0 points along the wire, so the full in-plane field is transverse and
    contributes.
    """
    if not 0 < matrix_element <= 0.5:
        raise ValueError("matrix_element must lie in (0, 0.5]")
    if not 0 < gamma_e < math.inf:
        raise ValueError(f"gamma_e must be positive and finite, got {gamma_e!r}")
    return gamma_e * matrix_element * np.hypot(field.bx, field.by)


@dataclass(frozen=True)
class CouplingDistribution:
    bin_edges: np.ndarray  # Hz, length nbins + 1
    weights: np.ndarray  # probability mass per bin, sums to 1

    @classmethod
    def delta(cls, g):
        """All mass at a single coupling value (up to a 1e-9-relative bin)."""
        if not 0 <= g < math.inf:
            raise ValueError(f"g must be nonnegative and finite, got {g!r}")
        eps = abs(g) * 1e-9
        return cls(bin_edges=np.array([g - eps, g + eps]), weights=np.array([1.0]))

    def quantile(self, q):
        """Inverse CDF, linear within bins, at each q in [0, 1]."""
        if not np.all((np.asarray(q) >= 0) & (np.asarray(q) <= 1)):
            raise ValueError(f"q must lie in [0, 1], got {q!r}")
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        cum[-1] = 1.0  # guard rounding
        return np.interp(q, cum, self.bin_edges)


def coupling_distribution(maps, grid, cutoff_depth):
    """Histogram of couplings over N_BINS log-spaced bins, for spins
    implanted uniformly from the surface down to cutoff_depth (m).

    maps: the coupling maps of the transitions, each over `grid`, all of
    equal weight (the resonant doublet's two transitions share its spins).
    """
    depth = -grid.y  # depth below the surface is -y
    depth_w = np.where((depth >= 0) & (depth <= cutoff_depth), 1.0, 0.0)
    gs = []
    ws = []
    for g_map in maps:
        if g_map.shape != (grid.y.size, grid.x.size):
            raise ValueError("coupling map does not share the field grid")
        gs.append(g_map.ravel())
        ws.append(np.broadcast_to(depth_w[:, None], g_map.shape).ravel())
    g = np.concatenate(gs)
    w = np.concatenate(ws)
    total = w.sum()
    if total <= 0:
        raise ValueError("no spin weight inside the profile support")
    w = w / total
    lo = g[w > 0].min()
    hi = g[w > 0].max()
    if hi <= lo * (1 + 1e-12):
        return CouplingDistribution.delta(float(lo))
    edges = np.geomspace(lo, hi, N_BINS + 1)
    edges[0] *= 1 - 1e-12
    edges[-1] *= 1 + 1e-12
    # the edges enclose every weighted coupling, so the bins hold all the mass
    hist, _ = np.histogram(g, bins=edges, weights=w)
    return CouplingDistribution(bin_edges=edges, weights=hist / hist.sum())
