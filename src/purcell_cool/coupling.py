"""Vacuum field of the resonator inductor and the ensemble coupling density.

The inductive wire is a thin strip; its zero-point current sets a magnetic
field scale delta_B1 around the cross-section. A donor at position (x, y)
couples with g = gamma_e * |<Sx>| * |delta_B1(x, y)|, and integrating over
the implantation profile gives the coupling density rho(g) that the ensemble
simulator draws groups from. The strip field is evaluated by filament
decomposition, which replaces any finite-element solver at the sub-percent
level checked by the Ampere-contour and far-field tests.

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
        if self.width <= 0 or self.thickness <= 0:
            raise ValueError("width and thickness must be positive")
        if self.current_model not in ("uniform", "edge-peaked"):
            raise ValueError("current_model must be 'uniform' or 'edge-peaked'")
        if self.n_filaments * self.n_layers < 64:
            raise ValueError("need at least 64 filaments in the cross-section")


@dataclass(frozen=True)
class FieldGrid:
    x: np.ndarray  # m, cell centers
    y: np.ndarray
    bx: np.ndarray  # tesla, shape (ny, nx)
    by: np.ndarray


@dataclass(frozen=True)
class ImplantationProfile:
    """Spin density vs depth: uniform down to cutoff_depth."""

    cutoff_depth: float = 1e-6  # m

    def density(self, depth):
        depth = np.asarray(depth, dtype=float)
        return np.where((depth >= 0) & (depth <= self.cutoff_depth), 1.0, 0.0)


def _filaments(geom, current):
    """Filament positions and currents for the strip cross-section."""
    if geom.current_model == "edge-peaked":
        half = geom.width / 2 - geom.edge_cutoff
        if half <= 0:
            raise ValueError("edge cutoff consumes the whole strip")
        xs = (np.arange(geom.n_filaments) + 0.5) / geom.n_filaments * 2 * half - half
        wx = 1.0 / np.sqrt(1.0 - (2 * xs / geom.width) ** 2)
    else:
        xs = (np.arange(geom.n_filaments) + 0.5) / geom.n_filaments * geom.width - geom.width / 2
        wx = np.ones(geom.n_filaments)
    ys = (np.arange(geom.n_layers) + 0.5) / geom.n_layers * geom.thickness
    px, py = np.meshgrid(xs, ys)
    w = np.tile(wx, (geom.n_layers, 1))
    w = w / w.sum()
    return px.ravel(), py.ravel(), current * w.ravel()


def field_map(geom, current, x_range, y_range, nx, ny):
    """2D magnetostatic field of the strip over a rectangular grid.

    The grid must avoid the conductor interior; each filament contributes an
    infinite-line field and the superposition is exact for the discretized
    current distribution.
    """
    x = np.linspace(x_range[0], x_range[1], nx)
    y = np.linspace(y_range[0], y_range[1], ny)
    inside_x = np.abs(x) <= geom.width / 2
    inside_y = (y >= 0) & (y <= geom.thickness)
    if inside_x.any() and inside_y.any():
        raise ValueError("grid cells fall inside the strip cross-section")
    fx, fy, fi = _filaments(geom, current)
    gx, gy = np.meshgrid(x, y)
    bx = np.zeros_like(gx)
    by = np.zeros_like(gx)
    for x0, y0, i0 in zip(fx, fy, fi):
        dx = gx - x0
        dy = gy - y0
        r2 = dx * dx + dy * dy
        pref = MU0 * i0 / (2 * math.pi)
        bx += -pref * dy / r2
        by += pref * dx / r2
    return FieldGrid(x=x, y=y, bx=bx, by=by)


def coupling_map(field, matrix_element, gamma_e):
    """Per-cell coupling g = gamma_e * matrix_element * |B| in Hz.

    B0 points along the wire, so the full in-plane field is transverse and
    contributes.
    """
    if not 0 < matrix_element <= 0.5:
        raise ValueError("matrix_element must lie in (0, 0.5]")
    return gamma_e * matrix_element * np.hypot(field.bx, field.by)


@dataclass(frozen=True)
class CouplingDistribution:
    bin_edges: np.ndarray  # Hz, length nbins + 1
    weights: np.ndarray  # probability mass per bin, sums to 1

    @classmethod
    def delta(cls, g):
        """All mass at a single coupling value (up to a 1e-9-relative bin)."""
        eps = max(abs(g) * 1e-9, 1e-30)
        return cls(bin_edges=np.array([g - eps, g + eps]), weights=np.array([1.0]))

    def quantile(self, q):
        """Inverse CDF, linear within bins."""
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        cum[-1] = 1.0  # guard rounding
        return np.interp(q, cum, self.bin_edges)


def coupling_distribution(maps, grid, profile):
    """Histogram of couplings weighted by depth density and transition
    weight, over N_BINS log-spaced bins.

    maps: list of (g_map, weight) sharing `grid`.
    """
    depth_w = profile.density(-grid.y)  # depth below the surface is -y
    gs = []
    ws = []
    for g_map, tw in maps:
        if g_map.shape != (grid.y.size, grid.x.size):
            raise ValueError("coupling map does not share the field grid")
        cell_w = np.broadcast_to(depth_w[:, None], g_map.shape) * tw
        gs.append(g_map.ravel())
        ws.append(cell_w.ravel())
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
