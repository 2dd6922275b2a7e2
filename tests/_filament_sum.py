"""Filament-by-filament reference for coupling.field_map.

field_map_reference(geom, current, x_range, y_range, nx, ny) lays the
strip's n_filaments x n_layers filaments out one by one, each with its own
position and current, and adds each one's infinite-line field over the whole
grid in turn: two divisions per filament-point pair, no shared tables. It
returns (x, y, bx, by) with bx and by of shape (ny, nx), as in FieldGrid.
"""

import math

import numpy as np

from purcell_cool.coupling import MU0


def filaments(geom, current):
    """Every filament's x, y and current, flat, layer after layer."""
    if geom.current_model == "edge-peaked":
        half = geom.width / 2 - geom.edge_cutoff
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


def field_map_reference(geom, current, x_range, y_range, nx, ny):
    x = np.linspace(x_range[0], x_range[1], nx)
    y = np.linspace(y_range[0], y_range[1], ny)
    gx, gy = np.meshgrid(x, y)
    bx = np.zeros_like(gx)
    by = np.zeros_like(gx)
    for x0, y0, i0 in zip(*filaments(geom, current)):
        dx = gx - x0
        dy = gy - y0
        r2 = dx * dx + dy * dy
        pref = MU0 * i0 / (2 * math.pi)
        bx += -pref * dy / r2
        by += pref * dx / r2
    return x, y, bx, by
