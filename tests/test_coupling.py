import math

import numpy as np
import pytest
from scipy.constants import mu_0

from purcell_cool import coupling
from purcell_cool.config import DEFAULTS
from purcell_cool.thermal import ResonatorParams

from _frozen import FROZEN

RES = ResonatorParams(omega0=7.408e9, kappa_int=2 * math.pi * 0.4e6,
                      kappa_ext=2 * math.pi * 0.6e6)
GAMMA_E = DEFAULTS["spin_system"]["gamma_e_hz_per_t"]  # Si:Bi


def test_vacuum_current_value():
    assert abs(coupling.vacuum_current(RES) - FROZEN["vacuum_current_7p408ghz_46ohm"]) < 1e-18


def far_field_error(geom, r):
    """Relative deviation from the infinite thin wire at distance r below."""
    current = 1e-3
    field = coupling.field_map(geom, current, (-1e-9, 1e-9), (-r, -r), 2, 1)
    b = math.hypot(field.bx[0, 0], field.by[0, 0])
    return abs(b / (mu_0 * current / (2 * math.pi * r)) - 1)


def test_far_field_matches_infinite_wire():
    geom = coupling.WireGeometry()
    # 50 um away from a 2 um strip the filament structure is invisible
    assert far_field_error(geom, 50e-6) < 1e-2


def test_edge_peaked_far_field():
    geom = coupling.WireGeometry(current_model="edge-peaked")
    assert far_field_error(geom, 50e-6) < 1e-2


def test_edge_peaked_concentrates_near_edges():
    uni = coupling.WireGeometry(n_filaments=256, n_layers=4)
    edge = coupling.WireGeometry(current_model="edge-peaked", n_filaments=256, n_layers=4)
    x = np.linspace(-1.5e-6, 1.5e-6, 61)
    fu = coupling.field_map(uni, 1e-3, (x[0], x[-1]), (-0.3e-6, -0.3e-6), 61, 1)
    fe = coupling.field_map(edge, 1e-3, (x[0], x[-1]), (-0.3e-6, -0.3e-6), 61, 1)
    bu = np.hypot(fu.bx, fu.by)[0]
    be = np.hypot(fe.bx, fe.by)[0]
    # same total current, but the edge-peaked model is stronger above the edge
    edge_ix = np.argmin(np.abs(x - 1e-6))
    assert be[edge_ix] > bu[edge_ix]


def test_grid_overlapping_strip_rejected():
    geom = coupling.WireGeometry()
    with pytest.raises(ValueError, match="inside the strip"):
        coupling.field_map(geom, 1e-3, (-1e-6, 1e-6), (-1e-7, 2e-8), 11, 5)


def test_coupling_map_scale():
    # matrix element 0.5 and |B1| = 1 uT gives 14.0 kHz
    field = coupling.FieldGrid(
        x=np.array([0.0]), y=np.array([-1e-6]),
        bx=np.array([[1e-6]]), by=np.array([[0.0]]),
    )
    g = coupling.coupling_map(field, 0.5, GAMMA_E)
    assert abs(g[0, 0] - 13998.5) < 0.1
    with pytest.raises(ValueError):
        coupling.coupling_map(field, 0.7, GAMMA_E)


def test_delta_distribution():
    rho = coupling.CouplingDistribution.delta(120.0)
    assert np.abs(rho.bin_edges - 120.0).max() < 1e-6
    assert abs(float(rho.quantile(0.5)) - 120.0) < 1e-6
    assert abs(rho.weights.sum() - 1.0) < 1e-15


def test_quantiles_monotone():
    edges = np.array([1.0, 2.0, 4.0, 8.0])
    rho = coupling.CouplingDistribution(bin_edges=edges, weights=np.array([0.2, 0.3, 0.5]))
    qs = rho.quantile(np.linspace(0, 1, 11))
    assert np.all(np.diff(qs) >= 0)
    assert qs[0] == 1.0 and qs[-1] == 8.0


def make_distribution(geom=None, profile=None, weights=(0.5, 0.5)):
    geom = geom or coupling.WireGeometry()
    profile = profile or coupling.ImplantationProfile()
    field = coupling.field_map(geom, coupling.vacuum_current(RES),
                               (-3e-6, 3e-6), (-1.2e-6, -0.1e-6), 41, 23)
    g1 = coupling.coupling_map(field, 0.28, GAMMA_E)
    g2 = coupling.coupling_map(field, 0.22, GAMMA_E)
    maps = [(g1, weights[0]), (g2, weights[1])]
    return coupling.coupling_distribution(maps, field, profile), field


def test_distribution_normalized_and_bounded():
    rho, field = make_distribution()
    assert abs(rho.weights.sum() - 1.0) < 1e-12
    g_max = coupling.coupling_map(field, 0.28, GAMMA_E).max()
    assert rho.bin_edges[-1] <= g_max * (1 + 1e-9)


def test_identical_maps_mixture_identity():
    field = coupling.field_map(coupling.WireGeometry(), 1e-6,
                               (-3e-6, 3e-6), (-1.2e-6, -0.1e-6), 31, 17)
    g = coupling.coupling_map(field, 0.25, GAMMA_E)
    prof = coupling.ImplantationProfile()
    one = coupling.coupling_distribution([(g, 1.0)], field, prof)
    two = coupling.coupling_distribution([(g, 0.5), (g, 0.5)], field, prof)
    assert np.allclose(one.bin_edges, two.bin_edges)
    assert np.allclose(one.weights, two.weights, atol=1e-15)


def test_empty_support_raises():
    # profile cutoff shallower than every grid cell leaves no weight
    with pytest.raises(ValueError, match="no spin weight"):
        make_distribution(profile=coupling.ImplantationProfile(cutoff_depth=1e-8))


def test_implantation_profile_support():
    prof = coupling.ImplantationProfile(cutoff_depth=1e-6)
    assert prof.density(0.5e-6) > 0
    assert prof.density(1.5e-6) == 0.0
    assert prof.density(-0.1e-6) == 0.0


def test_filament_count_enforced():
    with pytest.raises(ValueError):
        coupling.WireGeometry(n_filaments=4, n_layers=2)
