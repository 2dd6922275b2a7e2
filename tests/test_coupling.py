import math

import numpy as np
import pytest
from scipy.constants import mu_0

from purcell_cool import coupling
from purcell_cool.config import FIELDS
from purcell_cool.thermal import ResonatorParams

from _filament_sum import field_map_reference
from _frozen import FROZEN

RES = ResonatorParams(omega0=7.408e9, kappa_int=2 * math.pi * 0.4e6,
                      kappa_ext=2 * math.pi * 0.6e6)
GAMMA_E = FIELDS["spin_system"]["gamma_e_hz_per_t"][2]  # Si:Bi


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


MODELS = ["uniform", "edge-peaked"]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("n_filaments, n_layers", [(96, 1), (64, 4)])
@pytest.mark.parametrize("x_range, y_range, nx, ny", [
    ((-2.3e-6, 3.1e-6), (-1.4e-6, -0.02e-6), 37, 23),  # below the strip, off centre
    ((1.05e-6, 2.9e-6), (-0.6e-6, 0.45e-6), 19, 31),  # beside it, across its thickness
])
def test_field_map_matches_the_filament_by_filament_sum(model, n_filaments, n_layers,
                                                         x_range, y_range, nx, ny):
    geom = coupling.WireGeometry(current_model=model, n_filaments=n_filaments,
                                 n_layers=n_layers)
    field = coupling.field_map(geom, 1e-3, x_range, y_range, nx, ny)
    x, y, bx, by = field_map_reference(geom, 1e-3, x_range, y_range, nx, ny)
    assert np.array_equal(field.x, x) and np.array_equal(field.y, y)
    assert field.bx.shape == field.by.shape == (ny, nx)
    miss = np.hypot(field.bx - bx, field.by - by).max()
    assert miss <= 1e-13 * np.hypot(bx, by).max()


@pytest.mark.parametrize("model", MODELS)
def test_circulation_around_the_strip_is_mu0_times_its_current(model):
    # Ampere's law on the rectangle x = +-3 um, y = +-1 um, counterclockwise,
    # each side a 1-D field map of 2,001 points integrated by the trapezoid rule
    geom = coupling.WireGeometry(current_model=model)
    current, n = 1e-3, 2001
    xa, ya = 3e-6, 1e-6
    bottom = coupling.field_map(geom, current, (-xa, xa), (-ya, -ya), n, 1)
    top = coupling.field_map(geom, current, (-xa, xa), (ya, ya), n, 1)
    right = coupling.field_map(geom, current, (xa, xa), (-ya, ya), 1, n)
    left = coupling.field_map(geom, current, (-xa, -xa), (-ya, ya), 1, n)
    circulation = (np.trapezoid(bottom.bx[0], bottom.x) - np.trapezoid(top.bx[0], top.x)
                   + np.trapezoid(right.by[:, 0], right.y) - np.trapezoid(left.by[:, 0], left.y))
    assert abs(circulation / (mu_0 * current) - 1) <= 1e-6


def test_grid_overlapping_strip_rejected():
    geom = coupling.WireGeometry()
    with pytest.raises(ValueError, match="inside the strip"):
        coupling.field_map(geom, 1e-3, (-1e-6, 1e-6), (-1e-7, 2e-8), 11, 5)


@pytest.mark.parametrize("x_range, y_range, nx, ny, name", [
    ((math.nan, 3e-6), (-2e-6, -1e-7), 11, 5, "x_range"),
    ((-3e-6, 3e-6), (-2e-6, math.inf), 11, 5, "y_range"),
    ((-3e-6, 3e-6), (-2e-6, -1e-7), 0, 5, "nx"),
    ((-3e-6, 3e-6), (-2e-6, -1e-7), 11, -1, "ny"),
])
def test_field_map_refuses_a_bad_grid_by_name(x_range, y_range, nx, ny, name):
    geom = coupling.WireGeometry()
    with pytest.raises(ValueError, match=name):
        coupling.field_map(geom, 1e-3, x_range, y_range, nx, ny)


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
    with pytest.raises(ValueError, match="^gamma_e must be positive and finite"):
        coupling.coupling_map(field, 0.3, gamma_e=math.nan)


def test_delta_distribution():
    rho = coupling.CouplingDistribution.delta(120.0)
    assert np.abs(rho.bin_edges - 120.0).max() < 1e-6
    assert abs(float(rho.quantile(0.5)) - 120.0) < 1e-6
    with pytest.raises(ValueError, match="^g must be nonnegative and finite"):
        coupling.CouplingDistribution.delta(math.nan)
    assert abs(rho.weights.sum() - 1.0) < 1e-15


@pytest.mark.parametrize("g", 10.0 ** np.arange(-300, 301, 20))
def test_delta_quantiles_stay_within_its_relative_bin(g):
    # the bin's half-width is 1e-9 g at any scale, up to the rounding of its
    # edges g -+ 1e-9 g: an absolute floor would put quantiles of a coupling
    # below 1e-21 Hz below 0
    qs = coupling.CouplingDistribution.delta(g).quantile(np.linspace(0, 1, 11))
    assert np.all(np.abs(qs - g) <= 1e-9 * g + 2 * np.spacing(g))


@pytest.mark.parametrize("q", [2.0, -0.1, math.nan, [0.5, math.inf], np.array([0.5, 1.5])])
def test_quantile_refuses_a_q_outside_0_to_1(q):
    # q = 2.0 was clamped to the top edge and q = nan gave nan
    with pytest.raises(ValueError, match=r"^q must lie in \[0, 1\]"):
        coupling.CouplingDistribution.delta(120.0).quantile(q)


def test_quantiles_monotone():
    edges = np.array([1.0, 2.0, 4.0, 8.0])
    rho = coupling.CouplingDistribution(bin_edges=edges, weights=np.array([0.2, 0.3, 0.5]))
    qs = rho.quantile(np.linspace(0, 1, 11))
    assert np.all(np.diff(qs) >= 0)
    assert qs[0] == 1.0 and qs[-1] == 8.0


def make_distribution(geom=None, cutoff_depth=1e-6):
    geom = geom or coupling.WireGeometry()
    field = coupling.field_map(geom, coupling.vacuum_current(RES),
                               (-3e-6, 3e-6), (-1.2e-6, -0.1e-6), 41, 23)
    g1 = coupling.coupling_map(field, 0.28, GAMMA_E)
    g2 = coupling.coupling_map(field, 0.22, GAMMA_E)
    return coupling.coupling_distribution([g1, g2], field, cutoff_depth), field


def test_distribution_normalized_and_bounded():
    rho, field = make_distribution()
    assert abs(rho.weights.sum() - 1.0) < 1e-12
    g_max = coupling.coupling_map(field, 0.28, GAMMA_E).max()
    assert rho.bin_edges[-1] <= g_max * (1 + 1e-9)


def test_identical_maps_mixture_identity():
    field = coupling.field_map(coupling.WireGeometry(), 1e-6,
                               (-3e-6, 3e-6), (-1.2e-6, -0.1e-6), 31, 17)
    g = coupling.coupling_map(field, 0.25, GAMMA_E)
    one = coupling.coupling_distribution([g], field, 1e-6)
    two = coupling.coupling_distribution([g, g], field, 1e-6)
    assert np.allclose(one.bin_edges, two.bin_edges)
    assert np.allclose(one.weights, two.weights, atol=1e-15)


def test_empty_support_raises():
    # profile cutoff shallower than every grid cell leaves no weight
    with pytest.raises(ValueError, match="no spin weight"):
        make_distribution(cutoff_depth=1e-8)


def test_implantation_profile_support():
    # the spins lie from the surface (y = 0) down to the cutoff depth: rows
    # above the surface or below the cutoff carry no weight
    def grid(y):
        return coupling.FieldGrid(x=np.zeros(2), y=np.array(y), bx=None, by=None)

    g = np.array([[1.0, 2.0], [3.0, 4.0], [10.0, 20.0], [30.0, 40.0], [50.0, 60.0]])
    rho = coupling.coupling_distribution(
        [g], grid([0.4e-6, 0.1e-6, -0.2e-6, -0.9e-6, -1.5e-6]), 1e-6)
    inside = coupling.coupling_distribution([g[2:4]], grid([-0.2e-6, -0.9e-6]), 1e-6)
    assert np.array_equal(rho.bin_edges, inside.bin_edges)
    assert np.array_equal(rho.weights, inside.weights)
    assert rho.bin_edges[0] < 10.0 < 40.0 < rho.bin_edges[-1] < 50.0


def test_filament_count_enforced():
    with pytest.raises(ValueError):
        coupling.WireGeometry(n_filaments=4, n_layers=2)


@pytest.mark.parametrize("edge_cutoff", [1e-6, 1.5e-6, math.inf])  # half the width and more
def test_edge_cutoff_that_consumes_the_strip_is_refused_by_the_geometry(edge_cutoff):
    with pytest.raises(ValueError, match="edge cutoff consumes the whole strip"):
        coupling.WireGeometry(current_model="edge-peaked", edge_cutoff=edge_cutoff)
    # the cutoff clamps only the edge-peaked current
    assert coupling.WireGeometry(edge_cutoff=edge_cutoff).edge_cutoff == edge_cutoff


@pytest.mark.parametrize("kwargs, field", [
    ({"width": math.inf}, "width"),
    ({"width": math.nan}, "width"),
    ({"thickness": math.inf}, "thickness"),
    ({"thickness": math.nan}, "thickness"),
    ({"current_model": "edge-peaked", "edge_cutoff": -1e-7}, "edge_cutoff"),
    ({"current_model": "edge-peaked", "edge_cutoff": math.nan}, "edge_cutoff"),
])
def test_a_size_that_is_not_finite_or_is_negative_is_refused_by_the_geometry(kwargs, field):
    # such sizes once reached field_map, which warned or returned nan
    with pytest.raises(ValueError, match=f"^{field} must be "):
        coupling.WireGeometry(**kwargs)
