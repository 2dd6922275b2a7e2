import math

import numpy as np
import pytest

from purcell_cool import hamiltonian as ham
from purcell_cool import polarization as pol
from purcell_cool.config import parse_config_text

from _frozen import FROZEN

PARAMS = parse_config_text(
    "resonator: {omega0_hz: 7.408e+9, kappa_int_hz: 2.5e+6, kappa_ext_hz: 3.8e+6}"
).spin_params()
OMEGA0 = 7.408e9


def doublet(b0):
    levels, vecs = ham.labeled_eigensystem(PARAMS, b0)
    table = ham.transition_table(levels, vecs)
    pair = pol.find_quasi_degenerate_pair(table, OMEGA0)
    return levels, pair


def test_boltzmann_normalization_and_order():
    levels, _ = ham.labeled_eigensystem(PARAMS, 62.5e-3)
    popv = pol.boltzmann_populations(levels, 0.3)
    assert abs(sum(popv) - 1.0) < 1e-12
    # lower energy, higher weight
    es = [l.energy for l in levels]
    order = np.argsort(es)
    ps = np.array(popv)[order]
    assert np.all(np.diff(ps) <= 1e-15)


def test_boltzmann_zero_temperature_ground_state():
    levels, _ = ham.labeled_eigensystem(PARAMS, 62.5e-3)
    popv = pol.boltzmann_populations(levels, 0.0)
    ps = np.array(popv)
    assert abs(ps.sum() - 1.0) < 1e-15
    assert np.count_nonzero(ps) == 1
    assert ps[np.argmin([l.energy for l in levels])] == 1.0


def test_temperatures_whose_k_t_underflows_take_the_zero_temperature_limit():
    levels, _ = ham.labeled_eigensystem(PARAMS, 62.5e-3)
    zero = pol.boltzmann_populations(levels, 0.0)
    assert np.array_equal(pol.boltzmann_populations(levels, 1e-320), zero)
    assert pol.manifold_population_difference(1e-320, OMEGA0) == pytest.approx(
        pol.manifold_population_difference(1e-3, OMEGA0))


def test_find_quasi_degenerate_pair_at_operating_points():
    for b0, ms in ((62.5e-3, {0, -1}), (9.5e-3, {0, 1})):
        _, pair = doublet(b0)
        t1, t2 = pair
        assert abs(t1.frequency - t2.frequency) < 5e6
        assert {t1.lower[1], t1.upper[1]} == ms
        assert t1.lower[1] == t2.upper[1] and t1.upper[1] == t2.lower[1]


def test_no_pair_far_from_resonance():
    levels, vecs = ham.labeled_eigensystem(PARAMS, 40e-3)
    table = ham.transition_table(levels, vecs)
    with pytest.raises(ValueError):
        pol.find_quasi_degenerate_pair(table, 7.408e9, window=1e5)


def test_population_difference_frozen_values():
    levels, pair = doublet(62.5e-3)
    for t in (0.03, 0.3, 0.85, 1.0):
        dn = pol.population_difference(levels, pair, t)
        assert abs(dn - FROZEN[f"pair_dn_62p5_{t}"]) < 1e-9


def test_pair_collision_rejected():
    levels, pair = doublet(62.5e-3)
    with pytest.raises(ValueError, match="share a state"):
        pol.population_difference(levels, (pair[0], pair[0]), 0.5)


def test_zero_field_pair_equals_closed_form():
    """As B0 -> 0 the doublet difference reduces to the manifold expression."""
    levels, _ = ham.labeled_eigensystem(PARAMS, 0.0)
    gap = FROZEN["zero_field_gap_hz"]
    # all lower-manifold states equally populated at B0 = 0, same for upper
    popv = pol.boltzmann_populations(levels, 0.5)
    by_label = dict(zip([(l.f, l.m) for l in levels], popv))
    dn = (by_label[(4, 0)] + by_label[(4, -1)]) - (by_label[(5, -1)] + by_label[(5, 0)])
    assert abs(dn - FROZEN["pair_dn_b0_zero"]) < 1e-14
    closed = pol.manifold_population_difference(0.5, gap)
    assert abs(dn - 2 * closed) < 1e-14
    assert abs(closed - FROZEN["manifold_closed_form_0p5"]) < 1e-14


def test_approx_population_difference_is_tanh_over_ten():
    for t in (0.3, 0.85, 2.0):
        expect = math.tanh(6.62607015e-34 * OMEGA0 / (2 * 1.380649e-23 * t)) / 10
        assert abs(pol.approx_population_difference(t, OMEGA0) - expect) < 1e-15
