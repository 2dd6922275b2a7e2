import math
import traceback
import warnings

import numpy as np
import pytest
import scipy.constants
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from purcell_cool import coupling, estimators, polarization, thermal

from _frozen import FROZEN

OMEGA0 = 7.408e9
RES = thermal.ResonatorParams(
    omega0=OMEGA0, kappa_int=2 * math.pi * 0.4e6, kappa_ext=2 * math.pi * 0.6e6
)


def spin_state(scen, gamma_phon, gamma_phot):
    """(Gamma_1, T_spin) under one load configuration, with the phonon bath
    at the scenario's t_phon."""
    n_phot = thermal.cavity_occupation(RES, scen)
    g1 = thermal.spin_relaxation_rate(gamma_phon, scen.t_phon, gamma_phot, n_phot, OMEGA0)
    return g1, thermal.spin_temperature(gamma_phon, gamma_phot, g1, OMEGA0)


def polarization_ratio(t_cold, t_hot):
    return thermal.spin_polarization(t_cold, OMEGA0) / thermal.spin_polarization(t_hot, OMEGA0)


def test_bose_occupation_frozen_value():
    n = thermal.bose_occupation(0.85, OMEGA0)
    assert abs(n - FROZEN["nbar_0p85"]) < 1e-12
    assert thermal.bose_occupation(0.0, OMEGA0) == 0.0


def test_occupation_temperature_inverts():
    for t in (0.02, 0.1, 0.85, 4.2):
        n = thermal.bose_occupation(t, OMEGA0)
        assert abs(thermal.occupation_temperature(n, OMEGA0) - t) < 1e-12 * t
    assert thermal.occupation_temperature(0.0, OMEGA0) == 0.0


def test_polarization_occupation_identity():
    # 1/(2n+1) = tanh(hw/2kT), exact for a bosonic mode vs two-level system
    for t in np.linspace(0.01, 10.0, 57):
        n = thermal.bose_occupation(float(t), OMEGA0)
        p = thermal.spin_polarization(float(t), OMEGA0)
        assert abs(1.0 / (2 * n + 1) - p) < 1e-12


def test_spin_polarization_limits():
    assert thermal.spin_polarization(0.0, OMEGA0) == 1.0
    assert thermal.spin_polarization(100.0, OMEGA0) < 2e-3
    for t in (-0.1, math.nan):
        with pytest.raises(ValueError):
            thermal.spin_polarization(t, OMEGA0)
    with pytest.raises(ValueError):
        thermal.bose_occupation(math.nan, OMEGA0)


def test_occupation_and_polarization_take_points_and_grids():
    t = np.array([[0.0], [1e-320], [0.02], [0.85], [4.2], [math.inf]])
    omega = np.array([OMEGA0, 2 * OMEGA0, 1e-3])
    for formula in (thermal.bose_occupation, thermal.spin_polarization):
        grid = formula(t, omega)
        assert grid.shape == (6, 3)
        for (i, j), value in np.ndenumerate(grid):
            point = formula(float(t[i, 0]), float(omega[j]))
            assert type(point) is float and point == value
        assert formula(np.empty(0), OMEGA0).shape == (0,)
    assert thermal.spin_polarization(math.inf, OMEGA0) == 0.0


def test_temperatures_whose_k_t_underflows_take_the_zero_temperature_limit():
    assert thermal.spin_polarization(1e-320, OMEGA0) == 1.0
    assert thermal.bose_occupation(1e-320, OMEGA0) == 0.0


def test_occupations_beyond_float_range_take_their_limits():
    # h omega / k t underflows to 0, and the occupation overflows
    assert thermal.bose_occupation(0.95, 1e-300) == math.inf
    assert thermal.occupation_temperature(math.inf, OMEGA0) == math.inf
    assert thermal.spin_temperature(0.0, 1.0, math.inf, OMEGA0) == math.inf
    # k log(1 + 1/n) underflows, T = h omega (n + 1/2) / k does not
    t = thermal.occupation_temperature(1e305, OMEGA0)
    assert math.isclose(t, thermal.PLANCK * OMEGA0 / thermal.BOLTZMANN * 1e305, rel_tol=1e-12)


def test_cavity_occupation_hot_and_cold():
    hot = thermal.LoadScenario("hot", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.95)
    cold = thermal.LoadScenario("cold", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.95)
    n_int = thermal.bose_occupation(0.95, OMEGA0)
    n_phon = thermal.bose_occupation(0.85, OMEGA0)
    n_cold = thermal.bose_occupation(0.02, OMEGA0)
    ki, ke, k = RES.kappa_int, RES.kappa_ext, RES.kappa
    nh = thermal.cavity_occupation(RES, hot)
    nc = thermal.cavity_occupation(RES, cold)
    assert abs(nh - (ki / k * n_int + ke / k * n_phon)) < 1e-15
    assert abs(nc - (ki / k * n_int + ke / k * (0.53 * n_cold + 0.47 * n_phon))) < 1e-15
    assert nc < nh


def test_purcell_rate():
    g = 55.0
    on = thermal.purcell_rate(g, RES)
    assert abs(on - 4 * (2 * math.pi * g) ** 2 / RES.kappa) < 1e-12 * on
    # detuned by kappa/2 (angular): rate halves
    delta = RES.kappa / (2 * 2 * math.pi)
    assert abs(thermal.purcell_rate(g, RES, delta) - on / 2) < 1e-12 * on


def test_purcell_rate_arrays_match_scalar():
    g = np.array([0.0, 12.5, 55.0, 300.0])
    delta = np.array([0.0, -2e5, 4e5, 1.5e6])
    rates = thermal.purcell_rate(g, RES, delta)
    assert rates.shape == g.shape
    for gk, dk, rk in zip(g, delta, rates):
        assert rk == thermal.purcell_rate(float(gk), RES, float(dk))


def test_purcell_rate_rejects_any_negative_coupling():
    with pytest.raises(ValueError):
        thermal.purcell_rate(np.array([10.0, -1e-3, 40.0]), RES)


def test_rate_ratio_vs_zero_temperature():
    """Gamma_1(0.85 K) / Gamma_1(0) = 2 nbar + 1 under pure radiative decay."""
    g1_hot = thermal.spin_relaxation_rate(0.0, 0.85, 1.0, FROZEN["nbar_0p85"], OMEGA0)
    g1_vac = thermal.spin_relaxation_rate(0.0, 0.85, 1.0, 0.0, OMEGA0)
    assert abs(g1_hot / g1_vac - FROZEN["rate_ratio_0p85"]) < 1e-10


def test_spin_temperature_tracks_photon_bath():
    # pure Purcell: the spin thermalizes to the photon temperature exactly
    gamma1 = thermal.spin_relaxation_rate(0.0, 0.85, 2.0, 1.3, OMEGA0)
    t_spin = thermal.spin_temperature(0.0, 2.0, gamma1, OMEGA0)
    assert abs(thermal.bose_occupation(t_spin, OMEGA0) - 1.3) < 1e-12
    with pytest.raises(ValueError, match="rates are both zero"):
        thermal.spin_temperature(0.0, 0.0, gamma1, OMEGA0)


def test_cooling_factor_identities():
    """eta = Gamma1_hot/Gamma1_cold = p_cold/p_hot, exact in the model."""
    hot = thermal.LoadScenario("hot", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.95)
    cold = thermal.LoadScenario("cold", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.76)
    eta = thermal.cooling_factor(RES, hot, cold, 0.0, 1.0)
    (g1_hot, ts_hot), (g1_cold, ts_cold) = spin_state(hot, 0.0, 1.0), spin_state(cold, 0.0, 1.0)
    assert abs(eta - polarization_ratio(ts_cold, ts_hot)) < 1e-12
    assert abs(eta - g1_hot / g1_cold) < 1e-14
    assert eta > 1.0
    assert ts_cold < ts_hot


def test_cooling_factor_with_phonon_bath_degrades():
    hot = thermal.LoadScenario("hot", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.95)
    cold = thermal.LoadScenario("cold", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.76)
    pure = thermal.cooling_factor(RES, hot, cold, 0.0, 1.0)
    mixed = thermal.cooling_factor(RES, hot, cold, 0.5, 1.0)
    assert 1.0 < mixed < pure
    # identity survives the phonon bath
    (_, ts_hot), (_, ts_cold) = spin_state(hot, 0.5, 1.0), spin_state(cold, 0.5, 1.0)
    assert abs(mixed - polarization_ratio(ts_cold, ts_hot)) < 1e-12
    # eta falls towards 1 as the phonon rate grows
    cold = thermal.LoadScenario("cold", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.95)
    etas = []
    for rate in (0.0, 0.01, 0.1, 1.0, 10.0):
        eta = thermal.cooling_factor(RES, hot, cold, rate, 0.06)
        g1_hot, g1_cold = spin_state(hot, rate, 0.06)[0], spin_state(cold, rate, 0.06)[0]
        assert abs(eta - g1_hot / g1_cold) < 1e-12 * eta
        etas.append(eta)
    assert all(e > 1 for e in etas)
    assert all(a > b for a, b in zip(etas, etas[1:]))
    assert abs(etas[-1] - 1) < 0.05


def test_resonator_params_validation():
    with pytest.raises(ValueError):
        thermal.ResonatorParams(omega0=-1.0, kappa_int=1.0, kappa_ext=1.0)
    with pytest.raises(ValueError):
        thermal.ResonatorParams(omega0=1e9, kappa_int=0.0, kappa_ext=0.0)
    with pytest.raises(ValueError):
        thermal.LoadScenario("warm", 0.5, 0.02, 0.85, 0.95)


@pytest.mark.parametrize("field, value", [
    ("omega0", math.nan), ("omega0", math.inf), ("z0", math.nan), ("z0", math.inf), ("z0", 0.0),
])
def test_resonator_params_refuse_a_frequency_or_impedance_not_positive_and_finite(field, value):
    args = {"omega0": 7.408e9, "kappa_int": 1.0, "kappa_ext": 1.0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        thermal.ResonatorParams(**args)


@pytest.mark.parametrize("field", ["t_cold", "t_phon", "t_int"])
def test_load_scenario_refuses_a_nan_temperature(field):
    temps = {"t_cold": 0.02, "t_phon": 0.85, "t_int": 0.95, field: math.nan}
    with pytest.raises(ValueError, match=f"^{field} must be nonnegative"):
        thermal.LoadScenario("hot", 0.5, **temps)


def test_resonator_linewidths_summing_past_float_range_are_rejected():
    # each rate is finite, their sum is inf, which would weigh every bath by 0
    with pytest.raises(ValueError, match="finite sum"):
        thermal.ResonatorParams(omega0=7.408e9, kappa_int=1e308, kappa_ext=1e308)
    # integers sum exactly, past float range, and overflowed where they were used
    with pytest.raises(ValueError, match="finite sum"):
        thermal.ResonatorParams(omega0=7.408e9, kappa_int=10**308, kappa_ext=10**308)


def test_constants_equal_scipy_bit_for_bit():
    assert thermal.PLANCK == scipy.constants.h
    assert thermal.BOLTZMANN == scipy.constants.k
    assert coupling.HBAR == scipy.constants.hbar
    assert coupling.MU0 == scipy.constants.mu_0
    # one definition, imported where it is used
    assert polarization.PLANCK is estimators.PLANCK is thermal.PLANCK
    assert polarization.BOLTZMANN is thermal.BOLTZMANN


# finite, zero, negative, subnormal, huge and non-finite values, and any float
_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.85, OMEGA0, -1.0, 5e-324, 1e-310, 1e-300, 1e308, -1e308,
                     math.inf, -math.inf, math.nan]),
    st.floats())
_OMEGAS = st.one_of(st.just(OMEGA0), _NUMBERS)
_RES_ARGS = st.one_of(st.just((OMEGA0, RES.kappa_int, RES.kappa_ext)),
                      st.tuples(_OMEGAS, _NUMBERS, _NUMBERS))
_LOAD_ARGS = st.one_of(st.just((0.47, 0.02, 0.85, 0.95)), st.tuples(*[_NUMBERS] * 4))


def _pairs(first, second):
    """Two numbers, or arrays of one length (0 included) mixed with numbers."""
    def pair(n):
        return st.tuples(*(st.one_of(s, hnp.arrays(float, n, elements=s))
                           for s in (first, second)))
    return st.integers(0, 3).flatmap(pair)


def _cooling_factor(res, hot, cold, gamma_phon, gamma_phot):
    return thermal.cooling_factor(thermal.ResonatorParams(*res), thermal.LoadScenario("hot", *hot),
                                  thermal.LoadScenario("cold", *cold), gamma_phon, gamma_phot)


# each public formula of thermal, and polarization's spin-1/2 estimate: how
# to call it on a tuple of drawn arguments, and the arguments to draw; a
# resonator or load scenario is built in the call, whose refusal counts too
_CALLS = {
    "bose_occupation": (thermal.bose_occupation, _pairs(_NUMBERS, _OMEGAS)),
    "spin_polarization": (thermal.spin_polarization, _pairs(_NUMBERS, _OMEGAS)),
    "approx_population_difference": (polarization.approx_population_difference,
                                     _pairs(_NUMBERS, _OMEGAS)),
    "occupation_temperature": (thermal.occupation_temperature, st.tuples(_NUMBERS, _OMEGAS)),
    "purcell_rate": (
        lambda g, res, delta: thermal.purcell_rate(g, thermal.ResonatorParams(*res), delta),
        _pairs(_NUMBERS, _NUMBERS).map(lambda gd: (gd[0], (OMEGA0, 1.0, 1.0), gd[1]))
        | st.tuples(_NUMBERS, _RES_ARGS, _NUMBERS)),
    "spin_relaxation_rate": (thermal.spin_relaxation_rate, st.tuples(*[_NUMBERS] * 4, _OMEGAS)),
    "spin_temperature": (thermal.spin_temperature, st.tuples(*[_NUMBERS] * 3, _OMEGAS)),
    "cavity_occupation": (
        lambda res, config, load: thermal.cavity_occupation(
            thermal.ResonatorParams(*res), thermal.LoadScenario(config, *load)),
        st.tuples(_RES_ARGS, st.sampled_from(["hot", "cold"]), _LOAD_ARGS)),
    "cooling_factor": (_cooling_factor,
                       st.tuples(_RES_ARGS, _LOAD_ARGS, _LOAD_ARGS, _NUMBERS, _NUMBERS)),
}
# README's limits past float range: an infinite occupation where h omega / k T
# underflows, the infinite temperature of an infinite occupation, and an
# overflowing Purcell rate or Gamma_1
_MAY_BE_INF = {"bose_occupation", "cavity_occupation", "occupation_temperature",
               "spin_temperature", "purcell_rate", "spin_relaxation_rate"}
_RES_ARGS_0 = (OMEGA0, RES.kappa_int, RES.kappa_ext)
_LOADS_0 = ((0.47, 0.02, 0.85, 0.95), (0.47, 0.02, 0.85, 0.76))


@settings(max_examples=400, deadline=None)
@given(call=st.one_of([st.tuples(st.just(name), args) for name, (_, args) in _CALLS.items()]))
@example(call=("spin_temperature", (0.0, 1.0, 0.0, OMEGA0)))
@example(call=("cooling_factor", (_RES_ARGS_0, *_LOADS_0, 0.0, 0.0)))
@example(call=("cooling_factor", (_RES_ARGS_0, *_LOADS_0, 1e308, 1e308)))
@example(call=("purcell_rate", (math.nan, _RES_ARGS_0, 0.0)))
@example(call=("purcell_rate", (50.0, _RES_ARGS_0, math.nan)))
@example(call=("purcell_rate", (math.inf, _RES_ARGS_0, 0.0)))
@example(call=("purcell_rate", (1e200, _RES_ARGS_0, 1e200)))
@example(call=("spin_relaxation_rate", (math.nan, 0.85, 1.0, 1.3, OMEGA0)))
@example(call=("spin_relaxation_rate", (0.0, 0.85, 1.0, -5.0, OMEGA0)))
@example(call=("spin_temperature", (math.nan, 1.0, 3.0, OMEGA0)))
@example(call=("spin_temperature", (1.0, 1.0, -1.0, OMEGA0)))
@example(call=("occupation_temperature", (-1.0, OMEGA0)))
@example(call=("occupation_temperature", (1.0, -OMEGA0)))
@example(call=("spin_polarization", (1.0, math.nan)))
@example(call=("bose_occupation", (0.0, 5e-324)))  # h omega and k t both 0
@example(call=("spin_relaxation_rate", (0.0, 1e308, 1.0, 1.3, OMEGA0)))  # 0 inf
@example(call=("cavity_occupation", ((OMEGA0, 0.0, 1.0), "hot", (0.47, 0.02, 0.85, 1e308))))
def test_thermal_formulas_return_finite_values_a_documented_limit_or_refuse(call):
    name, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's warnings too
        try:
            out = np.asarray(_CALLS[name][0](*args), dtype=float)
        except ValueError as exc:  # from one of the package's own checks
            where = traceback.extract_tb(exc.__traceback__)[-1]
            assert "purcell_cool" in where.filename and where.line.startswith("raise ValueError(")
            return
    assert not np.isnan(out).any() and (out > -math.inf).all(), out
    if name not in _MAY_BE_INF:
        assert np.isfinite(out).all(), out
