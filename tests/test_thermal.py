import math

import numpy as np
import pytest
import scipy.constants

from purcell_cool import coupling, estimators, polarization, thermal
from purcell_cool.errors import AllRatesZero

from _frozen import FROZEN

OMEGA0 = 7.408e9
RES = thermal.ResonatorParams(
    omega0=OMEGA0, kappa_int=2 * math.pi * 0.4e6, kappa_ext=2 * math.pi * 0.6e6
)


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
    with pytest.raises(ValueError):
        thermal.spin_polarization(-0.1, OMEGA0)


def test_temperatures_whose_k_t_underflows_take_the_zero_temperature_limit():
    assert thermal.spin_polarization(1e-320, OMEGA0) == 1.0
    assert thermal.bose_occupation(1e-320, OMEGA0) == 0.0


def test_cavity_occupation_hot_and_cold():
    hot = thermal.LoadScenario("hot", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.95)
    cold = thermal.LoadScenario("cold", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.95)
    n_int = thermal.bose_occupation(0.95, OMEGA0)
    n_phon = thermal.bose_occupation(0.85, OMEGA0)
    n_cold = thermal.bose_occupation(0.02, OMEGA0)
    ki, ke, k = RES.kappa_int, RES.kappa_ext, RES.kappa
    nh = thermal.cavity_occupation(RES, hot).occupation
    nc = thermal.cavity_occupation(RES, cold).occupation
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
    bath = thermal.BathCoupling(rate=0.0, temperature=0.85)
    hot = thermal.ThermalState(FROZEN["nbar_0p85"], 0.85)
    vac = thermal.ThermalState(0.0, 0.0)
    g1_hot = thermal.spin_relaxation_rate(bath, 1.0, hot, OMEGA0)
    g1_vac = thermal.spin_relaxation_rate(bath, 1.0, vac, OMEGA0)
    assert abs(g1_hot / g1_vac - FROZEN["rate_ratio_0p85"]) < 1e-10


def test_spin_temperature_tracks_photon_bath():
    # pure Purcell: the spin thermalizes to the photon temperature exactly
    bath = thermal.BathCoupling(rate=0.0, temperature=0.85)
    photon = thermal.ThermalState(occupation=1.3, effective_temperature=0.0)
    st = thermal.spin_temperature(bath, 2.0, photon, OMEGA0)
    assert abs(st.occupation - 1.3) < 1e-12
    with pytest.raises(AllRatesZero):
        thermal.spin_temperature(thermal.BathCoupling(0.0, 0.85), 0.0, photon, OMEGA0)


def test_cooling_factor_identities():
    """eta = Gamma1_hot/Gamma1_cold = p_cold/p_hot, exact in the model."""
    hot = thermal.LoadScenario("hot", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.95)
    cold = thermal.LoadScenario("cold", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.76)
    bath = thermal.BathCoupling(rate=0.0, temperature=0.85)
    res = thermal.cooling_factor(RES, hot, cold, bath, 1.0, OMEGA0)
    assert abs(res.eta - res.polarization_ratio) < 1e-12
    assert abs(res.eta - res.gamma1_hot / res.gamma1_cold) < 1e-14
    assert res.eta > 1.0
    assert res.t_spin_cold < res.t_spin_hot


def test_cooling_factor_with_phonon_bath_degrades():
    hot = thermal.LoadScenario("hot", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.95)
    cold = thermal.LoadScenario("cold", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.76)
    pure = thermal.cooling_factor(RES, hot, cold, thermal.BathCoupling(0.0, 0.85), 1.0, OMEGA0)
    mixed = thermal.cooling_factor(RES, hot, cold, thermal.BathCoupling(0.5, 0.85), 1.0, OMEGA0)
    assert 1.0 < mixed.eta < pure.eta
    # identity survives the phonon bath
    assert abs(mixed.eta - mixed.polarization_ratio) < 1e-12
    # eta falls towards 1 as the phonon rate grows
    cold = thermal.LoadScenario("cold", alpha=0.47, t_cold=0.02, t_phon=0.85, t_int=0.95)
    etas = []
    for rate in (0.0, 0.01, 0.1, 1.0, 10.0):
        cool = thermal.cooling_factor(RES, hot, cold, thermal.BathCoupling(rate, 0.85), 0.06,
                                      OMEGA0)
        assert abs(cool.eta - cool.gamma1_hot / cool.gamma1_cold) < 1e-12 * cool.eta
        etas.append(cool.eta)
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


def test_constants_equal_scipy_bit_for_bit():
    assert thermal.PLANCK == scipy.constants.h
    assert thermal.BOLTZMANN == scipy.constants.k
    assert coupling.HBAR == scipy.constants.hbar
    assert coupling.MU0 == scipy.constants.mu_0
    # one definition, imported where it is used
    assert polarization.PLANCK is estimators.PLANCK is thermal.PLANCK
    assert polarization.BOLTZMANN is estimators.BOLTZMANN is thermal.BOLTZMANN
