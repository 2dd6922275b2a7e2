"""Thermal occupations, Purcell rates, and the hot/cold-load cooling factor.

A mode coupled to several bosonic baths equilibrates to the rate-weighted
mixture of their occupations. The resonator mode sees the internal-loss bath
and the input line; switching the input line between a hot and a cold load
(with imperfect transmission alpha) changes the mode occupation and with it
the radiative spin relaxation rate and equilibrium spin polarization. All
frequencies are cyclic Hz; all rates (kappa, Gamma) are plain s^-1; factors
of 2 pi enter only inside dynamical formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


PLANCK = 6.62607015e-34  # J s, exact in the SI
BOLTZMANN = 1.380649e-23  # J/K, exact in the SI


@dataclass(frozen=True)
class BathCoupling:
    rate: float  # s^-1, zero-temperature emission rate into this bath
    temperature: float  # K

    def __post_init__(self):
        if self.rate < 0 or self.temperature < 0:
            raise ValueError("bath rate and temperature must be nonnegative")


@dataclass(frozen=True)
class ResonatorParams:
    omega0: float  # Hz
    kappa_int: float  # s^-1
    kappa_ext: float  # s^-1
    z0: float = 46.0  # ohm

    def __post_init__(self):
        if self.omega0 <= 0 or self.z0 <= 0:
            raise ValueError("omega0 and z0 must be positive")
        if self.kappa_int < 0 or self.kappa_ext < 0 or self.kappa == 0:
            raise ValueError("kappa_int, kappa_ext must be >= 0 with a positive sum")

    @property
    def kappa(self):
        return self.kappa_int + self.kappa_ext


@dataclass(frozen=True)
class LoadScenario:
    config: str  # "hot" | "cold"
    alpha: float  # transmission loss toward the phonon bath, 0..1
    t_cold: float  # K
    t_phon: float  # K
    t_int: float  # K

    def __post_init__(self):
        if self.config not in ("hot", "cold"):
            raise ValueError("config must be 'hot' or 'cold'")
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must lie in [0, 1]")
        if min(self.t_cold, self.t_phon, self.t_int) < 0:
            raise ValueError("temperatures must be nonnegative")


@dataclass(frozen=True)
class ThermalState:
    occupation: float
    effective_temperature: float  # K


def bose_occupation(t, omega):
    """Mean photon number n = 1/(exp(h omega / k t) - 1); 0 at t = 0."""
    if t < 0 or omega <= 0:
        raise ValueError("need t >= 0 and omega > 0")
    if BOLTZMANN * t == 0:  # t = 0, or so small that k t underflows
        return 0.0
    x = PLANCK * omega / (BOLTZMANN * t)
    if x > 700:  # exp overflow; occupation is denormal territory anyway
        return 0.0
    return 1.0 / math.expm1(x)


def occupation_temperature(n, omega):
    """Invert the occupation relation; occupations below 1e-15 map to 0 K."""
    if n < 1e-15:
        return 0.0
    return PLANCK * omega / (BOLTZMANN * math.log1p(1.0 / n))


def spin_polarization(t, omega):
    """Two-level thermal polarization tanh(h omega / 2 k t); 1 at t = 0."""
    if t < 0:
        raise ValueError("temperature must be nonnegative")
    if BOLTZMANN * t == 0:  # t = 0, or so small that k t underflows
        return 1.0
    return math.tanh(PLANCK * omega / (2 * BOLTZMANN * t))


def cavity_occupation(res, scen):
    """Resonator mode occupation for a hot or cold load configuration.

    hot:  n = (k_int/k) n(T_int) + (k_ext/k) n(T_phon)
    cold: n = (k_int/k) n(T_int) + (k_ext/k) [(1-alpha) n(T_cold) + alpha n(T_phon)]
    """
    k = res.kappa
    n_int = bose_occupation(scen.t_int, res.omega0)
    if scen.config == "hot":
        n_line = bose_occupation(scen.t_phon, res.omega0)
    else:
        n_line = (1 - scen.alpha) * bose_occupation(scen.t_cold, res.omega0) + (
            scen.alpha * bose_occupation(scen.t_phon, res.omega0)
        )
    n = (res.kappa_int / k) * n_int + (res.kappa_ext / k) * n_line
    return ThermalState(occupation=n, effective_temperature=occupation_temperature(n, res.omega0))


def purcell_rate(g, res, delta=0.0):
    """Radiative relaxation rate kappa g^2 / (kappa^2/4 + delta^2).

    g and delta arrive in cyclic Hz and are converted to angular units here;
    on resonance this is 4 g^2 / kappa. g and delta may be arrays.
    """
    if np.any(np.asarray(g) < 0):
        raise ValueError("g must be nonnegative")
    ga = 2 * math.pi * g
    da = 2 * math.pi * delta
    return res.kappa * ga * ga / (res.kappa**2 / 4 + da * da)


def spin_relaxation_rate(gamma_phon, gamma_phot_rate, photon_state, omega):
    """Gamma_1 = Gamma_phon (2 n_phon + 1) + Gamma_phot (2 n_phot + 1)."""
    if gamma_phon.rate < 0 or gamma_phot_rate < 0:
        raise ValueError("rates must be nonnegative")
    n_phon = bose_occupation(gamma_phon.temperature, omega)
    return gamma_phon.rate * (2 * n_phon + 1) + gamma_phot_rate * (
        2 * photon_state.occupation + 1
    )


def spin_temperature(gamma_phon, gamma_phot_rate, photon_state, omega):
    """Steady-state spin temperature under phonon and photon baths.

    Each bath pulls the polarization toward its own thermal value at its
    stimulated rate, so p(T_spin) = (Gamma_phon + Gamma_phot) / Gamma_1: the
    (2n+1) factor of each bath cancels against its polarization.
    """
    total = gamma_phon.rate + gamma_phot_rate
    if total == 0:
        raise ValueError("phonon and photon rates are both zero")
    gamma1 = spin_relaxation_rate(gamma_phon, gamma_phot_rate, photon_state, omega)
    p = total / gamma1
    n = (1.0 / p - 1.0) / 2.0
    return ThermalState(occupation=n, effective_temperature=occupation_temperature(n, omega))


@dataclass(frozen=True)
class CoolingResult:
    eta: float  # Gamma_1 hot over cold
    polarization_ratio: float  # p cold over hot; equals eta in this model
    gamma1_hot: float
    gamma1_cold: float
    t_spin_hot: float
    t_spin_cold: float


def cooling_factor(res, scen_hot, scen_cold, gamma_phon, gamma_phot_rate, omega):
    """Cooling factor eta and its polarization-ratio twin."""
    state_hot = cavity_occupation(res, scen_hot)
    state_cold = cavity_occupation(res, scen_cold)
    g1_hot = spin_relaxation_rate(gamma_phon, gamma_phot_rate, state_hot, omega)
    g1_cold = spin_relaxation_rate(gamma_phon, gamma_phot_rate, state_cold, omega)
    ts_hot = spin_temperature(gamma_phon, gamma_phot_rate, state_hot, omega)
    ts_cold = spin_temperature(gamma_phon, gamma_phot_rate, state_cold, omega)
    p_hot = 1.0 / (2 * ts_hot.occupation + 1)
    p_cold = 1.0 / (2 * ts_cold.occupation + 1)
    return CoolingResult(
        eta=g1_hot / g1_cold,
        polarization_ratio=p_cold / p_hot,
        gamma1_hot=g1_hot,
        gamma1_cold=g1_cold,
        t_spin_hot=ts_hot.effective_temperature,
        t_spin_cold=ts_cold.effective_temperature,
    )
