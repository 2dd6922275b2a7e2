"""Thermal occupations, Purcell rates, and the hot/cold-load cooling factor.

A mode coupled to several bosonic baths equilibrates to the rate-weighted
mixture of their occupations. The resonator mode sees the internal-loss bath
and the input line; switching the input line between a hot and a cold load
(with imperfect transmission alpha) changes the mode occupation and with it
the radiative spin relaxation rate and equilibrium spin polarization. All
frequencies are cyclic Hz; all rates (kappa, Gamma) are plain s^-1; factors
of 2 pi enter only inside dynamical formulas.

The formulas are scalar `math` on plain floats: each function takes and
returns rates, temperatures and occupations, with no container types
(purcell_rate also takes arrays). estimators.psd_model evaluates the same
occupation over a frequency grid with numpy; the two stay apart because
numpy's expm1 and tanh differ from math's in the last bit on some inputs,
so merging them would change output bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


PLANCK = 6.62607015e-34  # J s, exact in the SI
BOLTZMANN = 1.380649e-23  # J/K, exact in the SI


@dataclass(frozen=True)
class ResonatorParams:
    omega0: float  # Hz
    kappa_int: float  # s^-1
    kappa_ext: float  # s^-1
    z0: float = 46.0  # ohm

    def __post_init__(self):
        for name, value in (("omega0", self.omega0), ("z0", self.z0)):
            if not 0 < value < math.inf:  # false for nan too
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        # summed as floats: two integers can each fit float range and sum past it
        if (self.kappa_int < 0 or self.kappa_ext < 0
                or not 0 < float(self.kappa_int) + float(self.kappa_ext) < math.inf):
            raise ValueError("kappa_int, kappa_ext must be >= 0 with a positive, finite sum")

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
        for name, value in (("t_cold", self.t_cold), ("t_phon", self.t_phon),
                            ("t_int", self.t_int)):
            if not value >= 0:  # false for nan too
                raise ValueError(f"{name} must be nonnegative, got {value!r}")


def bose_occupation(t, omega):
    """Mean photon number n = 1/(exp(h omega / k t) - 1); 0 at t = 0, and
    inf where h omega / k t underflows to 0."""
    if not t >= 0 or omega <= 0:
        raise ValueError("need t >= 0 and omega > 0")
    if BOLTZMANN * t == 0:  # t = 0, or so small that k t underflows
        return 0.0
    x = PLANCK * omega / (BOLTZMANN * t)
    if x > 700:  # exp overflow; occupation is denormal territory anyway
        return 0.0
    return 1.0 / math.expm1(x) if x else math.inf


def occupation_temperature(n, omega):
    """Invert the occupation relation; occupations below 1e-15 map to 0 K
    and an infinite occupation to inf."""
    if n < 1e-15:
        return 0.0
    y = math.log1p(1.0 / n)
    if BOLTZMANN * y == 0:  # k y underflows, so divide by k first
        return PLANCK / BOLTZMANN * omega / y if y else math.inf
    return PLANCK * omega / (BOLTZMANN * y)


def spin_polarization(t, omega):
    """Two-level thermal polarization tanh(h omega / 2 k t); 1 at t = 0."""
    if not t >= 0:
        raise ValueError("temperature must be nonnegative")
    if BOLTZMANN * t == 0:  # t = 0, or so small that k t underflows
        return 1.0
    return math.tanh(PLANCK * omega / (2 * BOLTZMANN * t))


def cavity_occupation(res, scen):
    """Resonator mode occupation n for a hot or cold load configuration.

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
    return (res.kappa_int / k) * n_int + (res.kappa_ext / k) * n_line


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


def spin_relaxation_rate(gamma_phon, t_phon, gamma_phot, n_phot, omega):
    """Gamma_1 = Gamma_phon (2 n(t_phon) + 1) + Gamma_phot (2 n_phot + 1)."""
    if gamma_phon < 0 or gamma_phot < 0:
        raise ValueError("rates must be nonnegative")
    n_phon = bose_occupation(t_phon, omega)
    return gamma_phon * (2 * n_phon + 1) + gamma_phot * (2 * n_phot + 1)


def spin_temperature(gamma_phon, gamma_phot, gamma1, omega):
    """Steady-state spin temperature under phonon and photon baths.

    Each bath pulls the polarization toward its own thermal value at its
    stimulated rate, so p(T_spin) = (Gamma_phon + Gamma_phot) / Gamma_1: the
    (2n+1) factor of each bath cancels against its polarization.
    """
    total = gamma_phon + gamma_phot
    if total == 0:
        raise ValueError("phonon and photon rates are both zero")
    p = total / gamma1  # 0 where Gamma_1 overflows
    return occupation_temperature((1.0 / p - 1.0) / 2.0 if p else math.inf, omega)


def cooling_factor(res, scen_hot, scen_cold, gamma_phon, gamma_phot):
    """Cooling factor eta = Gamma_1(hot) / Gamma_1(cold), which equals the
    polarization ratio p_cold / p_hot (see spin_temperature)."""
    def gamma1(scen):
        return spin_relaxation_rate(gamma_phon, scen.t_phon, gamma_phot,
                                    cavity_occupation(res, scen), res.omega0)

    return gamma1(scen_hot) / gamma1(scen_cold)
