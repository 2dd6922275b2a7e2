"""Thermal occupations, Purcell rates, and the hot/cold-load cooling factor.

A mode coupled to several bosonic baths equilibrates to the rate-weighted
mixture of their occupations. The resonator mode sees the internal-loss bath
and the input line; switching the input line between a hot and a cold load
(with imperfect transmission alpha) changes the mode occupation and with it
the radiative spin relaxation rate and equilibrium spin polarization. All
frequencies are cyclic Hz; all rates (kappa, Gamma) are plain s^-1; factors
of 2 pi enter only inside dynamical formulas.

Each formula has one implementation. bose_occupation and spin_polarization
are numpy formulas over scalars or broadcasting arrays, since
estimators.psd_model takes the occupation over a frequency grid and the
polarization table takes the polarization over a temperature grid; they
return a float for scalar arguments (purcell_rate also takes arrays). The
other formulas are scalar `math` on plain floats, since nothing calls them
on a grid.
"""

from __future__ import annotations

import math
import reprlib
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


def _energy_ratio(t, omega):
    """x = h omega / k t over broadcasting t and omega, inf at t = 0. A t
    that is negative or nan, an omega that is not positive and finite, and
    the 0 / 0 of an h omega and a k t that both underflow raise ValueError.
    The callers ignore numpy's divide, overflow and invalid warnings."""
    t, omega = np.asarray(t, dtype=float), np.asarray(omega, dtype=float)
    if not (t >= 0).all():  # false for nan too
        raise ValueError(f"the temperature t must be nonnegative, got {reprlib.repr(t.tolist())}")
    if not ((omega > 0) & (omega < math.inf)).all():
        raise ValueError(f"omega must be positive and finite, got {reprlib.repr(omega.tolist())}")
    x = PLANCK * omega / (BOLTZMANN * t)
    if np.isnan(x).any():
        raise ValueError("t, omega: h omega and k t both underflow to 0")
    return x


def _float_or_array(a):
    return float(a) if np.ndim(a) == 0 else a


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def bose_occupation(t, omega):
    """Mean photon number n = 1/(exp(h omega / k t) - 1); 0 at t = 0, and
    inf where h omega / k t underflows to 0."""
    return _float_or_array(1.0 / np.expm1(_energy_ratio(t, omega)))


def occupation_temperature(n, omega):
    """Invert the occupation relation; occupations below 1e-15 map to 0 K,
    an infinite occupation and a temperature past float range to inf."""
    if not n >= 0:  # false for nan too
        raise ValueError(f"n must be nonnegative, got {n!r}")
    if not 0 < omega < math.inf:
        raise ValueError(f"omega must be positive and finite, got {omega!r}")
    if n < 1e-15:
        return 0.0
    y = math.log1p(1.0 / n)
    if BOLTZMANN * y == 0:  # k y underflows, so divide by k first
        return PLANCK / BOLTZMANN * omega / y if y else math.inf
    return PLANCK * omega / (BOLTZMANN * y)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def spin_polarization(t, omega):
    """Two-level thermal polarization tanh(h omega / 2 k t); 1 at t = 0."""
    return _float_or_array(np.tanh(_energy_ratio(t, omega) / 2))


def _mix(*terms):
    """The sum of weight * value over the (weight, value) terms whose weight
    is not 0: a bath of weight 0 adds nothing, even at an infinite value."""
    return sum((w * v for w, v in terms if w), 0.0)


def cavity_occupation(res, scen):
    """Resonator mode occupation n for a hot or cold load configuration.

    hot:  n = (k_int/k) n(T_int) + (k_ext/k) n(T_phon)
    cold: n = (k_int/k) n(T_int) + (k_ext/k) [(1-alpha) n(T_cold) + alpha n(T_phon)]
    """
    k = res.kappa
    n_int = bose_occupation(scen.t_int, res.omega0)
    n_phon = bose_occupation(scen.t_phon, res.omega0)
    if scen.config == "hot":
        n_line = n_phon
    else:
        n_line = _mix((1 - scen.alpha, bose_occupation(scen.t_cold, res.omega0)),
                      (scen.alpha, n_phon))
    return _mix((res.kappa_int / k, n_int), (res.kappa_ext / k, n_line))


@np.errstate(over="ignore")
def purcell_rate(g, res, delta=0.0):
    """Radiative relaxation rate kappa g^2 / (kappa^2/4 + delta^2) in angular
    units, for g and delta in cyclic Hz: 4 g^2 / kappa on resonance. g and
    delta may be arrays. Written as kappa r^2 with r = g / hypot(kappa / 4 pi,
    delta), nothing overflows but a rate past float range, which is inf."""
    g, delta = np.asarray(g, dtype=float), np.asarray(delta, dtype=float)
    if not ((g >= 0) & (g < math.inf)).all():
        raise ValueError(f"g must be nonnegative and finite, got {reprlib.repr(g.tolist())}")
    if not np.isfinite(delta).all():
        raise ValueError(f"delta must be finite, got {reprlib.repr(delta.tolist())}")
    r = g / np.hypot(res.kappa / (4 * math.pi), delta)
    return _float_or_array(res.kappa * r * r)


def _total_rate(gamma_phon, gamma_phot):
    """gamma_phon + gamma_phot, each nonnegative and their sum finite."""
    for name, value in (("gamma_phon", gamma_phon), ("gamma_phot", gamma_phot)):
        if not value >= 0:  # false for nan too
            raise ValueError(f"{name} must be nonnegative, got {value!r}")
    total = gamma_phon + gamma_phot
    if total == math.inf:
        raise ValueError(f"gamma_phon + gamma_phot must be finite, got {total!r}")
    return total


def spin_relaxation_rate(gamma_phon, t_phon, gamma_phot, n_phot, omega):
    """Gamma_1 = Gamma_phon (2 n(t_phon) + 1) + Gamma_phot (2 n_phot + 1);
    inf where an occupation is inf or the sum overflows."""
    _total_rate(gamma_phon, gamma_phot)
    if not n_phot >= 0:  # false for nan too
        raise ValueError(f"n_phot must be nonnegative, got {n_phot!r}")
    n_phon = bose_occupation(t_phon, omega)
    return _mix((gamma_phon, 2 * n_phon + 1), (gamma_phot, 2 * n_phot + 1))


def spin_temperature(gamma_phon, gamma_phot, gamma1, omega):
    """Steady-state spin temperature under phonon and photon baths.

    Each bath pulls the polarization toward its own thermal value at its
    stimulated rate, so p(T_spin) = (Gamma_phon + Gamma_phot) / Gamma_1: the
    (2n+1) factor of each bath cancels against its polarization. Gamma_1
    is at least that sum, as spin_relaxation_rate makes it.
    """
    total = _total_rate(gamma_phon, gamma_phot)
    if total == 0:
        raise ValueError("phonon and photon rates are both zero")
    if not total <= gamma1:  # false for nan too
        raise ValueError(f"gamma1 must be at least gamma_phon + gamma_phot = {total!r}, "
                         f"got {gamma1!r}")
    p = total / gamma1  # 0 where Gamma_1 overflows
    return occupation_temperature((1.0 / p - 1.0) / 2.0 if p else math.inf, omega)


def cooling_factor(res, scen_hot, scen_cold, gamma_phon, gamma_phot):
    """Cooling factor eta = Gamma_1(hot) / Gamma_1(cold), which equals the
    polarization ratio p_cold / p_hot (see spin_temperature). Both Gamma_1
    must be positive and finite."""
    def gamma1(scen):
        return spin_relaxation_rate(gamma_phon, scen.t_phon, gamma_phot,
                                    cavity_occupation(res, scen), res.omega0)

    hot, cold = gamma1(scen_hot), gamma1(scen_cold)
    if not (0 < cold < math.inf and hot < math.inf):
        raise ValueError(f"gamma_phon, gamma_phot: eta needs a positive, finite Gamma_1 under "
                         f"both loads, got {hot!r} (hot) and {cold!r} (cold)")
    return hot / cold
