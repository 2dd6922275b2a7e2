"""Fit models: recovery exponentials, Gaussian decay, noise spectra, SNR.

All fitters share one Levenberg-Marquardt driver, which measures each
parameter in its own units, and report standard errors from the Jacobian at
the optimum. They are deliberately independent of the simulator so that
measured data files can be fed straight in.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, replace

import numpy as np

from .optimize import levenberg_marquardt
from .thermal import PLANCK, bose_occupation


# a dropped right singular vector weighs on a parameter whose entry in it
# exceeds this, about sqrt(eps): far above the rounding of an exact null vector
UNDETERMINED_WEIGHT = 1.5e-8


@dataclass(frozen=True)
class FitResult:
    parameters: dict
    std_errors: dict  # a float, or None for a parameter the data leave undetermined
    residual_norm: float
    converged: bool


def _least_squares(residual, x0, names):
    """Levenberg-Marquardt fit with standard errors from the final Jacobian:
    with jac / scale = U S V^T, sqrt(rss / (n - p) sum_k (V_ik / S_k)^2) /
    scale_i over the S_k above S_max max(n, p) eps; dividing by the scale
    after the root keeps every number in range. The data leave parameter
    i undetermined when a dropped singular vector weighs on it, |V_ki| above
    UNDETERMINED_WEIGHT: its error would divide by a zero S_k, and it is
    reported as None. A parameter, standard error or residual norm that is
    not finite raises ValueError naming each."""
    x, (_, s, vt, scale), r, converged = levenberg_marquardt(residual, x0)
    rss = float(r @ r)
    n, p = len(r), len(x)  # every fitter needs more distinct points than parameters
    keep = s > s[0] * max(n, p) * np.finfo(float).eps
    std = np.sqrt(rss / (n - p) * ((vt[keep] / s[keep, None]) ** 2).sum(axis=0)) / scale
    undetermined = (np.abs(vt[~keep]) > UNDETERMINED_WEIGHT).any(axis=0)
    errors = [None if u else float(e) for u, e in zip(undetermined, std)]
    values = [*zip(names, x), ("residual norm", rss),
              *((f"standard error of {name}", e) for name, e in zip(names, errors)
                if e is not None)]
    bad = [name for name, v in values if not math.isfinite(v)]
    if bad:
        raise ValueError(f"the fit overflows to a non-finite {', '.join(bad)}")
    return FitResult(
        parameters=dict(zip(names, (float(v) for v in x))),
        std_errors=dict(zip(names, errors)),
        residual_norm=math.sqrt(rss),
        converged=converged,
    )


def _points(data, minimum, message):
    """The (x, y) pairs of data as two arrays sorted by x. A pair that is not
    finite (nan, an infinity or an int past float range) raises ValueError
    naming it; fewer than `minimum` distinct x raise ValueError(message),
    since repeated rows add no degree of freedom to a fit."""
    pts = []
    for a, b in data:
        try:
            pt = float(a), float(b)
        except OverflowError:  # an int past float range
            pt = math.inf, math.inf
        if not (math.isfinite(pt[0]) and math.isfinite(pt[1])):
            raise ValueError(f"fit data must be finite, got the row {reprlib.repr((a, b))}")
        pts.append(pt)
    pts.sort()
    x = np.array([p[0] for p in pts])
    if np.unique(x).size < minimum:
        raise ValueError(message)
    return x, np.array([p[1] for p in pts])


@np.errstate(all="ignore")
def fit_exponential_recovery(data):
    """Fit A (1 - 2 exp(-gamma1 dt)) + c to inversion-recovery areas.

    The global sign of phase-aligned echo areas is a convention, so the
    result is reported in the gauge A >= 0: a fit with A < 0 is returned as
    (-A, gamma1, -c), the parameters of the negated data.
    """
    dt, y = _points(data, 4, "need at least 4 recovery points")
    if (dt < 0).any():
        raise ValueError("delays must be nonnegative")

    a0 = (y.max() - y.min()) / 2 or 1.0
    c0 = y[-1] - a0
    # log-linear slope of the residual from the late-time plateau, fitted in
    # units of the longest delay fitted and the largest residual
    z = np.abs(y[-1] - y)[:-1]
    keep = z > 1e-12 * np.abs(y).max()
    t, w = dt[:-1][keep], np.log(z[keep] / z.max())
    if np.unique(t).size >= 2:
        u = t / t.max() - np.mean(t / t.max())
        g0 = max(-(u @ w) / (u @ u) / t.max(), 1e-3 / dt.max())
    else:
        g0 = 1.0 / np.median(dt[dt > 0])

    def residual(p):
        a, g, c = p
        return a * (1 - 2 * np.exp(-g * dt)) + c - y

    res = _least_squares(residual, [a0, g0, c0], ["amplitude", "gamma1", "offset"])
    if res.parameters["amplitude"] < 0:  # sign gauge: negate the data's sign
        res = replace(res, parameters={**res.parameters,
                                       "amplitude": -res.parameters["amplitude"],
                                       "offset": -res.parameters["offset"]})
    return res


@np.errstate(all="ignore")
def fit_gaussian_decay(data):
    """Fit A exp(-(x / t2)^2) where x is the total evolution time 2 tau."""
    x, y = _points(data, 4, "need at least 4 decay points")
    a0 = y[0] if y[0] != 0 else float(np.abs(y).max()) or 1.0
    # 1/e crossing as the T2 seed
    below = np.nonzero(y < a0 / math.e)[0]
    t0 = x[below[0]] if below.size else x[-1]
    t0 = t0 if t0 > 0 else float(np.abs(x).max())

    def residual(p):
        a, t2 = p
        return a * np.exp(-((x / t2) ** 2)) - y

    return _least_squares(residual, [a0, t0], ["amplitude", "t2"])


def psd_model(omega, config, *, resonator, t_phon, n_twpa, t_int, alpha):
    """Output noise spectral density around the resonator, photon units.

    hot:  S / (h f) = (1 - beta) n(T_phon) + beta n(T_int) + 1/2 + n_twpa
    cold: the off-resonant term picks up the transmission loss alpha.
    Temperatures are in K; resonator is a ResonatorParams.
    """
    if config not in ("hot", "cold"):
        raise ValueError("config must be 'hot' or 'cold'")
    omega = np.asarray(omega, dtype=float)
    det = 2 * math.pi * (omega - resonator.omega0)
    beta = 4 * resonator.kappa_int * resonator.kappa_ext / (resonator.kappa**2 + 4 * det**2)
    n_phon, n_int = bose_occupation(np.reshape([t_phon, t_int], (2,) + (1,) * omega.ndim),
                                    omega)
    off = n_phon if config == "hot" else alpha * n_phon
    bracket = (1 - beta) * off + beta * n_int + 0.5 + n_twpa
    return PLANCK * omega * bracket


@np.errstate(all="ignore")
def fit_psd(data, fixed, config):
    """Staged PSD fit.

    hot: fits t_int (n_twpa taken from `fixed` when present, otherwise fit
    jointly); cold: fits (alpha, t_int) with n_twpa fixed. `fixed` carries
    the other keywords of psd_model: resonator, t_phon and, for cold,
    n_twpa; hot takes alpha = 1, no transmission loss. Data must bracket
    the resonance.
    """
    omega, s = _points(data, 8, "need at least 8 spectral points")
    omega0 = fixed["resonator"].omega0
    if omega.min() >= omega0 or omega.max() <= omega0:
        raise ValueError("data do not bracket the resonator frequency")
    if config == "cold":
        if "n_twpa" not in fixed:
            raise ValueError("the cold PSD fit needs n_twpa from the hot-stage fit "
                             "(fit-psd --n-twpa)")
        names = ["alpha", "t_int"]
    else:
        names = ["t_int"] if "n_twpa" in fixed else ["n_twpa", "t_int"]
    start = {"n_twpa": 0.75, "alpha": 0.5, "t_int": 0.8 if config == "cold" else 0.9}
    known = {"alpha": 1.0, **fixed}  # hot: no transmission loss

    def residual(p):
        return psd_model(omega, config, **{**known, **dict(zip(names, p))}) - s

    return _least_squares(residual, [start[name] for name in names], names)


def snr_model(t_rep, gamma1, p, sigma):
    """Sensitivity p (1 - exp(-gamma1 t)) / (sigma sqrt(t)) per repetition."""
    t = np.asarray(t_rep, dtype=float)
    for name, value in (("t_rep", t), ("gamma1", np.asarray(gamma1, dtype=float))):
        if not ((0 < value) & (value < math.inf)).all():
            raise ValueError(f"{name} must be positive and finite, got "
                             f"{reprlib.repr(value.tolist())}")
    out = p * (1 - np.exp(-gamma1 * t)) / (sigma * np.sqrt(t))
    return float(out) if np.isscalar(t_rep) else out


def snr_argmax_x():
    """Root of e^x = 1 + 2x in [1, 2] by bisection, to 1e-12."""
    lo, hi = 1.0, 2.0
    while hi - lo >= 1e-12:
        mid = 0.5 * (lo + hi)
        if math.exp(mid) - 1.0 - 2.0 * mid > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def optimal_trep(gamma1):
    """Repetition time maximizing snr_model, x*/gamma1 with e^x* = 1 + 2x*."""
    if not 0 < gamma1 < math.inf:
        raise ValueError(f"gamma1 must be positive and finite, got {gamma1!r}")
    return snr_argmax_x() / gamma1
