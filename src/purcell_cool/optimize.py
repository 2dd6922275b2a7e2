"""Small dense nonlinear least-squares machinery.

Levenberg-Marquardt with central-difference Jacobians; a fit it cannot
finish raises NoConvergence. Each parameter is measured in its own units
(Moré 1978): the steps and the stop test come from one SVD of the Jacobian
with its columns scaled to largest |entry| 1. Problems here have at most
four parameters, so O(n^3) linear algebra per iteration is irrelevant.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

_FD_STEP = 1e-6  # relative central-difference step for Jacobians
_STEP_TOL = 1e-10  # scaled step, relative to the scaled x, that counts as converged
_MAX_ITER = 200  # iterations before a fit raises NoConvergence


def numeric_jacobian(residual, x):
    """Central-difference Jacobian of a residual vector, step 1e-6 |x_i|, or
    1e-6 where that rounds to 0: at x_i = 0 and below about 2.5e-318."""
    x = np.asarray(x, dtype=float)
    steps = _FD_STEP * np.abs(x)
    steps = np.diag(np.where(steps == 0, _FD_STEP, steps))
    return np.stack([(np.asarray(residual(x + h)) - np.asarray(residual(x - h))) / (2 * h[i])
                     for i, h in enumerate(steps)], axis=1)


def scaled_svd(jac):
    """(u, s, vt, scale): the thin SVD of jac / scale, scale being each column's
    largest |entry| (1 for a zero column; a sum of squares underflows). A
    Jacobian with an inf or nan raises ValueError."""
    if not np.isfinite(jac).all():
        raise ValueError("the fit's Jacobian overflows to a non-finite value")
    scale = np.abs(jac).max(axis=0)
    scale[scale == 0] = 1.0
    return *np.linalg.svd(jac / scale, full_matrices=False), scale


def levenberg_marquardt(residual, x0):
    """Minimize sum(residual(x)**2).

    Returns (x, svd, r, converged) at the last accepted point, svd being
    scaled_svd of the Jacobian there and r the residual computed there,
    which is kept, not evaluated again. converged is True when the largest
    |scale dx| fell to 1e-10 of the largest |scale x|, and False when the
    damping grew past 1e12 without a step that lowers the cost; 200
    iterations without either raise NoConvergence.
    """
    x = np.asarray(x0, dtype=float).copy()
    lam = 1e-3
    r = np.asarray(residual(x), dtype=float)
    u, s, vt, scale = svd = scaled_svd(numeric_jacobian(residual, x))
    cost = float(r @ r)
    for _ in range(_MAX_ITER):
        # dz = scale dx minimizes |r + (jac / scale) dz|^2 + lam |dz|^2
        dz = -vt.T @ (s / (s * s + lam) * (u.T @ r))
        x_new = x + dz / scale
        r_new = np.asarray(residual(x_new), dtype=float)
        cost_new = float(r_new @ r_new)
        if np.isfinite(cost_new) and cost_new <= cost:
            done = np.abs(dz).max() <= _STEP_TOL * np.abs(scale * x_new).max()
            x, r, cost = x_new, r_new, cost_new
            u, s, vt, scale = svd = scaled_svd(numeric_jacobian(residual, x))
            lam = max(lam / 10.0, 1e-12)
            if done:
                return x, svd, r, True
        else:
            lam *= 10.0
            if lam > 1e12:
                return x, svd, r, False
    raise NoConvergence(f"no scaled step below {_STEP_TOL} in {_MAX_ITER} iterations")
