"""Small dense nonlinear least-squares machinery.

Levenberg-Marquardt with central-difference Jacobians; a fit it cannot
finish raises NoConvergence. Problems here have at most four parameters, so
O(n^3) linear algebra per iteration is irrelevant.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

_FD_STEP = 1e-6  # relative central-difference step for Jacobians
_STEP_TOL = 1e-10  # relative parameter step that counts as converged
_MAX_ITER = 200  # iterations before a fit raises NoConvergence


def numeric_jacobian(residual, x):
    """Central-difference Jacobian of a residual vector, step 1e-6 per scale."""
    x = np.asarray(x, dtype=float)
    columns = []
    for i in range(x.size):
        step = _FD_STEP * max(abs(x[i]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[i] += step
        xm[i] -= step
        columns.append((np.asarray(residual(xp)) - np.asarray(residual(xm))) / (2 * step))
    return np.stack(columns, axis=1)


def levenberg_marquardt(residual, x0):
    """Minimize sum(residual(x)**2).

    Returns (x, jac, r, converged) at the last accepted point. converged
    is True when the relative parameter step dropped below 1e-10, and
    False when the damping grew past 1e12 without a step that lowers the
    cost; 200 iterations without either raise NoConvergence.
    """
    x = np.asarray(x0, dtype=float).copy()
    lam = 1e-3
    r = np.asarray(residual(x), dtype=float)
    jac = numeric_jacobian(residual, x)
    cost = float(r @ r)
    for _ in range(_MAX_ITER):
        jtj = jac.T @ jac
        g = jac.T @ r
        # damped normal equations; scale damping by the diagonal so the
        # trust region is parameter-relative
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = 1.0
        try:
            delta = np.linalg.solve(jtj + lam * np.diag(diag), -g)
        except np.linalg.LinAlgError:
            delta = -g / (diag * (1 + lam))
        x_new = x + delta
        r_new = np.asarray(residual(x_new), dtype=float)
        cost_new = float(r_new @ r_new)
        if np.isfinite(cost_new) and cost_new <= cost:
            rel = float(np.max(np.abs(delta) / np.maximum(np.abs(x_new), 1.0)))
            x, r, cost = x_new, r_new, cost_new
            jac = numeric_jacobian(residual, x)
            lam = max(lam / 10.0, 1e-12)
            if rel < _STEP_TOL:
                return x, jac, r, True
        else:
            lam *= 10.0
            if lam > 1e12:
                return x, jac, r, False
    raise NoConvergence(f"no parameter step below {_STEP_TOL} in {_MAX_ITER} iterations")
