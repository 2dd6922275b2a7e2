import numpy as np
import pytest
from scipy.optimize import curve_fit

from purcell_cool import estimators
from purcell_cool.errors import NoConvergence
from purcell_cool.optimize import levenberg_marquardt, numeric_jacobian


def test_linear_least_squares_matches_lstsq():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(30, 3))
    y = a @ np.array([1.5, -2.0, 0.3]) + 0.01 * rng.normal(size=30)
    ref, *_ = np.linalg.lstsq(a, y, rcond=None)
    x, _, _, converged = levenberg_marquardt(lambda p: a @ p - y, np.zeros(3))
    assert converged
    assert np.allclose(x, ref, atol=1e-9)


def test_nonlinear_fit_matches_curve_fit():
    def model(t, a, k, c):
        return a * np.exp(-k * t) + c

    rng = np.random.default_rng(5)
    for t, truth, noise, x0 in [
        (np.linspace(0, 4, 60), (2.3, 1.7, 0.4), 0.005, [1.0, 1.0, 0.0]),
        # demo-scale recovery: five delays, areas about 4e-9, k about 0.05 s^-1
        (3.77 * 2.0 ** np.arange(5), (-7.4e-9, 0.05, 4.1e-9), 5e-11, [-5e-9, 0.03, 3e-9]),
    ]:
        y = model(t, *truth) + noise * rng.normal(size=t.size)
        ref, cov = curve_fit(model, t, y, p0=x0, xtol=1e-14, ftol=1e-14)
        x, _, _, converged = levenberg_marquardt(lambda p: model(t, *p) - y, x0)
        assert converged
        assert np.allclose(x, ref, rtol=1e-6)
        fit = estimators._least_squares(lambda p: model(t, *p) - y, x0, ["a", "k", "c"])
        assert np.allclose(list(fit.std_errors.values()), np.sqrt(np.diag(cov)),
                           rtol=1e-4, atol=0)


def test_jacobian_central_difference():
    jac = numeric_jacobian(lambda p: np.array([p[0] ** 2, p[0] * p[1]]), np.array([2.0, 3.0]))
    assert np.allclose(jac, [[4.0, 0.0], [3.0, 2.0]], atol=1e-6)


def test_jacobian_step_that_rounds_to_0_is_the_absolute_step():
    # 1e-6 * 1e-320 rounds to 0, which once made the column 0/0
    a = np.array([[2.0, -1.0], [0.5, 3.0], [-4.0, 0.25]])
    jac = numeric_jacobian(lambda p: a @ p + 1.0, np.array([1e-320, 0.3]))
    assert np.isfinite(jac).all()
    assert np.allclose(jac, a, rtol=1e-9, atol=0)


def test_rosenbrock_valley():
    def residual(p):
        return np.array([10 * (p[1] - p[0] ** 2), 1 - p[0]])

    x, _, r, _ = levenberg_marquardt(residual, [-1.2, 1.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-8)
    assert np.linalg.norm(r) < 1e-10


def test_no_convergence_raises():
    # exp(-x) falls towards 0 for ever: every step lowers the cost, none is
    # small, so the fit runs out of iterations
    with pytest.raises(NoConvergence, match="in 200 iterations"):
        levenberg_marquardt(lambda p: np.exp(-p), [0.0])


def kink(p):
    # minimum at 0, where the central-difference slope is 0.5, not 0: every
    # step LM proposes raises the cost until the damping passes 1e12
    return np.array([1.0 + max(2.0 * p[0], -p[0])])


def test_stalled_fit_is_not_reported_converged():
    x, _, r, converged = levenberg_marquardt(kink, [0.0])
    assert not converged
    assert x[0] == 0.0 and r[0] == 1.0
    # a constant second row leaves one degree of freedom for the covariance
    res = estimators._least_squares(lambda p: np.append(kink(p), 0.0), [0.0], ["x"])
    assert not res.converged
    assert res.parameters == {"x": 0.0}
