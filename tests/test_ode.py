import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from purcell_cool.errors import StepUnderflow
from purcell_cool.ode import dormand_prince


def test_exponential_decay_matches_closed_form():
    y1, _ = dormand_prince(lambda t, y: -2.0 * y, 0.0, np.array([1.0 + 0j]), 3.0)
    assert abs(y1[0] - math.exp(-6.0)) < 1e-8


def test_harmonic_oscillator_phase():
    # dy/dt = i w y rotates on the unit circle; amplitude must be preserved
    w = 2 * math.pi * 3.0
    y1, _ = dormand_prince(lambda t, y: 1j * w * y, 0.0, np.array([1.0 + 0j]), 1.0)
    assert abs(abs(y1[0]) - 1.0) < 1e-7
    assert abs(y1[0] - np.exp(1j * w)) < 1e-6


def test_against_library_integrator():
    """Nonlinear coupled system vs scipy's own RK45 at tight tolerance."""

    def rhs(t, y):
        return np.array([y[1], -np.sin(y[0].real) - 0.1 * y[1]], dtype=complex)

    y0 = np.array([1.2, 0.0], dtype=complex)
    mine, _ = dormand_prince(rhs, 0.0, y0, 10.0, rtol=1e-10, atol=1e-12)
    ref = solve_ivp(
        lambda t, y: rhs(t, y.view(complex)).view(float),
        (0.0, 10.0), y0.view(float), rtol=1e-12, atol=1e-13,
    )
    assert np.allclose(mine.view(float), ref.y[:, -1], atol=1e-8)


def test_sample_times_hit_exactly():
    ts = np.array([0.0, 0.37, 1.0, 1.5])
    y1, samples = dormand_prince(
        lambda t, y: -y, 0.0, np.array([2.0 + 0j]), 1.5, sample_times=ts
    )
    assert samples.shape == (4, 1)
    # samples come from landing on the time stamp, not interpolation
    assert np.allclose(samples[:, 0], 2.0 * np.exp(-ts), rtol=1e-8)
    assert abs(samples[-1, 0] - y1[0]) == 0.0


def test_fixed_step_mode():
    y1, _ = dormand_prince(
        lambda t, y: -y, 0.0, np.array([1.0 + 0j]), 1.0, fixed_step=1e-3
    )
    assert abs(y1[0] - math.exp(-1.0)) < 1e-10


def test_fixed_step_hits_sample_times():
    ts = np.array([0.0, 0.37, 1.0, 1.5])
    y1, samples = dormand_prince(
        lambda t, y: -y, 0.0, np.array([2.0 + 0j]), 1.5, fixed_step=1e-3, sample_times=ts
    )
    assert samples.shape == (4, 1)
    assert np.allclose(samples[:, 0], 2.0 * np.exp(-ts), rtol=0, atol=1e-12)
    assert samples[-1, 0] == y1[0]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_trial_step_is_retried():
    # from y0 = 10 the first trial step overflows; the step shrinks and the
    # run ends on the exact solution 1 / sqrt(2 t + 1 / y0^2)
    y1, _ = dormand_prince(lambda t, y: -y**3, 0.0, np.array([10.0 + 0j]), 10.0)
    assert abs(y1[0] - 1 / math.sqrt(2 * 10.0 + 1 / 10.0**2)) < 1e-8


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_underflow_raises():
    # derivative grows without bound near t = 1: forces dt below the floor
    def rhs(t, y):
        return y / (1.0 - t) ** 2

    with pytest.raises(StepUnderflow):
        dormand_prince(rhs, 0.0, np.array([1.0 + 0j]), 1.0)


def test_tolerance_controls_error():
    coarse, _ = dormand_prince(
        lambda t, y: 1j * 40.0 * y, 0.0, np.array([1.0 + 0j]), 5.0,
        rtol=1e-5, atol=1e-8,
    )
    fine, _ = dormand_prince(
        lambda t, y: 1j * 40.0 * y, 0.0, np.array([1.0 + 0j]), 5.0,
        rtol=1e-11, atol=1e-13,
    )
    exact = np.exp(1j * 200.0)
    assert abs(fine[0] - exact) < abs(coarse[0] - exact)
    assert abs(fine[0] - exact) < 1e-8
