import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from purcell_cool.errors import StepUnderflow
from purcell_cool import ode
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
    # interior samples come from the dense output; the one at t1 is the state
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


@pytest.mark.parametrize("width", [3, 3281])
def test_observed_error_is_not_diluted_by_the_state_width(width):
    # an error confined to the observed column 0: the plain RMS shrinks as
    # 1/sqrt(width), the observe-aware norm does not
    err = np.zeros((2, width), dtype=complex)
    err[1, 0] = 3e-10
    y = np.zeros((2, width), dtype=complex)
    norm = ode._error_norm(err, y, y, 1e-8, 1e-10, observe=lambda v: v[:, 0])
    assert norm == pytest.approx(3.0, rel=1e-12)
    assert ode._error_norm(err, y, y, 1e-8, 1e-10) == pytest.approx(3.0 / math.sqrt(width))


KAPPA_HALF = 3.1e6  # s^-1, the cavity decay rate of the simulator's resonator
LINEAR = np.array([-KAPPA_HALF, -(2j * math.pi * 1.5e6 + 1 / 600e-6), 0.0])


@pytest.mark.parametrize("fixed_step", [None, 1e-4, 1e-3])
def test_linear_part_alone_is_exact_in_any_step(fixed_step):
    # f = 0: every step multiplies by e^{hL}, even at kappa h / 2 = 3100,
    # where e^{-kappa h / 2} underflows and no factor may turn into 0 * inf
    y0 = np.array([1.0 + 0j, 0.4 - 0.2j, 0.3 + 0j])
    ts = np.array([0.0, 2e-7, 3.3e-4, 1e-3])
    y1, samples = dormand_prince(lambda t, y: np.zeros_like(y), 0.0, y0, 1e-3,
                                 linear=LINEAR, fixed_step=fixed_step, sample_times=ts)
    exact = np.exp(np.multiply.outer(ts, LINEAR)) * y0
    assert np.all(np.isfinite(samples)) and np.all(np.isfinite(y1))
    assert np.allclose(samples, exact, rtol=1e-12, atol=1e-300)
    assert np.array_equal(samples[-1], y1) and np.array_equal(samples[0], y0)


def test_dense_samples_of_a_driven_linear_system_match_the_closed_form():
    # y' = L y + c e^{ibt}: y = e^{Lt} y0 + c (e^{ibt} - e^{Lt}) / (ib - L)
    c = np.array([2e5 + 0j, 1e4j, 3e3 + 0j])
    b = 2 * math.pi * 0.7e6
    y0 = np.array([0.02 + 0.01j, 0.3 + 0j, -0.4 + 0j])
    ts = np.arange(401) * 1e-8
    calls = []

    def f(t, y):
        calls.append(t)
        return c * np.exp(1j * b * t)

    y1, samples = dormand_prince(f, 0.0, y0, 4e-6, linear=LINEAR, sample_times=ts)
    e_lt = np.exp(np.multiply.outer(ts, LINEAR))
    exact = e_lt * y0 + c * (np.exp(1j * b * ts)[:, None] - e_lt) / (1j * b - LINEAR)
    assert np.abs(samples - exact).max() < 1e-7 * np.abs(exact).max()
    assert np.array_equal(samples[-1], y1) and np.array_equal(samples[0], y0)
    # steps are not clipped to the 10 ns comb: far fewer attempts than samples
    assert (len(calls) - 1) % 6 == 0 and (len(calls) - 1) // 6 < len(ts) // 4


def test_sample_times_must_not_decrease():
    with pytest.raises(ValueError):
        dormand_prince(lambda t, y: -y, 0.0, np.array([1.0 + 0j]), 1.0,
                       sample_times=[0.5, 0.2])
