import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from purcell_cool.errors import NoConvergence
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


def test_non_finite_trial_step_is_retried():
    # from y0 = 10 the first trial step overflows; the step shrinks and the
    # run ends on the exact solution 1 / sqrt(2 t + 1 / y0^2)
    y1, _ = dormand_prince(lambda t, y: -y**3, 0.0, np.array([10.0 + 0j]), 10.0)
    assert abs(y1[0] - 1 / math.sqrt(2 * 10.0 + 1 / 10.0**2)) < 1e-8


def test_step_underflow_raises():
    # derivative grows without bound near t = 1: forces dt below the floor
    def rhs(t, y):
        return y / (1.0 - t) ** 2

    with pytest.raises(NoConvergence, match="below 1e-15 s"):
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


# ------------------------------------------ the step against per-column weights

def _lawson_step(f, t, y, h, lin):
    """One Lawson DP5 step with per-column weights: stage i is
    e^{c_i hL} y + h sum_j a_ij e^{(c_i - c_j) hL} k_j and the error estimate
    is h sum_j e_j e^{(1 - c_j) hL} k_j. Returns the six stages (the last is
    the 5th-order solution) and the error estimate."""
    def weight(d):
        return np.exp(d * h * lin)

    k = [f(t, y)]
    stages = []
    for i in range(1, 7):
        stage = weight(ode._C[i]) * y + h * sum(
            ode._A[i, j] * weight(ode._C[i] - ode._C[j]) * k[j] for j in range(i))
        stages.append(stage)
        k.append(f(t + ode._C[i] * h, stage))
    err = h * sum(e * weight(1 - c) * kj for e, c, kj in zip(ode._E, ode._C, k))
    return stages, err


@pytest.mark.parametrize("rows", [1, 3])
def test_interaction_frame_step_matches_per_column_weights(rows, monkeypatch):
    rng = np.random.default_rng(rows)
    # random decaying, rotating, both, repeated and zero entries, up to
    # h |L| of about 30; L = 0 past column 6
    decay = -(10 ** rng.uniform(5, 7.5, 3))
    turn = rng.normal(size=3) * 3e7
    lin = np.array([decay[0], decay[1] + 1j * turn[0], 1j * turn[1], decay[2] + 1j * turn[2],
                    0.0, decay[0], 1j * turn[1], 0.0, 0.0])
    width = len(lin)
    mix = (rng.normal(size=(width, width)) + 1j * rng.normal(size=(width, width))) * 3e5
    drive = (rng.normal(size=width) + 1j * rng.normal(size=width)) * 1e6
    y0 = rng.normal(size=(rows, width)) + 1j * rng.normal(size=(rows, width))

    def f(t, y):  # nonzero in every column, nonlinear and time dependent
        return y @ mix + drive * np.exp(2j * math.pi * 3e5 * t) + 1e5 * y * np.abs(y)

    calls = []

    def record(t, y):
        calls.append(y.copy())
        return f(t, y)

    class FirstStep(Exception):
        pass

    def stop_at_the_error(err, *args, **kwargs):
        raise FirstStep(err.copy())

    monkeypatch.setattr(ode, "_error_norm", stop_at_the_error)
    span = 5e-5
    with pytest.raises(FirstStep) as first:
        dormand_prince(record, 0.0, y0, span, linear=lin)
    stages, err = _lawson_step(f, 0.0, y0, span / 50.0, lin)  # the first trial step
    assert len(calls) == 7 and np.array_equal(calls[0], y0)
    for new, ref in zip(calls[1:], stages):
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.abs(first.value.args[0] - err).max() <= 1e-12 * np.abs(err).max()


def test_step_cap_keeps_a_stiff_fixed_step_finite_and_exact():
    # y' = L y + c e^{Lt} is constant in the interaction frame, so every
    # step is exact: y = e^{Lt} (y0 + c t). At kappa h / 2 = 3100 the step is
    # cut to h max(-Re L) = 600, where the factors e^{c h |Re L|} stay finite
    c = np.array([2e5 + 1e5j, 1e4j, 3e3 + 0j])
    y0 = np.array([0.02 + 0.01j, 0.3 + 0j, -0.4 + 0j])
    ts = np.linspace(0.0, 1e-3, 7)[:-1] + 1.3e-5
    calls = []

    def f(t, y):
        calls.append(t)
        return c * np.exp(t * LINEAR)

    y1, samples = dormand_prince(f, 0.0, y0, 1e-3, linear=LINEAR, fixed_step=1e-3,
                                 sample_times=ts)
    exact = np.exp(np.multiply.outer(ts, LINEAR)) * (y0 + np.multiply.outer(ts, c))
    assert np.all(np.isfinite(samples)) and np.all(np.isfinite(y1))
    assert np.allclose(samples, exact, rtol=1e-12, atol=1e-300)
    assert np.allclose(y1, np.exp(1e-3 * LINEAR) * (y0 + 1e-3 * c), rtol=1e-12, atol=1e-300)
    steps = math.ceil(KAPPA_HALF * 1e-3 / ode._MAX_DECAY)
    assert len(calls) == 1 + 6 * steps
