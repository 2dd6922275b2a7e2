import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

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
    # an error confined to the observed entry 0: the plain RMS shrinks as
    # 1/sqrt(width), the observe-aware norm does not
    err = np.zeros((2, width), dtype=complex)
    err[1, 0] = 3e-10
    scale = np.full((2, width), 1e-10)
    norm = ode._error_norm(err.view(float), scale, observe=lambda v: v[:, 0])
    assert norm == pytest.approx(3.0, rel=1e-12)
    assert ode._error_norm(err.view(float), scale) == pytest.approx(3.0 / math.sqrt(width))


def test_error_norm_counts_a_complex_entry_once_by_its_modulus():
    # two complex entries (3 + 4i, 0) and one real entry 12: RMS over 3 entries
    err = np.array([3.0, 4.0, 0.0, 0.0, -12.0])
    assert ode._error_norm(err, np.ones(3)) == pytest.approx(math.sqrt(169 / 3), rel=1e-15)


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


# L' = diag(FED_LINEAR) plus the row FEED into entry 0, as blochsim's cavity
# is fed by its spins: entry 1 shares entry 0's L, entry 2 lies 1e-6 s^-1
# from it (|lambda_k - lambda_0| h < 1e-9 in every step) and entry 5 has L = 0
FED_LINEAR = np.array([-KAPPA_HALF, -KAPPA_HALF, -KAPPA_HALF + 1e-6j,
                       -(2j * math.pi * 1.5e6 + 1 / 600e-6),
                       -(-2j * math.pi * 0.4e6 + 1 / 600e-6), 0.0])
FEED = np.array([3e6j, -2e6 + 1e6j, 1e7 - 4e6j, 5e6 + 0j, 2e5j])
FED_MATRIX = np.diag(FED_LINEAR)
FED_MATRIX[0, 1:] = FEED
FED_Y0 = np.array([0.02 + 0.01j, 0.3 + 0j, -0.4 + 0.1j, 0.2j, 0.1 - 0.3j, 0.5 + 0j])


@pytest.mark.parametrize("fixed_step, ts", [
    (None, [0.0, 3e-8, 1.1e-6, 2.05e-6, 4e-6]),
    (1e-7, [0.0, 3e-8, 1.1e-6, 2.05e-6, 4e-6]),
    (1e-6, [0.0, 3e-8, 1.1e-6, 2.05e-6, 4e-6]),
    (None, [0.0, 1e-3]),  # no sample inside a step: steps up to kappa h / 2 = 600
])
def test_bordered_linear_part_alone_is_exact_in_any_step(fixed_step, ts):
    # f = 0: each step multiplies by e^{hL'}, against scipy's expm of L'
    ts = np.array(ts)
    y1, samples = dormand_prince(lambda t, y: np.zeros_like(y), 0.0, FED_Y0, ts[-1],
                                 linear=FED_LINEAR, feed=FEED, fixed_step=fixed_step,
                                 sample_times=ts)
    exact = np.array([expm(t * FED_MATRIX) @ FED_Y0 for t in ts])
    assert np.all(np.isfinite(samples))
    assert np.abs(samples - exact).max() <= 1e-12 * np.abs(exact).max()
    for got, want in zip(samples.T, exact.T):  # every entry, also where it has decayed
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert np.array_equal(samples[-1], y1) and np.array_equal(samples[0], FED_Y0)


def test_dense_samples_of_a_driven_bordered_system_match_the_closed_form():
    # y' = L'y + c e^{ibt}: y = e^{tL'} y0 + (ib - L')^{-1} (e^{ibt} - e^{tL'}) c
    c = np.array([2e5 + 0j, 1e4j, 3e3 + 0j, -2e4 + 1e4j, 5e3 + 0j, 1e3j])
    b = 2 * math.pi * 0.7e6
    ts = np.arange(401) * 1e-8

    def f(t, y):
        return c * np.exp(1j * b * t)

    y1, samples = dormand_prince(f, 0.0, FED_Y0, 4e-6, linear=FED_LINEAR, feed=FEED,
                                 sample_times=ts)
    resolvent = np.linalg.inv(1j * b * np.eye(len(c)) - FED_MATRIX)
    step = expm(1e-8 * FED_MATRIX)
    flow = [np.eye(len(c))]  # e^{tL'} on the 10 ns comb, by powers of one step
    for _ in ts[1:]:
        flow.append(step @ flow[-1])
    exact = np.array([e @ FED_Y0 + resolvent @ (np.exp(1j * b * t) * c - e @ c)
                      for t, e in zip(ts, flow)])
    for got, want in zip(samples.T, exact.T):
        assert np.abs(got - want).max() < 1e-7 * np.abs(want).max()
    assert np.array_equal(samples[-1], y1) and np.array_equal(samples[0], FED_Y0)


def test_dense_samples_in_steps_past_a_fast_decay_stay_accurate():
    # entry 0 relaxes at 5e10 s^-1 to a constant drive, fed by a slow entry:
    # the endpoints allow steps of h |L_0| >> 10, where the continuous
    # extension would scale stage data by up to e^{h |L_0|}
    lin = np.array([-5e10, -(2j * math.pi * 1.5e6 + 1 / 600e-6)])
    matrix = np.diag(lin)
    matrix[0, 1] = 2e6j
    c = np.array([3.0 + 0j, 0.0])
    y0 = np.array([0.0, 0.3 + 0j])
    ts = np.arange(101) * 2e-9
    y1, samples = dormand_prince(lambda t, y: c.copy(), 0.0, y0, ts[-1], linear=lin,
                                 feed=matrix[0, 1:], sample_times=ts)
    step = expm(2e-9 * matrix)
    flow = [np.eye(2)]  # y = e^{tL'} y0 + L'^{-1} (e^{tL'} - 1) c
    for _ in ts[1:]:
        flow.append(step @ flow[-1])
    exact = np.array([e @ y0 + np.linalg.solve(matrix, e @ c - c) for e in flow])
    assert np.abs(samples - exact).max() < 1e-7 * np.abs(exact).max()


def test_feed_needs_one_entry_per_complex_entry_after_the_first():
    with pytest.raises(ValueError, match="feed"):
        dormand_prince(lambda t, y: -y, 0.0, FED_Y0, 1e-6, linear=FED_LINEAR, feed=FEED[:-1])


def test_sample_times_must_not_decrease():
    with pytest.raises(ValueError):
        dormand_prince(lambda t, y: -y, 0.0, np.array([1.0 + 0j]), 1.0,
                       sample_times=[0.5, 0.2])


# ------------------------------------------ the step against per-column weights

def _lawson_step(f, t, y, h, lin, feed=None):
    """One Lawson DP5 step: stage i is e^{c_i hL'} y + h sum_j a_ij
    e^{(c_i - c_j) hL'} k_j and the error estimate is h sum_j e_j
    e^{(1 - c_j) hL'} k_j, L' being diag(lin) plus, with feed, the row that
    feeds entries 1.. into entry 0. Without feed the factors are per-column
    weights, with it the scipy matrix exponential of L'. Returns the six
    stages (the last is the 5th-order solution) and the error estimate."""
    if feed is None:
        def weight(d, v):
            return np.exp(d * h * lin) * v
    else:
        matrix = np.diag(lin)
        matrix[0, 1 : len(feed) + 1] = feed

        def weight(d, v):
            return v @ expm(d * h * matrix).T

    k = [f(t, y)]
    stages = []
    for i in range(1, 7):
        stage = weight(ode._C[i], y) + h * sum(
            ode._A[i, j] * weight(ode._C[i] - ode._C[j], k[j]) for j in range(i))
        stages.append(stage)
        k.append(f(t + ode._C[i] * h, stage))
    err = h * sum(e * weight(1 - c, kj) for e, c, kj in zip(ode._E, ode._C, k))
    return stages, err


def _check_first_step(rows, real, monkeypatch, fed=False):
    """The solver's first trial step against _lawson_step, on rows of 9
    complex entries and `real` real ones (a real state packing the complex
    entries as (re, im) pairs in front when real > 0); with fed, complex
    entries 1..8 feed entry 0 linearly."""
    rng = np.random.default_rng(rows)
    # random decaying, rotating, both, repeated and zero entries, up to
    # h |L| of about 30; L = 0 past column 6
    decay = -(10 ** rng.uniform(5, 7.5, 3))
    turn = rng.normal(size=3) * 3e7
    lin = np.array([decay[0], decay[1] + 1j * turn[0], 1j * turn[1], decay[2] + 1j * turn[2],
                    0.0, decay[0], 1j * turn[1], 0.0, 0.0])
    if fed:  # entry 0 decays fastest, as blochsim's cavity against its spins
        lin[[0, 5]] = decay.min()
    q = len(lin)
    width = q + real
    mix = (rng.normal(size=(width, width)) + 1j * rng.normal(size=(width, width))) * 3e5
    drive = (rng.normal(size=width) + 1j * rng.normal(size=width)) * 1e6
    y0 = rng.normal(size=(rows, width)) + 1j * rng.normal(size=(rows, width))
    y0[:, q:] = y0[:, q:].real

    def f(t, y):  # nonzero in every column, nonlinear and time dependent
        dy = y @ mix + drive * np.exp(2j * math.pi * 3e5 * t) + 1e5 * y * np.abs(y)
        dy[:, q:] = dy[:, q:].real  # real entries stay real
        return dy

    def pack(y):
        return y if not real else np.concatenate((y[:, :q].view(float), y[:, q:].real), axis=1)

    def unpack(v):
        return v if not real else np.concatenate(
            (v[:, : 2 * q].view(complex), v[:, 2 * q :]), axis=1)

    calls = []

    def record(t, y):
        calls.append(unpack(y.copy()))
        return pack(f(t, unpack(y)))

    class FirstStep(Exception):
        pass

    def stop_at_the_error(err, *args, **kwargs):
        raise FirstStep(err.copy())

    feed = (rng.normal(size=q - 1) + 1j * rng.normal(size=q - 1)) * 3e6 if fed else None
    monkeypatch.setattr(ode, "_error_norm", stop_at_the_error)
    span = 5e-5
    with pytest.raises(FirstStep) as first:
        dormand_prince(record, 0.0, pack(y0), span, linear=lin, feed=feed)
    full_lin = np.concatenate((lin, np.zeros(real)))
    stages, err = _lawson_step(f, 0.0, y0, span / 50.0, full_lin, feed)  # the first trial step
    assert len(calls) == 7 and np.array_equal(calls[0], y0)
    for new, ref in zip(calls[1:], stages):
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()
    # the error estimate reaches the norm as floats, complex entries as pairs
    got = first.value.args[0]
    got = got.view(complex) if not real else unpack(got)
    assert np.abs(got - err).max() <= 1e-12 * np.abs(err).max()


@pytest.mark.parametrize("rows", [1, 3])
def test_interaction_frame_step_matches_per_column_weights(rows, monkeypatch):
    _check_first_step(rows, 0, monkeypatch)


@pytest.mark.parametrize("rows", [1, 3])
def test_packed_real_columns_step_matches_per_column_weights(rows, monkeypatch):
    # 4 real entries after the 9 complex ones: L is 0 on them and they stay real
    _check_first_step(rows, 4, monkeypatch)


@pytest.mark.parametrize("rows, real", [(1, 0), (3, 4)])
def test_bordered_frame_step_matches_a_dense_matrix_lawson_step(rows, real, monkeypatch):
    # the feed makes e^{chL'} a full matrix exponential in the reference;
    # entry 5 shares entry 0's L and entries 4, 7 and 8 have L = 0
    _check_first_step(rows, real, monkeypatch, fed=True)


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
