import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from _lawson import (blocks, entry_major, from_entry_major, lawson_error, lawson_step,
                     linear_matrix, unpack)
from _rows import advance, row
from purcell_cool import blochsim as bs
from purcell_cool.coupling import CouplingDistribution
from purcell_cool.errors import NoConvergence
from purcell_cool import ode
from purcell_cool.ode import dormand_prince
from purcell_cool.thermal import ResonatorParams


def solve(f, y0, t1, *, linear=None, feed=None, rtol=1e-8, atol=1e-10, **kwargs):
    """dormand_prince on complex rows y0 (R, q), with f taking and returning
    complex rows (the solver's rhs converts them from and to its order and
    writes them into its out); L is 0 and the feed 0 unless given. Returns
    the complex rows at t1 and the samples of entry 0."""
    y0 = np.atleast_2d(np.asarray(y0, dtype=complex))
    q = y0.shape[1]
    linear = np.zeros(q) if linear is None else linear
    feed = np.zeros(q - 1) if feed is None else feed

    def rhs(t, y, out):
        out[...] = entry_major(f(t, from_entry_major(y, q)), q)

    y1, samples = dormand_prince(rhs, 0.0, entry_major(y0, q), t1, linear=linear, feed=feed,
                                 rtol=rtol, atol=atol, **kwargs)
    return from_entry_major(y1, q), samples


def zero(t, y):
    return np.zeros_like(y)


def test_exponential_decay_matches_closed_form():
    y1, _ = solve(lambda t, y: -2.0 * y, [1.0], 3.0)
    assert abs(y1[0, 0] - math.exp(-6.0)) < 1e-8


def test_harmonic_oscillator_phase():
    # dy/dt = i w y rotates on the unit circle; amplitude must be preserved
    w = 2 * math.pi * 3.0
    y1, _ = solve(lambda t, y: 1j * w * y, [1.0], 1.0)
    assert abs(abs(y1[0, 0]) - 1.0) < 1e-7
    assert abs(y1[0, 0] - np.exp(1j * w)) < 1e-6


def test_against_library_integrator():
    """Nonlinear coupled system vs scipy's own RK45 at tight tolerance."""

    def rhs(t, y):
        return np.stack((y[:, 1], -np.sin(y[:, 0].real) - 0.1 * y[:, 1]), axis=1)

    y0 = np.array([[1.2, 0.0]], dtype=complex)
    mine, _ = solve(rhs, y0, 10.0, rtol=1e-10, atol=1e-12)
    ref = solve_ivp(
        lambda t, y: rhs(t, y.view(complex)[None])[0].view(float),
        (0.0, 10.0), y0[0].view(float), rtol=1e-12, atol=1e-13,
    )
    assert np.allclose(mine[0].view(float), ref.y[:, -1], atol=1e-8)


def test_sample_times_hit_exactly():
    ts = np.array([0.0, 0.37, 1.0, 1.5])
    y1, samples = solve(lambda t, y: -y, [2.0], 1.5, sample_times=ts)
    assert samples.shape == (4, 1)
    # interior samples come from the dense output; the one at t1 is the state
    assert np.allclose(samples[:, 0], 2.0 * np.exp(-ts), rtol=1e-8)
    assert samples[-1, 0] == y1[0, 0]


def test_non_finite_trial_step_is_retried():
    # from y0 = 10 the first trial step overflows; the step shrinks and the
    # run ends on the exact solution 1 / sqrt(2 t + 1 / y0^2)
    y1, _ = solve(lambda t, y: -y**3, [10.0], 10.0)
    assert abs(y1[0, 0] - 1 / math.sqrt(2 * 10.0 + 1 / 10.0**2)) < 1e-8


def test_step_underflow_raises():
    # derivative grows without bound near t = 1: forces dt below the floor
    def rhs(t, y):
        return y / (1.0 - t) ** 2

    with pytest.raises(NoConvergence, match="below 1e-15 s"):
        solve(rhs, [1.0], 1.0)


def test_tolerance_controls_error():
    coarse, _ = solve(lambda t, y: 1j * 40.0 * y, [1.0], 5.0, rtol=1e-5, atol=1e-8)
    fine, _ = solve(lambda t, y: 1j * 40.0 * y, [1.0], 5.0, rtol=1e-11, atol=1e-13)
    exact = np.exp(1j * 200.0)
    assert abs(fine[0, 0] - exact) < abs(coarse[0, 0] - exact)
    assert abs(fine[0, 0] - exact) < 1e-8


@pytest.mark.parametrize("width", [3, 3281])
def test_observed_error_is_not_diluted_by_the_state_width(width):
    # an error confined to the sampled entry 0: the plain RMS would shrink
    # as 1/sqrt(width), the error norm does not
    err = np.zeros((2, width), dtype=complex)
    err[1, 0] = 3e-10
    scale = np.full((2, width), 1e-10)
    ratio = np.empty_like(scale)
    assert ode._error_norm(blocks(err, width), scale.T, ratio) == pytest.approx(3.0, rel=1e-12)


def test_error_norm_counts_a_complex_entry_once_by_its_modulus():
    # two complex entries (3 + 4i, 0) and one real entry 12: RMS over 3 entries
    err = np.array([[3.0, 4.0, 0.0, 0.0, -12.0]])
    norm = ode._error_norm(blocks(unpack(err, 2), 2), np.ones((3, 1)), np.empty((1, 3)))
    assert norm == pytest.approx(math.sqrt(169 / 3), rel=1e-15)


KAPPA_HALF = 3.1e6  # s^-1, the cavity decay rate of the simulator's resonator
LINEAR = np.array([-KAPPA_HALF, -(2j * math.pi * 1.5e6 + 1 / 600e-6), 0.0])


def _ends(f, y0, ts, **kwargs):
    """Every entry at each of ts, from one run to each: only entry 0 is
    sampled inside a run."""
    return np.array([solve(f, y0, t, **kwargs)[0][0] for t in ts])


def test_linear_part_alone_is_exact_in_any_step():
    # f = 0: every step multiplies by e^{hL}, also at the cap kappa h / 2 =
    # 600, where no factor may turn into 0 * inf
    y0 = np.array([1.0 + 0j, 0.4 - 0.2j, 0.3 + 0j])
    ts = np.array([0.0, 2e-7, 3.3e-4, 1e-3])
    ends = _ends(zero, y0, ts, linear=LINEAR)
    y1, samples = solve(zero, y0, 1e-3, linear=LINEAR, sample_times=ts)
    exact = np.exp(np.multiply.outer(ts, LINEAR)) * y0
    assert np.all(np.isfinite(samples)) and np.all(np.isfinite(ends))
    assert np.allclose(ends, exact, rtol=1e-12, atol=1e-300)
    assert np.allclose(samples[:, 0], exact[:, 0], rtol=1e-12, atol=1e-300)
    assert samples[-1, 0] == y1[0, 0] and samples[0, 0] == y0[0]


def test_dense_samples_of_a_driven_linear_system_match_the_closed_form():
    # y' = L y + c e^{ibt}: y = e^{Lt} y0 + c (e^{ibt} - e^{Lt}) / (ib - L)
    c = np.array([2e5 + 0j, 1e4j, 3e3 + 0j])
    b = 2 * math.pi * 0.7e6
    y0 = np.array([0.02 + 0.01j, 0.3 + 0j, -0.4 + 0j])
    ts = np.arange(401) * 1e-8
    e_lt = np.exp(np.multiply.outer(ts, LINEAR))
    exact = e_lt * y0 + c * (np.exp(1j * b * ts)[:, None] - e_lt) / (1j * b - LINEAR)
    for k in range(3):  # each entry of L in turn as the sampled entry 0
        roll = np.roll(np.arange(3), -k)
        calls = []

        def f(t, y):
            calls.append(t)
            return (c[roll] * np.exp(1j * b * t))[None]

        y1, samples = solve(f, y0[roll], 4e-6, linear=LINEAR[roll], sample_times=ts)
        want = exact[:, roll]
        assert np.abs(samples[:, 0] - want[:, 0]).max() < 1e-7 * np.abs(want).max()
        assert np.abs(y1[0] - want[-1]).max() < 1e-7 * np.abs(want).max()
        assert samples[-1, 0] == y1[0, 0] and samples[0, 0] == y0[roll][0]
        # steps are not clipped to the 10 ns comb: far fewer attempts than
        # samples (91 to 100 measured, the most where entry 0 decays)
        assert (len(calls) - 1) % 6 == 0 and (len(calls) - 1) // 6 < len(ts) // 3


# L' = diag(FED_LINEAR) plus the row FEED into entry 0, as blochsim's cavity
# is fed by its spins: entry 1 shares entry 0's L, entry 2 lies 1e-6 s^-1
# from it (|lambda_k - lambda_0| h < 1e-9 in every step) and entry 5 has L = 0
FED_LINEAR = np.array([-KAPPA_HALF, -KAPPA_HALF, -KAPPA_HALF + 1e-6j,
                       -(2j * math.pi * 1.5e6 + 1 / 600e-6),
                       -(-2j * math.pi * 0.4e6 + 1 / 600e-6), 0.0])
FEED = np.array([3e6j, -2e6 + 1e6j, 1e7 - 4e6j, 5e6 + 0j, 2e5j])
FED_MATRIX = linear_matrix(FED_LINEAR, FEED, len(FED_LINEAR))
FED_Y0 = np.array([0.02 + 0.01j, 0.3 + 0j, -0.4 + 0.1j, 0.2j, 0.1 - 0.3j, 0.5 + 0j])


@pytest.mark.parametrize("ts", [
    [0.0, 3e-8, 1.1e-6, 2.05e-6, 4e-6],
    [0.0, 1e-3],  # no sample inside a step: steps up to kappa h / 2 = 600
])
def test_bordered_linear_part_alone_is_exact_in_any_step(ts):
    # f = 0: each step multiplies by e^{hL'}, against scipy's expm of L'
    ts = np.array(ts)
    ends = _ends(zero, FED_Y0, ts, linear=FED_LINEAR, feed=FEED)
    y1, samples = solve(zero, FED_Y0, ts[-1], linear=FED_LINEAR, feed=FEED, sample_times=ts)
    exact = np.array([expm(t * FED_MATRIX) @ FED_Y0 for t in ts])
    assert np.all(np.isfinite(samples)) and np.all(np.isfinite(ends))
    assert np.abs(samples[:, 0] - exact[:, 0]).max() <= 1e-12 * np.abs(exact[:, 0]).max()
    for got, want in zip(ends.T, exact.T):  # every entry, also where it has decayed
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert samples[-1, 0] == y1[0, 0] and samples[0, 0] == FED_Y0[0]


def test_dense_samples_of_a_driven_bordered_system_match_the_closed_form():
    # y' = L'y + c e^{ibt}: y = e^{tL'} y0 + (ib - L')^{-1} (e^{ibt} - e^{tL'}) c
    c = np.array([2e5 + 0j, 1e4j, 3e3 + 0j, -2e4 + 1e4j, 5e3 + 0j, 1e3j])
    b = 2 * math.pi * 0.7e6
    ts = np.arange(401) * 1e-8

    def f(t, y):
        return (c * np.exp(1j * b * t))[None]

    y1, samples = solve(f, FED_Y0, 4e-6, linear=FED_LINEAR, feed=FEED, sample_times=ts)
    resolvent = np.linalg.inv(1j * b * np.eye(len(c)) - FED_MATRIX)
    step = expm(1e-8 * FED_MATRIX)
    flow = [np.eye(len(c))]  # e^{tL'} on the 10 ns comb, by powers of one step
    for _ in ts[1:]:
        flow.append(step @ flow[-1])
    exact = np.array([e @ FED_Y0 + resolvent @ (np.exp(1j * b * t) * c - e @ c)
                      for t, e in zip(ts, flow)])
    peak = np.abs(exact).max(axis=0)  # each entry's own
    assert np.abs(samples[:, 0] - exact[:, 0]).max() < 1e-7 * peak[0]
    assert np.all(np.abs(y1[0] - exact[-1]) < 1e-7 * peak)
    assert samples[-1, 0] == y1[0, 0] and samples[0, 0] == FED_Y0[0]


def test_dense_samples_in_steps_past_a_fast_decay_stay_accurate():
    # entry 0 relaxes at 5e10 s^-1 to a constant drive, fed by a slow entry:
    # the endpoints allow steps of h |L_0| >> 10, where the continuous
    # extension would scale stage data by up to e^{h |L_0|}
    lin = np.array([-5e10, -(2j * math.pi * 1.5e6 + 1 / 600e-6)])
    feed = np.array([2e6j])
    matrix = linear_matrix(lin, feed, 2)
    c = np.array([3.0 + 0j, 0.0])
    y0 = np.array([0.0, 0.3 + 0j])
    ts = np.arange(101) * 2e-9
    y1, samples = solve(lambda t, y: c[None].copy(), y0, ts[-1], linear=lin, feed=feed,
                        sample_times=ts)
    step = expm(2e-9 * matrix)
    flow = [np.eye(2)]  # y = e^{tL'} y0 + L'^{-1} (e^{tL'} - 1) c
    for _ in ts[1:]:
        flow.append(step @ flow[-1])
    exact = np.array([e @ y0 + np.linalg.solve(matrix, e @ c - c) for e in flow])
    assert np.abs(samples[:, 0] - exact[:, 0]).max() < 1e-7 * np.abs(exact).max()
    assert np.abs(y1[0] - exact[-1]).max() < 1e-7 * np.abs(exact).max()


def test_feed_needs_one_entry_per_complex_entry_after_the_first():
    with pytest.raises(ValueError, match="feed"):
        solve(lambda t, y: -y, FED_Y0, 1e-6, linear=FED_LINEAR, feed=FEED[:-1])


@pytest.mark.parametrize("t1, sample_times", [
    (1.0, [0.5, 0.2]), (1.0, [0.5, 1.5]), (1.0, [-0.5]), (1.0, [math.nan]), (-1.0, None),
])
def test_sample_times_must_lie_in_the_span_and_not_decrease(t1, sample_times):
    with pytest.raises(ValueError, match="sample times in order"):
        solve(lambda t, y: -y, [1.0], t1, sample_times=sample_times)


@pytest.mark.parametrize("rtol, atol", [
    (math.nan, 1e-10), (1e-8, math.nan), (math.inf, 1e-10), (1e-8, math.inf),
    (-1e-8, 1e-10), (1e-8, -1e-10), (0.0, 0.0),
])
def test_tolerances_must_be_finite_nonnegative_and_not_both_zero(rtol, atol):
    # refused as a bad argument, not taken into a step collapse (NoConvergence)
    with pytest.raises(ValueError, match="rtol, atol"):
        solve(lambda t, y: -y, [1.0], 1.0, rtol=rtol, atol=atol)


def test_either_tolerance_alone_may_be_zero():
    for rtol, atol in ((0.0, 1e-10), (1e-8, 0.0)):
        y1, _ = solve(lambda t, y: -2.0 * y, [1.0], 3.0, rtol=rtol, atol=atol)
        assert abs(y1[0, 0] - math.exp(-6.0)) < 1e-8


def test_a_step_grows_by_at_least_the_quantum_and_falls_only_on_a_rejection(monkeypatch):
    # the ring-down of a 1x3 ensemble after a pi/2 pulse, without samples:
    # after an accepted step h is kept, so that the factor rows are reused,
    # or grows by at least _QUANTUM; after a rejected one it falls. The
    # rule has no memory: each new h follows from the attempt just made
    res = ResonatorParams(omega0=7.408e9, kappa_int=2 * math.pi * 0.4e6,
                          kappa_ext=2 * math.pi * 0.6e6)
    groups = bs.init_ensemble(CouplingDistribution.delta(50.0), res, 0.85, 600e-6,
                              n_g=1, n_delta=3)
    y = advance(row(groups), groups, res, bs.pi_pulse_amplitude(50.0, res) / 2, 250e-9)[0]
    events = []  # ("h", each rebuilt h) and ("err", each attempt's error norm)
    frame_rows, error_norm = ode._frame_rows, ode._error_norm
    span, linear = 5e-6, []

    def recording_frame_rows(lin, *args):
        linear.append(lin)
        fac, heads, build = frame_rows(lin, *args)

        def recording_build(h):
            events.append(("h", h))
            build(h)

        return fac, heads, recording_build

    def recording_error_norm(*args):
        err = error_norm(*args)
        events.append(("err", err))
        return err

    monkeypatch.setattr(ode, "_frame_rows", recording_frame_rows)
    monkeypatch.setattr(ode, "_error_norm", recording_error_norm)
    advance(y, groups, res, 0.0, span)
    [lin] = linear
    h_cap = min(span, ode._MAX_DECAY / -lin.real.min())
    steps, h = [], None  # [h of an attempt, its error norm, the h rebuilt after it or None]
    for kind, value in events:
        if kind == "err":
            steps.append([h, value, None])
        else:
            if steps:
                steps[-1][2] = value
            h = value
    # the last attempt is the final step, t1 - t, and so is the h built after
    # the attempt before it
    *steps, _, _ = steps
    assert sum(new is not None for _, _, new in steps) >= 10
    assert any(err > 1.0 for _, err, _ in steps)
    for old, err, new in steps:
        if not math.isfinite(err):
            want = old / 10.0
        elif err > 1.0:
            want = old * max(0.2, ode._SAFETY * err ** -0.2)
        else:
            grow = min(5.0, ode._SAFETY * max(err, 1e-4) ** -0.2)
            want = old if grow < ode._HOLD else min(h_cap, old * max(grow, ode._QUANTUM))
        if want == old:  # a held h causes no rebuild
            assert new is None
            continue
        assert new == pytest.approx(want, rel=1e-12)
        if err > 1.0:
            assert new < old
        else:
            assert new >= old * ode._QUANTUM * (1 - 1e-12)


# -------------------------------------- the step against a Lawson reference step

def _check_first_step(rows, real, monkeypatch, fed=False):
    """The solver's first trial step against the reference lawson_step, on
    rows of 9 complex entries and `real` real ones, in the solver's
    entry-major order; with fed, complex entries 1..8 feed entry 0
    linearly."""
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

    calls = []

    def record(t, y, out):
        calls.append(from_entry_major(y, q))
        out[...] = entry_major(f(t, calls[-1]), q)

    class FirstStep(Exception):
        pass

    def stop_at_the_error(err, *args, **kwargs):  # err: the blocks, as complex rows
        raise FirstStep(np.concatenate([part.T for part in err], axis=1))

    feed = (rng.normal(size=q - 1) + 1j * rng.normal(size=q - 1)) * 3e6 * fed
    monkeypatch.setattr(ode, "_error_norm", stop_at_the_error)
    span = 5e-5
    with pytest.raises(FirstStep) as first:
        dormand_prince(record, 0.0, entry_major(y0, q), span, linear=lin, feed=feed,
                       rtol=1e-8, atol=1e-10)
    h, matrix, cache = span / 50.0, linear_matrix(lin, feed, width), {}  # the first trial step
    stages, k = lawson_step(f, 0.0, y0, h, matrix, cache)
    err = lawson_error(k, h, matrix, cache)
    assert len(calls) == 7 and np.array_equal(calls[0], y0)
    for new, ref in zip(calls[1:], stages):
        assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()
    # the error estimate reaches the norm as its complex and real blocks
    got = first.value.args[0]
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


def _frozen_integrals(z, h):
    """The frozen ring-down term's weights, from the tableau and expm1: the
    exact integral of e^{z tau} over [0, h] less its DP5 quadrature, and DP5's
    error estimate of that integral."""
    nodes = np.exp(np.multiply.outer(z, ode._C) * h)  # e^{c_j zh}, j = 0..6
    exact = np.where(z == 0, h, np.expm1(z * h) / np.where(z == 0, 1.0, z))
    return exact - h * nodes @ ode._B5, h * nodes @ ode._E


@pytest.mark.parametrize("rows", [1, 3])
def test_gain_takes_the_frozen_ring_down_term_exactly_in_the_first_step(rows, monkeypatch):
    # 2 tiles of a period of 3 s- fed into a cavity, each with its s_z; f's
    # s- derivatives are i g a s_z alone, and its s_z ones carry
    # -4 g Im(conj(a) s-) among other terms. The first trial step is the
    # Lawson reference step plus, per fed entry and s_z, the frozen term's
    # exact integral less DP5's quadrature, and its error estimate the
    # reference's less DP5's estimate of that term; both pass out of the
    # frame with the rest
    rng = np.random.default_rng(rows)
    lin = np.array([-KAPPA_HALF, -2e5 + 3e7j, -1e6, -8e6 - 2e7j])
    fd = (rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))) * 3e6
    gain = rng.uniform(1e6, 3e6, size=(2, 3))
    q, n = 1 + fd.size, fd.size
    g = gain.ravel()
    y0 = rng.normal(size=(rows, q + n)) + 1j * rng.normal(size=(rows, q + n))
    y0[:, q:] = y0[:, q:].real

    def f(t, y):
        a, sm, sz = y[:, :1], y[:, 1:q], y[:, q:].real
        dy = np.empty_like(y)
        dy[:, 0] = 1e6 * np.exp(2j * math.pi * 3e5 * t)
        dy[:, 1:q] = 1j * g * a * sz
        dy[:, q:] = -4 * g * (a.conj() * sm).imag + 1e5 * np.sin(sz) - 3e4 * t
        return dy

    calls = []

    def record(t, y, out):
        calls.append(from_entry_major(y, q))
        out[...] = entry_major(f(t, calls[-1]), q)

    class FirstStep(Exception):
        pass

    def stop_at_the_error(err, *args, **kwargs):
        raise FirstStep(np.concatenate([part.T for part in err], axis=1))

    monkeypatch.setattr(ode, "_error_norm", stop_at_the_error)
    span = 5e-6
    with pytest.raises(FirstStep) as first:
        dormand_prince(record, 0.0, entry_major(y0, q), span, linear=lin, feed=fd,
                       rtol=1e-8, atol=1e-10, gain=gain)
    h, matrix, cache = span / 50.0, linear_matrix(lin, fd, q + n), {}
    stages, k = lawson_step(f, 0.0, y0, h, matrix, cache)
    # the frozen terms in the frame, amplitude times e^{z tau}
    period = np.tile(lin[1:], 2)
    a0, sm0, sz0 = y0[:, :1], y0[:, 1:q], y0[:, q:].real
    sol_fed, err_fed = _frozen_integrals(lin[0] - period, h)
    sol_sz, err_sz = _frozen_integrals(lin[0].conjugate() + period, h)
    amp_fed, amp_sz = 1j * g * a0 * sz0, -4 * g * a0.conj() * sm0
    sol_shift = np.zeros_like(y0)
    err_shift = np.zeros_like(y0)
    sol_shift[:, 1:q], err_shift[:, 1:q] = amp_fed * sol_fed, amp_fed * err_fed
    sol_shift[:, q:], err_shift[:, q:] = (amp_sz * sol_sz).imag, (amp_sz * err_sz).imag
    out_of_frame = expm(h * matrix).T
    want_sol = stages[-1] + sol_shift @ out_of_frame
    # the estimate's last derivative is f at the solution the step returns
    err = lawson_error(k[:6] + [f(h, want_sol)], h, matrix, cache)
    want_err = err - err_shift @ out_of_frame
    # both shifts stand far above the comparisons' 1e-12
    assert np.abs(sol_shift).max() > 1e-6 * np.abs(want_sol).max()
    assert np.abs(err_shift).max() > 1e-2 * np.abs(err).max()
    assert len(calls) == 7
    assert np.abs(calls[6] - want_sol).max() <= 1e-12 * np.abs(want_sol).max()
    got = first.value.args[0]
    assert np.abs(got - want_err).max() <= 1e-12 * np.abs(err).max()


@pytest.mark.parametrize("gain, real, message", [
    (np.ones((2, 2)), 3, "shape of feed"),  # a tile too many
    (np.ones(3), 2, "one real entry per fed one"),
    (np.array([1.0, math.nan, 1.0]), 3, "finite"),
    (np.array([1.0, math.inf, 1.0]), 3, "finite"),
])
def test_gain_needs_the_shape_of_feed_a_real_partner_per_fed_entry_and_finite_values(
        gain, real, message):
    y0 = np.zeros((1, 2 * 4 + real))
    with pytest.raises(ValueError, match=message):
        dormand_prince(lambda t, y, out: out.fill(0.0), 0.0, y0, 1e-6, linear=np.zeros(4),
                       feed=np.ones(3), rtol=1e-8, atol=1e-10, gain=gain)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_frame_rows_advance_the_bordered_part_and_invert_it(seed):
    # 3 tiles of a period of random decaying and rotating entries of L, some
    # decaying faster than entry 0 and some slower, one with entry 0's own
    # L, one with L = 0; the head row gives entry 0 of e^{c hL'} w in one
    # product, and going out of the frame, tail first, returns the row
    rng = np.random.default_rng(seed)
    decay = -(10 ** rng.uniform(5, 7, 4))
    turn = rng.normal(size=4) * 3e7
    lin = np.concatenate(([decay[0]], decay + 1j * turn, [decay[0], 0.0, 1j * turn[0]]))
    fd = (rng.normal(size=(3, len(lin) - 1)) + 1j * rng.normal(size=(3, len(lin) - 1))) * 3e6
    q = 1 + fd.size
    fac, heads, build = ode._frame_rows(lin, fd)
    h = 3.0 / -lin.real.min()  # every e^{c h |Re L|} within e^3
    build(h)
    matrix = linear_matrix(lin, fd, q)
    w0 = rng.normal(size=(3, q)) + 1j * rng.normal(size=(3, q))
    n = len(ode._NODES)
    for i, c in enumerate(ode._NODES):
        w = w0.copy()
        w[:, 0] = w @ heads[i]
        w[:, 1:] *= fac[i]
        want = w0 @ expm(c * h * matrix).T
        assert np.abs(w - want).max() <= 1e-13 * np.abs(want).max()
        w[:, 1:] *= fac[i + n]
        w[:, 0] = w @ heads[i + n]
        assert np.abs(w - w0).max() <= 1e-13 * np.abs(w0).max()


def test_tiled_feed_solves_as_its_one_tile_form():
    # 3 tiles of a period of 4 fed entries, two decaying faster than entry
    # 0 and two slower, under a nonlinear drive with samples inside steps:
    # the same system given whole, as one tile of 12, takes the same steps
    # and agrees to rounding
    lin = np.array([-KAPPA_HALF, -1.2e7 + 2e7j, -(2j * math.pi * 1.5e6 + 1 / 600e-6),
                    -8e6 - 3e6j, -(-2j * math.pi * 0.4e6 + 1 / 600e-6)])
    rng = np.random.default_rng(5)
    fd = (rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))) * 3e6
    c = (rng.normal(size=13) + 1j * rng.normal(size=13)) * 1e4
    y0 = (rng.normal(size=(2, 13)) + 1j * rng.normal(size=(2, 13))) * 0.1
    ts = np.arange(301) * 1e-8

    def f(t, y):
        return c * np.exp(2j * math.pi * 0.7e6 * t) + 1e5 * y * np.abs(y)

    tiled = solve(f, y0, ts[-1], linear=lin, feed=fd, sample_times=ts)
    whole = solve(f, y0, ts[-1], linear=np.concatenate((lin[:1], np.tile(lin[1:], 3))),
                  feed=fd.ravel(), sample_times=ts)
    for got, want in zip(tiled, whole):
        peak = np.abs(want).max(axis=0)  # each entry's own
        assert np.all(np.abs(got - want).max(axis=0) <= 1e-14 * peak)


def test_step_cap_keeps_a_stiff_step_finite_and_exact():
    # y' = L y + c e^{Lt} is constant in the interaction frame, so every
    # step is exact, y = e^{Lt} (y0 + c t), and its error estimate is 0: past
    # the last sample the step grows to the cap h max(-Re L) = 600, where
    # the factors e^{c h |Re L|} stay finite, and no attempt passes it
    c = np.array([2e5 + 1e5j, 1e4j, 3e3 + 0j])
    y0 = np.array([0.02 + 0.01j, 0.3 + 0j, -0.4 + 0j])
    ts = np.array([1.3e-5, 2e-4, 1e-3])
    calls = []

    def f(t, y):
        calls.append(t)
        return (c * np.exp(t * LINEAR))[None]

    y1, samples = solve(f, y0, 1e-3, linear=LINEAR, sample_times=ts)
    exact = np.exp(np.multiply.outer(ts, LINEAR)) * (y0 + np.multiply.outer(ts, c))
    assert np.all(np.isfinite(samples)) and np.all(np.isfinite(y1))
    assert np.allclose(samples[:, 0], exact[:, 0], rtol=1e-12, atol=1e-300)
    assert np.allclose(y1[0], exact[-1], rtol=1e-12, atol=1e-300)
    # each attempt calls f at t + h / 5, .., t + h (c = 1 twice)
    nodes = np.array(calls[1:]).reshape(-1, 6)
    decays = (nodes[:, 4] - nodes[:, 0]) / (1 - ode._C[1]) * KAPPA_HALF
    assert decays.max() <= ode._MAX_DECAY * (1 + 1e-9)
    assert decays.max() >= ode._MAX_DECAY * (1 - 1e-9)


# ---------------------------------------------------------------- the rhs contract

def test_rhs_writes_into_at_most_seven_solver_rows_and_may_return_none():
    # f(t, y, out) writes the derivative into out and returns None: the
    # solver reads only out, and every out is one of at most seven rows it
    # owns (six stage rows and the FSAL row), reused from attempt to attempt
    w = 2 * math.pi * 2.0
    y0 = np.array([[1.0, 0.0, 2.0]])  # one complex entry 1 + 0i, one real entry 2
    outs, calls = [], []

    def f(t, y, out):
        calls.append(t)
        assert out.shape == y.shape and out.dtype == y.dtype and out.flags.c_contiguous
        assert not np.shares_memory(out, y) and not np.shares_memory(out, y0)
        outs.append(out)  # held, so that a row made per call could not be recycled
        out[:, :2] = (1j * w * y[:, :2].view(complex)).view(float)  # y' = i w y
        out[:, 2] = -y[:, 2]  # r' = -r

    y1, _ = dormand_prince(f, 0.0, y0, 2.0, linear=[0.0], feed=[], rtol=1e-10, atol=1e-12)
    assert (len(calls) - 1) % 6 == 0 and (len(calls) - 1) // 6 >= 100  # 713 measured
    assert len({out.__array_interface__["data"][0] for out in outs}) <= 7
    assert abs(y1[0, :2].view(complex)[0] - np.exp(2j * w)) < 1e-8
    assert abs(y1[0, 2] - 2 * math.exp(-2.0)) < 1e-12
