import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from purcell_cool import blochsim as bs
from purcell_cool import cli, ode
from purcell_cool.config import parse_config
from purcell_cool.coupling import CouplingDistribution
from purcell_cool.thermal import ResonatorParams, purcell_rate, spin_polarization

from _lawson import blocks, entry_major, fixed_step_solver, from_entry_major, unpack
from _rows import advance, bloch_excess, row, split

OMEGA0 = 7.408e9
RES = ResonatorParams(omega0=OMEGA0, kappa_int=2 * math.pi * 0.4e6,
                      kappa_ext=2 * math.pi * 0.6e6)
T_SPIN = 0.85
POL = spin_polarization(T_SPIN, OMEGA0)


def single_group(g=50.0, delta=0.0):
    rho = CouplingDistribution.delta(g)
    return bs.init_ensemble(rho, RES, T_SPIN, 600e-6, n_g=1, n_delta=1 if delta == 0 else 3,
                            freq_width=2 * delta)


def ensemble(g, detuning, gamma1, t2, sz_eq):
    """Ensemble whose groups tile the comb detuning, with a shared Gamma_1
    spread over every group."""
    g = np.asarray(g, dtype=float)
    return bs.Ensemble(g=g, detuning=np.asarray(detuning, dtype=float),
                       gamma1=np.full(g.size, gamma1), t2=t2, sz_eq=sz_eq)


class TestInitEnsemble:
    def test_weights_normalized(self, monkeypatch):
        # every group has the weight 1/n, so the spins' feed into the cavity,
        # w 2 pi g per group, sums to 2 pi g whatever the ensemble's size
        feeds = []

        def no_solve(f, t0, y0, t1, *, feed, **kwargs):
            feeds.append(feed)
            return y0, np.empty((0, len(y0)), dtype=complex)

        monkeypatch.setattr(bs, "dormand_prince", no_solve)
        rho = CouplingDistribution.delta(80.0)
        for n_g, n_d in ((1, 1), (5, 7), (40, 41)):
            groups = bs.init_ensemble(rho, RES, T_SPIN, 600e-6, n_g=n_g, n_delta=n_d)
            assert len(groups) == n_g * n_d
            advance(row(groups), groups, RES, 0.0, 1e-9)
            assert feeds[-1].shape == (n_g, n_d)
            assert abs(feeds[-1].sum() / (-2j * math.pi * 80.0) - 1.0) < 1e-12

    @pytest.mark.parametrize("n_g, n_d", [(1, 1), (5, 7), (40, 41)])
    def test_arrays_g_major_with_per_group_purcell_rate(self, n_g, n_d):
        # a spread of couplings, so the g-major order is visible
        rho = CouplingDistribution(bin_edges=np.array([20.0, 60.0, 90.0]),
                                   weights=np.array([0.3, 0.7]))
        ens = bs.init_ensemble(rho, RES, T_SPIN, 600e-6, n_g=n_g, n_delta=n_d,
                               freq_width=2e6)
        n = n_g * n_d
        g_vals = rho.quantile((np.arange(n_g) + 0.5) / n_g)
        deltas = np.linspace(-1e6, 1e6, n_d) if n_d > 1 else np.zeros(1)
        for k in range(n):
            i_g, i_d = divmod(k, n_d)
            assert ens.g[k] == g_vals[i_g]
            assert ens.detuning[k % n_d] == deltas[i_d]
            assert ens.gamma1[k] == purcell_rate(ens.g[k], RES, deltas[i_d])
        for name in ("g", "gamma1"):
            assert getattr(ens, name).shape == (n,)
        assert ens.detuning.shape == (n_d,)
        assert ens.sz_eq == -POL
        assert ens.t2 == 600e-6

    def test_single_group_purcell_rate(self):
        ens = single_group(g=80.0)
        expect = 4 * (2 * math.pi * 80.0) ** 2 / RES.kappa
        assert abs(ens.gamma1[0] - expect) < 1e-12 * expect
        assert abs(ens.sz_eq + POL) < 1e-15

    def test_detuning_comb_spans_width(self):
        rho = CouplingDistribution.delta(50.0)
        groups = bs.init_ensemble(rho, RES, T_SPIN, 600e-6, n_g=1, n_delta=11,
                                  freq_width=3e6)
        ds = np.sort(groups.detuning)
        assert ds[0] == -1.5e6 and ds[-1] == 1.5e6


def test_no_drive_longitudinal_relaxation():
    """Empty cavity, no coherence: pure exponential s_z recovery per group."""
    groups = single_group(g=60.0)
    y = row(groups, s_z=[0.4])
    dt = 5e-6
    y, _ = advance(y, groups, RES, 0.0, dt)
    _, s_minus, s_z = split(y, 1)
    g1 = groups.gamma1[0]
    expect = groups.sz_eq + (0.4 - groups.sz_eq) * math.exp(-g1 * dt)
    assert abs(s_z[0] - expect) < 1e-10
    assert abs(s_minus[0]) < 1e-12


class TestRabiRotation:
    """Resonant rectangular pulse of integrated area theta.

    The cavity rise and ring-down contribute equal and opposite rotation
    around the nominal plateau, so after ring-down the net angle is theta.
    """

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0])
    def test_sz_rotates_by_theta(self, frac):
        groups = single_group(g=50.0)
        amp = frac * bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        y, _ = advance(row(groups), groups, RES, amp + 0j, 250e-9)
        y, _ = advance(y, groups, RES, 0.0, 3e-6)  # ring-down
        _, _, s_z = split(y, 1)
        theta = frac * math.pi
        assert abs(s_z[0] - (-POL * math.cos(theta))) < 0.01 * POL

    def test_bloch_norm_preserved_through_pulse(self):
        groups = single_group(g=50.0)
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        y, _ = advance(row(groups), groups, RES, amp + 0j, 250e-9)
        assert bloch_excess(y, 1) < 1e-6


def test_opposite_detunings_evolve_as_conjugates():
    """With a purely imaginary drive the +delta and -delta groups satisfy
    s-(+d) = conj(s-(-d)) and the cavity amplitude stays imaginary."""
    groups = ensemble(g=[50.0, 50.0], detuning=[+0.5e6, -0.5e6], gamma1=0.05,
                      t2=600e-6, sz_eq=-POL)
    amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
    y, _ = advance(row(groups), groups, RES, 1j * amp, 250e-9)
    y, _ = advance(y, groups, RES, 0.0, 1e-6)
    cavity, s_minus, s_z = split(y, 2)
    assert abs(s_minus[0] - np.conj(s_minus[1])) < 1e-9
    assert abs(s_z[0] - s_z[1]) < 1e-9
    assert abs(cavity.real) < 1e-9 * max(abs(cavity), 1e-30)


def test_advance_against_library_integrator():
    """Detuned groups vs scipy solve_ivp: one tile of three detunings under
    constant drive, and, free, two couplings' tiles of a comb of two."""
    _check_advance_against_library(1, (-8e5, 1e5, 6e5), 2e4 * np.exp(0.3j), 100.0 + 50.0j)
    # the cavity holds only what the spins feed it, so the feed's tiles show
    _check_advance_against_library(2, (-8e5, 6e5), 0.0, 0.0)


def _check_advance_against_library(g_tiles, comb, a_in, field0):
    rng = np.random.default_rng(7)
    n = g_tiles * len(comb)
    groups = ensemble(g=rng.uniform(30, 90, n), detuning=comb, gamma1=0.1, t2=1e-4,
                      sz_eq=-0.2)
    y0 = row(groups, s_minus=(rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.05,
             s_z=rng.uniform(-0.3, 0.1, n), cavity=field0)
    duration = 2e-6

    g_ang = 2 * math.pi * groups.g
    det = 2 * math.pi * np.tile(groups.detuning, g_tiles)  # g-major
    w = 1 / n

    def rhs(t, yf):
        y = yf.view(complex)
        a, sm, sz = y[0], y[1 : n + 1], y[n + 1 :].real
        da = -(RES.kappa / 2) * a - 1j * np.sum(w * g_ang * sm) + math.sqrt(RES.kappa_ext) * a_in
        dsm = -(1j * det + 1e4) * sm + 1j * g_ang * a * sz
        dsz = -0.1 * (sz - (-0.2)) - 4 * g_ang * (np.conj(a) * sm).imag
        return np.concatenate(([da], dsm, dsz.astype(complex))).view(float)

    cavity0, s_minus0, s_z0 = split(y0, n)
    ref0 = np.concatenate(([cavity0], s_minus0, s_z0)).astype(complex)
    ref = solve_ivp(rhs, (0, duration), ref0.view(float), rtol=1e-11, atol=1e-16)
    ref_y = ref.y[:, -1].view(complex)

    out, _ = advance(y0, groups, RES, a_in, duration, rtol=1e-10, atol=1e-16)
    cavity, s_minus, s_z = split(out, n)
    assert abs(cavity - ref_y[0]) < 1e-6 * abs(ref_y[0])
    assert np.allclose(s_minus, ref_y[1 : n + 1], atol=1e-9)
    assert np.allclose(s_z, ref_y[n + 1 :].real, atol=1e-9)


def test_spin_energy_conserved_without_relaxation():
    # decoupled limit: no decay channels, detuned coherences just precess
    groups = ensemble(g=np.zeros(4), detuning=(-1e6, -3e5, 4e5, 1.2e6), gamma1=0.0,
                      t2=math.inf, sz_eq=0.0)
    y0 = row(groups, s_minus=np.full(4, 0.2 + 0.1j), s_z=[0.5, -0.3, 0.1, 0.8],
             cavity=10.0 + 0j)
    _, s_minus0, s_z0 = split(y0, 4)
    energy0 = float(s_z0.sum()) / 4
    out, _ = advance(y0, groups, RES, 0.0, 1e-3, rtol=1e-10, atol=1e-13)
    _, s_minus, s_z = split(out, 4)
    energy1 = float(s_z.sum()) / 4
    assert abs(energy1 - energy0) < 1e-9
    # coherences precess ~1200 cycles; integrator drift stays small
    assert np.allclose(np.abs(s_minus), np.abs(s_minus0), atol=1e-6)


def test_closed_form_delay_matches_ode():
    """After ring-down the closed form tracks the ODE to the (tiny)
    cavity back-action scale 2 g^2/kappa * dt that it neglects, on one
    group and on two couplings' tiles of a comb of three, each tile
    precessing as the comb does."""
    for n_g, n_delta in ((1, 1), (2, 3)):
        groups = bs.init_ensemble(CouplingDistribution.delta(45.0), RES, T_SPIN, 600e-6,
                                  n_g=n_g, n_delta=n_delta, freq_width=1.23e6)
        n = len(groups)
        y = row(groups, s_minus=(0.1 - 0.05j) * np.exp(1j * np.arange(n)),
                s_z=np.full(n, -0.1), cavity=1e-9 + 0j)
        dt = 40e-6
        direct, _ = advance(y, groups, RES, 0.0, dt, rtol=1e-10, atol=1e-13)
        closed = bs._closed_form_delay(y[None], groups, RES, [dt])[0]
        _, direct_sm, direct_sz = split(direct, n)
        _, closed_sm, closed_sz = split(closed, n)
        assert np.abs(direct_sm - closed_sm).max() < 2e-7
        assert np.abs(direct_sz - closed_sz).max() < 2e-7


def test_closed_form_delay_takes_each_row_of_a_batch_as_its_one_row_call():
    # three rows of different states on two couplings' tiles of a comb of
    # three, each for its own delay, one past float range: each row of the
    # batch is its own one-row call, bit for bit
    groups = TestBatchedSweeps.two_couplings()
    n = len(groups)
    rng = np.random.default_rng(3)
    rows = np.array([row(groups, s_minus=0.1 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
                         s_z=rng.uniform(-0.5, 0.5, n), cavity=(1 + r) * 1e-9 + 0j)
                     for r in range(3)])
    durations = [40e-6, 3e-3, 1e302]
    batch = bs._closed_form_delay(entry_major(unpack(rows, 1 + n), 1 + n), groups, RES,
                                  durations)
    for got, y, dt in zip(from_entry_major(batch, 1 + n), rows, durations):
        want = bs._closed_form_delay(y[None], groups, RES, [dt])
        assert np.array_equal(got, unpack(want, 1 + n)[0])


def test_closed_form_delay_past_float_range_decays_to_zero_or_raises():
    # detuned groups 1e302 s on: L t overflows, and the decayed entries are
    # 0 whatever their phase; with T2 = 1e308 s the s- decay is still 1 while
    # its phase overflows, which no float can resolve
    groups = single_group(delta=1e5)
    y = row(groups, s_minus=[0.1j, 0.2, -0.1], s_z=[-0.1, 0.0, 0.1], cavity=1e-9 + 0j)
    out = bs._closed_form_delay(y[None], groups, RES, [1e302])[0]
    cavity, s_minus, s_z = split(out, 3)
    assert cavity == 0 and np.all(s_minus == 0) and np.allclose(s_z, groups.sz_eq, rtol=1e-15)
    frozen = bs.Ensemble(**{**vars(groups), "t2": 1e308, "gamma1": np.zeros(3)})
    with pytest.raises(ValueError, match="precession"):
        bs._closed_form_delay(y[None], frozen, RES, [1e305])


class TestSequences:
    def make(self, g=50.0):
        groups = single_group(g=g)
        amp = bs.pi_pulse_amplitude(g, RES, 250e-9)
        return groups, amp

    def test_inversion_recovery_sign_flip(self):
        groups, amp = self.make()
        g1 = groups.gamma1[0]
        areas = []
        for dt in (0.01 / g1, 10.0 / g1):
            seq = bs.inversion_recovery(dt, 15e-6, amp)
            traces, _ = bs.run_sequence(seq, groups, RES)
            areas.append(traces[0])
        ae = bs.phase_aligned_areas(areas, ref_index=1)
        assert ae[0] * ae[1] < 0
        # magnitudes agree within 5 percent (Purcell decay during the
        # sequence breaks the symmetry slightly)
        assert abs(abs(ae[0]) - abs(ae[1])) < 0.05 * abs(ae[1])

    def test_echo_area_linear_in_polarization(self):
        rho = CouplingDistribution.delta(50.0)
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        areas = {}
        for t_spin in (0.85, 3.0):
            groups = bs.init_ensemble(rho, RES, t_spin, 600e-6, n_g=1, n_delta=1)
            seq = bs.hahn_echo(15e-6, amp)
            _, ae = bs.run_sequence(seq, groups, RES)
            areas[t_spin] = ae[0]
        ratio = areas[0.85] / areas[3.0]
        expect = spin_polarization(0.85, OMEGA0) / spin_polarization(3.0, OMEGA0)
        assert abs(ratio / expect - 1) < 5e-3

    def test_adaptive_echo_matches_a_fixed_step_lawson_reference(self, monkeypatch):
        # the same rhs, linear part and feed marched in 1 ns Lawson DP5 steps
        # with scipy's expm: area 7.5e-13 and trace 7.7e-13 of its peak apart
        groups, amp = self.make()
        seq = bs.hahn_echo(2e-6, amp, acquire_width=1e-6)
        [got], [got_area] = bs.run_sequence(seq, groups, RES)
        monkeypatch.setattr(bs, "dormand_prince", fixed_step_solver(1e-9))
        [want], [want_area] = bs.run_sequence(seq, groups, RES)
        assert np.array_equal(got.t, want.t)
        assert np.abs(got.amp - want.amp).max() <= 1e-11 * np.abs(want.amp).max()
        assert abs(got_area - want_area) <= 1e-11 * abs(want_area)

    def test_bloch_ball_through_full_sequence(self):
        groups, amp = self.make()
        seq = bs.hahn_echo(15e-6, amp)
        y = row(groups)
        for ev in seq.events:
            if isinstance(ev, bs.Pulse):
                y, _ = advance(y, groups, RES, ev.amplitude * np.exp(1j * ev.phase),
                               ev.duration)
            else:
                y, _ = advance(y, groups, RES, 0.0, ev.duration)
            assert bloch_excess(y, len(groups)) < 1e-6

    def test_bloch_norm_stays_within_its_equilibrium_value(self):
        # rotations conserve 4|s-|^2 + s_z^2 and relaxation towards sz_eq
        # cannot raise it, so it stays at or below sz_eq^2 at every event
        # boundary: unlike the Bloch-ball bound of 1, this catches a wrong
        # rotation at the small polarization the ensemble starts from
        groups = bs.init_ensemble(CouplingDistribution.delta(50.0), RES, T_SPIN, 600e-6,
                                  n_g=2, n_delta=3)
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        y = row(groups)
        for ev in bs.cpmg(2, 15e-6, amp).events:
            drive = ev.amplitude * np.exp(1j * ev.phase) if isinstance(ev, bs.Pulse) else 0.0
            y, _ = advance(y, groups, RES, drive, ev.duration)
            _, s_minus, s_z = split(y, len(groups))
            assert np.all(4 * np.abs(s_minus) ** 2 + s_z**2 <= groups.sz_eq**2 * (1 + 1e-6))

    def test_cpmg_structure_and_decay(self):
        groups, amp = self.make()
        seq = bs.cpmg(4, 15e-6, amp)
        traces, areas = bs.run_sequence(seq, groups, RES)
        assert len(traces) == len(areas) == 4
        mags = np.abs(areas)
        assert np.all(np.diff(mags) < 0)  # T2 decay between echoes
        # pi-pulse centers are 2 tau apart
        cursor, centers = 0.0, []
        for ev in seq.events:
            if isinstance(ev, bs.Pulse) and ev.duration == 250e-9:
                centers.append(cursor + ev.duration / 2)
            cursor += ev.duration
        assert np.allclose(np.diff(centers), 30e-6, atol=1e-12)


def _echo(t, scale=1.0, phase=0.0):
    return bs.EchoTrace(t=t, amp=scale * np.exp(1j * phase) * np.sin(math.pi * t / 1e-6))


def _half_sine_area(t):
    return float(np.trapezoid(np.sin(math.pi * t / 1e-6), t))


def test_aligned_areas_linearity_and_zero():
    t = np.linspace(0, 1e-6, 101)
    tr = _echo(t, phase=0.7)
    zero = bs.EchoTrace(t=t, amp=np.zeros(101, complex))
    a1, a3, am, a0 = bs.phase_aligned_areas([tr, _echo(t, 3.0, 0.7), _echo(t, -1.0, 0.7), zero],
                                            ref_index=0)
    assert abs(a1 - _half_sine_area(t)) < 1e-12 * a1
    assert abs(a3 - 3 * a1) < 1e-12 * a1
    assert abs(am + a1) < 1e-12 * a1
    assert a0 == 0.0
    # an all-zero reference has phase 0
    assert bs.phase_aligned_areas([zero, tr], ref_index=0)[1] == pytest.approx(
        math.cos(0.7) * a1, rel=1e-12)


def test_aligned_areas_detect_inversion():
    t = np.linspace(0, 1e-6, 101)
    up, down = _echo(t), _echo(t, -1.0)
    a_up, a_down = bs.phase_aligned_areas([up, down], ref_index=0)
    assert a_up > 0 and abs(a_down + a_up) < 1e-12 * a_up
    # against itself an inverted echo is a 180-degree phase, and its area is positive
    assert bs.phase_aligned_areas([down]) == pytest.approx([a_up], rel=1e-12)
    assert bs.phase_aligned_areas([up, down], ref_index=1) == pytest.approx(
        [-a_up, a_up], rel=1e-12)


def test_aligned_areas_default_to_the_largest_sample():
    t = np.linspace(0, 1e-6, 101)
    small, big = _echo(t, 0.5, 0.3), _echo(t, 2.0, 1.1)
    a_small, a_big = bs.phase_aligned_areas([small, big])
    assert bs.phase_aligned_areas([small, big], ref_index=1) == [a_small, a_big]
    assert a_big == pytest.approx(2.0 * _half_sine_area(t), rel=1e-12)
    assert a_small == pytest.approx(math.cos(0.8) * a_big / 4, rel=1e-12)


def test_empty_window_raises():
    t = np.linspace(0, 1e-6, 101)
    empty = bs.EchoTrace(t=np.zeros(0), amp=np.zeros(0, complex))
    for traces, ref in (([empty], None), ([_echo(t), empty], None), ([_echo(t), empty], 1)):
        with pytest.raises(ValueError):
            bs.phase_aligned_areas(traces, ref_index=ref)


@pytest.mark.parametrize("freq_width", [math.nan, math.inf, -1e6])
def test_init_ensemble_refuses_a_bad_comb_width(freq_width):
    with pytest.raises(ValueError, match="freq_width"):
        bs.init_ensemble(CouplingDistribution.delta(50.0), RES, T_SPIN, 600e-6,
                         freq_width=freq_width, n_g=1, n_delta=3)


@pytest.mark.parametrize("spin_temp, t2, match", [
    (T_SPIN, 0.0, "t2 must be positive"), (T_SPIN, -1e-6, "t2 must be positive"),
    (T_SPIN, math.nan, "t2 must be positive"), (math.nan, 600e-6, "temperature")])
def test_init_ensemble_refuses_a_bad_t2_or_temperature(spin_temp, t2, match):
    # refused by name, not as ZeroDivisionError, growing coherence, 1/T2
    # overflowing or a later step collapse
    with pytest.raises(ValueError, match=match):
        bs.init_ensemble(CouplingDistribution.delta(50.0), RES, spin_temp, t2, n_g=1, n_delta=1)


@pytest.mark.parametrize("tolerances", [{"rtol": math.nan}, {"rtol": 0.0, "atol": 0.0}])
def test_run_sweep_refuses_bad_tolerances_before_a_step(tolerances):
    with pytest.raises(ValueError, match="rtol, atol"):
        bs.run_sweep([bs.hahn_echo(2e-5, 1.0)], single_group(), RES, **tolerances)


def test_sequence_validation():
    with pytest.raises(ValueError):
        bs.PulseSequence(events=[bs.Delay(0.0)])
    with pytest.raises(ValueError):
        bs.hahn_echo(1e-7, 1.0)  # tau shorter than the pulses
    with pytest.raises(ValueError):
        bs.cpmg(0, 1e-5, 1.0)


class _Solved(Exception):
    pass


def _no_solve(*args, **kwargs):
    raise _Solved


@pytest.mark.parametrize("tau, width, sample_dt, refused", [
    (1e306, 1e300, 1e-300, True),  # the sample count is past float range
    (1e-4, (cli.MAX_POINTS + 1) * 1e-9, 1e-9, True),
    (1e-4, (cli.MAX_POINTS - 1) * 1e-9, 1e-9, False),  # MAX_POINTS samples
    # a sample_dt that is not positive and finite is refused by name
    *((2e-5, 1e-6, dt, "sample_dt must be positive and finite")
      for dt in (0.0, -1e-8, math.nan, math.inf)),
])
def test_acquisition_window_beyond_max_points_is_refused_before_any_solve(
        monkeypatch, tau, width, sample_dt, refused):
    monkeypatch.setattr(bs, "dormand_prince", _no_solve)
    # one sequence of the sweep asks for the window, the other for the default
    seqs = [bs.hahn_echo(1e-4, 1.0), bs.hahn_echo(tau, 2.0, acquire_width=width)]
    if refused:
        message = refused if isinstance(refused, str) else f"at most {cli.MAX_POINTS} samples"
        with pytest.raises(ValueError, match=message):
            bs.run_sweep(seqs, single_group(), RES, sample_dt=sample_dt)
    else:
        with pytest.raises(_Solved):
            bs.run_sweep(seqs, single_group(), RES, sample_dt=sample_dt)


def test_pi_pulse_amplitude_scaling():
    a1 = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
    assert abs(bs.pi_pulse_amplitude(50.0, RES, 500e-9) - a1 / 2) < 1e-9 * a1
    assert abs(bs.pi_pulse_amplitude(100.0, RES, 250e-9) - a1 / 2) < 1e-9 * a1


@pytest.mark.parametrize("g, duration, message", [
    (math.inf, 250e-9, "^g must be positive and finite"),  # the amplitude was 0.0
    (math.nan, 250e-9, "^g must be positive and finite"),
    (0.0, 250e-9, "^g must be positive and finite"),
    (50.0, math.nan, "^duration must be positive and finite"),  # "underflows to 0" before
    (50.0, -1e-7, "^duration must be positive and finite"),
    (1e200, 1e200, "leaves the float range"),  # the rotation overflows, amplitude 0
    (1e-160, 1e-160, "leaves the float range"),  # the amplitude overflows
])
def test_pi_pulse_amplitude_refuses_what_has_no_finite_amplitude(g, duration, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            bs.pi_pulse_amplitude(g, RES, duration)


@pytest.mark.parametrize("width", [-1.0, -1e-300, math.nan, math.inf])
def test_sample_comb_refuses_a_width_not_nonnegative_and_finite(width):
    # a negative width gave an empty comb, and a nan one reported "spans nan
    # intervals"
    with pytest.raises(ValueError, match="^width must be nonnegative and finite"):
        bs.sample_comb(width, 1e-8)
    assert list(bs.sample_comb(0.0, 1e-8)) == [0.0]


class TestBatchedSweeps:
    """run_sweep advances sequences sharing one skeleton as rows of one state."""

    @staticmethod
    def detuned_ensemble():
        # one coupling, so the pulses are exact; the detuning spread forms a
        # real echo and gives each group its own Purcell rate
        return bs.init_ensemble(CouplingDistribution.delta(50.0), RES, T_SPIN, 600e-6,
                                n_g=1, n_delta=5, freq_width=4e5)

    @staticmethod
    def two_couplings():
        # two couplings' tiles of a comb of three, so that the groups of a
        # row differ tile by tile
        rho = CouplingDistribution(bin_edges=np.array([20.0, 60.0, 90.0]),
                                   weights=np.array([0.3, 0.7]))
        groups = bs.init_ensemble(rho, RES, T_SPIN, 600e-6, n_g=2, n_delta=3, freq_width=4e5)
        assert len(set(groups.g)) == 2
        return groups

    @staticmethod
    def per_point(seqs, groups):
        return [bs.run_sequence(seq, groups, RES)[0] for seq in seqs]

    def test_rabi_sweep_matches_per_point_runs(self):
        groups = self.detuned_ensemble()
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        seqs = [bs.hahn_echo(15e-6, s * amp) for s in (0.3, 0.7, 1.0, 1.6)]
        batch = bs.run_sweep(seqs, groups, RES)
        single = self.per_point(seqs, groups)
        ref = int(np.argmax([np.abs(trs[0].amp).max() for trs in single]))
        got = bs.phase_aligned_areas([trs[0] for trs in batch], ref_index=ref)
        want = bs.phase_aligned_areas([trs[0] for trs in single], ref_index=ref)
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-6 * abs(w)

    def test_inversion_recovery_groups_short_and_long_delays(self):
        groups = self.detuned_ensemble()
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        g1 = float(np.median(groups.gamma1))
        long_delay = bs.LONG_DELAY_FACTOR / RES.kappa
        # one delay below the closed-form threshold, run as its own batch
        dts = [2.0 / g1, 5e-6, 0.1 / g1, 1.5 / g1]
        assert sum(dt < long_delay for dt in dts) == 1
        seqs = [bs.inversion_recovery(dt, 15e-6, amp) for dt in dts]
        batch = bs.run_sweep(seqs, groups, RES)
        single = self.per_point(seqs, groups)
        assert len(batch) == len(seqs)
        for seq, dt, got, want in zip(seqs, dts, batch, single):
            assert len(got) == 1
            # each row keeps its own time cursor
            start = sum(ev.duration for ev in seq.events[:-1])
            assert abs(got[0].t[0] - start) < 1e-12 * start
            assert np.array_equal(got[0].t, want[0].t)
            assert dt == seq.events[1].duration
        got = bs.phase_aligned_areas([trs[0] for trs in batch], ref_index=0)
        want = bs.phase_aligned_areas([trs[0] for trs in single], ref_index=0)
        # input order: only the two shortest delays leave the echo inverted
        assert got[1] * got[0] < 0 and got[2] * got[0] < 0 and got[3] * got[0] > 0
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-6 * abs(w)

    def test_single_row_matches_event_by_event_advance(self):
        """R = 1 against a per-event loop of one-row advances and the closed form."""
        groups = self.detuned_ensemble()
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        seq = bs.inversion_recovery(0.3 / float(np.median(groups.gamma1)), 15e-6, amp)
        long_delay = bs.LONG_DELAY_FACTOR / RES.kappa
        y = row(groups)
        cursor, want = 0.0, []
        for ev in seq.events:
            if isinstance(ev, bs.Pulse):
                y, _ = advance(y, groups, RES, ev.amplitude * np.exp(1j * ev.phase),
                               ev.duration)
                cursor += ev.duration
            elif isinstance(ev, bs.Delay) and ev.duration >= long_delay:
                y, _ = advance(y, groups, RES, 0.0, long_delay)
                y = bs._closed_form_delay(y[None], groups, RES, [ev.duration - long_delay])[0]
                cursor += ev.duration
            elif isinstance(ev, bs.Delay):
                y, _ = advance(y, groups, RES, 0.0, ev.duration)
                cursor += ev.duration
            else:
                y, tr = advance(y, groups, RES, 0.0, ev.duration, sample_dt=1e-8)
                want.append(bs.EchoTrace(t=tr.t + cursor, amp=tr.amp))
                cursor += ev.duration
        got, _ = bs.run_sequence(seq, groups, RES)
        assert len(got) == len(want) == 1
        assert np.array_equal(got[0].t, want[0].t)
        peak = np.abs(want[0].amp).max()
        assert np.abs(got[0].amp - want[0].amp).max() < 1e-12 * peak

    def test_a_sequence_does_not_depend_on_its_row_in_the_batch(self):
        # permuting a sweep's sequences permutes their traces, and identical
        # rows each give the one-row run
        groups = self.two_couplings()
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        seqs = [bs.hahn_echo(8e-6, s * amp, acquire_width=2e-6) for s in (0.3, 0.7, 1.0, 1.6)]
        order = [2, 0, 3, 1]
        batch = bs.run_sweep(seqs, groups, RES)
        [one] = bs.run_sweep(seqs[1:2], groups, RES)
        pairs = list(zip(bs.run_sweep([seqs[i] for i in order], groups, RES),
                         [batch[i] for i in order]))
        pairs += [(got, one) for got in bs.run_sweep([seqs[1]] * 3, groups, RES)]
        for got, want in pairs:
            assert len(got) == len(want) == 1
            assert np.array_equal(got[0].t, want[0].t)
            peak = np.abs(want[0].amp).max()
            assert np.abs(got[0].amp - want[0].amp).max() <= 1e-13 * peak

    def test_fixed_step_lawson_reference_takes_each_row_as_its_one_row_run(self, monkeypatch):
        # the reference marches a batch in the solver's state order: two
        # Hahn echoes at different amplitudes, each row against its own run
        groups = self.two_couplings()
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        seqs = [bs.hahn_echo(3e-6, s * amp, acquire_width=1e-6) for s in (0.7, 1.3)]
        monkeypatch.setattr(bs, "dormand_prince", fixed_step_solver(5e-9))
        for seq, [got] in zip(seqs, bs.run_sweep(seqs, groups, RES)):
            [[want]] = bs.run_sweep([seq], groups, RES)
            assert np.array_equal(got.t, want.t)
            assert np.abs(got.amp - want.amp).max() <= 1e-12 * np.abs(want.amp).max()

    def test_batched_error_norm_is_the_largest_row_norm(self):
        rng = np.random.default_rng(11)
        err = rng.normal(size=(5, 2 * 9 + 4))  # 9 complex entries, then 4 real ones
        scale = rng.uniform(1.0, 2.0, size=(5, 9 + 4))
        err[3] *= 50.0  # one row far worse than the rest
        ratio = np.empty_like(scale)
        rows = [ode._error_norm(blocks(unpack(err[r : r + 1], 9), 9), scale[r : r + 1].T,
                                ratio[r : r + 1])
                for r in range(5)]
        assert ode._error_norm(blocks(unpack(err, 9), 9), scale.T, ratio) == max(rows)

    def test_batched_solver_rows_are_independent_and_observed(self):
        # rows of two complex entries (1, i) and one real entry 1, each
        # decaying at its row's rate; entry 0 of each row is sampled
        rates = np.array([0.5, 2.0, 7.0])
        ts = np.array([0.0, 0.3, 1.0])
        y0 = entry_major(np.tile([1.0, 1j, 1.0], (3, 1)), 2)  # the solver's order

        def rhs(t, y, out):
            out[...] = entry_major(-rates[:, None] * from_entry_major(y, 2), 2)

        y1, obs = ode.dormand_prince(rhs, 0.0, y0, 1.0, linear=np.zeros(2), feed=np.zeros(1),
                                     rtol=1e-8, atol=1e-10, sample_times=ts)
        assert y1.shape == (3, 5) and obs.shape == (3, 3)
        assert np.allclose(obs, np.exp(-np.outer(ts, rates)), rtol=1e-8)
        rows = from_entry_major(y1, 2)
        assert np.allclose(rows[:, 1], 1j * np.exp(-rates), rtol=1e-8)
        assert np.allclose(rows[:, 2].real, np.exp(-rates), rtol=1e-8)


def _demo(subcommand):
    """The Hahn echo or the 2-echo CPMG train of configs/demo.yaml (8x9
    groups) as the subcommand builds it, and run_sweep's keyword arguments."""
    demo = Path(__file__).resolve().parents[1] / "configs" / "demo.yaml"
    args = cli.build_parser().parse_args([subcommand, "--config", str(demo), "--out", "-"])
    ensemble, amp, tau, widths = cli._sequence_setup(parse_config(demo), args)
    seq = (bs.hahn_echo(tau, amp, **widths) if subcommand == "echo"
           else bs.cpmg(2, tau, amp, **widths))
    return seq, ensemble


@pytest.mark.parametrize("subcommand", ["echo", "cpmg"])
def test_demo_echo_areas_at_the_default_tolerances_match_a_converged_run(subcommand):
    """The Hahn echo and the 2-echo CPMG train of configs/demo.yaml (8x9
    groups), as the subcommands run them, against rtol 1e-11 / atol 1e-14."""
    seq, ensemble = _demo(subcommand)
    got = bs.phase_aligned_areas(bs.run_sweep([seq], **ensemble)[0])
    want = bs.phase_aligned_areas(bs.run_sweep([seq], rtol=1e-11, atol=1e-14, **ensemble)[0])
    assert len(got) == len(want) == (1 if subcommand == "echo" else 2)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-7 * abs(w)


def test_demo_echo_trace_at_the_default_tolerances_matches_a_tight_run():
    # every sample of the demo Hahn echo, against rtol 1e-12 / atol 1e-16
    # (6.4e-9 of the peak measured; 3.5e-7 with the cavity's feed in the rhs)
    seq, ensemble = _demo("echo")
    [got] = bs.run_sweep([seq], **ensemble)[0]
    [want] = bs.run_sweep([seq], rtol=1e-12, atol=1e-16, **ensemble)[0]
    assert np.array_equal(got.t, want.t)
    assert np.abs(got.amp - want.amp).max() <= 5e-8 * np.abs(want.amp).max()


def test_broad_cavity_echo_at_the_default_tolerances_matches_a_tight_run():
    # a 1x3 echo in a broad cavity, kappa_ext = 1e9 s^-1 (265 times RES's):
    # every sample against rtol 1e-11 / atol 1e-16 (2.9e-9 of the peak
    # measured)
    res = ResonatorParams(omega0=OMEGA0, kappa_int=2 * math.pi * 0.4e6, kappa_ext=1e9)
    groups = bs.init_ensemble(CouplingDistribution.delta(50.0), res, T_SPIN, 600e-6,
                              n_g=1, n_delta=3)
    seq = bs.hahn_echo(3e-6, bs.pi_pulse_amplitude(50.0, res), acquire_width=2e-6)
    [got] = bs.run_sweep([seq], groups, res)[0]
    [want] = bs.run_sweep([seq], groups, res, rtol=1e-11, atol=1e-16)[0]
    assert np.array_equal(got.t, want.t)
    assert np.abs(got.amp - want.amp).max() <= 1e-8 * np.abs(want.amp).max()


def _with_phases(seq, phase):
    """seq with each pulse's phase p replaced by phase(p)."""
    return bs.PulseSequence(events=[
        bs.Pulse(ev.amplitude, phase(ev.phase), ev.duration) if isinstance(ev, bs.Pulse) else ev
        for ev in seq.events])


def _assert_traces_map(got, want, transform):
    # every sample within 1e-12 of the largest sample of all traces
    peak = max(np.abs(tr.amp).max() for tr in want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.t, w.t)
        assert np.abs(g.amp - transform(w.amp)).max() <= 1e-12 * peak


def test_a_phase_added_to_every_pulse_rotates_every_trace():
    # a -> a e^{i phi}, s- -> s- e^{i phi} with a_in -> a_in e^{i phi} maps the
    # equations onto themselves, and the error norm reads only moduli, so
    # the steps are the same: the output turns by e^{i phi}
    seq, ensemble = _demo("cpmg")
    phi = 0.7
    want = bs.run_sweep([seq], **ensemble)[0]
    got = bs.run_sweep([_with_phases(seq, lambda p: p + phi)], **ensemble)[0]
    _assert_traces_map(got, want, lambda amp: np.exp(1j * phi) * amp)


def test_negated_pulse_phases_conjugate_every_trace_on_a_symmetric_comb():
    # a -> a*, s-_k -> -s-_k'* with k' the group at -delta_k and a_in -> a_in*
    # maps the equations onto themselves when every group has its mirror
    # image, so the output is conjugated
    seq, ensemble = _demo("cpmg")
    groups = ensemble["groups"]
    mirror = groups.detuning.reshape(-1, 9)[:, ::-1].ravel()  # g-major, 9 detunings
    assert np.array_equal(mirror, -groups.detuning)
    assert np.array_equal(groups.g.reshape(-1, 9)[:, ::-1].ravel(), groups.g)
    assert np.array_equal(groups.gamma1.reshape(-1, 9)[:, ::-1].ravel(), groups.gamma1)
    want = bs.run_sweep([seq], **ensemble)[0]
    got = bs.run_sweep([_with_phases(seq, lambda p: -p)], **ensemble)[0]
    _assert_traces_map(got, want, np.conj)


def test_demo_echo_ring_downs_take_the_frozen_term_exactly(monkeypatch):
    # the solver integrates the ring-down's action on the spins exactly in
    # the delays: measured 1,151 rhs calls in all and 511 in the delay after
    # the pi pulse, against 1,415 and 655 with DP5's quadrature of it; the
    # bounds lie between the two
    seq, ensemble = _demo("echo")
    calls = []
    solver = bs.dormand_prince

    def counted(f, *args, **kwargs):
        calls.append(0)

        def rhs(t, y, out):
            calls[-1] += 1
            f(t, y, out)

        return solver(rhs, *args, **kwargs)

    monkeypatch.setattr(bs, "dormand_prince", counted)
    bs.run_sweep([seq], **ensemble)
    kinds = [type(ev) for ev in seq.events]
    assert kinds == [bs.Pulse, bs.Delay, bs.Pulse, bs.Delay, bs.Acquire]
    assert sum(calls) <= 1280 and calls[3] <= 580


def test_demo_echo_window_takes_few_steps(monkeypatch):
    # the feed from the spins is in the exact linear part, so the window's
    # free induction costs the pair nothing: 5 attempts measured (93 with the
    # feed in the rhs); each attempt costs six rhs calls after the first
    seq, ensemble = _demo("echo")
    calls = []
    solver = bs.dormand_prince

    def counted(f, *args, **kwargs):
        calls.append([0, kwargs.get("sample_times") is not None])

        def rhs(t, y, out):
            calls[-1][0] += 1
            f(t, y, out)

        return solver(rhs, *args, **kwargs)

    monkeypatch.setattr(bs, "dormand_prince", counted)
    bs.run_sweep([seq], **ensemble)
    [window] = [n for n, sampled in calls if sampled]
    assert (window - 1) % 6 == 0 and window <= 1 + 6 * 10
