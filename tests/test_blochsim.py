import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from purcell_cool import blochsim as bs
from purcell_cool import ode
from purcell_cool.coupling import CouplingDistribution
from purcell_cool.thermal import ResonatorParams, purcell_rate, spin_polarization

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


def ensemble(g, detuning, gamma1, t2, sz_eq, weight):
    """Ensemble whose shared scalar parameters are spread over every group."""
    g = np.asarray(g, dtype=float)
    return bs.Ensemble(
        g=g, detuning=np.asarray(detuning, dtype=float),
        gamma1=np.full(g.size, gamma1), t2=np.full(g.size, t2),
        sz_eq=np.full(g.size, sz_eq), weight=np.full(g.size, weight),
    )


class TestInitEnsemble:
    def test_weights_normalized(self):
        rho = CouplingDistribution.delta(80.0)
        for n_g, n_d in ((1, 1), (5, 7), (40, 41)):
            groups = bs.init_ensemble(rho, RES, T_SPIN, 600e-6, n_g=n_g, n_delta=n_d)
            assert len(groups) == n_g * n_d
            assert abs(groups.weight.sum() - 1.0) < 1e-12

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
            assert ens.detuning[k] == deltas[i_d]
            assert ens.gamma1[k] == purcell_rate(ens.g[k], RES, ens.detuning[k])
        for name in ("g", "detuning", "gamma1", "t2", "sz_eq", "weight"):
            assert getattr(ens, name).shape == (n,)
        assert np.all(ens.sz_eq == -POL)
        assert np.all(ens.t2 == 600e-6)
        assert np.all(ens.weight == 1.0 / n)

    def test_single_group_purcell_rate(self):
        ens = single_group(g=80.0)
        expect = 4 * (2 * math.pi * 80.0) ** 2 / RES.kappa
        assert abs(ens.gamma1[0] - expect) < 1e-12 * expect
        assert abs(ens.sz_eq[0] + POL) < 1e-15

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
    expect = groups.sz_eq[0] + (0.4 - groups.sz_eq[0]) * math.exp(-g1 * dt)
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
                      t2=600e-6, sz_eq=-POL, weight=0.5)
    amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
    y, _ = advance(row(groups), groups, RES, 1j * amp, 250e-9)
    y, _ = advance(y, groups, RES, 0.0, 1e-6)
    cavity, s_minus, s_z = split(y, 2)
    assert abs(s_minus[0] - np.conj(s_minus[1])) < 1e-9
    assert abs(s_z[0] - s_z[1]) < 1e-9
    assert abs(cavity.real) < 1e-9 * max(abs(cavity), 1e-30)


def test_advance_against_library_integrator():
    """Three detuned groups under constant drive vs scipy solve_ivp."""
    rng = np.random.default_rng(7)
    groups = ensemble(g=rng.uniform(30, 90, 3), detuning=(-8e5, 1e5, 6e5), gamma1=0.1,
                      t2=1e-4, sz_eq=-0.2, weight=1 / 3)
    y0 = row(groups, s_minus=(rng.normal(size=3) + 1j * rng.normal(size=3)) * 0.05,
             s_z=rng.uniform(-0.3, 0.1, 3), cavity=100.0 + 50.0j)
    a_in = 2e4 * np.exp(0.3j)
    duration = 2e-6

    g_ang = 2 * math.pi * groups.g
    det = 2 * math.pi * groups.detuning
    w = groups.weight

    def rhs(t, yf):
        y = yf.view(complex)
        a, sm, sz = y[0], y[1:4], y[4:7].real
        da = -(RES.kappa / 2) * a - 1j * np.sum(w * g_ang * sm) + math.sqrt(RES.kappa_ext) * a_in
        dsm = -(1j * det + 1e4) * sm + 1j * g_ang * a * sz
        dsz = -0.1 * (sz - (-0.2)) - 4 * g_ang * (np.conj(a) * sm).imag
        return np.concatenate(([da], dsm, dsz.astype(complex))).view(float)

    ref = solve_ivp(rhs, (0, duration), y0.view(float), rtol=1e-11, atol=1e-12)
    ref_y = ref.y[:, -1].view(complex)

    out, _ = advance(y0, groups, RES, a_in, duration, rtol=1e-10, atol=1e-12)
    cavity, s_minus, s_z = split(out, 3)
    assert abs(cavity - ref_y[0]) < 1e-6 * max(1.0, abs(ref_y[0]))
    assert np.allclose(s_minus, ref_y[1:4], atol=1e-9)
    assert np.allclose(s_z, ref_y[4:7].real, atol=1e-9)


def test_spin_energy_conserved_without_relaxation():
    # decoupled limit: no decay channels, detuned coherences just precess
    groups = ensemble(g=np.zeros(4), detuning=(-1e6, -3e5, 4e5, 1.2e6), gamma1=0.0,
                      t2=math.inf, sz_eq=0.0, weight=0.25)
    y0 = row(groups, s_minus=np.full(4, 0.2 + 0.1j), s_z=[0.5, -0.3, 0.1, 0.8],
             cavity=10.0 + 0j)
    _, s_minus0, s_z0 = split(y0, 4)
    energy0 = float(np.dot(groups.weight, s_z0))
    out, _ = advance(y0, groups, RES, 0.0, 1e-3, rtol=1e-10, atol=1e-13)
    _, s_minus, s_z = split(out, 4)
    energy1 = float(np.dot(groups.weight, s_z))
    assert abs(energy1 - energy0) < 1e-9
    # coherences precess ~1200 cycles; integrator drift stays small
    assert np.allclose(np.abs(s_minus), np.abs(s_minus0), atol=1e-6)


def test_closed_form_delay_matches_ode():
    """After ring-down the closed form tracks the ODE to the (tiny)
    cavity back-action scale 2 g^2/kappa * dt that it neglects."""
    groups = single_group(g=45.0)
    y = row(groups, s_minus=[0.1 - 0.05j], s_z=[-0.1], cavity=1e-9 + 0j)
    dt = 40e-6
    direct, _ = advance(y, groups, RES, 0.0, dt, rtol=1e-10, atol=1e-13)
    closed = bs._closed_form_delay(y[None], groups, RES, [dt])[0]
    _, direct_sm, direct_sz = split(direct, 1)
    _, closed_sm, closed_sz = split(closed, 1)
    assert abs(direct_sm[0] - closed_sm[0]) < 2e-7
    assert abs(direct_sz[0] - closed_sz[0]) < 2e-7


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

    def test_step_halving_converged(self):
        groups, amp = self.make()
        seq = bs.hahn_echo(2e-6, amp, acquire_width=1e-6)
        ae = {}
        for h in (2e-9, 1e-9):
            _, areas = bs.run_sequence(seq, groups, RES, fixed_step=h)
            ae[h] = areas[0]
        assert abs(ae[1e-9] - ae[2e-9]) < 1e-3 * abs(ae[1e-9])

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


def test_sequence_validation():
    with pytest.raises(ValueError):
        bs.PulseSequence(events=[bs.Delay(0.0)])
    with pytest.raises(ValueError):
        bs.hahn_echo(1e-7, 1.0)  # tau shorter than the pulses
    with pytest.raises(ValueError):
        bs.cpmg(0, 1e-5, 1.0)


def test_pi_pulse_amplitude_scaling():
    a1 = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
    assert abs(bs.pi_pulse_amplitude(50.0, RES, 500e-9) - a1 / 2) < 1e-9 * a1
    assert abs(bs.pi_pulse_amplitude(100.0, RES, 250e-9) - a1 / 2) < 1e-9 * a1
    assert abs(bs.pi_pulse_amplitude(50.0, RES, 250e-9, angle=math.pi / 2) - a1 / 2) < 1e-9 * a1


class TestBatchedSweeps:
    """run_sweep advances sequences sharing one skeleton as rows of one state."""

    @staticmethod
    def detuned_ensemble():
        # one coupling, so the pulses are exact; the detuning spread forms a
        # real echo and gives each group its own Purcell rate
        return bs.init_ensemble(CouplingDistribution.delta(50.0), RES, T_SPIN, 600e-6,
                                n_g=1, n_delta=5, freq_width=4e5)

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

    def test_batched_error_norm_is_the_largest_row_norm(self):
        rng = np.random.default_rng(11)
        shape = (5, 9)
        err, y0, y1 = (rng.normal(size=shape) + 1j * rng.normal(size=shape)
                       for _ in range(3))
        err[3] *= 50.0  # one row far worse than the rest
        rows = [ode._error_norm(err[r], y0[r], y1[r], 1e-8, 1e-10) for r in range(5)]
        assert ode._error_norm(err, y0, y1, 1e-8, 1e-10) == max(rows)

    def test_batched_solver_rows_are_independent_and_observed(self):
        rates = np.array([0.5, 2.0, 7.0])
        ts = np.array([0.0, 0.3, 1.0])
        y0 = np.ones((3, 2), dtype=complex)
        y0[:, 1] = 1j
        y1, obs = ode.dormand_prince(lambda t, y: -rates[:, None] * y, 0.0, y0, 1.0,
                                     sample_times=ts, observe=lambda y: y[:, 0])
        assert y1.shape == (3, 2) and obs.shape == (3, 3)
        assert np.allclose(obs, np.exp(-np.outer(ts, rates)), rtol=1e-8)
        assert np.allclose(y1[:, 1], 1j * np.exp(-rates), rtol=1e-8)
