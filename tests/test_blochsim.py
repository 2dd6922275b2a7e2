import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from purcell_cool import blochsim as bs
from purcell_cool.coupling import CouplingDistribution
from purcell_cool.errors import EmptyWindow
from purcell_cool.thermal import ResonatorParams, purcell_rate, spin_polarization

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
    state = bs.EnsembleState(s_minus=np.zeros(1, complex), s_z=np.array([0.4]))
    dt = 5e-6
    state, _ = bs.evolve(state, groups, RES, 0.0, dt)
    g1 = groups.gamma1[0]
    expect = groups.sz_eq[0] + (0.4 - groups.sz_eq[0]) * math.exp(-g1 * dt)
    assert abs(state.s_z[0] - expect) < 1e-10
    assert abs(state.s_minus[0]) < 1e-12


class TestRabiRotation:
    """Resonant rectangular pulse of integrated area theta.

    The cavity rise and ring-down contribute equal and opposite rotation
    around the nominal plateau, so after ring-down the net angle is theta.
    """

    @pytest.mark.parametrize("frac", [0.25, 0.5, 1.0])
    def test_sz_rotates_by_theta(self, frac):
        groups = single_group(g=50.0)
        amp = frac * bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        state = bs.EnsembleState.equilibrium(groups)
        state, _ = bs.evolve(state, groups, RES, amp + 0j, 250e-9)
        state, _ = bs.evolve(state, groups, RES, 0.0, 3e-6)  # ring-down
        theta = frac * math.pi
        assert abs(state.s_z[0] - (-POL * math.cos(theta))) < 0.01 * POL

    def test_bloch_norm_preserved_through_pulse(self):
        groups = single_group(g=50.0)
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        state = bs.EnsembleState.equilibrium(groups)
        state, _ = bs.evolve(state, groups, RES, amp + 0j, 250e-9)
        assert state.bloch_excess() < 1e-6


def test_opposite_detunings_evolve_as_conjugates():
    """With a purely imaginary drive the +delta and -delta groups satisfy
    s-(+d) = conj(s-(-d)) and the cavity amplitude stays imaginary."""
    groups = ensemble(g=[50.0, 50.0], detuning=[+0.5e6, -0.5e6], gamma1=0.05,
                      t2=600e-6, sz_eq=-POL, weight=0.5)
    amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
    state = bs.EnsembleState.equilibrium(groups)
    state, _ = bs.evolve(state, groups, RES, 1j * amp, 250e-9)
    state, _ = bs.evolve(state, groups, RES, 0.0, 1e-6)
    assert abs(state.s_minus[0] - np.conj(state.s_minus[1])) < 1e-9
    assert abs(state.s_z[0] - state.s_z[1]) < 1e-9
    assert abs(state.cavity.real) < 1e-9 * max(abs(state.cavity), 1e-30)


def test_evolve_against_library_integrator():
    """Three detuned groups under constant drive vs scipy solve_ivp."""
    rng = np.random.default_rng(7)
    groups = ensemble(g=rng.uniform(30, 90, 3), detuning=(-8e5, 1e5, 6e5), gamma1=0.1,
                      t2=1e-4, sz_eq=-0.2, weight=1 / 3)
    state = bs.EnsembleState(
        s_minus=(rng.normal(size=3) + 1j * rng.normal(size=3)) * 0.05,
        s_z=rng.uniform(-0.3, 0.1, 3),
        cavity=100.0 + 50.0j,
    )
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

    y0 = np.concatenate(([state.cavity], state.s_minus, state.s_z.astype(complex)))
    ref = solve_ivp(rhs, (0, duration), y0.view(float), rtol=1e-11, atol=1e-12)
    ref_y = ref.y[:, -1].view(complex)

    out, _ = bs.evolve(state, groups, RES, a_in, duration, rtol=1e-10, atol=1e-12)
    assert abs(out.cavity - ref_y[0]) < 1e-6 * max(1.0, abs(ref_y[0]))
    assert np.allclose(out.s_minus, ref_y[1:4], atol=1e-9)
    assert np.allclose(out.s_z, ref_y[4:7].real, atol=1e-9)


def test_spin_energy_conserved_without_relaxation():
    # decoupled limit: no decay channels, detuned coherences just precess
    groups = ensemble(g=np.zeros(4), detuning=(-1e6, -3e5, 4e5, 1.2e6), gamma1=0.0,
                      t2=math.inf, sz_eq=0.0, weight=0.25)
    state = bs.EnsembleState(
        s_minus=np.full(4, 0.2 + 0.1j), s_z=np.array([0.5, -0.3, 0.1, 0.8]),
        cavity=10.0 + 0j,
    )
    energy0 = float(np.dot(groups.weight, state.s_z))
    out, _ = bs.evolve(state, groups, RES, 0.0, 1e-3, rtol=1e-10, atol=1e-13)
    energy1 = float(np.dot(groups.weight, out.s_z))
    assert abs(energy1 - energy0) < 1e-9
    # coherences precess ~1200 cycles; integrator drift stays small
    assert np.allclose(np.abs(out.s_minus), np.abs(state.s_minus), atol=1e-6)


def test_closed_form_delay_matches_ode():
    """After ring-down the closed form tracks the ODE to the (tiny)
    cavity back-action scale 2 g^2/kappa * dt that it neglects."""
    groups = single_group(g=45.0)
    state = bs.EnsembleState(
        s_minus=np.array([0.1 - 0.05j]), s_z=np.array([-0.1]), cavity=1e-9 + 0j
    )
    dt = 40e-6
    direct, _ = bs.evolve(state, groups, RES, 0.0, dt, rtol=1e-10, atol=1e-13)
    closed = bs._closed_form_delay(state, groups, RES, dt)
    assert abs(direct.s_minus[0] - closed.s_minus[0]) < 2e-7
    assert abs(direct.s_z[0] - closed.s_z[0]) < 2e-7


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
        ae, phase = bs.phase_aligned_areas(areas, ref_index=1)
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
        state = bs.EnsembleState.equilibrium(groups)
        for ev in seq.events:
            if isinstance(ev, bs.Pulse):
                state, _ = bs.evolve(state, groups, RES,
                                     ev.amplitude * np.exp(1j * ev.phase), ev.duration)
            else:
                dur = ev.duration if isinstance(ev, bs.Delay) else ev.window
                state, _ = bs.evolve(state, groups, RES, 0.0, dur)
            assert state.bloch_excess() < 1e-6

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
            cursor += ev.duration if isinstance(ev, (bs.Pulse, bs.Delay)) else ev.window
        assert np.allclose(np.diff(centers), 30e-6, atol=1e-12)


def test_integrate_echo_linearity_and_zero():
    t = np.linspace(0, 1e-6, 101)
    zero = bs.EchoTrace(t=t, amp=np.zeros(101, complex))
    assert bs.integrate_echo(zero, phase=0.0) == 0.0
    tr = bs.EchoTrace(t=t, amp=np.exp(1j * 0.7) * np.sin(math.pi * t / 1e-6))
    a1 = bs.integrate_echo(tr, phase=0.7)
    tr3 = bs.EchoTrace(t=t, amp=3.0 * tr.amp)
    assert abs(bs.integrate_echo(tr3, phase=0.7) - 3 * a1) < 1e-12 * abs(a1)
    trm = bs.EchoTrace(t=t, amp=-tr.amp)
    assert abs(bs.integrate_echo(trm, phase=0.7) + a1) < 1e-12 * abs(a1)


def test_echo_phase_detects_inversion():
    t = np.linspace(0, 1e-6, 101)
    env = np.sin(math.pi * t / 1e-6)
    up = bs.EchoTrace(t=t, amp=env.astype(complex))
    down = bs.EchoTrace(t=t, amp=-env.astype(complex))
    assert abs(bs.echo_phase(up)) < 1e-12
    assert abs(abs(bs.echo_phase(down)) - math.pi) < 1e-12


def test_empty_window_raises():
    t = np.linspace(0, 1e-6, 11)
    tr = bs.EchoTrace(t=t, amp=np.ones(11, complex))
    with pytest.raises(EmptyWindow):
        bs.integrate_echo(tr, window=(2e-6, 3e-6))


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
