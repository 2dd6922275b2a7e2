"""Semiclassical dynamics of the spin ensemble coupled to the driven cavity.

Each ensemble group k carries coupling g_k, detuning delta_k, its own Purcell
rate and a shared T2. In the frame rotating at the cavity frequency:

    da/dt    = -(kappa/2) a - i sum_k w_k g_k s-_k + sqrt(kappa_ext) a_in(t)
    ds-_k/dt = -(i 2 pi delta_k + 1/T2) s-_k + i g_k a s_z,k
    ds_z/dt  = -Gamma_1,k (s_z,k - sz_eq,k) + 2 i g_k (a* s-_k - a s-*_k)

with g in angular units inside the equations and s- = (s_x - i s_y)/2, so
4 |s-|^2 + s_z^2 <= 1 is the Bloch-ball constraint and a resonant drive of
integrated angle theta = 2 g |a| t rotates the group by theta. The output
field is a_out = sqrt(kappa_ext) a - a_in.

Free-evolution delays much longer than the cavity lifetime are advanced in
closed form (pure T1/T2/detuning decay); pulse and acquisition segments go
through the adaptive integrator. Thermal noise between pulses is not driven
explicitly; temperature enters through sz_eq and the per-group rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyDistribution, EmptyWindow
from .ode import dormand_prince
from .thermal import purcell_rate, spin_polarization

LONG_DELAY_FACTOR = 100.0  # delays beyond this many 1/kappa skip the ODE


@dataclass(frozen=True)
class Ensemble:
    """Spin groups as parallel arrays, one entry per group."""

    g: np.ndarray  # Hz
    detuning: np.ndarray  # Hz
    gamma1: np.ndarray  # s^-1
    t2: np.ndarray  # s
    sz_eq: np.ndarray  # equilibrium s_z, in [-1, 0]
    weight: np.ndarray

    def __len__(self):
        return len(self.g)


@dataclass
class EnsembleState:
    s_minus: np.ndarray  # complex, one per group
    s_z: np.ndarray  # real
    cavity: complex = 0.0

    @classmethod
    def equilibrium(cls, groups):
        return cls(
            s_minus=np.zeros(len(groups), dtype=complex),
            s_z=np.array(groups.sz_eq, dtype=float),
            cavity=0.0,
        )

    def bloch_excess(self):
        """Largest violation of 4|s-|^2 + s_z^2 <= 1 over the ensemble."""
        norm = 4 * np.abs(self.s_minus) ** 2 + self.s_z**2
        return float(norm.max() - 1.0)


@dataclass(frozen=True)
class Pulse:
    amplitude: float  # sqrt(photons/s)
    phase: float  # rad
    duration: float  # s


@dataclass(frozen=True)
class Delay:
    duration: float


@dataclass(frozen=True)
class Acquire:
    window: float  # s of recorded output


@dataclass(frozen=True)
class PulseSequence:
    events: list
    repetition_time: float | None = None

    def __post_init__(self):
        for ev in self.events:
            length = ev.duration if isinstance(ev, (Pulse, Delay)) else ev.window
            if length <= 0:
                raise ValueError("event durations must be positive")


@dataclass(frozen=True)
class EchoTrace:
    t: np.ndarray  # s, uniform spacing
    amp: np.ndarray  # complex output amplitude, sqrt(photons/s)


def init_ensemble(rho, res, spin_temp, t2, *, freq_width=3e6, n_g=40, n_delta=41):
    """Tensor ensemble over g quantiles of rho and a square detuning comb.

    The detuning distribution is a square of full width freq_width centered
    on the cavity; each group gets the Purcell rate for its own (g, delta)
    and the equilibrium polarization of spin_temp. Groups are laid out
    g-major: group k = i_g * n_delta + i_delta, all of equal weight.
    """
    if n_g < 1 or n_delta < 1:
        raise ValueError("need at least one group along each axis")
    if np.sum(rho.weights) <= 0:
        raise EmptyDistribution("coupling distribution carries no weight")
    qs = (np.arange(n_g) + 0.5) / n_g
    g_vals = np.atleast_1d(rho.quantile(qs))
    if n_delta == 1:
        deltas = np.array([0.0])
    else:
        deltas = np.linspace(-freq_width / 2, freq_width / 2, n_delta)
    g = np.repeat(g_vals, n_delta)
    detuning = np.tile(deltas, n_g)
    n = n_g * n_delta
    return Ensemble(
        g=g,
        detuning=detuning,
        gamma1=purcell_rate(g, res, detuning),
        t2=np.full(n, float(t2)),
        sz_eq=np.full(n, -spin_polarization(spin_temp, res.omega0)),
        weight=np.full(n, 1.0 / n),
    )


def _pack(state):
    return np.concatenate(([state.cavity], state.s_minus, state.s_z.astype(complex)))


def _unpack(y, n):
    return EnsembleState(
        s_minus=y[1 : 1 + n].copy(),
        s_z=y[1 + n :].real.copy(),
        cavity=complex(y[0]),
    )


def evolve(state, groups, res, a_in, duration, *, sample_dt=None, rtol=1e-8,
           atol=1e-10, fixed_step=None):
    """Advance the coupled equations by `duration` under constant drive a_in.

    groups is an Ensemble and a_in a complex input amplitude. Returns
    (state, EchoTrace or None); a trace of the output field
    a_out = sqrt(kappa_ext) a - a_in is recorded on a uniform sample_dt comb
    when sample_dt is given. Error control alone sets the integrator step.
    """
    n = len(groups)
    g_ang = 2 * math.pi * groups.g
    det_ang = 2 * math.pi * groups.detuning
    gamma1 = groups.gamma1
    gamma2 = 1.0 / groups.t2
    sz_eq = groups.sz_eq
    wg = groups.weight * g_ang
    kappa = res.kappa
    root_kext = math.sqrt(res.kappa_ext)
    drive = root_kext * complex(a_in)

    def rhs(t, y):
        a = y[0]
        sm = y[1 : 1 + n]
        sz = y[1 + n :].real
        # single fixed-order dot keeps the reduction deterministic
        da = -(kappa / 2) * a - 1j * np.dot(wg, sm) + drive
        dsm = -(1j * det_ang + gamma2) * sm + 1j * g_ang * a * sz
        dsz = -gamma1 * (sz - sz_eq) - 4.0 * g_ang * (np.conj(a) * sm).imag
        return np.concatenate(([da], dsm, dsz.astype(complex)))

    sample_times = None
    if sample_dt is not None:
        n_samp = int(math.floor(duration / sample_dt + 1e-9)) + 1
        sample_times = np.arange(n_samp) * sample_dt

    y1, samples = dormand_prince(
        rhs, 0.0, _pack(state), duration,
        rtol=rtol, atol=atol, fixed_step=fixed_step, sample_times=sample_times,
    )
    new_state = _unpack(y1, n)
    trace = None
    if sample_dt is not None:
        trace = EchoTrace(t=sample_times, amp=root_kext * samples[:, 0] - a_in)
    return new_state, trace


def _closed_form_delay(state, groups, res, duration):
    """Exact free decay used for delays far beyond the cavity lifetime."""
    sm = state.s_minus * np.exp(
        -(2j * math.pi * groups.detuning + 1.0 / groups.t2) * duration)
    sz = groups.sz_eq + (state.s_z - groups.sz_eq) * np.exp(-groups.gamma1 * duration)
    a = state.cavity * math.exp(-res.kappa * duration / 2)
    return EnsembleState(s_minus=sm, s_z=sz, cavity=a)


def run_sequence(seq, groups, res, *, sample_dt=1e-8, rtol=1e-8, atol=1e-10,
                 fixed_step=None, ref_trace=None):
    """Execute a pulse sequence; returns (traces, areas).

    One EchoTrace per Acquire event, with absolute time stamps. Echo areas
    are phase-aligned against the reference trace (ref_trace index, or the
    trace holding the globally largest sample when None).
    """
    state = EnsembleState.equilibrium(groups)
    cursor = 0.0
    traces = []
    long_delay = LONG_DELAY_FACTOR / res.kappa
    for ev in seq.events:
        if isinstance(ev, Pulse):
            a_in = ev.amplitude * np.exp(1j * ev.phase)
            state, _ = evolve(state, groups, res, a_in, ev.duration,
                              rtol=rtol, atol=atol, fixed_step=fixed_step)
            cursor += ev.duration
        elif isinstance(ev, Delay):
            if ev.duration >= long_delay:
                # ring the cavity down through the ODE first: immediately
                # after a pulse the decaying field still rotates the spins,
                # which the closed form would silently drop
                state, _ = evolve(state, groups, res, 0.0, long_delay,
                                  rtol=rtol, atol=atol, fixed_step=fixed_step)
                state = _closed_form_delay(state, groups, res,
                                           ev.duration - long_delay)
            else:
                state, _ = evolve(state, groups, res, 0.0, ev.duration,
                                  rtol=rtol, atol=atol, fixed_step=fixed_step)
            cursor += ev.duration
        elif isinstance(ev, Acquire):
            state, tr = evolve(state, groups, res, 0.0, ev.window,
                               sample_dt=sample_dt, rtol=rtol, atol=atol,
                               fixed_step=fixed_step)
            traces.append(EchoTrace(t=tr.t + cursor, amp=tr.amp))
            cursor += ev.window
        else:
            raise TypeError(f"unknown event {ev!r}")
    areas, _ = phase_aligned_areas(traces, ref_index=ref_trace)
    return traces, areas


def echo_phase(trace, window=None):
    """Phase of the largest-magnitude sample, used as alignment reference."""
    _, amp = _windowed(trace, window)
    idx = int(np.argmax(np.abs(amp)))
    if amp[idx] == 0:
        return 0.0
    return float(np.angle(amp[idx]))


def _windowed(trace, window):
    if trace.t.size == 0:
        raise EmptyWindow("trace holds no samples")
    if window is None:
        return trace.t, trace.amp
    lo, hi = window
    mask = (trace.t >= lo) & (trace.t <= hi)
    if not mask.any():
        raise EmptyWindow(f"no samples inside [{lo:g}, {hi:g}] s")
    return trace.t[mask], trace.amp[mask]


def integrate_echo(trace, window=None, phase=None):
    """Real part of the phase-aligned output integral over the window.

    With an explicit phase the result is exactly linear in the trace; when
    the phase is derived from the trace itself a sign inversion of the echo
    shows up as a 180-degree phase and flips the sign of the area.
    """
    t, amp = _windowed(trace, window)
    if phase is None:
        phase = echo_phase(trace, window)
    return float(np.real(np.exp(-1j * phase) * np.trapezoid(amp, t)))


def phase_aligned_areas(traces, ref_index=None):
    """Echo areas of several traces sharing one phase reference."""
    if not traces:
        return [], 0.0
    if ref_index is None:
        peaks = [float(np.max(np.abs(tr.amp))) if tr.amp.size else 0.0 for tr in traces]
        ref_index = int(np.argmax(peaks))
    phase = echo_phase(traces[ref_index])
    return [integrate_echo(tr, phase=phase) for tr in traces], phase


def pi_pulse_amplitude(g, res, duration=250e-9, angle=math.pi):
    """Input amplitude rotating a group at coupling g by `angle`.

    Uses the quasi-steady cavity relation a_ss = 2 sqrt(kappa_ext) a_in/kappa
    and theta = 2 g_ang a_ss t_p; the cavity rise and ring-down areas cancel
    for a resonant rectangular pulse, so the total rotation is exact once the
    cavity has rung down.
    """
    g_ang = 2 * math.pi * g
    return angle * res.kappa / (4 * g_ang * math.sqrt(res.kappa_ext) * duration)


def hahn_echo(tau, amp, *, pi_duration=250e-9, acquire_width=4e-6):
    """pi/2 - tau - pi - echo sequence with center-to-center delay tau.

    The refocusing pulse follows the convention of a 90-degree phase shift
    relative to the first pulse. The acquisition window is centered on the
    echo time.
    """
    half = pi_duration / 2
    d1 = tau - half / 2 - pi_duration / 2  # pi/2 pulse end -> pi pulse start
    echo_delay = tau - pi_duration / 2 - acquire_width / 2  # pi end -> window
    if d1 <= 0 or echo_delay <= 0:
        raise ValueError("tau too short for the pulse widths / acquire window")
    return PulseSequence(
        events=[
            Pulse(amp, 0.0, half),
            Delay(d1),
            Pulse(amp, math.pi / 2, pi_duration),
            Delay(echo_delay),
            Acquire(acquire_width),
        ]
    )


def inversion_recovery(delta_t, tau, amp, *, pi_duration=250e-9, acquire_width=4e-6):
    """pi - delta_t - (Hahn echo readout)."""
    hahn = hahn_echo(tau, amp, pi_duration=pi_duration, acquire_width=acquire_width)
    return PulseSequence(events=[Pulse(amp, 0.0, pi_duration), Delay(delta_t)] + hahn.events)


def cpmg(n_pi, tau, amp, *, pi_duration=250e-9, acquire_width=None):
    """pi/2 - [tau - pi - tau - echo]^n with 90-degree-shifted pi pulses."""
    if n_pi < 1:
        raise ValueError("need at least one refocusing pulse")
    if acquire_width is None:
        acquire_width = min(4e-6, tau)
    half = pi_duration / 2
    events = [Pulse(amp, 0.0, half)]
    d1 = tau - half / 2 - pi_duration / 2
    echo_delay = tau - pi_duration / 2 - acquire_width / 2
    post_echo = tau - acquire_width / 2 - pi_duration / 2
    if min(d1, echo_delay, post_echo) <= 0:
        raise ValueError("tau too short for the pulse widths / acquire window")
    events.append(Delay(d1))
    for k in range(n_pi):
        events.append(Pulse(amp, math.pi / 2, pi_duration))
        events.append(Delay(echo_delay))
        events.append(Acquire(acquire_width))
        if k < n_pi - 1:
            events.append(Delay(post_echo))
    return PulseSequence(events=events)
