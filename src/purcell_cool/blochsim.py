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

The state of one sequence is one packed row [a, s-_1..s-_n, s_z,1..s_z,n]
(complex; the s_z entries stay real). Sequences that share one event
skeleton (a Rabi or inversion-recovery sweep) advance together as the rows
of one (R, 1+2n) array. The diagonal linear part of the equations (_linear)
is advanced exactly, both by the integrator and by the closed form that
takes free-evolution delays much longer than the cavity lifetime (pure
T1/T2/detuning decay); pulse and acquisition segments go through the
adaptive integrator. Thermal noise between pulses is not driven
explicitly; temperature enters through sz_eq and the per-group rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    duration: float  # s of recorded output


@dataclass(frozen=True)
class PulseSequence:
    events: list

    def __post_init__(self):
        for ev in self.events:
            if not isinstance(ev, (Pulse, Delay, Acquire)):
                raise TypeError(f"unknown event {ev!r}")
            if not (math.isfinite(ev.duration) and ev.duration > 0):
                raise ValueError("event durations must be positive and finite")
            if isinstance(ev, Pulse) and not (
                    math.isfinite(ev.amplitude) and math.isfinite(ev.phase)):
                raise ValueError("pulse amplitude and phase must be finite")


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
        raise ValueError("coupling distribution carries no weight")
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


def _linear(groups, res):
    """Diagonal linear part of the equations on a row [a, s-..., s_z...]:
    -kappa/2 on a, -(2 pi i delta_k + 1/T2) on s-_k, and 0 on s_z, whose T1
    term relaxes towards sz_eq and so stays out of it."""
    return np.concatenate((
        [-res.kappa / 2], -(2j * math.pi * groups.detuning + 1.0 / groups.t2),
        np.zeros(len(groups))))


def _advance(y, groups, res, a_in, duration, *, sample_dt=None, rtol=1e-8,
             atol=1e-13, fixed_step=None):
    """Advance the rows of y, shape (R, 1+2n), by `duration` with one shared
    step; row r is driven by the constant complex amplitude a_in[r].

    The diagonal linear part (_linear) is advanced exactly by the
    integrating-factor solver; the rhs keeps the coupling terms, the drive
    and the T1 term. Returns (y, t, amp): amp[j, r] is row r's output field
    a_out = sqrt(kappa_ext) a - a_in at t[j] on a uniform sample_dt comb,
    and t and amp are None without sample_dt. Only the cavity column is
    evaluated at the sample times, from the solver's dense output.
    """
    n = len(groups)
    g_ang = 2 * math.pi * groups.g
    ig_ang = 1j * g_ang
    g4_ang = 4.0 * g_ang
    linear = _linear(groups, res)
    gamma1 = groups.gamma1
    sz_eq = groups.sz_eq
    # da/dt without the decay and the drive is this row times [s-...]
    coupling_row = -1j * groups.weight * g_ang
    root_kext = math.sqrt(res.kappa_ext)
    a_in = np.asarray(a_in, dtype=complex)
    drive = root_kext * a_in

    def rhs(t, y):
        a = y[:, :1]
        sm = y[:, 1 : 1 + n]
        sz = y[:, 1 + n :].real
        # one fixed-order product per row keeps the reduction deterministic
        da = sm @ coupling_row + drive
        dsm = ig_ang * a * sz
        dsz = -gamma1 * (sz - sz_eq) - g4_ang * (np.conj(a) * sm).imag
        return np.concatenate((da[:, None], dsm, dsz), axis=1)

    sample_times = None
    if sample_dt is not None:
        n_samp = int(math.floor(duration / sample_dt + 1e-9)) + 1
        sample_times = np.arange(n_samp) * sample_dt

    y1, cavity = dormand_prince(
        rhs, 0.0, y, duration, linear=linear, rtol=rtol, atol=atol,
        fixed_step=fixed_step, sample_times=sample_times, observe=lambda y: y[:, 0],
    )
    if sample_dt is None:
        return y1, None, None
    return y1, sample_times, root_kext * cavity - a_in


def _closed_form_delay(y, groups, res, durations):
    """Exact free decay of the rows of y, row r for durations[r], used for
    delays far beyond the cavity lifetime: the linear part alone, and each
    s_z relaxing towards sz_eq at its own Gamma_1."""
    n = len(groups)
    column = np.asarray(durations, dtype=float)[:, None]
    out = y * np.exp(_linear(groups, res) * column)
    sz = y[:, 1 + n :].real
    out[:, 1 + n :] = groups.sz_eq + (sz - groups.sz_eq) * np.exp(-groups.gamma1 * column)
    return out


def _skeleton(seq, long_delay):
    """What the sequences of one batch share: every event's kind and length,
    except the length of a delay of at least long_delay. Pulse amplitudes
    and phases may differ."""
    return tuple(
        (type(ev), None if isinstance(ev, Delay) and ev.duration >= long_delay
         else ev.duration)
        for ev in seq.events
    )


def run_sweep(seqs, groups, res, *, sample_dt=1e-8, rtol=1e-8, atol=1e-13,
              fixed_step=None):
    """Execute pulse sequences; returns each one's EchoTraces, in input order.

    Sequences with the same skeleton (see _skeleton) advance together as the
    rows of one (R, 1+2n) state under one adaptive step, which the hardest
    row sets; every row meets its own tolerance. Delays of at least
    LONG_DELAY_FACTOR / kappa ring the cavity down through the ODE for that
    long, then decay in closed form for the rest of each row's own delay.
    Traces carry absolute time stamps from each row's own time cursor.
    """
    long_delay = LONG_DELAY_FACTOR / res.kappa
    batches = {}
    for i, seq in enumerate(seqs):
        batches.setdefault(_skeleton(seq, long_delay), []).append(i)
    out = [None] * len(seqs)
    solver = dict(rtol=rtol, atol=atol, fixed_step=fixed_step)
    for rows in batches.values():
        runs = _run_batch([seqs[i] for i in rows], groups, res, long_delay,
                          sample_dt, solver)
        for i, traces in zip(rows, runs):
            out[i] = traces
    return out


def _run_batch(seqs, groups, res, long_delay, sample_dt, solver):
    """Run sequences of one skeleton as rows of one state; each one's traces."""
    n = len(groups)
    y = np.zeros((len(seqs), 1 + 2 * n), dtype=complex)
    y[:, 1 + n :] = groups.sz_eq
    idle = np.zeros(len(seqs))
    cursor = np.zeros(len(seqs))
    traces = [[] for _ in seqs]
    for events in zip(*(seq.events for seq in seqs)):
        ev = events[0]
        a_in = ([e.amplitude * np.exp(1j * e.phase) for e in events]
                if isinstance(ev, Pulse) else idle)
        # a long delay rings the cavity down through the ODE first: right
        # after a pulse the decaying field still rotates the spins, which
        # the closed form would silently drop
        long = isinstance(ev, Delay) and ev.duration >= long_delay
        acquire = isinstance(ev, Acquire)
        y, t, amp = _advance(y, groups, res, a_in, long_delay if long else ev.duration,
                             sample_dt=sample_dt if acquire else None, **solver)
        if long:
            rest = np.array([e.duration for e in events]) - long_delay
            y = _closed_form_delay(y, groups, res, rest)
        if acquire:
            for r, row_traces in enumerate(traces):
                row_traces.append(EchoTrace(t=t + cursor[r], amp=amp[:, r]))
        cursor += [e.duration for e in events]
    return traces


def run_sequence(seq, groups, res, *, sample_dt=1e-8, rtol=1e-8, atol=1e-13,
                 fixed_step=None):
    """Execute one pulse sequence; returns (traces, areas).

    The one-row case of run_sweep: one EchoTrace per Acquire event, with
    absolute time stamps. Echo areas are phase-aligned against the trace
    holding the globally largest sample.
    """
    traces = run_sweep([seq], groups, res, sample_dt=sample_dt, rtol=rtol,
                       atol=atol, fixed_step=fixed_step)[0]
    return traces, phase_aligned_areas(traces)


def phase_aligned_areas(traces, ref_index=None):
    """Echo areas of several traces sharing one phase reference.

    Each area is the real part of the trace's output integral rotated by
    the phase of the reference's largest-magnitude sample, so an echo
    inverted against the reference has a negative area. The reference
    defaults to the trace holding the globally largest sample. An empty
    reference, or any empty trace when the reference is chosen, raises
    numpy's ValueError.
    """
    if ref_index is None:
        ref_index = int(np.argmax([np.max(np.abs(tr.amp)) for tr in traces]))
    ref = traces[ref_index].amp
    phase = float(np.angle(ref[np.argmax(np.abs(ref))]))
    return [float(np.real(np.exp(-1j * phase) * np.trapezoid(tr.amp, tr.t))) for tr in traces]


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
    """pi/2 - tau - pi - echo sequence with center-to-center delay tau: the
    CPMG train with one refocusing pulse."""
    return cpmg(1, tau, amp, pi_duration=pi_duration, acquire_width=acquire_width)


def inversion_recovery(delta_t, tau, amp, *, pi_duration=250e-9, acquire_width=4e-6):
    """pi - delta_t - (Hahn echo readout)."""
    hahn = hahn_echo(tau, amp, pi_duration=pi_duration, acquire_width=acquire_width)
    return PulseSequence(events=[Pulse(amp, 0.0, pi_duration), Delay(delta_t)] + hahn.events)


def cpmg(n_pi, tau, amp, *, pi_duration=250e-9, acquire_width=4e-6):
    """pi/2 - [tau - pi - tau - echo]^n with 90-degree-shifted pi pulses.

    Successive pulse and echo centres are tau apart, and the acquisition
    window is centred on each echo.
    """
    if n_pi < 1:
        raise ValueError("need at least one refocusing pulse")
    half = pi_duration / 2
    events = [Pulse(amp, 0.0, half)]
    d1 = tau - half / 2 - pi_duration / 2  # pi/2 pulse end -> pi pulse start
    echo_delay = tau - pi_duration / 2 - acquire_width / 2  # pi end -> window
    post_echo = tau - acquire_width / 2 - pi_duration / 2  # window end -> pi
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
