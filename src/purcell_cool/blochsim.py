"""Semiclassical dynamics of the spin ensemble coupled to the driven cavity.

Group k has coupling g_k, detuning delta_k and Purcell rate Gamma_1,k; T2
and sz_eq are shared, and each of the n groups carries the weight w = 1/n.
In the cavity's rotating frame:

    da/dt    = -(kappa/2) a - i w sum_k g_k s-_k + sqrt(kappa_ext) a_in(t)
    ds-_k/dt = -(i 2 pi delta_k + 1/T2) s-_k + i g_k a s_z,k
    ds_z/dt  = -Gamma_1,k (s_z,k - sz_eq) + 2 i g_k (a* s-_k - a s-*_k)

with g in angular units inside the equations and s- = (s_x - i s_y)/2, so
4 |s-|^2 + s_z^2 <= 1 is the Bloch-ball constraint and a resonant drive of
integrated angle theta = 2 g |a| t rotates the group by theta. The output
field is a_out = sqrt(kappa_ext) a - a_in.

The state of one sequence is one packed float row
[Re a, Im a, Re s-_1, Im s-_1, .., Re s-_n, Im s-_n, s_z,1..s_z,n] of 2 + 3n
floats: the 1 + n complex entries as (re, im) pairs, then the real s_z, so
no float is spent on an always-zero imaginary part. Sequences that share
one event skeleton (a Rabi or inversion-recovery sweep) advance together
as the R rows of one (R, 2+3n) float state in the solver's entry-major
order (see ode): one entry's values for the R rows next to each other,
the 1 + n complex entries as one (1 + n, R) complex block and the s_z as
one (n, R) block, so that the per-group products run over the batch as
contiguous loops. For R = 1 it is the packed row. The linear part of the
equations acts on the complex entries alone: the diagonal (_linear, the
decay and detuning) and the spins' feed -i w g_k s-_k into da/dt. The
integrator advances both exactly, and between pulses also the field's
action on the spins with the field frozen on its ring-down (see ode), so
that there, where little else drives the state, its steps are long
(microseconds); the closed form that takes free-evolution delays much
longer than the cavity lifetime advances the diagonal alone (pure
T1/T2/detuning decay, the cavity having rung down). Pulse, delay and
acquisition segments go through the adaptive integrator.
Thermal noise between pulses is not driven explicitly; temperature enters
through sz_eq and the per-group rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_POINTS
from .errors import NoConvergence
from .ode import dormand_prince, entry_blocks
from .thermal import purcell_rate, spin_polarization

LONG_DELAY_FACTOR = 100.0  # delays beyond this many 1/kappa skip the ODE


@dataclass(frozen=True)
class Ensemble:
    """Spin groups that tile one detuning comb: group k has coupling g[k],
    Purcell rate gamma1[k] and detuning detuning[k % len(detuning)]; T2
    and the equilibrium s_z are the same for every group, and every group
    has the weight 1 / len(g)."""

    g: np.ndarray  # Hz, one per group
    detuning: np.ndarray  # Hz, the comb
    gamma1: np.ndarray  # s^-1, one per group
    t2: float  # s
    sz_eq: float  # equilibrium s_z, in [-1, 0]

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
    if not (n_g >= 1 and n_delta >= 1 and 0 <= freq_width < math.inf):
        raise ValueError("need n_g, n_delta >= 1 and a finite freq_width >= 0")
    if not t2 > 0:
        raise ValueError(f"t2 must be positive, got {t2!r}")
    if np.sum(rho.weights) <= 0:
        raise ValueError("coupling distribution carries no weight")
    qs = (np.arange(n_g) + 0.5) / n_g
    g_vals = np.atleast_1d(rho.quantile(qs))
    if n_delta == 1:
        deltas = np.array([0.0])
    else:
        deltas = np.linspace(-freq_width / 2, freq_width / 2, n_delta)
    g = np.repeat(g_vals, n_delta)
    gamma1 = purcell_rate(g, res, np.tile(deltas, n_g))
    if not np.all(np.isfinite(gamma1)):
        raise ValueError("the couplings' Purcell rates overflow the float range")
    if not math.isfinite(1.0 / float(t2)):
        raise ValueError("t2 is too short: 1/T2 overflows the float range")
    return Ensemble(g=g, detuning=deltas, gamma1=gamma1, t2=float(t2),
                    sz_eq=-spin_polarization(spin_temp, res.omega0))


def _linear(groups, res):
    """Diagonal linear part of the equations on the complex entries
    [a, s-...] of a row: -kappa/2 on a, then -(2 pi i delta + 1/T2) for each
    delta of the comb, which each coupling's tile of s- repeats. It is 0 on
    s_z, whose T1 term relaxes towards sz_eq and so stays out."""
    return np.concatenate((
        [-res.kappa / 2], -(2j * math.pi * groups.detuning + 1.0 / groups.t2)))


def sample_comb(width, sample_dt):
    """The sample times of an acquisition window of this width: one every
    sample_dt from 0, floor(width / sample_dt + 1e-9) + 1 of them, so that a
    window up to 1e-9 of a sample short of a whole number takes its last
    sample at its end, not past it. A sample_dt that is not positive and
    finite, or more than MAX_POINTS samples, raises ValueError; the count is
    compared in floats, so that a ratio past float range is refused too.
    A width that is negative or not finite raises ValueError too. This is
    the one statement of the rule: the CLI, run_sweep (for its widest
    window, before any solve) and each acquisition call it."""
    if not 0 <= width < math.inf:
        raise ValueError(f"width must be nonnegative and finite, got {width!r}")
    if not 0 < sample_dt < math.inf:
        raise ValueError(f"sample_dt must be positive and finite, got {sample_dt!r}")
    ratio = width / sample_dt
    if not ratio + 1e-9 < MAX_POINTS:
        raise ValueError(f"an acquisition window takes at most {MAX_POINTS} samples, but "
                         f"one of {width:.6g} s spans {ratio:.6g} intervals "
                         f"of sample_dt {sample_dt:.6g} s")
    return np.minimum(np.arange(math.floor(ratio + 1e-9) + 1) * sample_dt, width)


def _advance(y, groups, res, a_in, duration, *, rtol, atol, sample_dt=None):
    """Advance the R rows of the state y (see the module docstring) by
    `duration` with one shared step; row r is driven by the constant complex
    amplitude a_in[r].

    The linear part, _linear and the spins' feed into the cavity, is
    advanced exactly by the integrating-factor solver; the rhs keeps the
    field's action on the spins (i g a s_z and the s_z term), the drive and
    the T1 term, and writes them into the row `out` that the solver hands
    it, allocating no state-sized array. Where no row is driven (a delay, a
    ring-down or an acquisition) the solver also learns the couplings g, and
    integrates exactly, over each step, the field's action on the spins
    with the field frozen on its ring-down e^{-kappa t / 2}, the s- on their
    linear flow and the s_z held (see ode); DP5 integrates what is left.
    Returns (y, t, amp): amp[j, r] is row r's output field a_out =
    sqrt(kappa_ext) a - a_in at the times t = sample_comb(duration,
    sample_dt), and t and amp are None without sample_dt. Only the cavity
    column is evaluated at the sample times, from the solver's dense
    output. rtol and atol are the solver's tolerances, whose defaults
    run_sweep holds. A drive sqrt(kappa_ext) a_in that overflows raises
    ValueError.
    """
    n = len(groups)
    rows = len(y)
    g_ang = 2 * math.pi * groups.g
    # the per-group coefficients once per row, entry-major as the state
    ig_ang, g4_ang, gamma1, relax_to = (
        np.repeat(v, rows).reshape(n, rows)
        for v in (1j * g_ang, 4.0 * g_ang, groups.gamma1, groups.gamma1 * groups.sz_eq))
    # the spins' linear feed into da/dt: this times [s-...], a comb's tile per row
    coupling_row = (-1j * (1.0 / n) * g_ang).reshape(-1, len(groups.detuning))
    root_kext = math.sqrt(res.kappa_ext)
    a_in = np.asarray(a_in, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        drive = root_kext * a_in
    if not np.all(np.isfinite(drive)):
        raise ValueError("a pulse amplitude overflows the cavity's drive sqrt(kappa_ext) a_in")

    # each row's views, made once per row: the solver hands the rhs the same
    # few row objects on every call, and a view costs about as much as a
    # ufunc call on this state. An entry holds its row, so that no other
    # object can take its id; a caller that hands fresh rows fills the
    # table, which then starts over.
    views = {}

    def parts(row):  # the row, a (R,), [s-...] (n, R) and [s_z...] (n, R)
        found = views.get(id(row))
        if found is None:
            if len(views) >= 16:
                views.clear()
            c, sz = entry_blocks(row, 1 + n)
            found = views[id(row)] = (row, c[0], c[1:], sz)
        return found

    def rhs(t, y, out):
        _, a, sm, sz = parts(y)
        _, da, dsm, dsz = parts(out)
        da[...] = drive
        np.multiply(ig_ang * sz, a, out=dsm)
        # ds_z = (relax_to - gamma1 s_z) - 4 g Im(a* s-_k), rounded as written
        np.multiply(gamma1, sz, out=dsz)
        np.subtract(relax_to, dsz, out=dsz)
        dsz -= g4_ang * (sm * a.conj()).imag

    sample_times = None if sample_dt is None else sample_comb(duration, sample_dt)
    gain = None if np.any(drive) else g_ang.reshape(coupling_row.shape)
    y1, cavity = dormand_prince(
        rhs, 0.0, y, duration, linear=_linear(groups, res), feed=coupling_row,
        rtol=rtol, atol=atol, sample_times=sample_times, gain=gain,
    )
    if sample_dt is None:
        return y1, None, None
    return y1, sample_times, root_kext * cavity - a_in


def _closed_form_delay(y, groups, res, durations):
    """Exact free decay of the R rows of the state y, row r for
    durations[r], used for delays far beyond the cavity lifetime: the
    linear part alone, and each s_z relaxing towards sz_eq at its own
    Gamma_1."""
    durations = np.asarray(durations, dtype=float)
    # a delay so long that L t or Gamma_1 t overflows has decayed to 0
    with np.errstate(over="ignore", invalid="ignore"):
        rate = np.multiply.outer(_linear(groups, res), durations)
        decay = np.exp(rate)
        relax = np.exp(np.multiply.outer(-groups.gamma1, durations))
    decay[rate.real < -800.0] = 0.0  # e^{-800} is 0 in floats, whatever the phase
    if not np.all(np.isfinite(decay)):
        raise ValueError("a delay is too long to resolve the spins' precession")
    out = y.copy()
    decaying, sz = entry_blocks(out, 1 + len(groups))
    decaying[0] *= decay[0]
    tiles = decaying[1:].reshape(-1, len(groups.detuning), len(y))  # a view
    tiles *= decay[1:]
    sz[...] = groups.sz_eq + (sz - groups.sz_eq) * relax
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


def run_sweep(seqs, groups, res, *, sample_dt=1e-8, rtol=1e-8, atol=1e-13):
    """Execute pulse sequences; returns each one's EchoTraces, in input order.

    Sequences with the same skeleton (see _skeleton) advance together as the
    rows of one state (see the module docstring) under one adaptive step,
    which the hardest row sets; every row meets its own tolerance. Delays of at least
    LONG_DELAY_FACTOR / kappa ring the cavity down through the ODE for that
    long, then decay in closed form for the rest of each row's own delay.
    Traces carry absolute time stamps from each row's own time cursor.
    sample_comb's ValueError for the widest window, a bad sample_dt or too
    many samples, is raised before any solve.
    """
    sample_comb(max((ev.duration for seq in seqs for ev in seq.events
                     if isinstance(ev, Acquire)), default=0.0), sample_dt)
    long_delay = LONG_DELAY_FACTOR / res.kappa
    batches = {}
    for i, seq in enumerate(seqs):
        batches.setdefault(_skeleton(seq, long_delay), []).append(i)
    out = [None] * len(seqs)
    solver = dict(rtol=rtol, atol=atol)
    for rows in batches.values():
        runs = _run_batch([seqs[i] for i in rows], groups, res, long_delay,
                          sample_dt, solver)
        for i, traces in zip(rows, runs):
            out[i] = traces
    return out


def _run_batch(seqs, groups, res, long_delay, sample_dt, solver):
    """Run sequences of one skeleton as rows of one state; each one's traces."""
    y = np.zeros((len(seqs), 2 + 3 * len(groups)))
    entry_blocks(y, 1 + len(groups))[1][...] = groups.sz_eq
    idle = np.zeros(len(seqs))
    cursor = np.zeros(len(seqs))
    traces = [[] for _ in seqs]
    for k, events in enumerate(zip(*(seq.events for seq in seqs))):
        ev = events[0]
        a_in = ([e.amplitude * np.exp(1j * e.phase) for e in events]
                if isinstance(ev, Pulse) else idle)
        # a long delay rings the cavity down through the ODE first: right
        # after a pulse the decaying field still rotates the spins, which
        # the closed form would silently drop
        long = isinstance(ev, Delay) and ev.duration >= long_delay
        acquire = isinstance(ev, Acquire)
        try:
            y, t, amp = _advance(y, groups, res, a_in, long_delay if long else ev.duration,
                                 sample_dt=sample_dt if acquire else None, **solver)
        except NoConvergence as exc:  # its t counts from the event's start
            kind = "ring-down" if long else type(ev).__name__.lower()
            lo, hi = cursor.min(), cursor.max()
            start = f"{lo:.6e} s" if lo == hi else f"{lo:.6e} to {hi:.6e} s"
            raise NoConvergence(f"{exc} into event {k + 1} of {len(seqs[0].events)} "
                                f"(a {kind} from t={start})") from None
        if long:
            rest = np.array([e.duration for e in events]) - long_delay
            y = _closed_form_delay(y, groups, res, rest)
        if acquire:
            for r, row_traces in enumerate(traces):
                row_traces.append(EchoTrace(t=t + cursor[r], amp=amp[:, r]))
        cursor += [e.duration for e in events]
    return traces


def run_sequence(seq, groups, res, **solver):
    """Execute one pulse sequence; returns (traces, areas).

    The one-row case of run_sweep, which takes the keywords sample_dt, rtol
    and atol and holds their defaults: one EchoTrace per Acquire event, with
    absolute time stamps. Echo areas are phase-aligned against the trace
    holding the globally largest sample.
    """
    traces = run_sweep([seq], groups, res, **solver)[0]
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


def pi_pulse_amplitude(g, res, duration=250e-9):
    """Input amplitude rotating a group at coupling g by pi.

    Uses the quasi-steady cavity relation a_ss = 2 sqrt(kappa_ext) a_in/kappa
    and theta = 2 g_ang a_ss t_p; the cavity rise and ring-down areas cancel
    for a resonant rectangular pulse, so the total rotation is exact once the
    cavity has rung down. g and duration must be positive and finite.
    """
    if not 0 < g < math.inf:
        raise ValueError(f"g must be positive and finite, got {g!r}")
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration!r}")
    g_ang = 2 * math.pi * g
    rotation = 4 * g_ang * math.sqrt(res.kappa_ext) * duration  # per unit input amplitude
    amplitude = math.pi * res.kappa / rotation if rotation > 0 else math.inf
    if not 0 < amplitude < math.inf:
        raise ValueError(f"no pi pulse at g = {g!r} Hz over {duration!r} s: its rotation "
                         f"per unit amplitude, {rotation!r}, leaves the float range")
    return amplitude


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
