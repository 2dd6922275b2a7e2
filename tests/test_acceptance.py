"""End-to-end acceptance checks.

Each test covers one numbered claim about the toolkit at its stated
tolerance and prints a single PASS line; run with -v (or -s) to see them.
Absolute relaxation times and cooling factors are configuration-dependent
and are deliberately not asserted; the scale-free identities they
instantiate are (see test_10).
"""

import inspect
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from _frozen import FROZEN
from _lawson import fixed_step_solver
from _rows import advance, bloch_excess, row
from purcell_cool import blochsim as bs
from purcell_cool import cli, coupling, estimators, hamiltonian, ode, optimize
from purcell_cool import polarization, thermal
from purcell_cool.config import MAX_POINTS, parse_config_text

BASE = """\
resonator:
  omega0_hz: 7.408e+9
  kappa_int_hz: 2.513274122871834e+6
  kappa_ext_hz: 3.7699111843077517e+6
"""

CFG = parse_config_text(BASE)
RES = CFG.resonator
SPIN = CFG.spin_system
OMEGA0 = RES.omega0


def test_01_zero_field_manifolds():
    t0 = time.monotonic()
    levels = hamiltonian.labeled_eigensystem(SPIN, 0.0)
    elapsed = time.monotonic() - t0
    low = [lv.energy for lv in levels if lv.f == 4]
    high = [lv.energy for lv in levels if lv.f == 5]
    assert len(low) == 9 and len(high) == 11
    assert np.ptp(low) < 1.0 and np.ptp(high) < 1.0  # degenerate manifolds
    split = np.mean(high) - np.mean(low)
    assert abs(split - 7.375e9) < 10e6
    assert elapsed < 1.0
    print(f"criterion 1: PASS (split {split / 1e9:.6f} GHz, {elapsed:.3f} s)")


def test_02_six_branches_and_operating_points():
    t0 = time.monotonic()
    grid = np.linspace(0.0, 0.07, 141)
    field_spec = hamiltonian.spectrum_vs_field(SPIN, grid, OMEGA0)
    groups = hamiltonian.resonance_groups(field_spec.resonances)
    elapsed = time.monotonic() - t0
    assert len(groups) == 6
    means = sorted(float(np.mean([r.b0 for r in g])) for g in groups)
    near_hi = min(means, key=lambda m: abs(m - 62.5e-3))
    near_lo = min(means, key=lambda m: abs(m - 9.5e-3))
    assert abs(near_hi - 62.5e-3) < 1e-3
    assert abs(near_lo - 9.5e-3) < 1e-3
    assert elapsed < 5.0
    print(f"criterion 2: PASS (6 branches, operating points {near_lo * 1e3:.2f} / "
          f"{near_hi * 1e3:.2f} mT, {elapsed:.2f} s)")


def test_03_doublet_matrix_elements():
    _, pair = cli._resonant_pair(CFG, 62.5e-3)
    sx = sorted(t.sx_element for t in pair)
    assert abs(sx[0] - 0.22) < 0.02
    assert abs(sx[1] - 0.28) < 0.02
    assert abs(sum(sx) - 0.5) < 0.01
    print(f"criterion 3: PASS (|Sx| = {sx[0]:.4f}, {sx[1]:.4f}; sum {sum(sx):.4f})")


def cooling(res, gamma_phot):
    """eta of the demo loads under pure radiative decay, with Gamma_1 and the
    ratio p_cold / p_hot at the spin temperature of each load."""
    hot, cold = CFG.scenarios["hot"], CFG.scenarios["cold"]
    eta = thermal.cooling_factor(res, hot, cold, 0.0, gamma_phot)
    rates, temps = [], []
    for scen in (hot, cold):
        n_phot = thermal.cavity_occupation(res, scen)
        rates.append(thermal.spin_relaxation_rate(0.0, scen.t_phon, gamma_phot, n_phot,
                                                  res.omega0))
        temps.append(thermal.spin_temperature(0.0, gamma_phot, rates[-1], res.omega0))
    p_ratio = (thermal.spin_polarization(temps[1], res.omega0)
               / thermal.spin_polarization(temps[0], res.omega0))
    return eta, rates, p_ratio


def test_04_occupation_identities():
    for t in np.geomspace(1e-3, 10.0, 3000):
        n = thermal.bose_occupation(t, OMEGA0)
        x = thermal.PLANCK * OMEGA0 / (2 * thermal.BOLTZMANN * t)
        assert abs(1.0 / (2 * n + 1) - math.tanh(x)) < 1e-12
    n085 = thermal.bose_occupation(0.85, OMEGA0)
    assert abs(n085 - 1.925) <= 0.001
    ratio = (thermal.spin_relaxation_rate(0.0, 0.85, 1.0, n085, OMEGA0)
             / thermal.spin_relaxation_rate(0.0, 0.85, 1.0, 0.0, OMEGA0))
    assert abs(ratio - 4.85) <= 0.01
    print(f"criterion 4: PASS (nbar {n085:.4f}, rate ratio {ratio:.4f})")


def test_05_spin_temperature_and_eta_identity():
    p85 = thermal.spin_polarization(0.85, OMEGA0)
    t_spin = brentq(lambda t: thermal.spin_polarization(t, OMEGA0) / p85 - 2.3,
                    0.05, 0.85, xtol=1e-12)
    assert abs(t_spin - 0.350) <= 0.010
    assert abs(t_spin - FROZEN["t_spin_eta_2p3"]) < 1e-9

    eta, (g1_hot, g1_cold), p_ratio = cooling(RES, 1.0)
    assert abs(eta - p_ratio) < 1e-12 * eta
    assert abs(eta - g1_hot / g1_cold) < 1e-12 * eta
    print(f"criterion 5: PASS (T_spin {t_spin * 1e3:.1f} mK, eta identity "
          f"{eta:.5f})")


def test_06_snr_optimum():
    root = brentq(lambda x: math.exp(x) - 1 - 2 * x, 1.0, 2.0, xtol=1e-14)
    assert abs(root - 1.2564) < 5e-5  # quoted constant
    x_star = estimators.snr_argmax_x()
    assert abs(x_star - root) < 1e-6

    eta, gamma1, p, sigma = 2.3, 0.27, 0.06, 1.3
    peak_hot = estimators.snr_model(estimators.optimal_trep(gamma1), gamma1, p, sigma)
    peak_cold = estimators.snr_model(estimators.optimal_trep(gamma1 / eta),
                                     gamma1 / eta, eta * p, sigma)
    assert abs(peak_cold / peak_hot - math.sqrt(eta)) < 1e-10
    print(f"criterion 6: PASS (x* = {x_star:.7f}, peak ratio sqrt(eta) ok)")


def test_07_population_difference_crossover():
    levels, pair = cli._resonant_pair(CFG, 62.5e-3)

    def exact(t):
        return polarization.population_difference(levels, pair, t)

    def approx(t):
        return polarization.approx_population_difference(t, OMEGA0)

    t_hot = np.linspace(0.3, 1.0, 15)
    ex = np.array([exact(t) for t in t_hot])
    ap = np.array([approx(t) for t in t_hot])
    # single scale-free factor: the high-T asymptote counts the doublet
    scale = float(np.dot(ex, ap) / np.dot(ap, ap))
    assert 1.8 < scale < 2.2
    dev_hot = np.abs(ex / (scale * ap) - 1)
    assert dev_hot.max() < 0.03

    t_lo = np.linspace(0.03, 0.19, 17)
    dev_lo = np.abs(np.array([exact(t) for t in t_lo])
                    / (scale * np.array([approx(t) for t in t_lo])) - 1)
    assert dev_lo.max() > 0.10
    print(f"criterion 7: PASS (scale {scale:.3f}, hot dev "
          f"{dev_hot.max() * 100:.2f}%, low-T dev {dev_lo.max() * 100:.1f}%)")


def test_08_psd_round_trip():
    t0 = time.monotonic()
    omega = OMEGA0 + np.linspace(-3e6, 3e6, 61)
    truth = dict(n_twpa=0.75, t_int_hot=0.95, alpha=0.47, t_int_cold=0.76)

    def synth(config, t_int, alpha):
        return estimators.psd_model(omega, config, resonator=RES, t_phon=0.85,
                                    n_twpa=truth["n_twpa"], t_int=t_int, alpha=alpha)

    s_hot = synth("hot", truth["t_int_hot"], 1.0)
    s_cold = synth("cold", truth["t_int_cold"], truth["alpha"])
    fixed = {"resonator": RES, "t_phon": 0.85}

    hot = estimators.fit_psd(zip(omega, s_hot), fixed, "hot")
    assert abs(hot.parameters["n_twpa"] / truth["n_twpa"] - 1) < 0.01
    assert abs(hot.parameters["t_int"] / truth["t_int_hot"] - 1) < 0.01
    cold = estimators.fit_psd(zip(omega, s_cold),
                              {**fixed, "n_twpa": hot.parameters["n_twpa"]}, "cold")
    assert abs(cold.parameters["alpha"] / truth["alpha"] - 1) < 0.01
    assert abs(cold.parameters["t_int"] / truth["t_int_cold"] - 1) < 0.01

    rng = np.random.default_rng(23)
    noisy = s_cold + rng.normal(scale=0.01 * s_cold)
    cold_n = estimators.fit_psd(zip(omega, noisy),
                                {**fixed, "n_twpa": truth["n_twpa"]}, "cold")
    assert abs(cold_n.parameters["alpha"] - truth["alpha"]) < 0.04
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 8: PASS (alpha {cold.parameters['alpha']:.4f} noiseless, "
          f"{cold_n.parameters['alpha']:.4f} noisy, {elapsed:.2f} s)")


class Test09BlochSimulator:
    def test_a_b_inversion_recovery(self):
        from purcell_cool.coupling import CouplingDistribution
        rho = CouplingDistribution.delta(50.0)
        groups = bs.init_ensemble(rho, RES, 0.85, 600e-6, n_g=1, n_delta=1)
        gamma1 = groups.gamma1[0]
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        dts = [x / gamma1 for x in (0.05, 0.2, 0.5, 1.0, 2.0, 4.0, 8.0)]
        traces = []
        for dt in dts:
            seq = bs.inversion_recovery(dt, 15e-6, amp)
            trs, _ = bs.run_sequence(seq, groups, RES)
            traces.append(trs[0])
        areas = bs.phase_aligned_areas(traces, ref_index=len(dts) - 1)
        assert areas[0] * areas[-1] < 0  # (b) short-dt echo is inverted
        fit = estimators.fit_exponential_recovery(zip(dts, areas))
        err = abs(fit.parameters["gamma1"] / gamma1 - 1)
        assert err < 0.01  # (a)
        print(f"criterion 9ab: PASS (Gamma1 err {err * 100:.2f}%, sign flip ok)")

    def test_c_rabi_sweep_over_coupling_density(self):
        rho, _ = cli._coupling_density(CFG, 62.5e-3)
        groups = bs.init_ensemble(rho, RES, 0.85, 600e-6, n_g=12, n_delta=1)
        amp0 = bs.pi_pulse_amplitude(rho.quantile(0.5), RES, 250e-9)
        scales = np.linspace(0.25, 3.0, 23)
        traces = []
        for s in scales:
            seq = bs.hahn_echo(15e-6, s * amp0)
            trs, _ = bs.run_sequence(seq, groups, RES)
            traces.append(trs[0])
        areas = bs.phase_aligned_areas(traces)
        mags = np.abs(areas)
        k = int(np.argmax(mags))
        assert 0 < k < len(scales) - 1
        assert 0.5 < scales[k] < 1.6  # dominant max near the pi calibration
        late = mags[scales > 2.0]
        assert late.max() < 0.8 * mags[k]  # second Rabi lobe is damped
        print(f"criterion 9c: PASS (peak at {scales[k]:.2f}x, second lobe "
              f"{late.max() / mags[k]:.2f}x peak)")

    def test_d_invariants(self, monkeypatch):
        from purcell_cool.coupling import CouplingDistribution
        rho = CouplingDistribution.delta(50.0)
        groups = bs.init_ensemble(rho, RES, 0.85, 600e-6, n_g=2, n_delta=3)
        amp = bs.pi_pulse_amplitude(50.0, RES, 250e-9)
        seq = bs.hahn_echo(15e-6, amp)
        y = row(groups)
        for ev in seq.events:
            if isinstance(ev, bs.Pulse):
                y, _ = advance(y, groups, RES, ev.amplitude * np.exp(1j * ev.phase),
                               ev.duration)
            else:
                y, _ = advance(y, groups, RES, 0.0, ev.duration)
            assert bloch_excess(y, len(groups)) < 1e-6

        short = bs.hahn_echo(2e-6, amp, acquire_width=1e-6)
        single = bs.init_ensemble(rho, RES, 0.85, 600e-6, n_g=1, n_delta=1)
        ae = {}
        for h in (2e-9, 1e-9):  # fixed Lawson DP5 steps of the simulator's own equations
            monkeypatch.setattr(bs, "dormand_prince", fixed_step_solver(h))
            _, areas = bs.run_sequence(short, single, RES)
            ae[h] = areas[0]
        assert abs(ae[1e-9] - ae[2e-9]) < 1e-3 * abs(ae[1e-9])
        print("criterion 9d: PASS (Bloch ball <= 1e-6, step halving < 0.1%)")

    def test_full_ensemble_runtime(self):
        rho, _ = cli._coupling_density(CFG, 62.5e-3)
        groups = bs.init_ensemble(rho, RES, 0.85, 600e-6, n_g=40, n_delta=41)
        assert len(groups) == 1640
        amp = bs.pi_pulse_amplitude(rho.quantile(0.5), RES, 250e-9)
        t0 = time.monotonic()
        _, areas = bs.run_sequence(bs.hahn_echo(15e-6, amp), groups, RES)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        assert np.isfinite(areas[0]) and abs(areas[0]) > 0
        print(f"criterion 9 runtime: PASS (40x41 Hahn echo in {elapsed:.1f} s)")


def test_10_absolute_rates_are_config_dependent():
    """The published relaxation times and cooling factor depend on kappa and
    the spin density, which are not part of this repository; what is checked
    is that everything scale-free survives any kappa choice, and that the
    README says so."""
    etas, rates = [], []
    for ki, ke in ((1e5, 2e5), (2.5e6, 3.8e6), (4e6, 9e6)):
        res = thermal.ResonatorParams(omega0=OMEGA0, kappa_int=ki, kappa_ext=ke)
        eta, (g1_hot, g1_cold), p_ratio = cooling(res, thermal.purcell_rate(50.0, res))
        assert abs(eta - g1_hot / g1_cold) < 1e-12 * eta
        assert abs(eta - p_ratio) < 1e-12 * eta
        etas.append(eta)
        rates.append(g1_hot)
    # both the absolute rates and eta itself move with kappa, which is why
    # neither is pinned to a published number; the identities above are
    assert np.ptp(rates) > 0.9 * max(rates)
    assert np.ptp(etas) > 0.01
    readme_path = Path(__file__).resolve().parents[1] / "README.md"
    readme = readme_path.read_text(encoding="utf-8").lower()
    assert "configuration-dependent" in readme
    print("criterion 10: PASS (identities kappa-invariant; README documents "
          "config dependence of absolute rates)")


def _sci(x):
    return np.format_float_scientific(x, trim="-", exp_digits=1)  # 1e-08 as 1e-8


def test_readme_numbers_are_the_constants_that_hold_them():
    """Each number README gives as contract, in the phrase that gives it,
    built from the constant in the code that holds the number."""
    readme_path = Path(__file__).resolve().parents[1] / "README.md"
    readme = " ".join(readme_path.read_text(encoding="utf-8").split())
    tolerances = inspect.signature(bs.run_sweep).parameters
    phrases = [
        f"holds at most {MAX_POINTS:,} points",
        f"holds at most {MAX_POINTS:,} samples",
        f">= 1 and <= {MAX_POINTS}, got '0'",
        f"rtol {_sci(tolerances['rtol'].default)} and atol "
        f"{_sci(tolerances['atol'].default)}, `run_sweep`'s defaults",
        f"`MATRIX_ELEMENT_FLOOR` ({_sci(hamiltonian.MATRIX_ELEMENT_FLOOR)})",
        f"a histogram on {coupling.N_BINS} log-spaced bins",
        f"written as `{cli.FLOAT}`",
        f"A step driven below {_sci(ode._MIN_STEP)} s",
        f"a solve past {ode._MAX_ATTEMPTS:,} attempts",
        f"the step {_sci(optimize._FD_STEP)} |x_i|, or {_sci(optimize._FD_STEP)} where",
        f"falls to {_sci(optimize._STEP_TOL)} of the largest scaled parameter",
        f"After {optimize._MAX_ITER} iterations",
        f"`UNDETERMINED_WEIGHT` ({_sci(estimators.UNDETERMINED_WEIGHT)})",
    ]
    missing = [phrase for phrase in phrases if phrase not in readme]
    assert not missing, missing
    print(f"README numbers: PASS ({len(phrases)} phrases match the code's constants)")
