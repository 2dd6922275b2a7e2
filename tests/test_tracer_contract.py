"""Names and signatures the benchmark tracer (perfbench/tracer.py) relies on.

The tracer wraps package functions by module and name, and skips a name the
package no longer defines, so deleting or renaming one of the functions below
would silently read 0 in a per-layer metric instead of failing. It also reads
the arguments of wrapped calls by position and by name: the pulse sequence as
the first argument of blochsim.run_sequence, the rhs, initial state and
sample times of ode.dormand_prince, and the residual as the first argument of
optimize.levenberg_marquardt. It derives ode.step_attempts from the number of
rhs calls, reading the state as the rhs's second argument, and
blochsim.state_width from the size of the state blochsim hands the solver.
"""

import importlib
import inspect
import math

import numpy as np
import pytest

from purcell_cool import blochsim, ode, optimize
from purcell_cool.coupling import CouplingDistribution
from purcell_cool.thermal import ResonatorParams

RES = ResonatorParams(omega0=7.408e9, kappa_int=2 * math.pi * 0.4e6,
                      kappa_ext=2 * math.pi * 0.6e6)

# (module, function) of every call a per-layer metric counts or times
METRIC_SOURCES = [
    ("cli", "main"),
    ("config", "parse_config"),
    ("blochsim", "run_sequence"),
    ("blochsim", "init_ensemble"),
    ("ode", "dormand_prince"),
    ("hamiltonian", "labeled_eigensystem"),
    ("hamiltonian", "transition_table"),
    ("hamiltonian", "spectrum_vs_field"),
    ("coupling", "field_map"),
    ("coupling", "coupling_map"),
    ("coupling", "coupling_distribution"),
    ("estimators", "fit_exponential_recovery"),
    ("estimators", "fit_gaussian_decay"),
    ("estimators", "fit_psd"),
    ("optimize", "levenberg_marquardt"),
    # the self time of these makes up thermal.s and polarization.s
    ("thermal", "bose_occupation"),
    ("thermal", "occupation_temperature"),
    ("thermal", "spin_polarization"),
    ("thermal", "cavity_occupation"),
    ("thermal", "purcell_rate"),
    ("thermal", "spin_relaxation_rate"),
    ("thermal", "spin_temperature"),
    ("thermal", "cooling_factor"),
    ("polarization", "boltzmann_populations"),
    ("polarization", "population_difference"),
    ("polarization", "find_quasi_degenerate_pair"),
    ("polarization", "approx_population_difference"),
]


@pytest.mark.parametrize("module, name", METRIC_SOURCES)
def test_every_function_a_metric_reads_is_defined(module, name):
    assert inspect.isfunction(getattr(importlib.import_module(f"purcell_cool.{module}"), name))


def test_run_sequence_takes_the_sequence_first():
    assert next(iter(inspect.signature(blochsim.run_sequence).parameters)) == "seq"


def test_dormand_prince_argument_layout():
    params = inspect.signature(ode.dormand_prince).parameters
    assert list(params)[:4] == ["f", "t0", "y0", "t1"]
    assert "sample_times" in params


def test_cli_calls_what_is_wrapped_after_it_is_imported(tmp_path, monkeypatch):
    # the tracer imports cli, then wraps module attributes; a handler imports
    # its module when it runs, and so calls the wrapper
    from purcell_cool import cli, estimators

    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(blochsim, "run_sweep")
    counted(estimators, "fit_gaussian_decay")
    config = tmp_path / "run.yaml"
    config.write_text(f"resonator: {{omega0_hz: {RES.omega0!r}, "
                      f"kappa_int_hz: {RES.kappa_int!r}, kappa_ext_hz: {RES.kappa_ext!r}}}\n"
                      "ensemble: {n_g: 1, n_delta: 1, g_hz: 50.0}\n")
    data = tmp_path / "t2.csv"
    data.write_text("".join(f"{x!r},{3 * math.exp(-(x / 4e-4) ** 2)!r}\n"
                            for x in np.linspace(1e-5, 1e-3, 6).tolist()))
    assert cli.main(["rabi", "--config", str(config), "--amp-points", "1",
                     "--out", str(tmp_path / "rabi")]) == 0
    assert calls == ["run_sweep"]
    assert cli.main(["fit-t2", "--data", str(data), "--out", str(tmp_path / "fit")]) == 0
    assert calls == ["run_sweep", "fit_gaussian_decay"]


def test_levenberg_marquardt_takes_the_residual_first():
    # the tracer counts optimize.residual_evals through this argument
    assert next(iter(inspect.signature(optimize.levenberg_marquardt).parameters)) == "residual"


def test_rhs_calls_are_one_plus_six_per_attempt(monkeypatch):
    # a packed row of one complex entry, 10 + 0i, and one real entry, 10:
    # from there the first trial step of y' = -y^3 turns non-finite and
    # later ones are rejected; every attempt, accepted or not, costs six rhs
    # calls after the one at t0, and calls the error norm once
    norms, calls = [], []
    error_norm = ode._error_norm

    def counted_norm(*args, **kwargs):
        norms.append(error_norm(*args, **kwargs))
        return norms[-1]

    def rhs(*args):
        calls.append(args)
        t, y, out = args
        np.negative(y**3, out=out)  # the imaginary part stays 0, so this is the complex cube too

    monkeypatch.setattr(ode, "_error_norm", counted_norm)
    y0 = np.array([[10.0, 0.0, 10.0]])
    ode.dormand_prince(rhs, 0.0, y0, 10.0, linear=[0.0], feed=[], rtol=1e-8, atol=1e-10)
    assert any(not math.isfinite(n) for n in norms)
    assert any(1.0 < n < math.inf for n in norms)
    assert len(calls) == 1 + 6 * len(norms)
    for t, y, out in calls:
        assert isinstance(t, float) and 0.0 <= t <= 10.0
        assert isinstance(y, np.ndarray) and y.shape == y0.shape and y.dtype == y0.dtype
        assert out.shape == y0.shape and out.dtype == y0.dtype


def test_advance_hands_the_solver_packed_rows_and_sample_times_by_keyword(monkeypatch):
    # the tracer takes blochsim.state_width from y0.size and ode.samples from
    # kwargs["sample_times"]: a two-point sweep of a 2 x 3 ensemble is one
    # (2, 2 + 3 n) float state, and only its acquisition is sampled
    rho = CouplingDistribution.delta(50.0)
    groups = blochsim.init_ensemble(rho, RES, 0.85, 600e-6, n_g=2, n_delta=3)
    amp = blochsim.pi_pulse_amplitude(50.0, RES)
    seqs = [blochsim.hahn_echo(2e-6, scale * amp, acquire_width=1e-6) for scale in (1.0, 0.5)]
    solver = blochsim.dormand_prince
    seen = []

    def recorded(f, t0, y0, t1, **kwargs):
        seen.append((y0, kwargs.get("sample_times")))
        return solver(f, t0, y0, t1, **kwargs)

    monkeypatch.setattr(blochsim, "dormand_prince", recorded)
    blochsim.run_sweep(seqs, groups, RES)
    assert len(seen) == len(seqs[0].events)
    for y0, _ in seen:
        assert y0.dtype == float and y0.shape == (2, 2 + 3 * len(groups))
    sampled = [len(times) for _, times in seen if times is not None]
    assert sampled == [101]  # the 1 us window on the 10 ns comb, both ends included
