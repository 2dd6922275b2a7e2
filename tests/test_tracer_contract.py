"""Names and signatures the benchmark tracer (perfbench/tracer.py) relies on.

The tracer wraps package functions by module and name, and skips a name the
package no longer defines, so deleting or renaming one of the functions below
would silently read 0 in a per-layer metric instead of failing. It also reads
the arguments of wrapped calls by position and by name: the pulse sequence as
the first argument of blochsim.run_sequence, the rhs, initial state and
sample times of ode.dormand_prince, and the residual as the first argument of
optimize.levenberg_marquardt. It derives ode.step_attempts from the number of
rhs calls, reading the state as the rhs's second argument.
"""

import importlib
import inspect
import math

import numpy as np
import pytest

from purcell_cool import blochsim, ode, optimize

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
    ("coupling", "coupling_distribution"),
    ("estimators", "fit_exponential_recovery"),
    ("estimators", "fit_gaussian_decay"),
    ("estimators", "fit_psd"),
    ("optimize", "levenberg_marquardt"),
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


def test_levenberg_marquardt_takes_the_residual_first():
    # the tracer counts optimize.residual_evals through this argument
    assert next(iter(inspect.signature(optimize.levenberg_marquardt).parameters)) == "residual"


def test_rhs_calls_are_one_plus_six_per_attempt(monkeypatch):
    # from y0 = 10 the first trial step of y' = -y^3 turns non-finite and
    # later ones are rejected; every attempt, accepted or not, costs six rhs
    # calls after the one at t0, and calls the error norm once
    norms, calls = [], []
    error_norm = ode._error_norm

    def counted_norm(*args, **kwargs):
        norms.append(error_norm(*args, **kwargs))
        return norms[-1]

    def rhs(*args):
        calls.append(args)
        t, y = args
        return -y**3

    monkeypatch.setattr(ode, "_error_norm", counted_norm)
    y0 = np.array([10.0 + 0j])
    ode.dormand_prince(rhs, 0.0, y0, 10.0)
    assert any(not math.isfinite(n) for n in norms)
    assert any(1.0 < n < math.inf for n in norms)
    assert len(calls) == 1 + 6 * len(norms)
    for t, y in calls:
        assert isinstance(t, float) and 0.0 <= t <= 10.0
        assert isinstance(y, np.ndarray) and y.shape == y0.shape and y.dtype == y0.dtype
