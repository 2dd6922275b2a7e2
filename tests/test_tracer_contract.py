"""Signatures the benchmark tracer (perfbench/tracer.py) relies on.

The tracer reads the arguments of wrapped calls by position and by name:
the pulse sequence as the first argument of blochsim.run_sequence, and the
rhs, initial state and sample times of ode.dormand_prince.
"""

import inspect

from purcell_cool import blochsim, ode


def test_run_sequence_takes_the_sequence_first():
    assert next(iter(inspect.signature(blochsim.run_sequence).parameters)) == "seq"


def test_dormand_prince_argument_layout():
    params = inspect.signature(ode.dormand_prince).parameters
    assert list(params)[:4] == ["f", "t0", "y0", "t1"]
    assert "sample_times" in params
