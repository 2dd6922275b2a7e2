"""Every function of the package runs in some subcommand.

Each subcommand runs once through cli.main, on a one-group ensemble and
small fit files, in a fresh interpreter that runs under sys.setprofile from
before the package is imported, so that what a module calls as it loads
counts too. A module-level function or a class method defined in
src/purcell_cool that none of them calls is code that only the tests use,
and it belongs in the tests. Nested functions are exempt.
"""

import importlib
import inspect
import json
import math
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import purcell_cool
from purcell_cool import estimators
from purcell_cool.thermal import ResonatorParams

RESONATOR = """\
resonator:
  omega0_hz: 7.408e+9
  kappa_int_hz: 2.513274122871834e+6
  kappa_ext_hz: 3.7699111843077517e+6
grid: {nx: 12, ny: 6}
"""
FIELD_CONFIG = RESONATOR + "ensemble: {n_g: 1, n_delta: 1}\n"
SEQUENCE_CONFIG = RESONATOR + "ensemble: {n_g: 1, n_delta: 1, g_hz: 50.0}\n"

# Runs the argument lists of argv[1] through cli.main and writes their exit
# codes and the (file, first line) of every function called to argv[2].
PROBE = """\
import json, sys
called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
from purcell_cool import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.setprofile(None)
with open(sys.argv[2], "w") as fh:
    json.dump({"codes": codes, "called": sorted(called)}, fh)
"""


def defined_functions():
    """(dotted name, function) of every module-level function and class
    method whose code lies in the package's own files."""
    package_dir = Path(purcell_cool.__file__).parent
    for info in pkgutil.iter_modules(purcell_cool.__path__):
        module = importlib.import_module(f"purcell_cool.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                members = [(f"{name}.{attr}", member) for attr, member in vars(obj).items()]
            else:
                members = [(name, obj)]
            for qualname, member in members:
                fn = member.fget if isinstance(member, property) else member
                fn = inspect.unwrap(getattr(fn, "__func__", fn))  # methods, functools.cache
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and Path(fn.__code__.co_filename).parent == package_dir):
                    yield f"{module.__name__}.{qualname}", fn


def write_xy(path, x, y):
    path.write_text("".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, y)))


def write_inputs(tmp_path):
    """The configs and fit files, written before anything is profiled."""
    (tmp_path / "field.yaml").write_text(FIELD_CONFIG)
    (tmp_path / "sequence.yaml").write_text(SEQUENCE_CONFIG)
    dt = np.linspace(0.0, 5e-3, 6)
    write_xy(tmp_path / "invrec.csv", dt, 2 * (1 - 2 * np.exp(-900 * dt)) + 0.1)
    x = np.linspace(1e-5, 1e-3, 6)
    write_xy(tmp_path / "t2.csv", x, 3 * np.exp(-(x / 4e-4) ** 2))
    res = ResonatorParams(omega0=7.408e9, kappa_int=2 * math.pi * 0.4e6,
                          kappa_ext=2 * math.pi * 0.6e6)
    f = 7.408e9 + np.linspace(-3e6, 3e6, 12)
    write_xy(tmp_path / "psd.csv", f, estimators.psd_model(
        f, "hot", resonator=res, t_phon=0.85, n_twpa=0.7, t_int=0.9, alpha=1.0))


def subcommands(tmp_path):
    field, seq = tmp_path / "field.yaml", tmp_path / "sequence.yaml"
    runs = [
        ["spectrum", "--config", field],
        ["thermal", "--config", field],
        ["polarization", "--config", field, "--points", "3"],
        ["coupling", "--config", field],
        ["echo", "--config", seq],
        ["invrec", "--config", seq],
        ["rabi", "--config", seq, "--amp-points", "2"],
        ["cpmg", "--config", seq, "--n-cpmg", "1"],
        ["fit-invrec", "--data", tmp_path / "invrec.csv"],
        ["fit-t2", "--data", tmp_path / "t2.csv"],
        ["fit-psd", "--config", field, "--data", tmp_path / "psd.csv", "--branch", "hot"],
        ["snr", "--gamma1", "900"],
    ]
    return [[str(a) for a in argv] + ["--out", str(tmp_path / argv[0])] for argv in runs]


def test_every_package_function_runs_in_a_subcommand(tmp_path):
    write_inputs(tmp_path)
    report = tmp_path / "called.json"
    subprocess.run([sys.executable, "-c", PROBE, json.dumps(subcommands(tmp_path)),
                    str(report)], check=True, timeout=120)
    with open(report) as fh:
        run = json.load(fh)
    assert run["codes"] == [0] * 12

    called = {(str(Path(f).resolve()), line) for f, line in run["called"]}
    never = sorted(name for name, fn in defined_functions() if (
        str(Path(fn.__code__.co_filename).resolve()), fn.__code__.co_firstlineno) not in called)
    assert never == []
