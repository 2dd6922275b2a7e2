"""Outside-in tracer for the purcell_cool package.

The tracer wraps public functions of the package from outside: every module
attribute that is bound to a traced function object is replaced by a wrapper,
so callers that imported the name directly (``from .ode import
dormand_prince``) resolve the wrapper too. A name the package no longer
defines is skipped.

Each wrapped call opens a frame on a stack. When it closes, its duration is
added to its name's inclusive time and its self time (duration minus the
time of wrapped calls inside it) to its layer. Calls listed as spans are also
kept as (id, name, start, end, parent) records in memory; high-frequency
leaves (the Maxwell-Bloch right-hand side, fit residuals, thermal formulas)
are only counted and timed.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "purcell_cool"

# (module, function, layer, record a span)
TRACED = [
    ("cli", "main", "cli", True),
    ("config", "parse_config", "config", True),
    ("blochsim", "run_sequence", "blochsim", True),
    ("blochsim", "evolve", "blochsim", True),
    ("blochsim", "init_ensemble", "blochsim", True),
    ("ode", "dormand_prince", "ode", True),
    ("hamiltonian", "spectrum_vs_field", "hamiltonian", True),
    ("hamiltonian", "labeled_eigensystem", "hamiltonian", True),
    ("hamiltonian", "transition_table", "hamiltonian", True),
    ("coupling", "field_map", "coupling", True),
    ("coupling", "coupling_map", "coupling", True),
    ("coupling", "coupling_distribution", "coupling", True),
    ("estimators", "fit_exponential_recovery", "estimators", True),
    ("estimators", "fit_gaussian_decay", "estimators", True),
    ("estimators", "fit_psd", "estimators", True),
    ("optimize", "levenberg_marquardt", "optimize", True),
    ("optimize", "nelder_mead", "optimize", True),
    ("polarization", "boltzmann_populations", "polarization", True),
    ("polarization", "population_difference", "polarization", True),
    ("polarization", "find_quasi_degenerate_pair", "polarization", True),
    ("polarization", "spin_half_polarization", "polarization", True),
    ("polarization", "approx_population_difference", "polarization", True),
    ("polarization", "manifold_population_difference", "polarization", True),
    ("thermal", "bose_occupation", "thermal", False),
    ("thermal", "occupation_temperature", "thermal", False),
    ("thermal", "spin_polarization", "thermal", False),
    ("thermal", "effective_occupation", "thermal", False),
    ("thermal", "cavity_occupation", "thermal", False),
    ("thermal", "purcell_rate", "thermal", False),
    ("thermal", "spin_relaxation_rate", "thermal", False),
    ("thermal", "spin_temperature", "thermal", False),
    ("thermal", "cooling_factor", "thermal", False),
]

FITS = ("fit_exponential_recovery", "fit_gaussian_decay", "fit_psd")


class Tracer:
    """Installs wrappers, records spans and counters, removes the wrappers."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or None)
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.counts = Counter()
        self.state_width = 0
        self._stack = []  # [span id or None, layer, start, child seconds]
        self._next_id = 0
        self._patched = []  # (module, attribute, original)
        self.clock = time.perf_counter  # a caller may exclude its own pauses

    # ------------------------------------------------------------ recording

    def _call(self, name, layer, span, fn, args, kwargs):
        span_id = None
        if span:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, layer, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._stack.pop()
            duration = end - frame[2]
            self.layer_self[layer] += duration - frame[3]
            self.calls[name] += 1
            self.inclusive[name] += duration
            if self._stack:
                self._stack[-1][3] += duration
            if span:
                parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
                self.spans.append((span_id, name, frame[2], end, parent))

    def _leaf(self, fn, name, layer, on_call=None):
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            return self._call(name, layer, False, fn, args, kwargs)
        return wrapper

    def _wrapper(self, fn, name, layer, span):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(self, args, kwargs)
            return self._call(name, layer, span, fn, args, kwargs)

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------------- installing

    def install(self):
        targets = []
        for mod_name, fn_name, layer, span in TRACED:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                continue
            targets.append((module, mod_name, fn_name, layer, span))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module, mod_name, fn_name, layer, span in targets:
            original = getattr(module, fn_name, None)
            if not callable(original):
                continue
            wrapper = self._wrapper(original, f"{mod_name}.{fn_name}", layer, span)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- results

    def metrics(self):
        """Per-layer metrics; a layer that did not run reports zeros."""
        c = self.calls
        solves = c["ode.dormand_prince"]
        rhs = c["blochsim.rhs"]
        sequences = c["blochsim.run_sequence"]
        steps = (rhs - solves) / 6 if solves else 0.0
        eig = c["hamiltonian.labeled_eigensystem"]
        per_seq = (lambda v: v / sequences if sequences else 0.0)
        return {
            "ode.solves": solves,
            "ode.step_attempts": steps,
            "ode.solves_per_sequence": per_seq(solves),
            "ode.self_s": self.layer_self["ode"],
            "ode.overhead_us_per_step": (self.layer_self["ode"] / steps * 1e6) if steps else 0.0,
            "ode.samples": self.counts["ode.samples"],
            "ode.bytes_computed": self.counts["ode.bytes_computed"],
            "blochsim.sequences": sequences,
            "blochsim.segments": self.counts["blochsim.segments"],
            "blochsim.rhs_calls": rhs,
            "blochsim.rhs_calls_per_sequence": per_seq(rhs),
            "blochsim.rhs_us_per_call": (
                self.inclusive["blochsim.rhs"] / rhs * 1e6) if rhs else 0.0,
            "blochsim.state_width": self.state_width,
            "blochsim.self_s": self.layer_self["blochsim"],
            "hamiltonian.eigensystems": eig,
            "hamiltonian.eigensystem_ms": (
                self.inclusive["hamiltonian.labeled_eigensystem"] / eig * 1e3) if eig else 0.0,
            "hamiltonian.transition_tables": c["hamiltonian.transition_table"],
            "hamiltonian.self_s": self.layer_self["hamiltonian"],
            "coupling.field_map_s": self.inclusive["coupling.field_map"],
            "coupling.filament_point_pairs": self.counts["coupling.filament_point_pairs"],
            "coupling.distribution_s": self.inclusive["coupling.coupling_distribution"],
            "estimators.fits": sum(c[f"estimators.{f}"] for f in FITS),
            "estimators.fit_s": sum(self.inclusive[f"estimators.{f}"] for f in FITS),
            "optimize.lm_calls": c["optimize.levenberg_marquardt"],
            "optimize.residual_evals": c["estimators.residual"],
            "optimize.fallbacks": c["optimize.nelder_mead"],
            "optimize.self_s": self.layer_self["optimize"],
            "thermal.s": self.layer_self["thermal"],
            "polarization.s": self.layer_self["polarization"],
            "config.parse_s": self.layer_self["config"],
            "cli.self_s": self.layer_self["cli"],
        }

    def dump(self):
        return {
            "spans": [list(s) for s in self.spans],
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "layer_self_s": dict(self.layer_self),
            "counts": dict(self.counts),
        }


# ------------------------------------------------------------------ hooks
# A hook sees a traced call's arguments before it runs: it counts work the
# arguments describe and wraps callable arguments (the rhs, the residual)
# so that their calls are counted and timed.


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _replace(args, kwargs, index, name, value):
    if len(args) > index:
        return args[:index] + (value,) + args[index + 1:], kwargs
    return args, {**kwargs, name: value}


def _hook_solver(tracer, args, kwargs):
    y0 = _arg(args, kwargs, 2, "y0")
    width = int(getattr(y0, "size", len(y0)))
    tracer.state_width = max(tracer.state_width, width)
    samples = kwargs.get("sample_times")
    if samples is not None:
        tracer.counts["ode.samples"] += len(samples)

    def count_bytes(call_args):  # each rhs call computes a state-sized derivative
        tracer.counts["ode.bytes_computed"] += call_args[1].nbytes

    rhs = tracer._leaf(_arg(args, kwargs, 0, "f"), "blochsim.rhs", "rhs", count_bytes)
    return _replace(args, kwargs, 0, "f", rhs)


def _hook_residual(name):
    def hook(tracer, args, kwargs):
        fn = _arg(args, kwargs, 0, name)
        return _replace(args, kwargs, 0, name,
                        tracer._leaf(fn, "estimators.residual", "estimators"))
    return hook


def _hook_sequence(tracer, args, kwargs):
    tracer.counts["blochsim.segments"] += len(_arg(args, kwargs, 0, "seq").events)
    return args, kwargs


def _hook_field_map(tracer, args, kwargs):
    geom = _arg(args, kwargs, 0, "geom")
    nx = _arg(args, kwargs, 4, "nx")
    ny = _arg(args, kwargs, 5, "ny")
    tracer.counts["coupling.filament_point_pairs"] += (
        geom.n_filaments * geom.n_layers * nx * ny)
    return args, kwargs


_HOOKS = {
    "ode.dormand_prince": _hook_solver,
    "optimize.levenberg_marquardt": _hook_residual("residual"),
    "optimize.nelder_mead": _hook_residual("fun"),
    "blochsim.run_sequence": _hook_sequence,
    "coupling.field_map": _hook_field_map,
}
