"""Exception types raised across the toolkit.

Every error deriving from PurcellCoolError maps to a stable CLI exit code:
schema problems exit 2, solver/fit convergence failures exit 3, I/O exits 4.
"""


class PurcellCoolError(Exception):
    """Base class for all toolkit errors."""


class SchemaError(PurcellCoolError):
    """Config file failed validation; message carries the dotted field path."""


class NoConvergence(PurcellCoolError):
    """Nonlinear fit exhausted its iteration budget."""


class StepUnderflow(PurcellCoolError):
    """Adaptive ODE control drove the step below 1e-15 s."""


class AllRatesZero(PurcellCoolError):
    """Spin temperature requested with every bath rate equal to zero."""


class StateCollision(PurcellCoolError):
    """Two transitions handed in do not form a quasi-degenerate pair."""


class GridOverlapsConductor(PurcellCoolError):
    """Field evaluation grid intersects the conductor cross-section."""


class EmptySupport(PurcellCoolError):
    """Coupling histogram would have zero total weight."""


class EmptyDistribution(PurcellCoolError):
    """Ensemble initialization from a distribution with no support."""


class EmptyWindow(PurcellCoolError):
    """Echo trace to phase-align or integrate holds no samples."""


class InsufficientSpan(PurcellCoolError):
    """PSD fit data do not bracket the resonator frequency."""
