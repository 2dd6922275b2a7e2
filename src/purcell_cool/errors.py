"""The two failures the CLI reports under their own exit codes.

SchemaError exits 2 with a `config error:` prefix and NoConvergence exits 3
with a `convergence failure:` prefix. Every other rejected input raises
ValueError (exit 2, `error:`), and I/O failures surface as OSError (exit 4).
"""


class SchemaError(Exception):
    """Config file failed validation; message carries the dotted field path."""


class NoConvergence(Exception):
    """A fit exhausted its iteration budget, or the ODE step control drove
    the step below 1e-15 s or ran out of attempts."""
