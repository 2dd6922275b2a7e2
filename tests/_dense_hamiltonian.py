"""Dense donor-spin Hamiltonian: the reference for the Breit-Rabi sectors.

The package builds the eigenpairs sector by sector in closed form and never
forms the full matrix. This module builds it in the product basis
|m_S> x |m_I> (both m descending), for the tests to compare against.
"""

import math
from dataclasses import dataclass

import numpy as np


def angular_momentum_ops(j):
    """Jx, Jy, Jz for spin j in the |j, m> basis with m descending."""
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((dim, dim), dtype=complex)
    for k in range(1, dim):
        jplus[k - 1, k] = math.sqrt(j * (j + 1) - m[k] * (m[k] + 1))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    return jx, jy, jz


@dataclass(frozen=True)
class HermitianOperator:
    dim: int
    entries: np.ndarray  # Hz

    def __post_init__(self):
        a = np.asarray(self.entries)
        if a.shape != (self.dim, self.dim):
            raise ValueError("entries shape does not match dim")
        scale = np.linalg.norm(a)
        if scale > 0 and np.linalg.norm(a - a.conj().T) > 1e-12 * scale:
            raise ValueError("operator is not Hermitian to 1e-12 relative")


def spin_operators(params):
    """Full-space Sx..Iz, F_z and F^2 in the product basis."""
    sx, sy, sz = angular_momentum_ops(params.s)
    ix, iy, iz = angular_momentum_ops(params.i)
    es = np.eye(sx.shape[0])
    ei = np.eye(ix.shape[0])
    ops = {
        "sx": np.kron(sx, ei),
        "sy": np.kron(sy, ei),
        "sz": np.kron(sz, ei),
        "ix": np.kron(es, ix),
        "iy": np.kron(es, iy),
        "iz": np.kron(es, iz),
    }
    ops["fz"] = ops["sz"] + ops["iz"]
    sdoti = ops["sx"] @ ops["ix"] + ops["sy"] @ ops["iy"] + ops["sz"] @ ops["iz"]
    one = np.eye(sdoti.shape[0])
    ops["f2"] = (
        params.s * (params.s + 1) * one
        + params.i * (params.i + 1) * one
        + 2 * sdoti
    )
    ops["sdoti"] = sdoti
    return ops


def build_hamiltonian(params, b0):
    """H in Hz for a static field b0 (tesla) along z."""
    if b0 < 0:
        raise ValueError("b0 must be nonnegative")
    ops = spin_operators(params)
    h = b0 * (params.gamma_e * ops["sz"] - params.gamma_n * ops["iz"])
    h = h + params.hyperfine_a * ops["sdoti"]
    return HermitianOperator(h.shape[0], h)
