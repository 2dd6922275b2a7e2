"""Dense donor-spin Hamiltonian: the reference for the Breit-Rabi sectors.

The package builds the eigenpairs sector by sector in closed form and never
forms the full matrix, nor the matrix of eigenvectors. This module builds
both in the product basis |m_S> x |m_I> (both m descending), for the tests
to compare against, and the transition table read back from the
eigenvector matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from purcell_cool import hamiltonian as ham

S = 0.5  # the electron spin, the one the package solves for


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
    sx, sy, sz = angular_momentum_ops(S)
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
        S * (S + 1) * one
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


def sector_eigenvectors(params, b0):
    """The sector eigenvectors scattered into the product basis: column k
    belongs to level k of labeled_eigensystem. |m_S, m_I> is row
    (1/2 - m_S)(2I + 1) + I - m_I."""
    _, m, energy, c_p, c_q = ham._sectors(params, np.array([b0], dtype=float))
    # rows of |+1/2, m - 1/2> and |-1/2, m + 1/2>; a stretched state's
    # missing partner lands on an unrelated row with amplitude zero
    p = np.round(params.i + 0.5 - m).astype(int)
    cols = np.arange(m.size)
    vecs = np.zeros((m.size, m.size))
    vecs[p, cols] = c_p[0]
    vecs[p + round(2 * params.i), cols] = c_q[0]
    return vecs[:, np.argsort(energy[0], kind="stable")]


def reference_transition_table(params, b0, floor=ham.MATRIX_ELEMENT_FLOOR):
    """The |dF . dm| = 1 transitions with |S_x| >= floor, through the
    eigenvector matrix: each level's two sector amplitudes are read back out
    of its column (its only m_S = +1/2 and m_S = -1/2 entries) and go
    through the package's _links; ordered by the positions of their lower,
    then upper level in labeled_eigensystem's list."""
    levels = ham.labeled_eigensystem(params, b0)
    f = np.array([lv.f for lv in levels])
    m = np.array([lv.m for lv in levels])
    energy = np.array([lv.energy for lv in levels])
    c_p, c_q = sector_eigenvectors(params, b0).reshape(2, -1, m.size).sum(axis=1)
    lower, upper, frequency, element = ham._links(f, m, energy, c_p, c_q)
    return [
        ham.Transition(
            lower=(int(f[lower[c]]), int(m[lower[c]])),
            upper=(int(f[upper[c]]), int(m[upper[c]])),
            frequency=float(frequency[c]),
            sx_element=float(element[c]),
        )
        for c in np.lexsort((upper, lower))
        if element[c] >= floor
    ]
