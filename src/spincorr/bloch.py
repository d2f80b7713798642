"""Bloch/Fano representation of two-qubit density matrices.

A two-qubit state is expanded over tensor products of identity and Pauli
operators as

    rho = I/4 + (1/2) [ sum_i x_i sigma_i (x) I + sum_j y_j I (x) sigma_j
                        + sum_ij T_ij sigma_i (x) sigma_j ]

with the half-trace normalization x_i = tr[rho (sigma_i (x) I)]/2 (and
likewise for y and T), so every component lies in [-1/2, 1/2]. The Pauli
basis order is (sigma_x, sigma_y, sigma_z); the computational basis order
is |00>, |01>, |10>, |11>. All closed-form measures in this package consume
exactly this normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .qmat import I2, PAULIS

_PRODUCT_BASIS_A = [np.kron(s, I2) for s in PAULIS]
_PRODUCT_BASIS_B = [np.kron(I2, s) for s in PAULIS]
_PRODUCT_BASIS_AB = [[np.kron(si, sj) for sj in PAULIS] for si in PAULIS]


@dataclass(frozen=True)
class BlochForm:
    """Local Bloch vectors and correlation matrix of a two-qubit state.

    ``x`` and ``y`` are the real 3-vectors of the first and second qubit;
    ``T`` is the real 3x3 correlation matrix. With the half-trace
    normalization, purity satisfies
    tr(rho^2) = 1/4 + |x|^2 + |y|^2 + sum_ij T_ij^2.
    """

    x: np.ndarray
    y: np.ndarray
    T: np.ndarray


def decompose(rho: np.ndarray) -> BlochForm:
    """Extract the Bloch form of a valid density matrix.

    Raises :class:`~spincorr.errors.InvalidState` if ``rho`` fails the
    hermiticity / unit-trace / PSD checks.
    """
    rho = qmat.validate_state(rho)
    x = np.array([np.trace(rho @ op).real / 2.0 for op in _PRODUCT_BASIS_A])
    y = np.array([np.trace(rho @ op).real / 2.0 for op in _PRODUCT_BASIS_B])
    t = np.array(
        [
            [np.trace(rho @ _PRODUCT_BASIS_AB[i][j]).real / 2.0 for j in range(3)]
            for i in range(3)
        ]
    )
    return BlochForm(x=x, y=y, T=t)
