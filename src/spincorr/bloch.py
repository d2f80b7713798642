"""Bloch/Fano representation of two-qubit density matrices.

A two-qubit state is expanded over tensor products of identity and Pauli
operators as

    rho = I/4 + (1/2) [ sum_i x_i sigma_i (x) I + sum_j y_j I (x) sigma_j
                        + sum_ij T_ij sigma_i (x) sigma_j ]

with the half-trace normalization x_i = tr[rho (sigma_i (x) I)]/2 (and
likewise for y and T), so every component lies in [-1/2, 1/2]. The Pauli
basis order is (sigma_x, sigma_y, sigma_z); the computational basis order
is |00>, |01>, |10>, |11>. All closed-form measures in this package consume
exactly this normalization. All 15 components come from one stacked
product with ``qmat.PAULI_PRODUCTS``, bit for bit the per-operator traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .qmat import PAULI_PRODUCTS


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
    c = np.trace(rho @ PAULI_PRODUCTS, axis1=1, axis2=2).real / 2.0
    return BlochForm(x=c[0:3], y=c[3:6], T=c[6:].reshape(3, 3))
