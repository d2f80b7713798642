"""Bloch/Fano representation of two-qubit density matrices.

A two-qubit state is expanded over tensor products of identity and Pauli
operators as

    rho = I/4 + (1/2) [ sum_i x_i sigma_i (x) I + sum_j y_j I (x) sigma_j
                        + sum_ij T_ij sigma_i (x) sigma_j ]

with the half-trace normalization x_i = tr[rho (sigma_i (x) I)]/2 (and
likewise for y and T), so every component lies in [-1/2, 1/2]. The Pauli
basis order is (sigma_x, sigma_y, sigma_z); the computational basis order
is |00>, |01>, |10>, |11>. All closed-form measures in this package consume
exactly this normalization. ``decompose`` returns x, y and T as a named
tuple, all 15 components read from ``rho`` by one gather over tables built
from ``qmat.PAULI_PRODUCTS``, bit for bit the per-operator traces tr(rho P)/2.
"""

from collections import namedtuple

import numpy as np

from . import qmat
from .qmat import PAULI_PRODUCTS


def _gather_tables(products: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and sign tables that read tr(rho P) for each P in ``products``.

    Every product operator has one nonzero per column, P[k, i] in {+-1, +-i},
    so the i-th diagonal entry of rho @ P is rho[i, k] P[k, i], and its real
    part is +-Re rho[i, k] (P[k, i] = +-1) or -+Im rho[i, k] (P[k, i] = +-i).
    Row i of both (4, 15) tables addresses that term of each operator in the
    float view of a row-major rho. Both tables are read-only.
    """
    rows = np.argmax(products != 0, axis=1)  # (15, 4): k of column i
    coef = np.take_along_axis(products, rows[:, None, :], axis=1)[:, 0, :]
    imag = coef.real == 0.0
    index = (8 * np.arange(4) + 2 * rows + imag).T.copy()
    sign = np.where(imag, -coef.imag, coef.real).T.copy()
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


_TERM_INDEX, _TERM_SIGN = _gather_tables(PAULI_PRODUCTS)


BlochForm = namedtuple("BlochForm", "x y T")
BlochForm.__doc__ = """Local Bloch vectors and correlation matrix of a two-qubit state, as a
named tuple.

``x`` and ``y`` are the real 3-vectors of the first and second qubit;
``T`` is the real 3x3 correlation matrix. With the half-trace
normalization, purity satisfies
tr(rho^2) = 1/4 + |x|^2 + |y|^2 + sum_ij T_ij^2.
"""


def decompose(rho: np.ndarray) -> BlochForm:
    """Extract the Bloch form of a valid density matrix.

    Raises :class:`~spincorr.errors.InvalidState` if ``rho`` fails the
    hermiticity / unit-trace / PSD checks.
    """
    rho = qmat.validate_state(rho)
    t = rho.reshape(16).view(float)[_TERM_INDEX] * _TERM_SIGN
    # Exact terms summed pairwise give every bit of np.trace(rho @ P), and
    # + 0.0 makes the -0.0 of four -0.0 terms the trace's +0.0.
    c = ((t[0] + t[1]) + (t[2] + t[3])) / 2.0 + 0.0
    return BlochForm(x=c[0:3], y=c[3:6], T=c[6:].reshape(3, 3))
