"""Dense complex linear algebra for 2x2 and 4x4 operators.

State validation, Hilbert-Schmidt geometry, the principal matrix square
root, and the package's only operator tables, all read-only: ``PAULIS``
stacks (sigma_x, sigma_y, sigma_z) and ``PAULI_PRODUCTS`` the 15 products
sigma_i (x) I, then I (x) sigma_j, then sigma_i (x) sigma_j row-major, so
sigma_y (x) sigma_y is row 10. All operations are pure functions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidState, NonHermitianInput, NotPositiveSemidefinite

I2 = np.eye(2, dtype=complex)
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
PAULI_PRODUCTS = np.stack(
    [np.kron(s, I2) for s in PAULIS]
    + [np.kron(I2, s) for s in PAULIS]
    + [np.kron(si, sj) for si in PAULIS for sj in PAULIS]
)
I2.flags.writeable = PAULIS.flags.writeable = PAULI_PRODUCTS.flags.writeable = False

HERMITICITY_TOL = 1e-10
STATE_TOL = 1e-8


def _hermitian_within(m: np.ndarray, adjoint: np.ndarray, tol: float) -> bool:
    """True iff ``m`` is within ``tol`` of its conjugate transpose
    ``adjoint`` (Hilbert-Schmidt norm)."""
    return math.sqrt(hs_norm2(m - adjoint)) <= tol


def validate_state(m: np.ndarray) -> np.ndarray:
    """Validate a 4x4 density matrix and return its Hermitian part.

    Checks hermiticity, unit trace, and positive semidefiniteness, each
    within 1e-8. Raises :class:`InvalidState` with the failed check named.
    The result (m + m^dagger)/2 is what passed; it is ``m`` bit for bit when
    ``m`` is exactly Hermitian (a -0.0 imaginary diagonal part becomes 0.0).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise InvalidState(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidState("matrix has non-finite entries")
    adjoint = m.conj().T
    if not _hermitian_within(m, adjoint, STATE_TOL):
        raise InvalidState("matrix is not Hermitian within tolerance")
    trace = m.trace()
    if abs(trace - 1.0) > STATE_TOL:
        raise InvalidState(f"trace is {trace.real:.6g}, expected 1")
    hermitian_part = (m + adjoint) / 2.0
    if np.linalg.eigvalsh(hermitian_part).min() < -STATE_TOL:
        raise InvalidState("matrix has a negative eigenvalue beyond tolerance")
    return hermitian_part


def hs_norm2(a: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm tr(A^dagger A) = sum of |entries|^2."""
    a = np.asarray(a, dtype=complex)
    return float(np.vdot(a, a).real)


def mat_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [-1e-8, 0) are clamped to zero, the window
    :func:`validate_state` accepts; an eigenvalue below -1e-8 raises
    :class:`NotPositiveSemidefinite`, and input that is not Hermitian within
    1e-10 raises :class:`NonHermitianInput`. The result is PSD Hermitian and
    squares back to the input within the clamped amount plus 1e-9.
    """
    m = np.asarray(m, dtype=complex)
    adjoint = m.conj().T
    if not _hermitian_within(m, adjoint, HERMITICITY_TOL):
        raise NonHermitianInput("matrix is not Hermitian within 1e-10")
    values, vectors = np.linalg.eigh((m + adjoint) / 2.0)
    if values.min() < -STATE_TOL:
        raise NotPositiveSemidefinite(
            f"eigenvalue {values.min():.3e} is below the -1e-8 clamp window"
        )
    values[values < 0.0] = 0.0
    root = (vectors * np.sqrt(values)) @ vectors.conj().T
    return (root + root.conj().T) / 2.0
