"""Dense complex linear algebra for 2x2 and 4x4 operators.

State validation, Hilbert-Schmidt geometry, and the principal matrix
square root -- everything downstream modules need to manipulate two-qubit
density matrices. All operations are pure functions over immutable inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidState, NonHermitianInput, NotPositiveSemidefinite

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)

HERMITICITY_TOL = 1e-10
STATE_TOL = 1e-8
PSD_CLAMP_TOL = 1e-10


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """Return True iff ``m`` equals its conjugate transpose within ``tol``
    (Hilbert-Schmidt norm)."""
    return math.sqrt(hs_norm2(m - m.conj().T)) <= tol


def is_psd(m: np.ndarray, tol: float = STATE_TOL) -> bool:
    """Return True iff the Hermitian part of ``m`` has no eigenvalue
    below ``-tol``."""
    evals = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return bool(evals.min() >= -tol)


def validate_state(m: np.ndarray, tol: float = STATE_TOL) -> np.ndarray:
    """Validate a 4x4 density matrix and return it as a complex array.

    Checks hermiticity, unit trace, and positive semidefiniteness, each
    within ``tol``. Raises :class:`InvalidState` with the failed check named.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise InvalidState(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise InvalidState("matrix has non-finite entries")
    if not is_hermitian(m, tol):
        raise InvalidState("matrix is not Hermitian within tolerance")
    if abs(np.trace(m) - 1.0) > tol:
        raise InvalidState(f"trace is {np.trace(m).real:.6g}, expected 1")
    if not is_psd(m, tol):
        raise InvalidState("matrix has a negative eigenvalue beyond tolerance")
    return m


def hs_norm2(a: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm tr(A^dagger A) = sum of |entries|^2."""
    a = np.asarray(a, dtype=complex)
    return float(np.vdot(a, a).real)


def mat_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in [-1e-10, 0) are clamped to zero (roundoff from analytic
    PSD constructions); an eigenvalue below -1e-10 raises
    :class:`NotPositiveSemidefinite`, and input that is not Hermitian within
    1e-10 raises :class:`NonHermitianInput`. The result is PSD Hermitian and
    squares back to the input within 1e-9.
    """
    m = np.asarray(m, dtype=complex)
    if not is_hermitian(m):
        raise NonHermitianInput("matrix is not Hermitian within 1e-10")
    values, vectors = np.linalg.eigh((m + m.conj().T) / 2.0)
    if values.min() < -PSD_CLAMP_TOL:
        raise NotPositiveSemidefinite(
            f"eigenvalue {values.min():.3e} is below the -1e-10 clamp window"
        )
    values[values < 0.0] = 0.0
    root = (vectors * np.sqrt(values)) @ vectors.conj().T
    return (root + root.conj().T) / 2.0
