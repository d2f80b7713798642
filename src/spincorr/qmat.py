"""Dense complex linear algebra for 2x2 and 4x4 operators.

State validation, the principal matrix square root, and the package's
only operator tables, all read-only: ``PAULIS`` stacks (sigma_x, sigma_y,
sigma_z) and ``PAULI_PRODUCTS`` the 15 products sigma_i (x) I, then
I (x) sigma_j, then sigma_i (x) sigma_j row-major, so sigma_y (x) sigma_y
is row 10. Each result depends on its input alone. :func:`validate_state`,
the package's only check of a matrix, which remembers its last pass,
accepts any finite 4x4 input or raises :class:`InvalidState`. Each public
entry validates its input, and a repeat changes nothing: the Hermitian part
returned validates to itself bit for bit. Every spectrum in the package is
public ``np.linalg``: ``eigvalsh`` or ``eigh`` of an explicitly Hermitian
matrix, or ``svdvals``; no general-matrix eigensolver is used.
"""

import contextlib
import math

import numpy as np

from .errors import InvalidState

I2 = np.eye(2, dtype=complex)
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
PAULI_PRODUCTS = np.stack(
    [np.kron(s, I2) for s in PAULIS]
    + [np.kron(I2, s) for s in PAULIS]
    + [np.kron(si, sj) for si in PAULIS for sj in PAULIS]
)
I2.flags.writeable = PAULIS.flags.writeable = PAULI_PRODUCTS.flags.writeable = False

STATE_TOL = 1e-8
# validate_state's last pass: (input bytes, Hermitian part), rebound in one step.
_last_passed = (b"", None)


def validate_state(m: np.ndarray) -> np.ndarray:
    """Validate a 4x4 density matrix and return its Hermitian part.

    Checks hermiticity, unit trace, and positive semidefiniteness, each
    within 1e-8. Raises :class:`InvalidState` with the failed check named,
    for every finite input that fails, however large its entries.
    The result (m + m^dagger)/2 is what passed; it is ``m`` bit for bit when
    ``m`` is exactly Hermitian (a -0.0 imaginary diagonal part becomes 0.0).
    It depends on the input's complex bytes alone (``STATE_TOL`` is read as a
    constant): the bytes of the last input that passed get a fresh copy of its
    result with no second check; an input that fails is never stored.
    """
    global _last_passed
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise InvalidState(f"expected a 4x4 matrix, got shape {m.shape}")
    key, (last_key, last_part) = m.tobytes(), _last_passed
    if key == last_key:
        return last_part.copy()
    # With tr(m^dagger m) <= 4 every entry is finite with modulus <= 2 and nothing
    # below overflows; above 4 an overflow fails a check, so its warning is moot.
    norm2 = float(np.vdot(m, m).real)
    if norm2 <= 4.0:
        guard = contextlib.nullcontext()
    elif not np.isfinite(m).all():
        raise InvalidState("matrix has non-finite entries")
    else:
        guard = np.errstate(over="ignore", invalid="ignore")
    adjoint = m.conj().T
    with guard:
        skew = m - adjoint
        asymmetry = math.sqrt(float(np.vdot(skew, skew).real))
        trace = _trace4(m)
        hermitian_part = (m + adjoint) / 2.0
    if not asymmetry <= STATE_TOL:
        raise InvalidState("matrix is not Hermitian within tolerance")
    if abs(trace - 1.0) > STATE_TOL:
        raise InvalidState(f"trace is {trace.real:.6g}, expected 1")
    # A state within tolerance has tr(m^dagger m) below 1 + 1e-6, so a value
    # above 4 means a negative eigenvalue; eigvalsh never sees such entries.
    if norm2 > 4.0 or np.linalg.eigvalsh(hermitian_part)[0] < -STATE_TOL:  # ascending
        raise InvalidState("matrix has a negative eigenvalue beyond tolerance")
    _last_passed = (key, hermitian_part.copy())
    return hermitian_part


def _trace4(m: np.ndarray) -> complex:
    """``complex(m.trace())`` bit for bit for a finite diagonal, the only kind
    :func:`validate_state` passes: numpy's pairwise-sum loop adds a 4-term
    diagonal as (d0 + d1) + (d2 + d3); ``+ 0j`` is its reduction's +0.0
    start. With two NaN operands the sign of the NaN returned can differ
    from numpy's."""
    d = m.diagonal().tolist()
    return d[0] + d[1] + (d[2] + d[3]) + 0j


def mat_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a state that :func:`validate_state` returned.

    ``m`` must be exactly Hermitian, as every validated state is; it is not
    checked again. Its eigenvalues are at least -1e-8 up to roundoff, and the
    negative ones are clamped to zero. The result is PSD Hermitian and
    squares back to ``m`` within the clamped amount plus 1e-9.
    """
    values, vectors = np.linalg.eigh(m)
    np.maximum(values, 0.0, out=values)
    root = (vectors * np.sqrt(values)) @ vectors.conj().T
    return (root + root.conj().T) / 2.0
