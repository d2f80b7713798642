"""Independent references the tests check the package against.

None of these is used by the library or the CLI. They rebuild what the
closed forms shortcut, the long way: a hermiticity check, Hamiltonians of
the two spin models, Gibbs states by eigendecomposition, partial traces,
Bloch-form reconstruction, Haar unitaries, the measured state of a local
projective measurement, a randomized spot check that dephasing is the
nearest zero-discord state in a fixed basis, and the dense threshold scan
that evaluates the gap at every grid point up to the first bracket. Bad
shapes and non-unit directions raise ``ValueError``, and so does a
Hamiltonian that is not Hermitian within 1e-10.
"""

import math
from dataclasses import fields

import numpy as np

from spincorr import models, oracle, qmat
from spincorr.bloch import BlochForm
from spincorr.errors import NoSignChange, NonFiniteParameter
from spincorr.models import IsoDMParams, XXZParams
from spincorr.qmat import I2, PAULIS
from spincorr.rng import Lcg, gaussian_matrix, random_state

_DIRECTION_TOL = 1e-9
_HERMITICITY_TOL = 1e-10
# The Bloch-form operators, built here rather than taken from the package.
_BASIS_A = [np.kron(s, I2) for s in PAULIS]
_BASIS_B = [np.kron(I2, s) for s in PAULIS]
_BASIS_AB = [[np.kron(si, sj) for sj in PAULIS] for si in PAULIS]


def _unit_direction(n) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > _DIRECTION_TOL:
        raise ValueError(f"direction {n!r} is not a unit 3-vector")
    return n


def is_hermitian(m: np.ndarray, tol: float = _HERMITICITY_TOL) -> bool:
    """Return True iff ``m`` equals its conjugate transpose within ``tol``
    (Hilbert-Schmidt norm)."""
    return math.sqrt(qmat.hs_norm2(m - m.conj().T)) <= tol


def gibbs(h: np.ndarray, beta: float) -> np.ndarray:
    """Thermal state exp(-beta*H) / tr exp(-beta*H) of a Hermitian H.

    The minimum of beta*values is subtracted from every exponent before
    exponentiation, so the result stays finite for arbitrarily large
    couplings. ``beta`` must be finite and positive; ``h`` must be Hermitian
    within 1e-10, otherwise ``ValueError`` is raised.
    """
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0):
        raise NonFiniteParameter(f"beta must be finite and positive, got {beta!r}")
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise ValueError("matrix is not Hermitian within 1e-10")
    values, vectors = np.linalg.eigh((h + h.conj().T) / 2.0)
    exponents = -beta * values
    weights = np.exp(exponents - exponents.max())
    rho = (vectors * weights) @ vectors.conj().T
    rho /= weights.sum()
    return (rho + rho.conj().T) / 2.0


def partial_trace(rho: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace a 4x4 two-qubit operator down to one qubit.

    ``subsystem`` names the qubit to trace *out*: ``"B"`` returns the
    first qubit's 2x2 marginal, ``"A"`` the second's. Trace and hermiticity
    are preserved.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    if subsystem not in ("A", "B"):
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    r = rho.reshape(2, 2, 2, 2)
    if subsystem == "B":
        return np.trace(r, axis1=1, axis2=3)
    return np.trace(r, axis1=0, axis2=2)


def hamiltonian_isodm(p: IsoDMParams) -> np.ndarray:
    """Hamiltonian (in units of kT) of the isotropic + DM model."""
    sx, sy, sz = PAULIS
    exchange = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    antisym = np.kron(sx, sy) - np.kron(sy, sx)
    return 0.5 * (p.j * exchange + p.d * antisym)


def hamiltonian_xxz(p: XXZParams) -> np.ndarray:
    """Hamiltonian (in units of kT) of the XXZ model in a z field."""
    sx, sy, sz = PAULIS
    exchange = np.kron(sx, sx) + np.kron(sy, sy) + (1.0 + p.delta) * np.kron(sz, sz)
    field = np.kron(sz, I2) + np.kron(I2, sz)
    return 0.5 * (p.j * exchange + p.b * field)


def random_unitary(rng: Lcg, dim: int = 2) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition of a Gaussian
    matrix, with the R diagonal's phases absorbed so the factorization is
    unique."""
    q, r = np.linalg.qr(gaussian_matrix(rng, dim))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def reconstruct(form: BlochForm) -> tuple[np.ndarray, bool]:
    """Assemble the density matrix of a Bloch form.

    Returns ``(matrix, is_valid)``. The matrix is always Hermitian with
    unit trace; ``is_valid`` reports whether it is also positive
    semidefinite (within 1e-10), since arbitrary Bloch components need not
    describe a physical state. For valid output, ``decompose`` recovers the
    input components within 1e-12.
    """
    rho = np.eye(4, dtype=complex) / 4.0
    for i in range(3):
        rho += 0.5 * form.x[i] * _BASIS_A[i]
        rho += 0.5 * form.y[i] * _BASIS_B[i]
        for j in range(3):
            rho += 0.5 * form.T[i, j] * _BASIS_AB[i][j]
    rho = (rho + rho.conj().T) / 2.0
    is_valid = bool(np.linalg.eigvalsh(rho).min() >= -1e-10)
    return rho, is_valid


def post_measurement(rho: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Apply the local projective measurement along ``n`` to the first qubit.

    The oracle's explicit dephasing (P+ rho P+ + P- rho P-, projectors
    (I +/- n.sigma)/2 tensored with identity on the second qubit),
    symmetrized. Idempotent: applying twice equals applying once within
    1e-12. |n| must be 1 within 1e-9.
    """
    rho = qmat.validate_state(rho)
    out = oracle._dephase(rho, _unit_direction(n)[None])[0]
    return (out + out.conj().T) / 2.0


def nested_gmod_spotcheck(rho: np.ndarray, n: np.ndarray, k: int, seed: int = 1) -> float:
    """Randomized check that dephasing is optimal within a fixed basis.

    Draws ``k`` random zero-discord candidates p |+n><+n| (x) rho_1 +
    (1-p) |-n><-n| (x) rho_2 in the basis fixed by ``n`` and returns the
    smallest squared Hilbert-Schmidt distance to ``rho``. That minimum can
    never undercut the dephased distance by more than roundoff
    (dephasing uses the optimal weights and conditional states).
    """
    rho = qmat.validate_state(rho)
    n = _unit_direction(n)
    if k <= 0:
        raise ValueError("k must be positive")
    n_sigma = n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]
    proj_plus = (I2 + n_sigma) / 2.0
    proj_minus = (I2 - n_sigma) / 2.0
    rng = Lcg(seed)
    best = math.inf
    for _ in range(k):
        p = rng.uniform()
        rho_1 = random_state(rng, dim=2)
        rho_2 = random_state(rng, dim=2)
        candidate = p * np.kron(proj_plus, rho_1) + (1.0 - p) * np.kron(
            proj_minus, rho_2
        )
        best = min(best, qmat.hs_norm2(rho - candidate))
    return best


def dense_first_root(label: str, entries, p) -> float:
    """First sign change of the X-state gap of ``entries(j, p)`` over an
    ascending uniform scan of ``models.SCAN_POINTS`` values of j in
    [-50, 50], refined by ``models._bisect_root``: the gap is evaluated at
    every grid point up to the first bracket. Raises :class:`NoSignChange`
    when the scan finds no bracket, and lets the first ``OverflowError``
    of the entries through."""
    xs = np.linspace(models.SCAN_RANGE[0], models.SCAN_RANGE[1], models.SCAN_POINTS).tolist()
    prev = models._x_gap(entries(xs[0], p))
    if prev == 0.0:
        return xs[0]
    for lo, hi in zip(xs, xs[1:]):
        value = models._x_gap(entries(hi, p))
        if (prev < 0.0) != (value < 0.0):
            return models._bisect_root(entries, p, lo, hi, prev)
        if value == 0.0:
            return hi
        prev = value
    at = ", ".join(f"{f.name}={getattr(p, f.name):g}" for f in fields(p)[1:])
    raise NoSignChange(
        f"{label} threshold at {at}: no sign change over j in "
        f"[{models.SCAN_RANGE[0]:g}, {models.SCAN_RANGE[1]:g}]"
    )
