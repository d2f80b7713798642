"""Closed-form correlation measures for arbitrary two-qubit states.

Four measures of a density matrix, given by ``report`` as a named tuple:

- Wootters concurrence ``C``: entanglement monotone from the spin-flipped
  spectrum; :func:`concurrence` gives its route.
- Measurement-induced nonlocality ``N``: the maximal squared
  Hilbert-Schmidt disturbance of the state under local projective
  measurements on the first qubit that preserve that qubit's marginal.
  Closed form: when the marginal is maximally mixed (|x| below a cutoff)
  every axis preserves it and N = tr(T T^t) - lambda_min(T T^t); otherwise
  only the axis x/|x| does and N = tr(T T^t) - x^t T T^t x/|x|^2.
  N is genuinely discontinuous as x -> 0, so the branch taken is reported.
- Geometric discord ``D_exact``: minimal squared Hilbert-Schmidt distance
  to the zero-discord states, in the Bloch normalization of this package:
  D = 2 (tr S - k_max), S = (x x^t + T T^t)/4. The convention-free sphere
  oracle equals exactly twice this value (verified, not assumed).
- Discord lower bound ``Q``: the tight spectral bound
  Q = (2/3) [2 tr S - sqrt(6 tr S^2 - 2 (tr S)^2)], which never exceeds
  D_exact. Its radicand is evaluated as 2 sum_{i<j} (k_i - k_j)^2 over the
  eigenvalues of S, so it is never negative. The moment form cancels where
  S is near-isotropic and would put ~1e-9 of noise into Q exactly where
  Q = N/2 must hold to 1e-12.
"""

import math
from collections import namedtuple

import numpy as np

from . import qmat
from .bloch import decompose
from .qmat import PAULI_PRODUCTS

X_DEGENERACY_CUTOFF = 1e-9
BRANCH_X_ZERO = "XZero"
BRANCH_X_NONZERO = "XNonzero"

_SPIN_FLIP = PAULI_PRODUCTS[10]  # sigma_y (x) sigma_y


MeasureReport = namedtuple("MeasureReport", "concurrence min_value gmod_exact gmod_lower branch")
MeasureReport.__doc__ = """Bundle of the four correlation measures of one state, as a named tuple.

``branch`` records which nonlocality branch fired (``"XZero"`` when the
first qubit's marginal is maximally mixed, ``"XNonzero"`` otherwise).
Invariants: all values are finite and >= -1e-12, and
``gmod_lower <= gmod_exact + 1e-12``.
"""


def _trace3(a: np.ndarray) -> float:
    """``float(a.trace())`` bit for bit for a finite diagonal, the only kind
    ``report`` passes: below 8 terms numpy's pairwise-sum loop adds in
    sequence; the leading ``0.0 +`` is its reduction's +0.0 start. With two
    NaN operands the sign of the NaN returned can differ from numpy's."""
    d = a.diagonal().tolist()
    return 0.0 + d[0] + d[1] + d[2]


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    max{0, l1 - l2 - l3 - l4} where l_i are the descending square roots of
    the eigenvalues of rho rho~, with rho~ the spin-flipped state
    (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y). The l_i coincide
    with the eigenvalue roots of the Hermitian equivalent
    sqrt(rho) rho~ sqrt(rho) and are computed as the singular values of
    A = sqrt(rho) (sigma_y (x) sigma_y) sqrt(rho)*: since sqrt(rho) is
    Hermitian, A A^dag equals that Hermitian product, and singular values
    deliver the roots at working precision instead of the sqrt(eps) that
    eigendecomposing the product costs near-pure thermal states.
    """
    rho = qmat.validate_state(rho)
    root = qmat.mat_sqrt(rho)
    lambdas = np.linalg.svdvals(root @ _SPIN_FLIP @ root.conj()).tolist()
    return max(0.0, lambdas[0] - lambdas[1] - lambdas[2] - lambdas[3])


def report(rho: np.ndarray) -> MeasureReport:
    """All four measures of one state, with the nonlocality branch. N, D and
    Q share one T T^t and one spectrum of S; see the module docstring."""
    rho = qmat.validate_state(rho)
    form = decompose(rho)
    tt = form.T @ form.T.T
    trace_tt = _trace3(tt)
    x_norm2 = float(form.x @ form.x)
    if math.sqrt(x_norm2) <= X_DEGENERACY_CUTOFF:
        min_value, branch = trace_tt - float(np.linalg.eigvalsh(tt)[0]), BRANCH_X_ZERO
    else:
        min_value, branch = trace_tt - float(form.x @ tt @ form.x) / x_norm2, BRANCH_X_NONZERO
    s = (form.x[:, None] * form.x + tt) / 4.0
    trace_s = _trace3(s)
    k = np.linalg.eigvalsh(s).tolist()  # ascending, so k[2] is k_max
    d01, d12, d20 = k[0] - k[1], k[1] - k[2], k[2] - k[0]
    radicand = 2.0 * (d01 * d01 + d12 * d12 + d20 * d20)
    return MeasureReport(
        concurrence=concurrence(rho),
        min_value=min_value,
        gmod_exact=2.0 * (trace_s - k[2]),
        gmod_lower=(2.0 / 3.0) * (2.0 * trace_s - math.sqrt(radicand)),
        branch=branch,
    )
