"""Unit tests for the dense linear-algebra layer."""

import math

import numpy as np
import pytest

from spincorr import bloch, measures, qmat
from spincorr.errors import (
    InvalidState,
    NonFiniteParameter,
    NonHermitianInput,
    NotPositiveSemidefinite,
)
from spincorr.rng import Lcg, gaussian_matrix, random_state

from helpers import bell_psi_plus, ground_product_state
from reference import gibbs, partial_trace


def _exchange_with_antisymmetric_term() -> np.ndarray:
    """0.5 (XX + YY + ZZ + XY - YX): reference matrix with known spectrum."""
    sx, sy, sz = qmat.PAULIS
    h = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    h = h + np.kron(sx, sy) - np.kron(sy, sx)
    return 0.5 * h


def test_pauli_constants():
    for sigma in qmat.PAULIS:
        assert np.array_equal(sigma.conj().T, sigma)
        assert np.allclose(sigma @ sigma, np.eye(2), atol=1e-15)
        assert abs(np.trace(sigma)) == 0.0
    assert np.allclose(qmat.SIGMA_X @ qmat.SIGMA_Y, 1j * qmat.SIGMA_Z, atol=1e-15)


def test_gibbs_zero_hamiltonian_is_maximally_mixed():
    rho = gibbs(np.zeros((4, 4), dtype=complex), beta=1.0)
    assert np.allclose(rho, np.eye(4) / 4.0, atol=1e-15)


def test_gibbs_single_qubit_closed_form():
    rho = gibbs(qmat.SIGMA_Z, beta=1.0)
    p0 = 1.0 / (1.0 + math.exp(2.0))
    assert np.allclose(rho, np.diag([p0, 1.0 - p0]), atol=1e-14)


def test_gibbs_extreme_couplings_stay_finite():
    h = 50.0 * _exchange_with_antisymmetric_term()
    for beta in (1.0, 200.0):
        rho = gibbs(h, beta)
        assert np.all(np.isfinite(rho.view(float)))
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_gibbs_rejects_bad_beta():
    h = qmat.SIGMA_Z
    for beta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(NonFiniteParameter):
            gibbs(h, beta)


def test_kron_reference_matrices():
    # The spin flip of the concurrence and the Bloch basis operator
    # sigma_z (x) I, both built with np.kron from the complex Paulis.
    yy = measures._SPIN_FLIP
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
    assert np.array_equal(yy, expected) and yy.dtype == complex
    zi = bloch._PRODUCT_BASIS_A[2]
    assert np.array_equal(zi, np.diag([1, 1, -1, -1]).astype(complex))
    assert zi.dtype == complex


def test_partial_trace_product_state_roundtrip():
    rng = Lcg(5)
    for _ in range(20):
        rho_a = random_state(rng, dim=2)
        rho_b = random_state(rng, dim=2)
        joint = np.kron(rho_a, rho_b)
        assert np.max(np.abs(partial_trace(joint, "B") - rho_a)) <= 1e-12
        assert np.max(np.abs(partial_trace(joint, "A") - rho_b)) <= 1e-12


def test_partial_trace_entangled_state_marginals():
    for subsystem in ("A", "B"):
        marginal = partial_trace(bell_psi_plus(), subsystem)
        assert np.allclose(marginal, np.eye(2) / 2.0, atol=1e-15)
    assert np.allclose(
        partial_trace(np.eye(4, dtype=complex) / 4.0, "B"),
        np.eye(2) / 2.0,
        atol=1e-15,
    )


def test_partial_trace_rejects_bad_input():
    with pytest.raises(ValueError):
        partial_trace(np.eye(2, dtype=complex) / 2.0, "B")
    with pytest.raises(ValueError):
        partial_trace(np.eye(4, dtype=complex) / 4.0, "C")


def test_hs_norm2_reference_values():
    assert qmat.hs_norm2(np.eye(4, dtype=complex)) == pytest.approx(4.0, abs=1e-15)
    assert qmat.hs_norm2(qmat.SIGMA_X) == pytest.approx(2.0, abs=1e-15)
    assert qmat.hs_norm2(bell_psi_plus() - np.eye(4) / 4.0) == pytest.approx(
        0.75, abs=1e-15
    )


def test_hs_norm2_expands_like_an_inner_product():
    rng = Lcg(7)
    for _ in range(20):
        a = gaussian_matrix(rng)
        b = gaussian_matrix(rng)
        cross = 2.0 * np.trace(a.conj().T @ b).real
        expanded = qmat.hs_norm2(a) + qmat.hs_norm2(b) + cross
        assert abs(qmat.hs_norm2(a + b) - expanded) <= 1e-10


def test_mat_sqrt_diagonal_reference():
    root = qmat.mat_sqrt(np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex))
    assert np.allclose(root, np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-12)


def test_mat_sqrt_squares_back():
    rng = Lcg(9)
    for _ in range(20):
        rho = random_state(rng)
        root = qmat.mat_sqrt(rho)
        assert math.sqrt(qmat.hs_norm2(root @ root - rho)) <= 1e-9
        assert np.linalg.eigvalsh(root).min() >= -1e-12


def test_mat_sqrt_clamps_roundoff_negatives():
    m = np.diag([0.6, 0.4, 5e-11, -5e-11]).astype(complex)
    root = qmat.mat_sqrt(m)
    assert np.linalg.eigvalsh(root).min() >= 0.0
    assert math.sqrt(qmat.hs_norm2(root @ root - m)) <= 1e-9


def test_mat_sqrt_rejects_genuinely_negative():
    with pytest.raises(NotPositiveSemidefinite):
        qmat.mat_sqrt(np.diag([0.7, 0.3, 0.0, -5e-10]).astype(complex))


def test_mat_sqrt_and_gibbs_reject_non_hermitian():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.0  # no conjugate partner
    with pytest.raises(NonHermitianInput):
        qmat.mat_sqrt(m)
    with pytest.raises(NonHermitianInput):
        gibbs(m, beta=1.0)


def test_validate_state_accepts_random_states():
    rng = Lcg(11)
    for _ in range(10):
        rho = random_state(rng)
        out = qmat.validate_state(rho)
        assert out.shape == (4, 4)


def test_validate_state_rejects_defects():
    good = ground_product_state()
    with pytest.raises(InvalidState):
        qmat.validate_state(np.eye(2, dtype=complex) / 2.0)  # wrong shape
    bad = good.copy()
    bad[0, 1] = 0.1  # not Hermitian
    with pytest.raises(InvalidState):
        qmat.validate_state(bad)
    with pytest.raises(InvalidState):
        qmat.validate_state(2.0 * good)  # trace 2
    with pytest.raises(InvalidState):
        qmat.validate_state(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))
    nonfinite = good.copy()
    nonfinite[0, 0] = math.nan
    with pytest.raises(InvalidState):
        qmat.validate_state(nonfinite)
