"""Unit tests for the dense linear-algebra layer."""

import math

import numpy as np
import pytest

from spincorr import measures, qmat
from spincorr.errors import InvalidState, NonFiniteParameter
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
    assert qmat.PAULIS.shape == (3, 2, 2) and qmat.PAULIS.dtype == complex
    for sigma in qmat.PAULIS:
        assert np.array_equal(sigma.conj().T, sigma)
        assert np.allclose(sigma @ sigma, np.eye(2), atol=1e-15)
        assert abs(np.trace(sigma)) == 0.0
    sx, sy, sz = qmat.PAULIS
    assert np.allclose(sx @ sy, 1j * sz, atol=1e-15)


def test_gibbs_zero_hamiltonian_is_maximally_mixed():
    rho = gibbs(np.zeros((4, 4), dtype=complex), beta=1.0)
    assert np.allclose(rho, np.eye(4) / 4.0, atol=1e-15)


def test_gibbs_single_qubit_closed_form():
    rho = gibbs(qmat.PAULIS[2], beta=1.0)
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
    h = qmat.PAULIS[2]
    for beta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(NonFiniteParameter):
            gibbs(h, beta)


def test_kron_reference_matrices():
    # All 15 product operators, bit for bit and in their order, against
    # np.kron of Paulis written out here: sigma_i (x) I, then I (x) sigma_j,
    # then sigma_i (x) sigma_j row-major.
    eye = np.eye(2, dtype=complex)
    paulis = [
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    ]
    expected = (
        [np.kron(s, eye) for s in paulis]
        + [np.kron(eye, s) for s in paulis]
        + [np.kron(si, sj) for si in paulis for sj in paulis]
    )
    table = qmat.PAULI_PRODUCTS
    assert table.shape == (15, 4, 4) and table.dtype == complex
    assert not table.flags.writeable and not qmat.PAULIS.flags.writeable
    for row, op in enumerate(expected):
        assert table[row].tobytes() == op.tobytes(), row
    # The spin flip of the concurrence is row 10, sigma_y (x) sigma_y, and
    # the Bloch basis operator sigma_z (x) I is row 2.
    yy = measures._SPIN_FLIP
    flip = np.zeros((4, 4), dtype=complex)
    flip[0, 3], flip[1, 2], flip[2, 1], flip[3, 0] = -1, 1, 1, -1
    assert np.array_equal(yy, flip) and yy.dtype == complex
    assert np.array_equal(table[2], np.diag([1, 1, -1, -1]).astype(complex))


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
    assert qmat.hs_norm2(qmat.PAULIS[0]) == pytest.approx(2.0, abs=1e-15)
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


@pytest.mark.parametrize("dim", [2, 4])
def test_gaussian_matrix_keeps_the_per_entry_stream(dim):
    """One list of 2 dim^2 normals viewed as complex gives, bit for bit, the
    matrix filled row-major with one complex(re, im) draw per entry."""
    for seed in (1, 7, 42, 2**64 - 1):
        rng, reference_rng = Lcg(seed), Lcg(seed)
        for _ in range(3):
            expected = np.empty((dim, dim), dtype=complex)
            for i in range(dim):
                for j in range(dim):
                    expected[i, j] = complex(reference_rng.normal(), reference_rng.normal())
            g = gaussian_matrix(rng, dim)
            assert g.shape == (dim, dim) and g.dtype == complex
            assert g.tobytes() == expected.tobytes()


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


def test_gibbs_rejects_non_hermitian():
    m = np.zeros((2, 2), dtype=complex)
    m[0, 1] = 1.0  # no conjugate partner
    with pytest.raises(ValueError):
        gibbs(m, beta=1.0)


def test_validate_state_accepts_random_states():
    rng = Lcg(11)
    for _ in range(10):
        rho = random_state(rng)
        out = qmat.validate_state(rho)
        assert out.shape == (4, 4)


def test_validate_state_returns_the_hermitian_part():
    rng = Lcg(23)
    for _ in range(10):
        rho = random_state(rng)
        assert qmat.validate_state(rho).tobytes() == rho.tobytes()
    # Within tolerance but not exactly Hermitian or PSD: every later step
    # sees the exactly Hermitian part, and mat_sqrt clamps what passed.
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m[0, 1] = 5e-9
    out = qmat.validate_state(m)
    assert np.array_equal(out, (m + m.conj().T) / 2.0)
    assert np.array_equal(out, out.conj().T) and out[1, 0] == 2.5e-9
    qmat.mat_sqrt(out)
    slightly_negative = np.diag([0.5, 0.3, 0.2 + 5e-9, -5e-9]).astype(complex)
    root = qmat.mat_sqrt(qmat.validate_state(slightly_negative))
    assert np.linalg.eigvalsh(root).min() >= 0.0


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
