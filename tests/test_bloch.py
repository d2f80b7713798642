"""Unit tests for the Bloch/Fano decomposition layer."""

import numpy as np
import pytest

from spincorr import bloch, models, qmat
from spincorr.bloch import BlochForm, decompose
from spincorr.errors import InvalidState
from spincorr.models import IsoDMParams, XXZParams, thermal_isodm, thermal_xxz
from spincorr.rng import Lcg, random_state

from helpers import MIXED, bell_psi_plus, ground_product_state, random_product_state
from reference import I2, PAULIS, partial_trace, reconstruct


def test_decompose_maximally_mixed_is_all_zero():
    form = decompose(MIXED)
    assert np.max(np.abs(form.x)) == 0.0
    assert np.max(np.abs(form.y)) == 0.0
    assert np.max(np.abs(form.T)) == 0.0


def test_decompose_bell_state():
    form = decompose(bell_psi_plus())
    assert np.max(np.abs(form.x)) <= 1e-15
    assert np.max(np.abs(form.y)) <= 1e-15
    assert np.allclose(form.T, np.diag([0.5, 0.5, -0.5]), atol=1e-15)


def test_decompose_ground_product_state():
    form = decompose(ground_product_state())
    assert np.allclose(form.x, [0.0, 0.0, 0.5], atol=1e-15)
    assert np.allclose(form.y, [0.0, 0.0, 0.5], atol=1e-15)
    assert np.allclose(form.T, np.diag([0.0, 0.0, 0.5]), atol=1e-15)


def _per_operator_bloch(rho):
    """The Bloch form the long way: one np.trace(rho @ op) per product
    operator, each built here with np.kron."""
    x = np.array([np.trace(rho @ np.kron(s, I2)).real / 2.0 for s in PAULIS])
    y = np.array([np.trace(rho @ np.kron(I2, s)).real / 2.0 for s in PAULIS])
    t = np.array(
        [[np.trace(rho @ np.kron(si, sj)).real / 2.0 for sj in PAULIS] for si in PAULIS]
    )
    return x, y, t


def test_decompose_matches_per_operator_trace_bit_for_bit():
    # decompose gathers the four nonzero diagonal terms of each rho @ P and
    # sums them pairwise. That keeps every bit of the per-operator traces only
    # while numpy's @ and trace form and sum those terms the same way; a
    # numpy or BLAS change that breaks it must fail here, not move output bytes.
    rng = Lcg(29)
    states = [random_state(rng) for _ in range(1000)]
    states += [random_product_state(rng) for _ in range(50)]
    for j in np.linspace(-20.0, 20.0, 201):
        states.append(thermal_isodm(IsoDMParams(j=float(j), d=1.5)))
        states.append(thermal_xxz(XXZParams(j=float(j), delta=0.5, b=1.0)))
    states += [MIXED, bell_psi_plus(), ground_product_state()]
    for rho in states:
        form = decompose(rho)
        x, y, t = _per_operator_bloch(rho)
        assert form.x.tobytes() == x.tobytes()
        assert form.y.tobytes() == y.tobytes()
        assert form.T.tobytes() == t.tobytes()


def test_gather_tables_follow_the_pauli_products():
    # The gather reads tr(rho P) as four terms rho[i, k] P[k, i]; that is
    # exact only while every column of every product has one nonzero, and it
    # is +-1 or +-i.
    index, sign = bloch._TERM_INDEX, bloch._TERM_SIGN
    assert index.shape == sign.shape == (4, 15)
    assert not index.flags.writeable and not sign.flags.writeable
    for p, product in enumerate(qmat.PAULI_PRODUCTS):
        for i in range(4):
            (k,) = np.flatnonzero(product[:, i])
            c = product[k, i]
            assert c in (1, -1, 1j, -1j)
            part = 0 if c.imag == 0 else 1
            assert index[i, p] == 8 * i + 2 * k + part
            assert sign[i, p] == (c.real if part == 0 else -c.imag)


def test_decompose_keeps_the_traces_sign_of_zero():
    # Four -0.0 terms sum to -0.0, where the trace gives +0.0: this state
    # makes all four terms of I (x) sigma_y -0.0 (Im rho[1, 0] = Im rho[3, 2]
    # = -0.0 and Im rho[0, 1] = Im rho[2, 3] = +0.0 before validation).
    rho = np.eye(4, dtype=complex) / 4.0
    rho[1, 0] = rho[3, 2] = complex(0.0, -0.0)
    form = decompose(rho)
    x, y, t = _per_operator_bloch(qmat.validate_state(rho))
    assert not np.signbit(form.y).any()
    assert (form.x.tobytes(), form.y.tobytes(), form.T.tobytes()) == (
        x.tobytes(),
        y.tobytes(),
        t.tobytes(),
    )


def test_decompose_reads_any_memory_layout():
    rho = random_state(Lcg(37))
    expected = decompose(rho)
    for layout in (np.asfortranarray(rho), rho.T.T, np.ascontiguousarray(rho.T).T):
        form = decompose(layout)
        assert form.x.tobytes() == expected.x.tobytes()
        assert form.T.tobytes() == expected.T.tobytes()


def test_thermal_correlation_singular_values():
    p = IsoDMParams(j=1.5, d=0.7)
    form = decompose(thermal_isodm(p))
    mu, omega, _, nu, z = models._isodm_entries(p.j, p)
    expected = sorted([abs(nu) / z, abs(nu) / z, abs(omega - mu) / z])
    singular = sorted(np.linalg.svd(form.T, compute_uv=False))
    assert np.allclose(singular, expected, atol=1e-12)


def test_purity_identity():
    rng = Lcg(13)
    states = [random_state(rng) for _ in range(100)]
    states.append(thermal_isodm(IsoDMParams(j=-2.0, d=1.0)))
    states.append(bell_psi_plus())
    for rho in states:
        form = decompose(rho)
        purity = float(np.trace(rho @ rho).real)
        component_sum = (
            0.25
            + float(form.x @ form.x)
            + float(form.y @ form.y)
            + float(np.sum(form.T * form.T))
        )
        assert abs(purity - component_sum) <= 1e-10


def test_roundtrip_random_states():
    rng = Lcg(17)
    for _ in range(100):
        rho = random_state(rng)
        rebuilt, valid = reconstruct(decompose(rho))
        assert valid
        assert np.max(np.abs(rebuilt - rho)) <= 1e-12


def test_reconstruct_zero_form_is_maximally_mixed():
    matrix, valid = reconstruct(
        BlochForm(x=np.zeros(3), y=np.zeros(3), T=np.zeros((3, 3)))
    )
    assert valid
    assert np.allclose(matrix, np.eye(4) / 4.0, atol=1e-15)


def test_reconstruct_flags_unphysical_components():
    # Component-wise every entry is in range, but no physical state has
    # this correlation matrix: the reconstruction has a -1/2 eigenvalue.
    matrix, valid = reconstruct(
        BlochForm(x=np.zeros(3), y=np.zeros(3), T=np.diag([0.5, 0.5, 0.5]))
    )
    assert not valid
    assert np.linalg.eigvalsh(matrix).min() < -0.4


def test_marginals_match_bloch_vectors():
    rng = Lcg(19)
    for _ in range(50):
        rho = random_state(rng)
        form = decompose(rho)
        first = I2 / 2.0 + sum(form.x[i] * PAULIS[i] for i in range(3))
        second = I2 / 2.0 + sum(form.y[i] * PAULIS[i] for i in range(3))
        assert np.max(np.abs(partial_trace(rho, "B") - first)) <= 1e-12
        assert np.max(np.abs(partial_trace(rho, "A") - second)) <= 1e-12


def test_decompose_rejects_invalid_input():
    with pytest.raises(InvalidState):
        decompose(2.0 * bell_psi_plus())
