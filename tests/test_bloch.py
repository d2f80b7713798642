"""Unit tests for the Bloch/Fano decomposition layer."""

import numpy as np
import pytest

from spincorr import qmat
from spincorr.bloch import BlochForm, decompose
from spincorr.errors import InvalidState
from spincorr.models import IsoDMParams, XXZParams, thermal_isodm, thermal_xxz
from spincorr.rng import Lcg, random_state

from helpers import bell_psi_plus, ground_product_state, random_product_state
from reference import partial_trace, reconstruct


def test_decompose_maximally_mixed_is_all_zero():
    form = decompose(np.eye(4, dtype=complex) / 4.0)
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
    eye = np.eye(2, dtype=complex)
    paulis = [
        np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
        np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
        np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    ]
    x = np.array([np.trace(rho @ np.kron(s, eye)).real / 2.0 for s in paulis])
    y = np.array([np.trace(rho @ np.kron(eye, s)).real / 2.0 for s in paulis])
    t = np.array(
        [[np.trace(rho @ np.kron(si, sj)).real / 2.0 for sj in paulis] for si in paulis]
    )
    return x, y, t


def test_decompose_matches_per_operator_trace_bit_for_bit():
    # decompose takes all 15 traces in one stacked product. That keeps every
    # bit of the per-operator traces only while numpy sums a stacked trace
    # and multiplies a stacked @ the way it does one matrix; a numpy or BLAS
    # change that breaks it must fail here, not move output bytes.
    rng = Lcg(29)
    states = [random_state(rng) for _ in range(1000)]
    states += [random_product_state(rng) for _ in range(50)]
    for j in np.linspace(-20.0, 20.0, 201):
        states.append(thermal_isodm(IsoDMParams(j=float(j), d=1.5)).matrix)
        states.append(thermal_xxz(XXZParams(j=float(j), delta=0.5, b=1.0)).matrix)
    states += [np.eye(4, dtype=complex) / 4.0, bell_psi_plus(), ground_product_state()]
    for rho in states:
        form = decompose(rho)
        x, y, t = _per_operator_bloch(rho)
        assert form.x.tobytes() == x.tobytes()
        assert form.y.tobytes() == y.tobytes()
        assert form.T.tobytes() == t.tobytes()


def test_thermal_correlation_singular_values():
    state = thermal_isodm(IsoDMParams(j=1.5, d=0.7))
    form = decompose(state.matrix)
    e = state.entries
    expected = sorted(
        [
            abs(e["nu"]) / e["Z"],
            abs(e["nu"]) / e["Z"],
            abs(e["omega"] - e["mu"]) / e["Z"],
        ]
    )
    singular = sorted(np.linalg.svd(form.T, compute_uv=False))
    assert np.allclose(singular, expected, atol=1e-12)


def test_purity_identity():
    rng = Lcg(13)
    states = [random_state(rng) for _ in range(100)]
    states.append(thermal_isodm(IsoDMParams(j=-2.0, d=1.0)).matrix)
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
        first = qmat.I2 / 2.0 + sum(
            form.x[i] * qmat.PAULIS[i] for i in range(3)
        )
        second = qmat.I2 / 2.0 + sum(
            form.y[i] * qmat.PAULIS[i] for i in range(3)
        )
        assert np.max(np.abs(partial_trace(rho, "B") - first)) <= 1e-12
        assert np.max(np.abs(partial_trace(rho, "A") - second)) <= 1e-12


def test_decompose_rejects_invalid_input():
    with pytest.raises(InvalidState):
        decompose(2.0 * bell_psi_plus())
