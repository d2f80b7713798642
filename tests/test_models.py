"""Unit tests for the thermal spin models and their closed-form measures."""

import math

import numpy as np
import pytest

from spincorr import qmat
from spincorr.bloch import decompose
from spincorr.errors import ClosedFormMismatch, NoSignChange, NonFiniteParameter
from spincorr.models import (
    IsoDMParams,
    XXZParams,
    _cross_checked_report,
    critical_coupling_isodm,
    critical_coupling_xxz,
    hamiltonian_isodm,
    hamiltonian_xxz,
    measures_isodm,
    measures_xxz,
    thermal_isodm,
    thermal_xxz,
)

LN3_HALF = math.log(3.0) / 2.0


def test_hamiltonian_isodm_spectra():
    eig = np.linalg.eigvalsh(hamiltonian_isodm(IsoDMParams(j=1.0, d=0.0)))
    assert np.allclose(eig, [-1.5, 0.5, 0.5, 0.5], atol=1e-12)
    eig = np.linalg.eigvalsh(hamiltonian_isodm(IsoDMParams(j=1.0, d=1.0)))
    expected = [-0.5 - math.sqrt(2.0), 0.5, 0.5, -0.5 + math.sqrt(2.0)]
    assert np.allclose(eig, expected, atol=1e-12)
    assert np.max(np.abs(hamiltonian_isodm(IsoDMParams(j=0.0, d=0.0)))) == 0.0


def test_hamiltonian_xxz_spectra():
    eig = np.linalg.eigvalsh(hamiltonian_xxz(XXZParams(j=1.0, delta=0.0, b=1.0)))
    assert np.allclose(eig, [-1.5, -0.5, 0.5, 1.5], atol=1e-12)
    eig = np.linalg.eigvalsh(hamiltonian_xxz(XXZParams(j=0.0, delta=1.0, b=2.0)))
    assert np.allclose(eig, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_hamiltonian_reduction_at_zero_anisotropy_and_field():
    for j in (-2.0, -0.5, 0.0, 1.0, 3.0):
        a = hamiltonian_xxz(XXZParams(j=j, delta=0.0, b=0.0))
        b = hamiltonian_isodm(IsoDMParams(j=j, d=0.0))
        assert np.array_equal(a, b)


def test_thermal_isodm_entries_and_structure():
    state = thermal_isodm(IsoDMParams(j=1.0, d=0.0))
    e = state.entries
    assert e["mu"] == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert e["omega"] == pytest.approx(math.exp(0.5) * math.cosh(1.0), abs=1e-14)
    assert abs(e["nu"]) == pytest.approx(1.9375792053127168, abs=1e-13)
    assert e["nu"].real < 0.0 and e["nu"].imag == 0.0
    assert e["Z"] == pytest.approx(6.301281049475971, abs=1e-13)
    # Z is the trace of the unnormalized matrix: 2 (mu + omega).
    assert e["Z"] == pytest.approx(2.0 * (e["mu"] + e["omega"]), abs=1e-15)

    m = state.matrix
    assert abs(np.trace(m).real - 1.0) <= 1e-15
    for row, col in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (1, 0), (3, 2)):
        assert m[row, col] == 0.0  # X pattern is structurally exact
    assert m[1, 2] == np.conj(m[2, 1])


def test_thermal_isodm_identity_at_zero_coupling():
    m = thermal_isodm(IsoDMParams(j=0.0, d=0.0)).matrix
    assert np.array_equal(m, np.eye(4, dtype=complex) / 4.0)


def test_thermal_xxz_entries_and_structure():
    state = thermal_xxz(XXZParams(j=1.0, delta=0.0, b=1.0))
    e = state.entries
    assert e["delta_plus"] == pytest.approx(math.exp(-1.5), abs=1e-15)
    assert e["delta_minus"] == pytest.approx(math.exp(0.5), abs=1e-15)
    assert e["epsilon"] == pytest.approx(math.exp(0.5) * math.cosh(1.0), abs=1e-14)
    assert e["kappa"] == pytest.approx(-1.9375792053127168, abs=1e-13)
    # Z is the trace of the unnormalized matrix, not 2(delta_plus+delta_minus).
    assert e["Z"] == pytest.approx(
        e["delta_plus"] + e["delta_minus"] + 2.0 * e["epsilon"], abs=1e-15
    )
    assert e["Z"] == pytest.approx(6.960071160899262, abs=1e-13)
    assert np.max(np.abs(state.matrix.imag)) == 0.0


def test_thermal_states_match_gibbs_over_grid():
    for j in np.linspace(-5.0, 5.0, 101):
        j = float(j)
        for d in (0.0, 1.0, 2.0):
            closed = thermal_isodm(IsoDMParams(j=j, d=d)).matrix
            reference = qmat.gibbs(hamiltonian_isodm(IsoDMParams(j=j, d=d)), 1.0)
            assert math.sqrt(qmat.hs_norm2(closed - reference)) <= 1e-10
        for delta in (-2.0, -1.0, 0.0, 1.0):
            for b in (0.0, 1.0, 2.0):
                p = XXZParams(j=j, delta=delta, b=b)
                closed = thermal_xxz(p).matrix
                reference = qmat.gibbs(hamiltonian_xxz(p), 1.0)
                assert math.sqrt(qmat.hs_norm2(closed - reference)) <= 1e-10


def test_thermal_isodm_series_branch_near_zero_coupling():
    p = IsoDMParams(j=1e-7, d=1e-7)
    closed = thermal_isodm(p).matrix
    reference = qmat.gibbs(hamiltonian_isodm(p), 1.0)
    assert math.sqrt(qmat.hs_norm2(closed - reference)) <= 1e-10


def test_isodm_marginals_are_maximally_mixed():
    form = decompose(thermal_isodm(IsoDMParams(j=1.3, d=0.8)).matrix)
    assert np.max(np.abs(form.x)) <= 1e-15
    assert np.max(np.abs(form.y)) <= 1e-15


def test_xxz_marginal_vector():
    state = thermal_xxz(XXZParams(j=1.2, delta=0.5, b=0.9))
    form = decompose(state.matrix)
    e = state.entries
    expected_z = (e["delta_plus"] - e["delta_minus"]) / (2.0 * e["Z"])
    assert form.x[0] == 0.0 and form.x[1] == 0.0
    assert abs(form.x[2] - expected_z) <= 1e-15
    assert np.allclose(form.x, form.y, atol=1e-15)


def test_measures_isodm_reference_point():
    rep = measures_isodm(IsoDMParams(j=1.0, d=0.0))
    assert abs(rep.c_closed - 0.42246918845518766) <= 1e-13
    assert abs(rep.n_closed - 0.18909986747759386) <= 1e-13
    assert abs(rep.q_paper - 0.09454993373879693) <= 1e-13
    assert rep.c_deviation <= 1e-10
    assert rep.n_deviation <= 1e-12
    assert rep.q_deviation <= 1e-12


def test_measures_isodm_nonlocality_exact_on_grid():
    for j in np.linspace(-5.0, 5.0, 21):
        for d in (0.0, 1.0, 2.0):
            rep = measures_isodm(IsoDMParams(j=float(j), d=d))
            assert rep.n_deviation <= 1e-12
            assert rep.c_deviation <= 1e-10


def test_measures_xxz_validity_domain():
    # Field on, or anisotropy in [-2, 0]: N = 2 kappa^2/Z^2 is exact.
    for p in (
        XXZParams(j=1.0, delta=0.0, b=1.0),
        XXZParams(j=-3.0, delta=1.0, b=1.0),
        XXZParams(j=2.0, delta=-2.0, b=0.0),
        XXZParams(j=1.7, delta=-1.0, b=0.0),
        XXZParams(j=-4.0, delta=0.0, b=0.0),
    ):
        rep = measures_xxz(p)
        assert rep.n_deviation <= 1e-12

    # Zero field with anisotropy above zero: the z-z correlation dominates,
    # so N = (kappa/Z)^2 + t3^2 and 2 kappa^2/Z^2 falls short of it.
    gaps = {}
    for j in (-5.0, -1.0):
        p = XXZParams(j=j, delta=1.0, b=0.0)
        rep = measures_xxz(p)
        assert abs(rep.n_closed - rep.pipeline.min_value) <= 1e-12
        e = thermal_xxz(p).entries
        gaps[j] = rep.n_closed - 2.0 * e["kappa"] ** 2 / e["Z"] ** 2
    assert gaps[-5.0] == pytest.approx(0.24665064314347485, abs=1e-9)
    assert gaps[-1.0] > 1e-3


def test_xxz_concurrence_always_cross_checks():
    for j in np.linspace(-5.0, 5.0, 21):
        rep = measures_xxz(XXZParams(j=float(j), delta=1.0, b=0.0))
        assert rep.c_deviation <= 1e-10


def test_lower_bound_is_half_nonlocality_at_isotropy():
    for j in np.linspace(-5.0, 5.0, 41):
        rep = measures_isodm(IsoDMParams(j=float(j), d=0.0))
        assert rep.q_deviation <= 1e-12
        rep = measures_xxz(XXZParams(j=float(j), delta=0.0, b=0.0))
        assert rep.q_deviation <= 1e-12


def test_lower_bound_gap_at_reference_field_point():
    rep = measures_xxz(XXZParams(j=1.0, delta=0.0, b=1.0))
    assert rep.q_deviation == pytest.approx(0.009081256892853218, abs=1e-9)


def test_field_sign_symmetry():
    for j in np.linspace(-5.0, 5.0, 11):
        for delta in (-2.0, -1.0, 0.0, 1.0):
            for b in (1.0, 2.0, 5.0):
                plus = measures_xxz(XXZParams(j=float(j), delta=delta, b=b))
                minus = measures_xxz(XXZParams(j=float(j), delta=delta, b=-b))
                assert plus.c_closed == minus.c_closed
                assert plus.n_closed == minus.n_closed
                assert abs(plus.pipeline.min_value - minus.pipeline.min_value) <= 1e-13
                assert abs(plus.pipeline.gmod_exact - minus.pipeline.gmod_exact) <= 1e-13
                assert abs(plus.pipeline.gmod_lower - minus.pipeline.gmod_lower) <= 1e-13


def test_field_suppresses_correlations():
    values = [
        measures_xxz(XXZParams(j=2.0, delta=0.0, b=0.5 * k)) for k in range(9)
    ]
    for prev, cur in zip(values, values[1:]):
        assert cur.c_closed <= prev.c_closed + 1e-15
        assert cur.n_closed <= prev.n_closed + 1e-15


def test_xxz_reduces_to_isodm_without_anisotropy_and_field():
    for j in np.linspace(-5.0, 5.0, 21):
        a = measures_xxz(XXZParams(j=float(j), delta=0.0, b=0.0))
        b = measures_isodm(IsoDMParams(j=float(j), d=0.0))
        assert abs(a.c_closed - b.c_closed) <= 1e-12
        assert abs(a.n_closed - b.n_closed) <= 1e-12
        assert abs(a.q_paper - b.q_paper) <= 1e-12
        assert abs(a.pipeline.min_value - b.pipeline.min_value) <= 1e-12
        assert abs(a.pipeline.gmod_exact - b.pipeline.gmod_exact) <= 1e-12
        assert abs(a.pipeline.gmod_lower - b.pipeline.gmod_lower) <= 1e-12


def test_critical_isodm_reference_values():
    assert abs(critical_coupling_isodm(0.0) - LN3_HALF) <= 2e-9
    assert abs(critical_coupling_isodm(1.0) - (-0.183190713946)) <= 5e-9
    assert abs(critical_coupling_isodm(2.0) - (-2.5314736976713)) <= 5e-9
    assert abs(critical_coupling_isodm(3.0) - (-6.14554276617)) <= 5e-9


def test_critical_isodm_decreases_with_antisymmetric_coupling():
    roots = [critical_coupling_isodm(d) for d in (0.0, 1.0, 2.0, 3.0)]
    for prev, cur in zip(roots, roots[1:]):
        assert cur < prev


def test_critical_isodm_switches_concurrence():
    for d in (0.0, 2.0):
        j_c = critical_coupling_isodm(d)
        assert measures_isodm(IsoDMParams(j=j_c + 0.01, d=d)).c_closed > 0.0
        assert measures_isodm(IsoDMParams(j=j_c - 0.01, d=d)).c_closed == 0.0


def test_critical_isodm_no_bracket_at_large_coupling():
    with pytest.raises(NoSignChange):
        critical_coupling_isodm(10.0)


def test_critical_isodm_stable_under_scan_refinement():
    roots = [critical_coupling_isodm(2.0, scan_points=n) for n in (2001, 4001, 5003)]
    for a in roots:
        for b in roots:
            assert abs(a - b) <= 1e-6


def test_critical_xxz_reference_values():
    assert abs(critical_coupling_xxz(0.0, 0.0) - LN3_HALF) <= 2e-9
    assert abs(critical_coupling_xxz(-2.0, 0.0) - (-LN3_HALF)) <= 2e-9
    assert abs(critical_coupling_xxz(-1.0, 0.0) - (-math.log(1.0 + math.sqrt(2.0)))) <= 2e-9


def test_critical_xxz_threshold_is_field_independent():
    # The field scales both sides of the threshold condition equally, so
    # the root cannot move with b.
    reference = critical_coupling_xxz(0.0, 0.0)
    for b in (0.5, 2.0, 5.0):
        assert abs(critical_coupling_xxz(0.0, b) - reference) <= 1e-9


def test_critical_xxz_switches_concurrence_below_threshold():
    j_c = critical_coupling_xxz(-2.0, 0.0)
    assert measures_xxz(XXZParams(j=j_c - 0.01, delta=-2.0, b=0.0)).c_closed > 0.0
    assert measures_xxz(XXZParams(j=j_c + 0.01, delta=-2.0, b=0.0)).c_closed == 0.0


@pytest.mark.parametrize(
    "value, accepted",
    [
        (np.int64(1), True),
        (np.float32(1.0), True),
        (True, False),
        (math.nan, False),
        (math.inf, False),
    ],
)
def test_parameters_must_be_finite_reals(value, accepted):
    if accepted:
        p = XXZParams(j=value, delta=value, b=value)
        assert (p.j, p.delta, p.b) == (1.0, 1.0, 1.0)
        assert all(type(v) is float for v in (p.j, p.delta, p.b))
        assert IsoDMParams(j=1.0, d=value).d == 1.0
        assert critical_coupling_isodm(value) == critical_coupling_isodm(1.0)
        assert critical_coupling_xxz(value, value) == critical_coupling_xxz(1.0, 1.0)
        return
    with pytest.raises(NonFiniteParameter):
        IsoDMParams(j=value)
    with pytest.raises(NonFiniteParameter):
        XXZParams(j=1.0, b=value)
    with pytest.raises(NonFiniteParameter):
        critical_coupling_isodm(value)
    with pytest.raises(NonFiniteParameter):
        critical_coupling_xxz(value, 0.0)


def test_xxz_branch_follows_the_pipeline_at_the_marginal_cutoff():
    """Near |x| = 1e-9 the marginal from the entries and the one from the
    Bloch decomposition round differently; the cross-check must use the
    pipeline's branch on both sides, so no valid point raises."""
    b = 2.243189458650676e-05
    for _ in range(400):
        b = math.nextafter(b, -math.inf)
    split = 0
    for _ in range(800):
        p = XXZParams(j=2.0, delta=3.0, b=b)
        rep = measures_xxz(p)
        assert rep.n_deviation <= 1e-12
        e = thermal_xxz(p).entries
        x_z = (e["delta_plus"] - e["delta_minus"]) / (2.0 * e["Z"])
        split += (abs(x_z) > 1e-9) != (rep.pipeline.branch == "XNonzero")
        b = math.nextafter(b, math.inf)
    assert split > 0


def test_parameters_must_be_finite():
    with pytest.raises(NonFiniteParameter):
        IsoDMParams(j=math.nan)
    with pytest.raises(NonFiniteParameter):
        XXZParams(j=1.0, delta=math.inf)
    with pytest.raises(NonFiniteParameter):
        critical_coupling_isodm(math.nan)
    with pytest.raises(NonFiniteParameter):
        critical_coupling_xxz(0.0, math.inf)


def test_cross_check_guard_trips_on_wrong_closed_form():
    state = thermal_isodm(IsoDMParams(j=1.0, d=0.0))
    true_rep = measures_isodm(IsoDMParams(j=1.0, d=0.0))
    n = true_rep.n_closed
    with pytest.raises(ClosedFormMismatch):
        _cross_checked_report(0.5, n, n, state.matrix, "test")
    # A wrong nonlocality raises as well: no closed form is exempt.
    with pytest.raises(ClosedFormMismatch):
        _cross_checked_report(true_rep.c_closed, 0.9, 0.9, state.matrix, "test")
    # isodm marginals are maximally mixed, so the XZero value is the one checked.
    with pytest.raises(ClosedFormMismatch):
        _cross_checked_report(true_rep.c_closed, n, 0.9, state.matrix, "test")
    rep = _cross_checked_report(true_rep.c_closed, 0.9, n, state.matrix, "test")
    assert rep.n_closed == n
    rep = _cross_checked_report(true_rep.c_closed, n, n, state.matrix, "test")
    assert rep.q_paper == pytest.approx(true_rep.n_closed / 2.0, abs=1e-15)
