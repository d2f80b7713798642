"""Unit tests for the thermal spin models and their closed-form measures."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from spincorr import models
from spincorr.bloch import decompose
from spincorr.errors import ClosedFormMismatch, NoSignChange, NonFiniteParameter
from spincorr.models import (
    IsoDMParams,
    XXZParams,
    _x_report,
    critical_coupling_isodm,
    critical_coupling_xxz,
    measures_isodm,
    measures_xxz,
    thermal_isodm,
    thermal_xxz,
)

from reference import dense_first_root, gibbs, hamiltonian_isodm, hamiltonian_xxz, hs_norm2

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
    p = IsoDMParams(j=1.0, d=0.0)
    mu, omega, _, nu, z = models._isodm_entries(p.j, p)
    assert mu == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert omega == pytest.approx(math.exp(0.5) * math.cosh(1.0), abs=1e-14)
    assert abs(nu) == pytest.approx(1.9375792053127168, abs=1e-13)
    assert nu.real < 0.0 and nu.imag == 0.0
    assert z == pytest.approx(6.301281049475971, abs=1e-13)
    # Z is the trace of the unnormalized matrix: 2 (mu + omega).
    assert z == pytest.approx(2.0 * (mu + omega), abs=1e-15)

    m = thermal_isodm(p)
    assert abs(np.trace(m).real - 1.0) <= 1e-15
    for row, col in ((0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (1, 0), (3, 2)):
        assert m[row, col] == 0.0  # X pattern is structurally exact
    assert m[1, 2] == np.conj(m[2, 1])


def test_thermal_isodm_identity_at_zero_coupling():
    m = thermal_isodm(IsoDMParams(j=0.0, d=0.0))
    assert np.array_equal(m, np.eye(4, dtype=complex) / 4.0)


def test_thermal_xxz_entries_and_structure():
    p = XXZParams(j=1.0, delta=0.0, b=1.0)
    delta_plus, epsilon, delta_minus, kappa, z = models._xxz_entries(p.j, p)
    assert delta_plus == pytest.approx(math.exp(-1.5), abs=1e-15)
    assert delta_minus == pytest.approx(math.exp(0.5), abs=1e-15)
    assert epsilon == pytest.approx(math.exp(0.5) * math.cosh(1.0), abs=1e-14)
    assert kappa == pytest.approx(-1.9375792053127168, abs=1e-13)
    # Z is the trace of the unnormalized matrix, not 2(delta_plus+delta_minus).
    assert z == pytest.approx(delta_plus + delta_minus + 2.0 * epsilon, abs=1e-15)
    assert z == pytest.approx(6.960071160899262, abs=1e-13)
    assert np.max(np.abs(thermal_xxz(p).imag)) == 0.0


def test_thermal_states_match_gibbs_over_grid():
    for j in np.linspace(-5.0, 5.0, 101):
        j = float(j)
        for d in (0.0, 1.0, 2.0):
            closed = thermal_isodm(IsoDMParams(j=j, d=d))
            reference = gibbs(hamiltonian_isodm(IsoDMParams(j=j, d=d)), 1.0)
            assert math.sqrt(hs_norm2(closed - reference)) <= 1e-10
        for delta in (-2.0, -1.0, 0.0, 1.0):
            for b in (0.0, 1.0, 2.0):
                p = XXZParams(j=j, delta=delta, b=b)
                closed = thermal_xxz(p)
                reference = gibbs(hamiltonian_xxz(p), 1.0)
                assert math.sqrt(hs_norm2(closed - reference)) <= 1e-10


def test_thermal_isodm_series_branch_near_zero_coupling():
    p = IsoDMParams(j=1e-7, d=1e-7)
    closed = thermal_isodm(p)
    reference = gibbs(hamiltonian_isodm(p), 1.0)
    assert math.sqrt(hs_norm2(closed - reference)) <= 1e-10


def test_sinhc_switches_to_its_series_at_1e_minus_6():
    # The two forms differ in the last bit for about a quarter of these x,
    # so a switch moved tenfold either way fails.
    rng = np.random.default_rng(1604)
    below = rng.uniform(0.0, 1e-6, 1000).tolist()
    above = (10.0 ** rng.uniform(-6.0, -4.0, 1000)).tolist()
    assert [models._sinhc(x) for x in below] == [1.0 + x * x / 6.0 for x in below]
    assert [models._sinhc(x) for x in above] == [math.sinh(x) / x for x in above]


def test_isodm_marginals_are_maximally_mixed():
    form = decompose(thermal_isodm(IsoDMParams(j=1.3, d=0.8)))
    assert np.max(np.abs(form.x)) <= 1e-15
    assert np.max(np.abs(form.y)) <= 1e-15


def test_xxz_marginal_vector():
    p = XXZParams(j=1.2, delta=0.5, b=0.9)
    form = decompose(thermal_xxz(p))
    dp, _, dm, _, z = models._xxz_entries(p.j, p)
    expected_z = (dp - dm) / (2.0 * z)
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
        _, _, _, kappa, z = models._xxz_entries(p.j, p)
        gaps[j] = rep.n_closed - 2.0 * kappa**2 / z**2
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


def test_critical_isodm_stable_under_scan_refinement(monkeypatch):
    roots = []
    for n in (2001, 4001, 5003):
        monkeypatch.setattr(models, "SCAN_POINTS", n)
        roots.append(critical_coupling_isodm(2.0))
    for a in roots:
        for b in roots:
            assert abs(a - b) <= 1e-6


@pytest.mark.parametrize("points", [2001, 4001, 10001])
def test_scan_grid_is_linspace_bit_for_bit(points):
    # Grid steps 0.05 down to 0.01: the range the critical docstrings' proofs cover.
    grid = models._scan_grid(-50.0, 50.0, points)
    expected = np.linspace(-50.0, 50.0, points).tolist()
    assert list(map(float.hex, grid)) == list(map(float.hex, expected))


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


def test_critical_scan_stops_at_the_first_bracket(monkeypatch):
    # At delta = -3 a field of |b| = 700 overflows exp only for j near 10,
    # far above the root near -0.42; a search that stops at the first bracket
    # never gets there and finds the field-free root bit for bit.
    reference = critical_coupling_xxz(-3.0, 0.0)
    for b in (700.0, 705.0, -700.0):
        assert critical_coupling_xxz(-3.0, b).hex() == reference.hex()
    seen = []
    entries = models._xxz_entries
    monkeypatch.setattr(models, "_xxz_entries", lambda j, p: seen.append(j) or entries(j, p))
    assert critical_coupling_xxz(-3.0, 0.0) == reference
    # The root lies in the j <= 0 piece, which ends at j = 0: nothing past
    # it is evaluated. 38 = j = -50, the piece end, 10 binary-search probes
    # over the piece's 1000 grid steps and 26 bisection halvings of 0.05
    # down to 1e-9; the dense scan took 1019.
    assert max(seen) <= 0.0
    assert len(seen) == 38


def _scan_with_gap(monkeypatch, gap, walk_to):
    """``_first_root`` over the real scan grid with the gap replaced by
    ``gap(j)``: the entries of j are j itself."""
    monkeypatch.setattr(models, "_x_gap", gap)
    return models._first_root("test", lambda j, p: j, IsoDMParams(0.0, 0.0), walk_to)


@pytest.mark.parametrize("walk_to", [-math.inf, 0.0, math.inf])
def test_critical_scan_exact_zero_exits(monkeypatch, walk_to):
    # Every exit lies at j >= 5 or at the first point, so walk_to = inf
    # reaches it point by point and the other two through a searched piece.
    xs = np.linspace(models.SCAN_RANGE[0], models.SCAN_RANGE[1], models.SCAN_POINTS).tolist()
    assert (xs[1100], xs[1101], xs[1300]) == (5.0, 5.050000000000004, 15.0)
    # Zero at the first scan point: that point.
    assert _scan_with_gap(monkeypatch, lambda j: 0.0, walk_to).hex() == "-0x1.9000000000000p+5"
    # Zero at a later grid point reached from above: that point, no bisection.
    from_above = _scan_with_gap(monkeypatch, lambda j: max(xs[1300] - j, 0.0), walk_to)
    assert from_above.hex() == "0x1.e000000000000p+3"
    # Zero at the first bisection midpoint of a bracket: that midpoint.
    mid = (xs[1100] + xs[1101]) / 2.0
    at_mid = _scan_with_gap(monkeypatch, lambda j: j - mid, walk_to)
    assert at_mid.hex() == "0x1.419999999999cp+2"
    # Zero at a grid point reached from below brackets it from the left, so
    # the bisection ends within BISECT_WIDTH of the point, not at it.
    from_below = _scan_with_gap(monkeypatch, lambda j: j - xs[1300], walk_to)
    assert from_below.hex() == "0x1.dfffffffccccdp+3"
    assert 0.0 < xs[1300] - from_below <= models.BISECT_WIDTH


def test_x_gap_reads_an_overflowing_coherence_as_inf():
    # abs() of this complex raises OverflowError although both parts are
    # finite; the gap reads it as +inf. Elsewhere it is abs() itself.
    with pytest.raises(OverflowError):
        abs(complex(1.5e308, 1.5e308))
    assert models._x_gap((1.0, 1.0, 1.0, complex(1.5e308, 1.5e308), 4.0)) == math.inf
    assert models._x_gap((1.0, 1.0, 1.0, complex(math.inf, 1.0), 4.0)) == math.inf
    assert models._x_gap((4.0, 1.0, 9.0, complex(3.0, 4.0), 15.0)) == -1.0


def test_critical_isodm_search_evaluation_counts(monkeypatch):
    seen = []
    entries = models._isodm_entries
    monkeypatch.setattr(models, "_isodm_entries", lambda j, p: seen.append(j) or entries(j, p))
    with pytest.raises(NoSignChange):
        critical_coupling_isodm(10.0)
    # 1,002 = j = -50, the 1,000 grid points up to j = 0 and the last point:
    # the sign stays + past j = 0. The dense scan took 2,001.
    assert len(seen) == 1002
    assert seen[-2:] == [0.0, 50.0]
    seen.clear()
    critical_coupling_isodm(2.0)
    # The root lies on j <= 0, where the search is the dense scan.
    assert len(seen) == 977
    assert max(seen) <= 0.0


def _outcome(find, *args):
    """The root's ``float.hex``, or the class and message of what it raised."""
    try:
        return find(*args).hex()
    except (NoSignChange, OverflowError) as exc:
        return type(exc), str(exc)


def _adjacent_floats_where(flips, lo, hi):
    """The two adjacent floats in [lo, hi] between which the truth of
    ``flips(x)`` changes."""
    left = flips(lo)
    while math.nextafter(lo, hi) != hi:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if flips(mid) == left else (lo, mid)
    assert flips(lo) != flips(hi)
    return [lo, hi]


def _gap_at_minus_50_flips(label, params, lo, hi):
    """The two adjacent floats in [lo, hi] between which the gap of
    ``params(0.0, x)`` at j = -50 changes sign."""
    entries = getattr(models, f"_{label}_entries")

    def gap(x):
        return models._x_gap(entries(-50.0, params(0.0, x)))

    pair = _adjacent_floats_where(lambda x: gap(x) > 0.0, lo, hi)
    assert gap(pair[0]) * gap(pair[1]) < 0.0
    return pair


def _isodm_at_minus_50_raises(d) -> bool:
    try:
        models._isodm_entries(-50.0, IsoDMParams(0.0, d))
    except OverflowError:
        return True
    return False


def _assert_search_matches_the_dense_scan(monkeypatch, label, params, inputs) -> dict:
    """``critical_coupling_<label>(*args)`` has the dense scan's root bits, or
    its exception class and message, for every ``args`` in ``inputs`` on
    grids of 2001, 4001 and 5003 points. Returns, for each ``args``, the
    set of outcome kinds seen over the three grids, the kind being "root"
    or the exception message without the parameters it names."""
    find = getattr(models, f"critical_coupling_{label}")
    entries = getattr(models, f"_{label}_entries")
    kinds = {args: set() for args in inputs}
    for n in (2001, 4001, 5003):
        monkeypatch.setattr(models, "SCAN_POINTS", n)
        for args in inputs:
            dense = _outcome(dense_first_root, label, entries, params(0.0, *args))
            assert _outcome(find, *args) == dense, (n, args)
            kinds[args].add("root" if isinstance(dense, str) else dense[1].rpartition(": ")[2])
    return kinds


def test_critical_xxz_search_matches_the_dense_scan(monkeypatch):
    # Fields in |b| in [709.5, 711] overflow an entry near the root on the
    # j <= 0 piece for delta < -1, so the binary search meets overflowing
    # points there and must stop at the dense scan's first stop.
    deltas = np.linspace(-5.0, 5.0, 21).tolist()
    deltas += _gap_at_minus_50_flips("xxz", XXZParams, -0.02, -0.01)
    window = [s * b for b in np.linspace(709.5, 711.0, 16).tolist() for s in (1.0, -1.0)]
    bs = [0.0, 1.0, -1.0, 10.0, -10.0, 700.0, -700.0, 705.0, -705.0, *window]
    assert -2.0 in deltas and 0.0 in deltas
    inputs = [(delta, b) for delta in deltas for b in bs]
    _assert_search_matches_the_dense_scan(monkeypatch, "xxz", XXZParams, inputs)


def test_critical_isodm_search_matches_the_dense_scan(monkeypatch):
    # d on a grid; 30 floats on each side of asinh(1), where the root
    # reaches j = 0; the pair near 8.3 where gap(-50) turns positive; and
    # |d| from 660 to 720 in steps of 5. From 683.65 on, abs(nu) raises on
    # finite parts in a window of j only about 0.005 wide, which the 0.05
    # steps in [685.8, 686.1] hit on every grid; the gap reads it as +inf.
    # An entry raises at j = -50 from the pair near 708.75 on.
    below, above = [math.asinh(1.0)], [math.asinh(1.0)]
    for _ in range(30):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 2.0))
    ds = np.linspace(-20.0, 20.0, 21).tolist() + below[1:] + above[1:]
    ds += _gap_at_minus_50_flips("isodm", IsoDMParams, 8.0, 9.0)
    ds += np.linspace(660.0, 720.0, 13).tolist() + [-683.65, -702.5]
    ds += np.linspace(685.8, 686.1, 7).tolist()
    ds += _adjacent_floats_where(_isodm_at_minus_50_raises, 708.0, 709.0)
    kinds = _assert_search_matches_the_dense_scan(
        monkeypatch, "isodm", IsoDMParams, [(d,) for d in ds]
    )
    # Each input has one outcome on every grid.
    assert all(len(seen) == 1 for seen in kinds.values()), kinds
    no_root = f"no sign change over j in [{models.SCAN_RANGE[0]:g}, {models.SCAN_RANGE[1]:g}]"
    assert set().union(*kinds.values()) == {"root", no_root, "math range error"}


def test_critical_xxz_switches_concurrence_below_threshold():
    j_c = critical_coupling_xxz(-2.0, 0.0)
    assert measures_xxz(XXZParams(j=j_c - 0.01, delta=-2.0, b=0.0)).c_closed > 0.0
    assert measures_xxz(XXZParams(j=j_c + 0.01, delta=-2.0, b=0.0)).c_closed == 0.0


class _FloatSubclass(float):
    """A float that is not exactly ``float``: it must be stored converted."""


@pytest.mark.parametrize(
    "value, accepted",
    [
        (np.int64(1), True),
        (np.float32(1.0), True),
        pytest.param(np.float64(1.0), True, id="float64"),
        pytest.param(_FloatSubclass(1.0), True, id="float-subclass"),
        (True, False),
        (math.nan, False),
        (math.inf, False),
        pytest.param(10**400, False, id="1e400"),
        pytest.param(-(10**400), False, id="-1e400"),
        pytest.param(Fraction(10**400, 3), False, id="Fraction(1e400,3)"),
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


def test_parameters_keep_an_exact_float_as_given():
    """An exact float is stored as the object passed, -0.0 with its sign;
    a numpy -0.0 is converted to a float and keeps its sign too."""
    p = XXZParams(j=-0.0, delta=-0.0, b=-0.0)
    assert [math.copysign(1.0, v) for v in (p.j, p.delta, p.b)] == [-1.0] * 3
    q = IsoDMParams(j=np.float64(-0.0), d=-0.0)
    assert type(q.j) is float and math.copysign(1.0, q.j) == math.copysign(1.0, q.d) == -1.0
    value = 0.1 + 0.2
    assert XXZParams(j=value, b=value).j is value


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
        dp, _, dm, _, z = models._xxz_entries(p.j, p)
        x_z = (dp - dm) / (2.0 * z)
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
    # Too large for a float and too long to repr (over 4300 digits).
    with pytest.raises(NonFiniteParameter, match="^b must be finite, got inf$"):
        XXZParams(j=1.0, b=10**5000)


def test_cross_check_guard_trips_on_wrong_closed_form(monkeypatch):
    p = IsoDMParams(j=1.0, d=0.0)
    e = models._isodm_entries(p.j, p)
    true_rep = measures_isodm(p)
    n = true_rep.n_closed
    # A wrong closed concurrence, C = (2/Z)(Z/4) = 0.5, raises.
    with monkeypatch.context() as m:
        m.setattr(models, "_x_gap", lambda entries: entries[4] / 4.0)
        with pytest.raises(ClosedFormMismatch, match="closed concurrence"):
            _x_report(e, n, n, "test")
    # A wrong nonlocality raises as well: no closed form is exempt.
    with pytest.raises(ClosedFormMismatch, match="closed nonlocality"):
        _x_report(e, 0.9, 0.9, "test")
    # isodm marginals are maximally mixed, so the XZero value is the one checked.
    with pytest.raises(ClosedFormMismatch, match="closed nonlocality"):
        _x_report(e, n, 0.9, "test")
    # The guard holds at 1e-10 from both sides: a closed C or N 2e-10 off
    # raises, one 5e-11 off does not. C = (2/Z) gap moves with the gap.
    gap = models._x_gap
    for off in (2e-10, -2e-10, 5e-11, -5e-11):
        shifted = (
            ("concurrence", lambda entries: gap(entries) + entries[4] * off / 2.0, n),
            ("nonlocality", gap, n + off),
        )
        for what, shifted_gap, n_closed in shifted:
            with monkeypatch.context() as m:
                m.setattr(models, "_x_gap", shifted_gap)
                if abs(off) > 1e-10:
                    with pytest.raises(ClosedFormMismatch, match=f"closed {what}"):
                        _x_report(e, n_closed, n_closed, "test")
                else:
                    rep = _x_report(e, n_closed, n_closed, "test")
                    assert max(rep.c_deviation, rep.n_deviation) == pytest.approx(5e-11, rel=1e-4)
    rep = _x_report(e, 0.9, n, "test")
    assert rep.n_closed == n
    rep = _x_report(e, n, n, "test")
    assert rep == true_rep
    assert rep.q_paper == pytest.approx(true_rep.n_closed / 2.0, abs=1e-15)


# float.hex of every ModelReport field (c_closed, n_closed, q_paper, the
# three deviations, then the pipeline's concurrence, min_value, gmod_exact
# and gmod_lower) and its branch, of the closed-form entries in X-state
# order (rho00, rho11, rho33, rho12, Z), and the sha256 of the thermal
# matrix's bytes. Points: isodm at d = 0 where |mu - omega| and |nu| are
# equal floats (j = 0.7, 2.5), zero coupling, the series branch of
# sinh(x)/x, xxz at zero field on both sides of delta = 0, and the
# marginal-cutoff field of the test above.
MODEL_PINS = {
    ("isodm", 1.0, 0.0): (
        (
            "0x1.b09bc34fee46cp-2", "0x1.8346ca93f41efp-3", "0x1.8346ca93f41efp-4",
            "0x1.0000000000000p-53", "0x1.0000000000000p-55", "0x1.0000000000000p-56",
            "0x1.b09bc34fee46ep-2", "0x1.8346ca93f41f0p-3", "0x1.8346ca93f41efp-4",
            "0x1.8346ca93f41f0p-4", "XZero",
        ),
        (
            "0x1.368b2fc6f960ap-1", "0x1.45a5645ddb803p+1", "0x1.368b2fc6f960ap-1",
            ("-0x1.f00530d83a500p+0", "-0x0.0p+0"), "0x1.9348304f99d86p+2",
        ),
        "e39876f3daaf876bfb3f484d593ab05cf538b1e66defa55fe907b5a36e7a9adb",
    ),
    ("isodm", 0.7, 0.0): (
        (
            "0x1.324e50eab48a8p-3", "0x1.800d6f98acb25p-4", "0x1.800d6f98acb25p-5",
            "0x1.0000000000000p-54", "0x1.0000000000000p-56", "0x1.8000000000000p-56",
            "0x1.324e50eab48a6p-3", "0x1.800d6f98acb26p-4", "0x1.800d6f98acb24p-5",
            "0x1.800d6f98acb22p-5", "XZero",
        ),
        (
            "0x1.68cce09671f71p-1", "0x1.c7fabb2d57424p+0", "0x1.68cce09671f71p-1",
            ("-0x1.13944ae21e46cp+0", "-0x0.0p+0"), "0x1.3e3095bc481eep+2",
        ),
        "2f3b68c2d4e76abc119c33e114be2aaf01ae5f2894c66f6a99756a13798a1921",
    ),
    ("isodm", 2.5, 0.0): (
        (
            "0x1.ebb60d7049dc0p-1", "0x1.e54e3632c288dp-2", "0x1.e54e3632c288dp-3",
            "0x1.8000000000000p-52", "0x1.0000000000000p-54", "0x0.0p+0",
            "0x1.ebb60d7049dbdp-1", "0x1.e54e3632c288ep-2", "0x1.e54e3632c288ep-3",
            "0x1.e54e3632c288dp-3", "XZero",
        ),
        (
            "0x1.25618372a584fp-2", "0x1.5675f0110bb97p+4", "0x1.25618372a584fp-2",
            ("-0x1.51e06a0341236p+4", "-0x0.0p+0"), "0x1.5b0b761ed64f8p+5",
        ),
        "cecce04d44fa3319054b7f05e3c9906f8cb766bc139bf90996decae612f0da8d",
    ),
    ("isodm", 0.0, 0.0): (
        (
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "XZero",
        ),
        (
            "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
            ("0x0.0p+0", "0x0.0p+0"), "0x1.0000000000000p+2",
        ),
        "6304437c75ddd80d1ffa4f80c236ed263f8f54164d8c029d76bfeaa7693ef01d",
    ),
    ("isodm", -1.5, 2.0): (
        (
            "0x1.2ea65fef5f3d3p-3", "0x1.4cb9401a3f192p-3", "0x1.4cb9401a3f192p-4",
            "0x1.8000000000000p-53", "0x1.0000000000000p-55", "0x1.9a9cc2585c031p-5",
            "0x1.2ea65fef5f3d9p-3", "0x1.4cb9401a3f191p-3", "0x1.657cee72392ffp-5",
            "0x1.fdab7bb8445e6p-6", "XZero",
        ),
        (
            "0x1.0ef9db467dcf8p+1", "0x1.72c6afd65efdep+1", "0x1.0ef9db467dcf8p+1",
            ("0x1.b6f9c2a61b1f0p+0", "-0x1.24a681c41214bp+1"), "0x1.40e0458e6e66bp+3",
        ),
        "79f44a5f33b7986d14073d0ceab67c7e91bdeaa9038a9992a8edabf8f62739da",
    ),
    ("isodm", 1e-07, 1e-07): (
        (
            "0x0.0p+0", "0x1.6849bac6893aap-49", "0x1.6849bac6893aap-50",
            "0x0.0p+0", "0x1.0000000000000p-101", "0x1.e0624b41dec0ep-52",
            "0x0.0p+0", "0x1.6849bac6893a9p-49", "0x1.0e374caa2f768p-50",
            "0x1.e0624fec2314dp-51", "XZero",
        ),
        (
            "0x1.fffffe5280d71p-1", "0x1.000000d6bf980p+0", "0x1.fffffe5280d71p-1",
            ("-0x1.ad7f2b1414af1p-24", "-0x1.ad7f2b1414af1p-24"), "0x1.000000000001cp+2",
        ),
        "3d3b0505ffa5433410d94fe024f4f4c72bd22505dcbe09868f296fdd75c70882",
    ),
    ("xxz", 0.0, 1.0, 3.0): (
        (
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
            "0x0.0p+0", "XNonzero",
        ),
        (
            "0x1.97db0ccceb0afp-5", "0x1.0000000000000p+0", "0x1.415e5bf6fb106p+4",
            "-0x0.0p+0", "0x1.622a497d6185ep+4",
        ),
        "98363c9f6975a6308ff17f5d7b156f5957cd27080dd6a24f971bfd00bdc88a38",
    ),
    ("xxz", -5.0, 1.0, 0.0): (
        (
            "0x0.0p+0", "0x1.f926ed710be48p-3", "0x1.f926ed710be48p-4",
            "0x0.0p+0", "0x0.0p+0", "0x1.f923f8eeb56f4p-4",
            "0x0.0p+0", "0x1.f926ed710be48p-3", "0x1.7a412b3aa0000p-19",
            "0x1.7a412b3aa0000p-19", "XZero",
        ),
        (
            "0x1.28d389970338fp+7", "0x1.0002f9af36ac9p-1", "0x1.28d389970338fp+7",
            "0x1.fffa0ca192a6dp-2", "0x1.29d38c90b26fap+8",
        ),
        "6eaf223c1b6bfef28241f2753644bd1bd52d84dfa1b7e7e20e6b5c9852964292",
    ),
    ("xxz", 2.0, -1.0, 0.0): (
        (
            "0x1.1a6c3b12eb084p-1", "0x1.28f91f83379dep-2", "0x1.28f91f83379dep-3",
            "0x1.4000000000000p-51", "0x1.0000000000000p-54", "0x1.4c96efa0e74f4p-5",
            "0x1.1a6c3b12eb07fp-1", "0x1.28f91f83379dfp-2", "0x1.d539a52a187e1p-4",
            "0x1.aba6c735fb942p-4", "XZero",
        ),
        (
            "0x1.0000000000000p+0", "0x1.e18fa0df2d9bcp+1", "0x1.0000000000000p+0",
            "-0x1.d03cf63b6e1a0p+1", "0x1.30c7d06f96cdep+3",
        ),
        "67c8f7361656cb75676864111528079d8ccfcc67a58ed405753bd70b39736419",
    ),
    ("xxz", 2.0, 3.0, 2.243189458650676e-05): (
        (
            "0x1.ed7e1227f40a7p-1", "0x1.edc798db7627ap-2", "0x1.edc798db7627ap-3",
            "0x1.0000000000000p-52", "0x1.0000000000000p-53", "0x1.209a985dcb6c0p-7",
            "0x1.ed7e1227f40a5p-1", "0x1.edc798db76278p-2", "0x1.dbbdef559970ep-3",
            "0x1.dbbdef559970ep-3", "XZero",
        ),
        (
            "0x1.2c13a25c86381p-6", "0x1.9ad15e9741405p+7", "0x1.2c1714aa29efcp-6",
            "-0x1.8c0a2c3ad6d19p+7", "0x1.9adabf421d5b1p+8",
        ),
        "088b38041ab6d868b6355fb9ff4f27a7361843aafe0efeefedce86436738615e",
    ),
    ("xxz", 1.0, 0.0, 1.0): (
        (
            "0x1.87a92dca3c9dfp-2", "0x1.3d6ebe774b305p-3", "0x1.3d6ebe774b305p-4",
            "0x1.0000000000000p-53", "0x0.0p+0", "0x1.29931aae41ac0p-7",
            "0x1.87a92dca3c9ddp-2", "0x1.3d6ebe774b305p-3", "0x1.2188f3f6f5084p-4",
            "0x1.183c5b2182fadp-4", "XNonzero",
        ),
        (
            "0x1.c8f87724b5c1dp-3", "0x1.45a5645ddb803p+1", "0x1.a61298e1e069cp+0",
            "-0x1.f00530d83a500p+0", "0x1.bd71ce4f7948bp+2",
        ),
        "81aa74f0f5e1f7cc6d655926056941e88f52ecbb5e8f916e6ccdca222b89724f",
    ),
    ("xxz", -3.0, 0.5, -2.0): (
        (
            "0x0.0p+0", "0x1.b0a80dbdcddadp-12", "0x1.b0a80dbdcddadp-13",
            "0x0.0p+0", "0x1.ad00000000000p-56", "0x1.6000000000000p-59",
            "0x0.0p+0", "0x1.b0a80dbdcdc00p-12", "0x1.b0a80dbdcdc00p-13",
            "0x1.b0a80dbdcdd55p-13", "XNonzero",
        ),
        (
            "0x1.186bf136d679dp+6", "0x1.0fa5cea6723eap+0", "0x1.48b5e3c3e8186p+0",
            "0x1.0e4de7e689605p+0", "0x1.260bf73b19ac2p+6",
        ),
        "625311225d4a8a6e6ba6cc7660e281e601536b1ca43efd9af97f9c55ef19250a",
    ),
}

# float.hex of critical couplings.
ROOT_PINS = {
    ("isodm", 0.0): "0x1.193ea7a9999c0p-1",
    ("isodm", 2.0): "-0x1.4407548266662p+1",
    ("xxz", -1.0, 0.0): "-0x1.c34366166664bp-1",
    ("xxz", 0.5, -3.0): "0x1.e4ef646cccce8p-2",
}


def _hex(value):
    if isinstance(value, complex):
        return (value.real.hex(), value.imag.hex())
    return float(value).hex()


@pytest.mark.parametrize("point", [*MODEL_PINS, *ROOT_PINS], ids=str)
def test_model_results_are_bit_pinned(point):
    """The closed forms and their cross-checked reports keep every bit."""
    model, *args = point
    if point in ROOT_PINS:
        assert getattr(models, f"critical_coupling_{model}")(*args).hex() == ROOT_PINS[point]
        if model == "isodm":
            # sqrt(fl(mu^2)) == mu on the scan grid, so the X-state gap
            # |rho12| - sqrt(rho00 rho33) is the isodm gap |nu| - mu exactly.
            for j in np.linspace(*models.SCAN_RANGE, models.SCAN_POINTS):
                mu, _, _, nu, _ = models._isodm_entries(float(j), IsoDMParams(0.0, args[0]))
                assert (abs(nu) - math.sqrt(mu * mu)).hex() == (abs(nu) - mu).hex()
        return
    params = {"isodm": IsoDMParams, "xxz": XXZParams}[model](*args)
    rep = getattr(models, f"measures_{model}")(params)
    entries = getattr(models, f"_{model}_entries")(params.j, params)
    matrix = getattr(models, f"thermal_{model}")(params)
    pipe = rep.pipeline
    values = (
        rep.c_closed, rep.n_closed, rep.q_paper,
        rep.c_deviation, rep.n_deviation, rep.q_deviation,
        pipe.concurrence, pipe.min_value, pipe.gmod_exact, pipe.gmod_lower,
    )
    report_pin, entries_pin, matrix_pin = MODEL_PINS[point]
    assert tuple(_hex(v) for v in values) + (pipe.branch,) == report_pin
    assert tuple(map(_hex, entries)) == entries_pin
    assert hashlib.sha256(matrix.tobytes()).hexdigest() == matrix_pin
