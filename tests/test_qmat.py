"""Unit tests for the dense linear-algebra layer."""

import hashlib
import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spincorr import measures, oracle, qmat
from spincorr.bloch import decompose
from spincorr.errors import InvalidState
from spincorr.models import IsoDMParams
from spincorr.rng import Lcg, random_state

from helpers import MIXED, bell_psi_plus, ground_product_state, pinned_states
from reference import (
    I2,
    PAULIS,
    gaussian_matrix,
    gibbs,
    hamiltonian_isodm,
    hs_norm2,
    partial_trace,
    random_qubit_state,
)


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
    rho = gibbs(PAULIS[2], beta=1.0)
    p0 = 1.0 / (1.0 + math.exp(2.0))
    assert np.allclose(rho, np.diag([p0, 1.0 - p0]), atol=1e-14)


def test_gibbs_extreme_couplings_stay_finite():
    h = hamiltonian_isodm(IsoDMParams(j=50.0, d=50.0))
    for beta in (1.0, 200.0):
        rho = gibbs(h, beta)
        assert np.all(np.isfinite(rho.view(float)))
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def test_kron_reference_matrices():
    # All 15 product operators, bit for bit and in their order, against
    # np.kron of the tests' written-out Paulis: sigma_i (x) I, then
    # I (x) sigma_j, then sigma_i (x) sigma_j row-major.
    expected = (
        [np.kron(s, I2) for s in PAULIS]
        + [np.kron(I2, s) for s in PAULIS]
        + [np.kron(si, sj) for si in PAULIS for sj in PAULIS]
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
        rho_a = random_qubit_state(rng)
        rho_b = random_qubit_state(rng)
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


@pytest.mark.parametrize("dim", [2, 4])
def test_gaussian_matrix_keeps_the_per_entry_stream(dim):
    """One list of 2 dim^2 normals viewed as complex gives, bit for bit, the
    matrix filled row-major with one complex(re, im) draw per entry. At dim 4
    the package's random_state is, bit for bit, the Hermitian part of
    G G^dagger / tr(G G^dagger) built from that G: its documented draw order."""
    for seed in (1, 7, 42, 2**64 - 1):
        rng, reference_rng, state_rng = Lcg(seed), Lcg(seed), Lcg(seed)
        for _ in range(3):
            expected = np.empty((dim, dim), dtype=complex)
            for i in range(dim):
                for j in range(dim):
                    expected[i, j] = complex(reference_rng.normal(), reference_rng.normal())
            g = gaussian_matrix(rng, dim)
            assert g.shape == (dim, dim) and g.dtype == complex
            assert g.tobytes() == expected.tobytes()
            if dim == 4:
                rho = g @ g.conj().T
                rho /= np.trace(rho).real
                rho = (rho + rho.conj().T) / 2.0
                assert random_state(state_rng).tobytes() == rho.tobytes()


def test_mat_sqrt_diagonal_reference():
    root = qmat.mat_sqrt(np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex))
    assert np.allclose(root, np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-12)


def test_mat_sqrt_squares_back():
    rng = Lcg(9)
    for _ in range(20):
        rho = random_state(rng)
        root = qmat.mat_sqrt(rho)
        assert math.sqrt(hs_norm2(root @ root - rho)) <= 1e-9
        assert np.linalg.eigvalsh(root).min() >= -1e-12


def test_mat_sqrt_clamps_roundoff_negatives():
    m = np.diag([0.6, 0.4, 5e-11, -5e-11]).astype(complex)
    root = qmat.mat_sqrt(m)
    assert np.linalg.eigvalsh(root).min() >= 0.0
    assert math.sqrt(hs_norm2(root @ root - m)) <= 1e-9


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


# sha256 of validate_state's returned bytes over helpers.pinned_states().
VALIDATED_DIGEST = "06d612a447fa678285283cf539e320df49e30fe1f4bd34abd1a3b45f88769ad9"


def _near_four(target: float, extra: tuple, value: float) -> np.ndarray:
    """diag(a, 1 - a, 0, 0) with a^2 + (1 - a)^2 = target, plus one entry."""
    a = (1.0 + math.sqrt(2.0 * target - 1.0)) / 2.0
    m = np.diag([a, 1.0 - a, 0.0, 0.0]).astype(complex)
    m[extra] += value
    return m


def _validation_defects() -> list:
    """(name, matrix, exact message) for inputs validate_state refuses."""
    rho = random_state(Lcg(7))
    nonfinite = "matrix has non-finite entries"
    asymmetric = "matrix is not Hermitian within tolerance"
    negative = "matrix has a negative eigenvalue beyond tolerance"
    cases = []
    for v in (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e200, 1e154):
        messages = [nonfinite] * 5 if not math.isfinite(v) else [
            f"trace is {v:.6g}, expected 1", negative, asymmetric, negative, asymmetric
        ]
        entries = [
            ("diagonal", (1, 1), v, True),
            ("off-diagonal Hermitian", (0, 2), v, True),
            ("off-diagonal not Hermitian", (0, 2), v, False),
            ("imaginary off-diagonal Hermitian", (1, 3), complex(0.0, v), True),
            ("imaginary diagonal", (2, 2), complex(rho[2, 2].real, v), False),
        ]
        for (where, (i, j), entry, hermitian), message in zip(entries, messages):
            m = rho.copy()
            m[i, j] = entry
            if hermitian and i != j:
                m[j, i] = np.conj(entry)
            cases.append((f"{v:g} {where}", m, message))
    for v in (1e308, 1e200, 1e154):
        diagonal = np.diag([v, -v, 1.0, 0.0]).astype(complex)
        cases.append((f"+-{v:g} trace-one diagonal", diagonal, negative))
        pair = rho.copy()
        pair[0, 1], pair[1, 0] = v, -v
        cases.append((f"+-{v:g} antisymmetric pair", pair, asymmetric))
    eye = np.eye(4, dtype=complex)
    cases.append(("identity: trace 4, hs_norm2 4", eye, "trace is 4, expected 1"))
    cases.append(("trace 4", 4.0 * rho, "trace is 4, expected 1"))
    cases.append(("trace 1e308", eye * 2.5e307, "trace is 1e+308, expected 1"))
    top = sys.float_info.max
    cases.append(("trace at the float limit", eye * (top / 4.0), f"trace is {top:.6g}, expected 1"))
    # hs_norm2 a few ulps either side of 4, where the eigenvalue test and the
    # norm test meet, alone and with a defect that an earlier check names.
    for ulps in range(-3, 4):
        a = (1.0 + math.sqrt(7.0)) / 2.0
        for _ in range(abs(ulps)):
            a = math.nextafter(a, math.copysign(math.inf, ulps))
        m = np.diag([a, 1.0 - a, 0.0, 0.0]).astype(complex)
        cases.append((f"hs_norm2 {hs_norm2(m)!r}", m, negative))
    for side in (-1e-7, 1e-7):
        cases.append((f"not Hermitian at hs_norm2 4{side:+g}",
                      _near_four(4.0 - 1e-6 + side, (0, 3), 1e-3), asymmetric))
        cases.append((f"trace 1.001 at hs_norm2 4{side:+g}",
                      _near_four(4.0 - 1e-6 + side, (3, 3), 1e-3), "trace is 1.001, expected 1"))
    for shape in [(2, 2), (4,), (16,), (1, 4, 4), (4, 4, 1), (3, 4), (0,)]:
        cases.append((f"shape {shape}", np.zeros(shape, dtype=complex),
                      f"expected a 4x4 matrix, got shape {shape}"))
    return cases


def test_validate_state_outcomes_are_pinned():
    digest = hashlib.sha256()
    for rho in pinned_states():
        digest.update(qmat.validate_state(rho).tobytes())
    assert digest.hexdigest() == VALIDATED_DIGEST
    for name, m, message in _validation_defects():
        with pytest.raises(InvalidState) as info:
            qmat.validate_state(m)
        assert str(info.value) == message, name
    # A Fortran-ordered copy, and a -0.0 imaginary diagonal, which the
    # Hermitian part turns into the +0.0 of the state itself.
    rho = random_state(Lcg(7))
    out = qmat.validate_state(np.asfortranarray(rho))
    assert out.tobytes() == rho.tobytes() and out.strides == (64, 16)
    signed = rho.copy()
    signed.imag[range(4), range(4)] = -0.0
    out = qmat.validate_state(signed)
    assert out.tobytes() == rho.tobytes() and out.strides == (64, 16)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    rank=st.integers(1, 4),
    skew=st.floats(0.0, 0.9),
    shift=st.floats(0.0, 0.9),
)
def test_validate_state_is_a_fixed_point_of_its_output_by_property(seed, rank, skew, shift):
    # The Hermitian part (m + m^dagger)/2 is exactly Hermitian with a +0.0
    # imaginary diagonal, so validating it again returns it bit for bit. This
    # is why measures.report may validate the same state three times.
    rng = Lcg(seed)
    g = gaussian_matrix(rng, 4)[:, :rank]
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
    # Move shift * 1e-8 of weight from the smallest eigenvalue (0 below full
    # rank) to the largest, then add a non-Hermitian part of HS norm
    # skew * 1e-8 in m - m^dagger: both inside the 1e-8 tolerances.
    _, vectors = np.linalg.eigh(rho)
    low, high = vectors[:, :1], vectors[:, -1:]
    m = rho + shift * 1e-8 * (high @ high.conj().T - low @ low.conj().T)
    noise = gaussian_matrix(rng, 4)
    noise = noise - noise.conj().T
    m = m + skew * 1e-8 * noise / (2.0 * math.sqrt(hs_norm2(noise)))
    once = qmat.validate_state(m)
    assert np.array_equal(once, once.conj().T)
    assert not np.signbit(once.diagonal().imag).any()
    twice = qmat.validate_state(once)
    assert twice.tobytes() == once.tobytes() and twice.strides == once.strides


def _count_eigvalsh(monkeypatch) -> list:
    """Make np.linalg.eigvalsh record each call in the returned list."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    return calls


def test_validate_state_remembers_only_the_last_input_that_passed(monkeypatch):
    # A refused input is checked in full every time and never remembered; a
    # repeat of the input that passed returns its bytes as a new writable
    # array; and neither the returned array nor the input, changed in place,
    # changes what a later call returns.
    calls = _count_eigvalsh(monkeypatch)
    good = random_state(Lcg(71))
    bad = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
    first = qmat.validate_state(good)
    for _ in range(2):
        with pytest.raises(InvalidState) as info:
            qmat.validate_state(bad)
        assert str(info.value) == "matrix has a negative eigenvalue beyond tolerance"
    second = qmat.validate_state(good)
    assert len(calls) == 3
    assert second.tobytes() == first.tobytes() == good.tobytes()
    assert second.strides == first.strides and second.flags.writeable
    assert not np.shares_memory(first, second) and not np.shares_memory(second, good)
    first[0, 0] = second[0, 0] = 7.0
    assert qmat.validate_state(good).tobytes() == good.tobytes()
    changed = good.copy()
    assert qmat.validate_state(changed).tobytes() == good.tobytes()
    assert len(calls) == 3
    changed *= 2.0
    with pytest.raises(InvalidState) as info:
        qmat.validate_state(changed)
    assert str(info.value) == "trace is 2, expected 1"
    changed[:] = MIXED
    assert qmat.validate_state(changed).tobytes() == MIXED.tobytes()
    assert len(calls) == 4
    assert qmat.validate_state(good).tobytes() == good.tobytes() and len(calls) == 5


def test_validate_state_memo_is_safe_across_threads():
    # The memo is one tuple, read once and rebound in one step, so threads
    # that validate different states never get each other's result. With
    # the key and the result in two names, rebound one after the other, it
    # fails in most runs: four threads per state meet in the gap between.
    states = [random_state(Lcg(83 + i)) for i in range(2)] * 4
    start = threading.Barrier(len(states))
    wrong = []

    def work(rho):
        start.wait(timeout=60)
        for _ in range(2000):
            if qmat.validate_state(rho).tobytes() != rho.tobytes():
                wrong.append(rho)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(rho,)) for rho in states]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_one_full_validation_per_report(monkeypatch):
    # report validates its input, and decompose and concurrence validate it
    # again; only the first check takes a spectrum, beside the spectrum of S.
    qmat.validate_state(MIXED)
    calls = _count_eigvalsh(monkeypatch)
    measures.report(random_state(Lcg(73)))
    assert len(calls) == 2


def test_one_full_validation_per_verified_state(monkeypatch):
    # The four public calls verify makes per state validate it 7 times; one
    # check takes a spectrum, beside report's S and the partial transpose.
    rho = random_state(Lcg(79))
    qmat.validate_state(MIXED)
    calls = _count_eigvalsh(monkeypatch)
    measures.report(rho)
    oracle.min_oracle(rho)
    oracle.gmod_oracle(rho)
    oracle.ppt_entangled(rho)
    assert len(calls) == 3


def test_traces_are_summed_in_numpys_order_bit_for_bit():
    # qmat._trace4 and measures._trace3 repeat the order of numpy's
    # pairwise-sum loop in Python. If a numpy build changes that loop, this
    # fails by name; the output pins would miss most such changes, or fail
    # without saying why.
    def check(helper, m):
        for view in (m, np.asfortranarray(m), m.T, m[::-1, ::-1]):
            with np.errstate(over="ignore", invalid="ignore"):
                expected = view.trace()
            assert np.asarray(helper(view), dtype=m.dtype).tobytes() == expected.tobytes(), view

    # 20,000 states with their T T^t and S as report forms them, and 5,000
    # non-Hermitian matrices (imaginary diagonal parts) across the exponents.
    rng = Lcg(2024)
    for i in range(20000):
        rho = random_state(rng)
        form = decompose(rho)
        tt = form.T @ form.T.T
        check(qmat._trace4, rho)
        check(measures._trace3, tt)
        check(measures._trace3, (form.x[:, None] * form.x + tt) / 4.0)
        if i % 4 == 0:
            check(qmat._trace4, gaussian_matrix(rng, 4) * 10.0 ** (i % 601 - 300))
    special = (0.0, -0.0, 1.0, -1.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 5e-324)
    for diagonal in itertools.product(special, repeat=3):
        check(measures._trace3, np.diag(diagonal))
    for diagonal in itertools.product(special, repeat=4):
        m = np.diag(diagonal).astype(complex)
        m.imag[range(4), range(4)] = np.roll(diagonal, 1)
        check(qmat._trace4, m)


def test_mat_sqrt_raises_numpys_error_without_a_warning():
    # mat_sqrt is the one entry that reaches LAPACK without validating; a
    # failure to converge is np.linalg's LinAlgError, and the error state is kept.
    nan = np.full((4, 4), np.nan, dtype=complex)
    before = np.geterr(), np.geterrcall()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            qmat.mat_sqrt(nan)
    assert (np.geterr(), np.geterrcall()) == before
