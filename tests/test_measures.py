"""Unit tests for the closed-form correlation measures."""

import hashlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spincorr import qmat
from spincorr.bloch import decompose
from spincorr.errors import InvalidState
from spincorr.measures import (
    BRANCH_X_NONZERO,
    BRANCH_X_ZERO,
    X_DEGENERACY_CUTOFF,
    concurrence,
    report,
)
from spincorr.models import IsoDMParams, thermal_isodm
from spincorr.oracle import gmod_oracle, min_oracle, ppt_entangled
from spincorr.rng import Lcg, random_state

from helpers import (
    MIXED,
    bell_psi_plus,
    ground_product_state,
    pinned_states,
    random_product_state,
    spin_flip_average,
    x_zeroed_states,
)
from reference import I2, PAULIS, gaussian_matrix, hs_norm2, post_measurement, random_unitary


def test_concurrence_reference_states():
    assert abs(concurrence(bell_psi_plus()) - 1.0) <= 1e-12
    assert concurrence(ground_product_state()) <= 1e-12
    assert concurrence(MIXED) <= 1e-12


def test_concurrence_thermal_closed_form():
    rho = thermal_isodm(IsoDMParams(j=1.0, d=0.0)).matrix
    assert abs(concurrence(rho) - 0.42246918845518766) <= 1e-10


def test_concurrence_stays_in_range():
    rng = Lcg(21)
    for _ in range(300):
        c = concurrence(random_state(rng))
        assert -1e-12 <= c <= 1.0 + 1e-12


def test_concurrence_vanishes_on_product_states():
    rng = Lcg(23)
    for _ in range(100):
        assert concurrence(random_product_state(rng)) <= 1e-10


def test_min_closed_branch_reference_states():
    rep = report(bell_psi_plus())
    assert rep.branch == BRANCH_X_ZERO
    assert abs(rep.min_value - 0.5) <= 1e-15

    rep = report(ground_product_state())
    assert rep.branch == BRANCH_X_NONZERO
    assert abs(rep.min_value) <= 1e-15

    rep = report(MIXED)
    assert rep.branch == BRANCH_X_ZERO
    assert abs(rep.min_value) <= 1e-15


def test_min_closed_equals_disturbance_along_local_axis():
    rng = Lcg(25)
    for _ in range(50):
        rho = random_state(rng)
        rep = report(rho)
        assert rep.branch == BRANCH_X_NONZERO
        x = decompose(rho).x
        disturbance = hs_norm2(rho - post_measurement(rho, x / np.linalg.norm(x)))
        assert abs(rep.min_value - disturbance) <= 1e-10


def test_min_closed_degenerate_branch_matches_oracle():
    states = x_zeroed_states(seed=7, want=12)
    assert len(states) >= 10
    for rho in states:
        rep = report(rho)
        assert rep.branch == BRANCH_X_ZERO
        assert abs(rep.min_value - min_oracle(rho).value) <= 1e-4


def test_gmod_exact_reference_states():
    assert abs(report(bell_psi_plus()).gmod_exact - 0.25) <= 1e-15
    assert abs(report(MIXED).gmod_exact) <= 1e-15


def test_gmod_exact_thermal_closed_form():
    # For this X-state family the discord has the elementary closed form
    # (a + b) / (2 Z^2) with a = |nu|^2, b = (omega - mu)^2, valid because
    # a >= b holds for every coupling.
    for j, d in ((0.5, 0.0), (1.0, 0.7), (-1.2, 2.0), (2.0, 1.0)):
        state = thermal_isodm(IsoDMParams(j=j, d=d))
        e = state.entries
        a = abs(e["nu"]) ** 2
        b = (e["omega"] - e["mu"]) ** 2
        assert a >= b - 1e-15
        expected = (a + b) / (2.0 * e["Z"] ** 2)
        assert abs(report(state.matrix).gmod_exact - expected) <= 1e-12


def test_gmod_lower_reference_states():
    assert abs(report(bell_psi_plus()).gmod_lower - 0.25) <= 1e-15
    assert abs(report(MIXED).gmod_lower) <= 1e-15


def test_gmod_lower_never_exceeds_exact():
    rng = Lcg(27)
    for _ in range(300):
        rep = report(random_state(rng))
        assert rep.gmod_lower <= rep.gmod_exact + 1e-12


def test_gmod_lower_agrees_with_moment_route_when_stable():
    # Away from the near-isotropic cancellation region the eigenvalue
    # route and the direct moment route must agree to full precision.
    rng = Lcg(29)
    for _ in range(100):
        rho = random_state(rng)
        form = decompose(rho)
        s = (np.outer(form.x, form.x) + form.T @ form.T.T) / 4.0
        tr_s = float(np.trace(s))
        tr_s2 = float(np.trace(s @ s))
        radicand = 6.0 * tr_s2 - 2.0 * tr_s * tr_s
        if radicand < 1e-6:
            continue
        moment_q = (2.0 / 3.0) * (2.0 * tr_s - math.sqrt(radicand))
        assert abs(report(rho).gmod_lower - moment_q) <= 1e-12


def test_report_reference_states():
    rep = report(bell_psi_plus())
    assert abs(rep.concurrence - 1.0) <= 1e-12
    assert abs(rep.min_value - 0.5) <= 1e-12
    assert abs(rep.gmod_exact - 0.25) <= 1e-12
    assert abs(rep.gmod_lower - 0.25) <= 1e-12
    assert rep.branch == BRANCH_X_ZERO

    rep = report(MIXED)
    assert rep.concurrence == 0.0
    assert abs(rep.min_value) <= 1e-15
    assert abs(rep.gmod_exact) <= 1e-15
    assert abs(rep.gmod_lower) <= 1e-15


def test_report_thermal_reference_point():
    rep = report(thermal_isodm(IsoDMParams(j=1.0, d=0.0)).matrix)
    assert abs(rep.concurrence - 0.42246918845518766) <= 1e-10
    assert abs(rep.min_value - 0.18909986747759386) <= 1e-12
    assert abs(rep.gmod_exact - 0.09454993373879693) <= 1e-12
    assert abs(rep.gmod_lower - 0.09454993373879693) <= 1e-12
    assert rep.branch == BRANCH_X_ZERO


# sha256 of "N D Q branch" per state below (float.hex), taken when N, D and Q
# also had one public function each; report gave every bit of those.
REPORT_DIGEST = "a81dfc87d1bc0aefa539949eb7d176408be1b978e605bcae086cedf2a3bf10a4"
# sha256 of C (float.hex) per state below, so C is pinned apart from
# concurrence() itself.
CONCURRENCE_DIGEST = "d330494975c5a9d2af8b8acff735bf3657ff7497139ea10aad68d595ecb31e33"


def test_report_matches_the_single_measures_bit_for_bit():
    # report's concurrence is concurrence's, bit for bit; its C, N, D and Q
    # keep the bits pinned above.
    digest = hashlib.sha256()
    c_digest = hashlib.sha256()
    branches = set()
    for rho in pinned_states():
        rep = report(rho)
        assert rep.concurrence.hex() == concurrence(rho).hex()
        digest.update(
            f"{rep.min_value.hex()} {rep.gmod_exact.hex()} {rep.gmod_lower.hex()} "
            f"{rep.branch}\n".encode()
        )
        c_digest.update(f"{rep.concurrence.hex()}\n".encode())
        branches.add(rep.branch)
    assert digest.hexdigest() == REPORT_DIGEST
    assert c_digest.hexdigest() == CONCURRENCE_DIGEST
    assert branches == {BRANCH_X_ZERO, BRANCH_X_NONZERO}


def test_measures_are_local_unitary_invariant():
    rng = Lcg(31)
    for _ in range(30):
        rho = random_state(rng)
        u = np.kron(random_unitary(rng), random_unitary(rng))
        rotated = u @ rho @ u.conj().T
        rotated = (rotated + rotated.conj().T) / 2.0
        before = report(rho)
        after = report(rotated)
        assert abs(before.concurrence - after.concurrence) <= 1e-10
        assert abs(before.min_value - after.min_value) <= 1e-10
        assert abs(before.gmod_exact - after.gmod_exact) <= 1e-10
        assert abs(before.gmod_lower - after.gmod_lower) <= 1e-10
        assert before.branch == after.branch == BRANCH_X_NONZERO


# Largest moves measured over 15,000 states per rank, ranks 1 to 4, each
# under one random U_A (x) U_B: C 4.3e-14 (rank 2; 3.9e-15 at full rank),
# N 1.1e-15, D 6.1e-16, Q 5.8e-16, and 2 D - N at most 5.6e-16 (pure states,
# where N = 2 D). gmod_oracle, over 10,000 to 20,000 states per rank, moved
# by at most 1.3e-14, except on one rank-3 state of 20,000 where both calls
# stop at the refinement's 500-sweep cap: 2.4e-11. Each tolerance is about
# 4x its maximum.
_LU_TOL = {"C": 2e-13, "N": 5e-15, "D": 3e-15, "Q": 3e-15, "2D-N": 3e-15, "oracle": 1e-10}


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rank=st.integers(1, 4))
def test_measures_are_local_unitary_invariant_by_property(seed, rank):
    # C, N, D, Q and the discord oracle are invariant under local unitaries;
    # N maximizes the disturbance over admissible axes and 2 D minimizes it
    # over all axes.
    rng = Lcg(seed)
    g = gaussian_matrix(rng, 4)[:, :rank]
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rotated = u @ rho @ u.conj().T
    rho, rotated = (rho + rho.conj().T) / 2.0, (rotated + rotated.conj().T) / 2.0
    before, after = report(rho), report(rotated)
    assert abs(before.concurrence - after.concurrence) <= _LU_TOL["C"]
    assert abs(before.min_value - after.min_value) <= _LU_TOL["N"]
    assert abs(before.gmod_exact - after.gmod_exact) <= _LU_TOL["D"]
    assert abs(before.gmod_lower - after.gmod_lower) <= _LU_TOL["Q"]
    for rep in (before, after):
        assert 2.0 * rep.gmod_exact - rep.min_value <= _LU_TOL["2D-N"]
    assert abs(gmod_oracle(rho).value - gmod_oracle(rotated).value) <= _LU_TOL["oracle"]


# Largest move of C under the qubit swap, measured over 15,000 states per
# rank, ranks 1 to 4: 3.0e-14 (rank 3; 2.0e-14 at rank 2, 4.1e-15 at full
# rank), with the PPT witness unchanged on all 60,000. The tolerance is 4x
# that maximum.
_SWAP_TOL_C = 1.2e-13
_SWAP = [0, 2, 1, 3]  # |ab> -> |ba> in the basis |00>, |01>, |10>, |11>


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), rank=st.integers(1, 4))
def test_concurrence_and_ppt_are_swap_invariant_by_property(seed, rank):
    # Swapping the qubits permutes the matrix entries exactly. C is symmetric
    # in the two qubits, and the two partial transposes have one spectrum.
    rng = Lcg(seed)
    g = gaussian_matrix(rng, 4)[:, :rank]
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    rho = (rho + rho.conj().T) / 2.0
    swapped = rho[np.ix_(_SWAP, _SWAP)]
    assert abs(concurrence(rho) - concurrence(swapped)) <= _SWAP_TOL_C
    assert ppt_entangled(rho) == ppt_entangled(swapped)


# Largest errors measured over 15,000 product states for each choice of
# pure or mixed factors: x, y and T 1.1e-16; C 1.9e-15 (both pure; 0
# when both are mixed); |N| 1.1e-16, |D| 3.3e-16 and |Q| 2.2e-16, each
# with both factors pure. Each tolerance is about 4x its maximum.
_PRODUCT_TOL = {"bloch": 5e-16, "C": 8e-15, "N": 5e-16, "D": 1.4e-15, "Q": 1e-15}


def _bloch_vector(rng: Lcg, pure: bool) -> np.ndarray:
    """A random direction of length 1/2 (a pure qubit) or below it."""
    v = np.array([rng.normal() for _ in range(3)])
    return v * ((0.5 if pure else 0.5 * rng.uniform()) / np.linalg.norm(v))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), pure_a=st.booleans(), pure_b=st.booleans())
def test_product_state_bloch_form_and_measures_by_property(seed, pure_a, pure_b):
    # rho = (I/2 + a.sigma) (x) (I/2 + b.sigma) has x = a, y = b and
    # T = 2 a b^t in the half-trace normalization, and no correlation of
    # any kind: C = N = D = Q = 0. A transposed T, a swapped qubit order or
    # a sign error in a Pauli operator breaks the Bloch form.
    rng = Lcg(seed)
    a, b = _bloch_vector(rng, pure_a), _bloch_vector(rng, pure_b)
    rho_a, rho_b = (I2 / 2.0 + np.tensordot(v, PAULIS, axes=1) for v in (a, b))
    rho = np.kron(rho_a, rho_b)
    form = decompose(rho)
    assert np.abs(form.x - a).max() <= _PRODUCT_TOL["bloch"]
    assert np.abs(form.y - b).max() <= _PRODUCT_TOL["bloch"]
    assert np.abs(form.T - 2.0 * np.outer(a, b)).max() <= _PRODUCT_TOL["bloch"]
    rep = report(rho)
    assert rep.concurrence <= _PRODUCT_TOL["C"]
    assert abs(rep.min_value) <= _PRODUCT_TOL["N"]
    assert abs(rep.gmod_exact) <= _PRODUCT_TOL["D"]
    assert abs(rep.gmod_lower) <= _PRODUCT_TOL["Q"]


# Largest errors measured over 20,000 rotated Werner states, p = k/2^20
# for k in [1, 2^20]: C 3.1e-15, N 1.3e-15, D 7.2e-16, Q 7.5e-16; over
# 1,000 of them min_oracle 7.8e-16 and gmod_oracle 1.2e-15 from p^2/2.
# Each tolerance is about 4x its maximum.
_WERNER_TOL = {"C": 1.2e-14, "N": 5e-15, "D": 3e-15, "Q": 3e-15, "min": 3e-15, "gmod": 5e-15}
_PSI_MINUS = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def _rotated_werner(seed: int, k: int) -> tuple[float, np.ndarray]:
    """p = k/2^20 and (U_A (x) U_B)(p |psi-><psi-| + (1 - p) I/4)(U_A (x) U_B)^dagger."""
    p = k / 2**20
    rng = Lcg(seed)
    u = np.kron(random_unitary(rng), random_unitary(rng))
    rho = p * np.outer(_PSI_MINUS, _PSI_MINUS.conj()) + (1.0 - p) * MIXED
    return p, u @ rho @ u.conj().T


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 2**20))
def test_rotated_werner_state_measures_by_property(seed, k):
    # A rotated Werner state has maximally mixed marginals and T = -p R for
    # a rotation R, so C = max(0, (3p - 1)/2), N = p^2/2 and D = Q = p^2/4
    # exactly. For 0 < p <= 1/3 it is separable yet N > 0: nonlocality
    # without entanglement, which vanishes only at I/4.
    p, rho = _rotated_werner(seed, k)
    rep = report(rho)
    assert rep.branch == BRANCH_X_ZERO
    assert abs(rep.concurrence - max(0.0, (3.0 * p - 1.0) / 2.0)) <= _WERNER_TOL["C"]
    assert abs(rep.min_value - p * p / 2.0) <= _WERNER_TOL["N"]
    assert abs(rep.gmod_exact - p * p / 4.0) <= _WERNER_TOL["D"]
    assert abs(rep.gmod_lower - p * p / 4.0) <= _WERNER_TOL["Q"]
    if p <= 1.0 / 3.0:
        assert rep.concurrence <= _WERNER_TOL["C"] and rep.min_value > 0.0


# Every grid direction ties on a Werner state, so each oracle call costs
# about 15 ms: fewer examples than the report property.
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 2**20))
def test_oracles_on_rotated_werner_states_by_property(seed, k):
    # N = 2 D = p^2/2; as x = 0, min_oracle takes the maximize route.
    p, rho = _rotated_werner(seed, k)
    assert abs(min_oracle(rho).value - p * p / 2.0) <= _WERNER_TOL["min"]
    assert abs(gmod_oracle(rho).value - p * p / 2.0) <= _WERNER_TOL["gmod"]


# Largest values measured over 20,000 pairs of states, k = 1 to 4:
# |N - min_oracle| 2.4e-8 below the cutoff (where the oracle's refinement
# stops at its 500-sweep cap; the 99.9th percentile is 9.7e-12) and 1.1e-16
# above it; C moved 3.3e-15 across the cutoff, D and Q not at all. 2 D - N
# and Q - D never came above -1.7e-8; their tolerances are roundoff, as in
# _LU_TOL. The others are about 4x their maximum.
_CUTOFF_TOL = {"min_zero": 1e-7, "min_nonzero": 5e-16, "C": 1.3e-14, "2D-N": 3e-15, "Q-D": 3e-15}
_SIGMA_Z_A = np.kron(PAULIS[2], I2)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), k=st.integers(1, 4))
def test_x_states_across_the_nonlocality_cutoff_by_property(seed, k):
    # A spin-flip average has x = 0 exactly; (x_z/2) sigma_z (x) I gives it
    # x = (0, 0, x_z). x_z = 1e-9 -+ k eps: a 4x4 state resolves x_z only to
    # about eps, so a few ulps of 1e-9 itself would land on either side.
    # report and min_oracle share the cutoff, so they take the same branch
    # on each side, and only N may jump across it.
    base = spin_flip_average(random_state(Lcg(seed)))
    reports = []
    for side in (-1, 1):
        rho = base + ((X_DEGENERACY_CUTOFF + side * k * 2.0**-52) / 2.0) * _SIGMA_Z_A
        x_zero = float(np.linalg.norm(decompose(rho).x)) <= X_DEGENERACY_CUTOFF
        rep = report(rho)
        assert x_zero == (side < 0)
        assert rep.branch == (BRANCH_X_ZERO if x_zero else BRANCH_X_NONZERO)
        tol = _CUTOFF_TOL["min_zero" if x_zero else "min_nonzero"]
        assert abs(rep.min_value - min_oracle(rho).value) <= tol
        assert 2.0 * rep.gmod_exact <= rep.min_value + _CUTOFF_TOL["2D-N"]
        assert rep.gmod_lower <= rep.gmod_exact + _CUTOFF_TOL["Q-D"]
        reports.append(rep)
    below, above = reports
    assert abs(below.concurrence - above.concurrence) <= _CUTOFF_TOL["C"]
    assert below.gmod_exact == above.gmod_exact
    assert below.gmod_lower == above.gmod_lower


def test_every_state_validation_accepts_gets_a_report():
    # Each random state gets its smallest eigenvalue moved to -1e-8 + k 1e-17,
    # the rest spread over the other three. The offsets straddle
    # validate_state's bound by up to 3e-16, about as far as eigvalsh and
    # eigh disagree on one matrix, so whatever passes validation must give
    # finite measures and never be refused by a later step.
    rng = Lcg(11)
    accepted = 0
    for _ in range(100):
        values, vectors = np.linalg.eigh(random_state(rng))
        for k in range(-30, 31, 3):
            moved = values.copy()
            moved[0] = -1e-8 + k * 1e-17
            moved[1:] += (values[0] - moved[0]) / 3.0
            rho = (vectors * moved) @ vectors.conj().T
            try:
                qmat.validate_state(rho)
            except InvalidState:
                continue
            accepted += 1
            rep = report(rho)
            measured = [rep.concurrence, rep.min_value, rep.gmod_exact, rep.gmod_lower]
            assert all(math.isfinite(value) for value in measured)
    assert 0 < accepted < 100 * 21
