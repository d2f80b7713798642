"""Unit tests for the brute-force oracles and the entanglement witness."""

import hashlib
import math

import numpy as np
import pytest

from spincorr import cli, oracle
from spincorr.bloch import decompose
from spincorr.errors import OracleMismatch
from spincorr.measures import concurrence, report
from spincorr.models import (
    IsoDMParams,
    XXZParams,
    measures_isodm,
    measures_xxz,
    thermal_isodm,
    thermal_xxz,
)
from spincorr.oracle import GRID_DIRECTIONS, gmod_oracle, min_oracle, ppt_entangled
from spincorr.rng import Lcg, random_state

from helpers import (
    MIXED,
    bell_psi_plus,
    ground_product_state,
    spin_flip_average,
    x_zeroed_states,
)
from reference import (
    hs_norm2,
    kron_dephase,
    nested_gmod_spotcheck,
    post_measurement,
    tensor_projectors,
)

Z_AXIS = np.array([0.0, 0.0, 1.0])

# Bit-exact oracle results on the 2000-point grid, recorded with the
# explicit projector algebra alone (before the Gram screen existed). The
# bell and isodm_j1 pins (every direction a tie) were re-recorded when the
# grid's near-ties moved onto the one-direction algebra: each value moved
# 1-2 ulp toward its exact value (1/2 and 0.189099867477593919...).
# name -> (gmod_oracle pin, min_oracle pin or None when min_oracle takes
# the single-evaluation pinned-axis path). A pin is
# (value.hex(), direction hex()s, evaluations).
ORACLE_PINS = {
    "random1": (
        (
            "0x1.698ae150c9354p-4",
            ("-0x1.5d41d7cb26ce3p-2", "-0x1.89121c91a8d57p-1", "0x1.15bf9ed7962c6p-1"),
            2156,
        ),
        None,
    ),
    "random2": (
        (
            "0x1.7745dde95aa92p-5",
            ("-0x1.05698079bebc4p-3", "-0x1.4a2116df89aa1p-3", "-0x1.f50f6e278b137p-1"),
            2144,
        ),
        None,
    ),
    "random3": (
        (
            "0x1.37e0ef8547bcdp-4",
            ("0x1.a5448cfc8d420p-1", "-0x1.606c3b910623bp-2", "0x1.cf266d957bd57p-2"),
            2132,
        ),
        None,
    ),
    "random4": (
        (
            "0x1.04ae585265689p-6",
            ("0x1.869f584a1e489p-1", "-0x1.3cd6daf718570p-2", "-0x1.229f4fa523639p-1"),
            2152,
        ),
        None,
    ),
    "random5": (
        (
            "0x1.5b9002850d970p-6",
            ("0x1.6ba28b142a86dp-2", "0x1.5f62c376d2220p-2", "0x1.bd379ec5e586dp-1"),
            2140,
        ),
        None,
    ),
    "random6": (
        (
            "0x1.891a92e2a937bp-5",
            ("-0x1.518039b5fb5fbp-1", "0x1.8103fb8ea93e4p-1", "0x1.adf60521ad67ap-11"),
            2136,
        ),
        None,
    ),
    "random7": (
        (
            "0x1.20129dcc48f47p-4",
            ("0x1.b9709c6cef74cp-1", "0x1.d181776fd4401p-2", "-0x1.c9d651aa92e05p-3"),
            2160,
        ),
        None,
    ),
    "random8": (
        (
            "0x1.2e326baa4bc6ep-5",
            ("-0x1.57c7c0eb17b63p-1", "0x1.133de1f544537p-3", "-0x1.7520ad3f2e04bp-1"),
            2128,
        ),
        None,
    ),
    "mixed": (
        (
            "0x0.0p+0",
            ("0x1.94e2c547ce137p-8", "-0x1.20577120b320fp-4", "0x1.feb851eb851ecp-1"),
            2080,
        ),
        (
            "0x1.4020000000000p-105",
            ("0x1.680b44b11142ep-4", "0x1.728807463ffb2p-1", "-0x1.5e76c8b439584p-1"),
            2080,
        ),
    ),
    "bell": (
        (
            "0x1.ffffffffffffdp-2",
            ("0x1.545f0695bc2a0p-2", "0x1.01ca37d9ff963p-1", "0x1.9851eb851eb85p-1"),
            2080,
        ),
        (
            "0x1.0000000000002p-1",
            ("0x1.0498806c952dfp-4", "0x1.45fac60d42312p-1", "0x1.8978d4fdf3b65p-1"),
            2080,
        ),
    ),
    "isodm_j1": (
        (
            "0x1.8346ca93f41eep-3",
            ("0x1.a0a76d4f5fe8ep-5", "0x1.0fb9c6b723dcep-4", "0x1.fe353f7ced917p-1"),
            2080,
        ),
        (
            "0x1.8346ca93f41f4p-3",
            ("0x1.928bba45c5011p-2", "0x1.6565a4a8b30bap-1", "0x1.326e978d4fdf5p-1"),
            2080,
        ),
    ),
    # gmod_oracle stops at the refinement's 500-sweep cap: 2000 + 4 * 500.
    "sweep_cap": (
        (
            "0x1.3c45f09a0f0ecp-4",
            ("0x1.3089c247f76bap-3", "0x1.f2e0f1356e1ebp-1", "-0x1.59a937405e1a8p-3"),
            4000,
        ),
        None,
    ),
    # x = y = 0 with a unique optimum: min_oracle maximizes over the grid.
    "spin_flip": (
        (
            "0x1.54f99ac7c020dp-6",
            ("-0x1.db3a792f5e539p-1", "-0x1.e6e3464931239p-6", "-0x1.7bd82e6c84d90p-2"),
            2128,
        ),
        (
            "0x1.3003eb6498eacp-4",
            ("-0x1.938b858ec2209p-3", "0x1.c50ab8f71b8c9p-1", "0x1.b04aa8b49df8ap-2"),
            2156,
        ),
    ),
}


def _pinned_state(name: str) -> np.ndarray:
    if name.startswith("random"):
        return random_state(Lcg(int(name[len("random"):])))
    if name == "mixed":
        return MIXED
    if name == "bell":
        return bell_psi_plus()
    if name == "sweep_cap":
        rng = Lcg(3549)
        random_state(rng)
        return random_state(rng)
    if name == "spin_flip":
        return spin_flip_average(random_state(Lcg(61)))
    return thermal_isodm(IsoDMParams(j=1.0, d=0.0))


def test_fibonacci_grid_shape_and_norms():
    assert GRID_DIRECTIONS.shape == (2000, 3)
    norms = np.linalg.norm(GRID_DIRECTIONS, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-12
    assert GRID_DIRECTIONS[0, 2] == pytest.approx(1.0 - 1.0 / 2000.0, abs=1e-12)
    assert not GRID_DIRECTIONS.flags.writeable
    assert oracle._GRID_COLUMNS.tobytes() == GRID_DIRECTIONS.T.tobytes()
    for table in (oracle._GRID_COLUMNS, oracle._PROJ_TABLE, oracle._PROJ_BASE):
        assert not table.flags.writeable


def test_fibonacci_grid_bytes_are_pinned():
    # Every oracle result starts from this grid, so a change to one of its
    # bits must be deliberate.
    digest = hashlib.sha256(GRID_DIRECTIONS.tobytes()).hexdigest()
    assert digest == "bd70a3bc2320fccdef48add5d9241547bd913114606735466e2e5cac90e72f1c"


def test_post_measurement_leaves_maximally_mixed_invariant():
    for n in GRID_DIRECTIONS[:5]:
        assert np.max(np.abs(post_measurement(MIXED, n) - MIXED)) <= 1e-15


def test_post_measurement_dephases_bell_state():
    out = post_measurement(bell_psi_plus(), Z_AXIS)
    assert np.allclose(out, np.diag([0.0, 0.5, 0.5, 0.0]), atol=1e-15)


def test_post_measurement_zeroes_coherence_blocks():
    rho = random_state(Lcg(33))
    out = post_measurement(rho, Z_AXIS)
    assert np.max(np.abs(out[0:2, 2:4])) == 0.0
    assert np.max(np.abs(out[2:4, 0:2])) == 0.0
    assert np.max(np.abs(out[0:2, 0:2] - rho[0:2, 0:2])) <= 1e-15
    assert np.max(np.abs(out[2:4, 2:4] - rho[2:4, 2:4])) <= 1e-15


def test_post_measurement_is_idempotent():
    rng = Lcg(35)
    for _ in range(20):
        rho = random_state(rng)
        for n in GRID_DIRECTIONS[:3]:
            once = post_measurement(rho, n)
            twice = post_measurement(once, n)
            assert np.max(np.abs(twice - once)) <= 1e-12


def test_min_oracle_bell_state():
    result = min_oracle(bell_psi_plus())
    assert abs(result.value - 0.5) <= 1e-9
    assert abs(np.linalg.norm(result.direction) - 1.0) <= 1e-9
    assert result.evaluations > len(GRID_DIRECTIONS)


def test_min_oracle_maximally_mixed():
    assert abs(min_oracle(MIXED).value) <= 1e-15


def test_min_oracle_thermal_point():
    rho = thermal_isodm(IsoDMParams(j=1.0, d=0.0))
    assert abs(min_oracle(rho).value - 0.18909986747759386) <= 1e-6


def test_min_oracle_pinned_axis_single_evaluation():
    rng = Lcg(37)
    for _ in range(20):
        rho = random_state(rng)
        form = decompose(rho)
        result = min_oracle(rho)
        assert result.evaluations == 1
        assert abs(result.value - report(rho).min_value) <= 1e-10
        axis = form.x / np.linalg.norm(form.x)
        assert np.max(np.abs(result.direction - axis)) <= 1e-12


def test_gmod_oracle_reference_states():
    assert abs(gmod_oracle(bell_psi_plus()).value - 0.5) <= 1e-6
    assert abs(gmod_oracle(ground_product_state()).value) <= 1e-9


def test_gmod_oracle_is_twice_the_closed_form():
    rng = Lcg(39)
    for _ in range(30):
        rho = random_state(rng)
        oracle_value = gmod_oracle(rho).value
        assert abs(oracle_value - 2.0 * report(rho).gmod_exact) <= 1e-4


def test_min_oracle_dominates_gmod_oracle_at_degeneracy():
    states = [bell_psi_plus(), thermal_isodm(IsoDMParams(j=1.5, d=0.7))]
    states.extend(x_zeroed_states(seed=11, want=8))
    for rho in states:
        low = gmod_oracle(rho).value
        high = min_oracle(rho).value
        assert high >= low - 1e-12


def test_oracle_results_are_reproducible():
    rho = random_state(Lcg(41))
    first = gmod_oracle(rho)
    second = gmod_oracle(rho)
    assert first.value == second.value
    assert np.array_equal(first.direction, second.direction)
    assert first.evaluations == second.evaluations


def test_nested_spotcheck_never_undercuts_dephasing():
    bell = bell_psi_plus()
    dephased = hs_norm2(bell - post_measurement(bell, Z_AXIS))
    assert nested_gmod_spotcheck(bell, Z_AXIS, k=500) >= dephased - 1e-9

    rng = Lcg(43)
    for _ in range(5):
        rho = random_state(rng)
        dephased = hs_norm2(rho - post_measurement(rho, Z_AXIS))
        assert nested_gmod_spotcheck(rho, Z_AXIS, k=200) >= dephased - 1e-9


def test_ppt_reference_states():
    assert ppt_entangled(bell_psi_plus())
    assert not ppt_entangled(MIXED)
    assert not ppt_entangled(ground_product_state())


def test_ppt_flips_at_the_thermal_threshold():
    j_c = math.log(3.0) / 2.0
    assert not ppt_entangled(thermal_isodm(IsoDMParams(j=j_c, d=0.0)))
    assert ppt_entangled(thermal_isodm(IsoDMParams(j=j_c + 0.01, d=0.0)))


def test_ppt_cutoff_is_held_from_both_sides():
    """The Werner state p |psi-><psi-| + (1 - p) I/4 with p = (1 + 4g)/3 has
    smallest partial-transpose eigenvalue -g: g = 2e-10 lies below the
    -1e-10 cutoff and g = 5e-11 above it, so the cutoff x10 or /10 flips
    one of the two."""
    psi_minus = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)

    def werner(g):
        p = (1.0 + 4.0 * g) / 3.0
        return p * np.outer(psi_minus, psi_minus) + (1.0 - p) * np.eye(4) / 4.0

    assert ppt_entangled(werner(2e-10))
    assert not ppt_entangled(werner(5e-11))


def test_ppt_agrees_with_concurrence_on_random_states():
    rng = Lcg(45)
    for _ in range(1000):
        rho = random_state(rng)
        assert ppt_entangled(rho) == (concurrence(rho) > 1e-8)


def test_ppt_agrees_with_concurrence_on_thermal_grids():
    js = np.linspace(-5.0, 5.0, 41)
    for j in js:
        for d in (0.0, 1.0, 2.0):
            rep = measures_isodm(IsoDMParams(j=float(j), d=d))
            state = thermal_isodm(IsoDMParams(j=float(j), d=d))
            assert ppt_entangled(state) == (rep.c_closed > 1e-8)
        for delta in (-2.0, -1.0, 0.0, 1.0):
            for b in (0.0, 1.0, 2.0):
                rep = measures_xxz(XXZParams(j=float(j), delta=delta, b=b))
                state = thermal_xxz(XXZParams(j=float(j), delta=delta, b=b))
                assert ppt_entangled(state) == (rep.c_closed > 1e-8)


def _pin(result):
    return (
        result.value.hex(),
        tuple(float(c).hex() for c in result.direction),
        result.evaluations,
    )


@pytest.mark.parametrize("name", sorted(ORACLE_PINS))
def test_oracle_results_are_bit_pinned(name):
    """The Gram screen changes no bit of any oracle result: the degenerate
    all-ties states (mixed, Bell) and the grid path of min_oracle too."""
    gmod_pin, min_pin = ORACLE_PINS[name]
    rho = _pinned_state(name)
    assert _pin(gmod_oracle(rho)) == gmod_pin
    result = min_oracle(rho)
    if min_pin is None:
        assert result.evaluations == 1
    else:
        assert _pin(result) == min_pin


def test_projector_table_matches_kron_bit_for_bit():
    """The oracle maps directions to P (x) I through one table, without
    np.kron, and measures a whole stack of directions in one call; every row
    of the measured stack, every disturbance and every measured state keep
    every bit (signed zeros included) of the one-direction np.kron algebra.
    Every projector keeps every bit of that algebra's 2x2 factor, compared
    by its own bytes: the stacked product can map a -0.0 and a +0.0 entry
    to the same output. The edge rows hold signed zeros, subnormal
    components (5e-324 halves to a signed zero) and n_z one ulp below 1 in
    size; the full grid on I/4 is the stack of the all-tie path."""
    below_one = 1.0 - 2.0**-53
    edges = [
        [0.0, -0.0, 1.0], [-0.0, 0.0, -1.0], [-0.0, -1.0, -0.0],
        [5e-324, 0.0, 1.0], [-5e-324, -0.0, -1.0], [0.0, -5e-324, 1.0],
        [1e-310, -1e-310, 1.0], [-1e-310, 0.0, -1.0],
        [1e-8, 0.0, below_one], [-1e-8, 0.0, -below_one], [1e-8, -0.0, -below_one],
    ]
    edges = np.vstack((edges, np.eye(3), -np.eye(3)))
    rng = Lcg(51)
    states = [random_state(rng) for _ in range(300)]
    states += [MIXED, bell_psi_plus(), thermal_isodm(IsoDMParams(j=1.0, d=0.0))]
    stacks = []
    for rho in states:
        dirs = np.array([[rng.normal() for _ in range(3)] for _ in range(40)])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        stacks.append((rho, np.vstack((dirs, edges))))
    stacks.append((MIXED, GRID_DIRECTIONS))
    for rho, dirs in stacks:
        projectors = oracle._projectors(dirs).transpose(1, 0, 2, 3)
        stacked = oracle._dephase(rho, dirs)
        disturbances = oracle._disturbances(rho, dirs)
        assert projectors.shape == (len(dirs), 2, 4, 4)
        assert stacked.shape == (len(dirs), 4, 4) and len(disturbances) == len(dirs)
        for n, proj, row, disturbance in zip(dirs, projectors, stacked, disturbances):
            assert proj.tobytes() == tensor_projectors(n).tobytes()
            reference = kron_dephase(rho, n)
            assert row.tobytes() == reference.tobytes()
            assert disturbance.hex() == hs_norm2(rho - reference).hex()
            measured = (reference + reference.conj().T) / 2.0
            assert post_measurement(rho, n).tobytes() == measured.tobytes()


def test_oracle_results_over_many_states_are_hash_pinned():
    """One sha256 over the bits of every min_oracle and gmod_oracle result
    (value, direction bytes, evaluations) on 200 seeded random states and 40
    x = y = 0 states, recorded before the oracle had one projector algebra:
    a bit that moves on any single state changes the digest."""
    rng = Lcg(57)
    states = [random_state(rng) for _ in range(200)]
    states += [spin_flip_average(random_state(rng)) for _ in range(40)]
    digest = hashlib.sha256()
    for rho in states:
        for result in (min_oracle(rho), gmod_oracle(rho)):
            digest.update(result.value.hex().encode())
            digest.update(result.direction.tobytes())
            digest.update(str(result.evaluations).encode())
    assert digest.hexdigest() == (
        "062861e3d7e71c702c891fc436f271edde41cf9aa332cbbbd8fbe2bff5c3b349"
    )


def test_gram_matches_explicit_disturbance():
    rng = Lcg(47)
    for rho in [random_state(rng) for _ in range(5)] + [bell_psi_plus(), MIXED]:
        gram = oracle._gram(rho)
        norm2 = hs_norm2(rho)
        for n in GRID_DIRECTIONS[::97]:
            screen = 0.5 * (norm2 - n @ gram @ n)
            assert abs(screen - hs_norm2(rho - post_measurement(rho, n))) <= 1e-15


def test_corrupted_gram_trips_the_oracle(monkeypatch, capsys):
    true_gram = oracle._gram
    monkeypatch.setattr(oracle, "_gram", lambda rho: true_gram(rho) + 1e-9)
    with pytest.raises(OracleMismatch):
        gmod_oracle(random_state(Lcg(49)))
    assert cli.main(["verify", "--count", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ")
    assert "Traceback" not in err


def test_final_direction_check_trips_the_oracle(monkeypatch, capsys):
    """With no tolerance left at the final direction, both extremization
    routes raise, and verify turns that into one failure line."""
    monkeypatch.setattr(oracle, "_FINAL_TOL", -1.0)
    with pytest.raises(OracleMismatch, match="the final direction"):
        gmod_oracle(random_state(Lcg(49)))
    flipped = spin_flip_average(random_state(Lcg(61)))
    assert np.linalg.norm(decompose(flipped).x) <= 1e-9  # the maximize route
    with pytest.raises(OracleMismatch, match="the final direction"):
        min_oracle(flipped)
    assert cli.main(["verify", "--count", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("verification failure: ")
    assert len(err.splitlines()) == 1 and "the final direction" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "extremize, state, screen_calls",
    [
        (gmod_oracle, lambda: random_state(Lcg(49)), 143),
        (min_oracle, lambda: spin_flip_average(random_state(Lcg(61))), 159),
    ],
    ids=["gmod", "min"],
)
def test_final_direction_tolerance_is_held_from_both_sides(
    monkeypatch, extremize, state, screen_calls
):
    """Shifting only the screen's last call, the final-direction check, by
    2e-12 trips the 1e-12 tolerance, and by 5e-13 leaves every bit of the
    result: the tolerance x10 or /10 flips one of the two."""
    true_screen = oracle._screen
    calls = []
    delta, shifted_call = 0.0, None  # read by ``shifted`` at call time

    def shifted_screen(gram, norm2):
        screen = true_screen(gram, norm2)

        def shifted(*xyz):
            calls.append(None)
            value = screen(*xyz)
            return value + delta if len(calls) == shifted_call else value

        return shifted

    monkeypatch.setattr(oracle, "_screen", shifted_screen)
    expected = extremize(state())
    assert len(calls) == screen_calls
    calls.clear()
    delta, shifted_call = 2e-12, screen_calls
    with pytest.raises(OracleMismatch, match="the final direction"):
        extremize(state())
    assert len(calls) == screen_calls
    calls.clear()
    delta = 5e-13
    result = extremize(state())
    assert len(calls) == screen_calls
    assert result.value.hex() == expected.value.hex()
    assert result.direction.tobytes() == expected.direction.tobytes()


def test_stacked_projector_calls_are_pinned(monkeypatch):
    """The refinement reads near-tie values from a memo filled one stacked
    call at a time, each scoring at most the current point and the four
    trials of one sweep: 300 seeded gmod_oracle calls make 1,742 explicit
    scoring calls (300 of them the grid's) of 4,506 rows, where one call
    per near-tie made 4,156."""
    true_disturbances = oracle._disturbances
    calls = []

    def counted(rho, dirs):
        calls.append(len(dirs))
        return true_disturbances(rho, dirs)

    monkeypatch.setattr(oracle, "_disturbances", counted)
    rng = Lcg(12345)
    refinement_calls = []
    for _ in range(300):
        first = len(calls)
        gmod_oracle(random_state(rng))
        refinement_calls += calls[first + 1:]
    assert len(calls) == 1742
    assert sum(calls) == 4506
    assert max(refinement_calls) <= 5


def _scoring_events(monkeypatch, rho):
    """gmod_oracle(rho) with its explicit scoring observed: the result and,
    in call order, ("score", [row bytes]) for each _disturbances call and
    ("read", [row bytes]) for each screen/explicit check."""
    true_disturbances, true_check = oracle._disturbances, oracle._check
    events = []

    def disturbances(rho, dirs):
        events.append(("score", [n.tobytes() for n in dirs]))
        return true_disturbances(rho, dirs)

    def check(n, value, screen):
        events.append(("read", [n.tobytes()]))
        true_check(n, value, screen)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_disturbances", disturbances)
        patch.setattr(oracle, "_check", check)
        result = gmod_oracle(rho)
    return result, events


def _corrupt_rows(monkeypatch, rows):
    """Shift the explicit disturbance by 1e-9 at the directions whose bytes
    are in ``rows``."""
    true_disturbances = oracle._disturbances

    def corrupted(rho, dirs):
        values = true_disturbances(rho, dirs)
        return [v + 1e-9 if n.tobytes() in rows else v for n, v in zip(dirs, values)]

    monkeypatch.setattr(oracle, "_disturbances", corrupted)


def test_rows_scored_ahead_but_never_read_are_never_checked(monkeypatch):
    rho = random_state(Lcg(49))
    result, events = _scoring_events(monkeypatch, rho)
    scored = {row for kind, rows in events if kind == "score" for row in rows}
    read = {rows[0] for kind, rows in events if kind == "read"}
    unread = scored - read - {result.direction.tobytes()}
    assert len(unread) == 4
    _corrupt_rows(monkeypatch, unread)
    assert _pin(gmod_oracle(rho)) == _pin(result)


def test_a_row_scored_ahead_is_checked_when_read(monkeypatch):
    """A row scored in one stacked call and first read after a later call
    raises when it is read, with the text one-row scoring gave (recorded
    with the same corruption before the memo existed)."""
    rho = random_state(Lcg(49))
    _, events = _scoring_events(monkeypatch, rho)
    calls, scored_in, read_later = 0, {}, []
    for kind, rows in events:
        if kind == "score":
            calls += 1
            for row in rows:
                scored_in.setdefault(row, calls)
        elif scored_in[rows[0]] < calls:
            read_later.append(rows[0])
    assert len(read_later) == 5
    _corrupt_rows(monkeypatch, {read_later[0]})
    with pytest.raises(OracleMismatch) as raised:
        gmod_oracle(rho)
    assert str(raised.value) == (
        "Gram screen 0.04771508207614805 deviates from the explicit disturbance "
        "0.047715083076148024 at direction array([ 0.02838908, -0.0673408 , -0.99732606])"
    )
