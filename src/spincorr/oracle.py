"""Brute-force verification of the closed-form measures.

Everything here works directly on density matrices with no normalization
convention: local projective measurements are applied as explicit projector
conjugations, and the squared Hilbert-Schmidt disturbance is extremized
over measurement directions by a scan of one fixed grid, 2000 Fibonacci
sphere directions, followed by derivative-free coordinate-descent
refinement. The module also provides an independent entanglement witness
(negative partial transpose). Both oracles return a named tuple.

Measuring the first qubit along n dephases rho to (rho + U rho U)/2 with
U = n.sigma (x) I, so the disturbance is the quadratic form
D(n) = (||rho||^2 - n^T G n)/2 with G_ab = Re tr(rho A_a rho A_b) and
A_a = sigma_a (x) I. G is built from explicit operator products, never from
the Bloch form, so it stays independent of the closed forms it checks. One
screen function scores both the grid scan (on arrays) and the refinement
(on plain floats); one affine map from directions to projectors, applied in
one stacked product, gives the explicit value at any set of directions.
Grid rows whose screen lies within 1e-14 of the best are re-scored
explicitly, a refinement trial that close to the current best is decided by
explicit values at both points, and the reported value is always explicit,
so every decision and every reported bit is the one explicit scoring alone
would give. The refinement keeps its explicit values in a per-call memo
keyed by the angles; a near-tie that misses it scores the rest of the sweep
in the same stacked call. Each explicit value of a near-tie is checked
against its screen to 5e-15 when it is read, and every result checks it to
1e-12 at the final direction; a disagreement raises :class:`OracleMismatch`.

Measurements act on the first qubit only. Reductions compare by value with
ties broken by the lowest grid index.
"""

import math
from collections import namedtuple

import numpy as np

from . import qmat
from .bloch import decompose
from .errors import OracleMismatch
from .measures import X_DEGENERACY_CUTOFF
from .qmat import PAULI_PRODUCTS

_REFINE_INITIAL_STEP = 0.1
_REFINE_FINAL_STEP = 1e-7
_REFINE_MAX_SWEEPS = 500
# Gram-screen values closer than this are re-decided by the explicit
# projector algebra; screen and explicit values differ by about 3e-16.
_TIE_MARGIN = 1e-14
# Screen/explicit agreement required at the final direction of every result.
_FINAL_TOL = 1e-12


def _fibonacci_sphere(n_points: int) -> np.ndarray:
    """Fibonacci sphere lattice: z_i = 1 - (2i+1)/n, golden-angle
    azimuths phi_i = i * pi * (3 - sqrt(5)). |z_i| <= 1 - 1/n keeps 1 - z_i^2 > 0
    and every z inside the domain of acos."""
    i = np.arange(n_points)
    z = 1.0 - (2.0 * i + 1.0) / n_points
    radius = np.sqrt(1.0 - z * z)
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    dirs = np.column_stack((radius * np.cos(phi), radius * np.sin(phi), z))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    dirs.flags.writeable = False
    return dirs


# Shared by every oracle call (so read-only): the scan grid, its columns as
# contiguous rows for the grid screen, and s A_a (s = +/-1, A_a = rows 0-2 of
# PAULI_PRODUCTS) and I4 as float columns (sign, row, column, re/im).
GRID_DIRECTIONS = _fibonacci_sphere(2000)
_GRID_COLUMNS = np.ascontiguousarray(GRID_DIRECTIONS.T)
_PROJ_TABLE = np.stack((PAULI_PRODUCTS[:3], -PAULI_PRODUCTS[:3]), 1).view(float).reshape(3, 64)
_PROJ_BASE = np.stack((np.eye(4, dtype=complex),) * 2).view(float).reshape(64)
_GRID_COLUMNS.flags.writeable = _PROJ_TABLE.flags.writeable = _PROJ_BASE.flags.writeable = False


OracleResult = namedtuple("OracleResult", "value direction evaluations")
OracleResult.__doc__ = """Extremized disturbance, as a named tuple: the value, the direction
attaining it, and how many objective evaluations were spent: grid
directions plus refinement trials, each scored by the Gram screen, or 1 on
the pinned axis. Explicit rows are not counted. Reproducible bit-for-bit
for identical states."""


def _projectors(dirs: np.ndarray) -> np.ndarray:
    """The first-qubit projectors P (x) I, P = (I + s n.sigma)/2, for both
    signs s = +1, -1 and every row n of ``dirs`` (k, 3): a (2, k, 4, 4) stack.

    All 2k projectors are one affine map of the directions. The diagonal of
    block (i, j) keeps every bit, signed zeros included, of entry (i, j) of
    the kron algebra's factor (I2 + s n.sigma)/2, and every other entry is
    +0.0: a table column holds at most one nonzero (+/-1) and signed zeros
    add exactly to a nonzero, so each sum is s n_a or a zero; adding the
    base (1 or 0.0) rounds once, as I2 + ... does, and makes every zero
    +0.0; the halving comes last there too, so a subnormal n_a halves
    alike, even where it halves to zero.
    """
    proj = ((dirs @ _PROJ_TABLE + _PROJ_BASE) / 2.0).view(complex)
    return proj.reshape(len(dirs), 2, 4, 4).transpose(1, 0, 2, 3)


def _dephase(rho: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """P+ rho P+ + P- rho P- for the first-qubit projectors of every row of
    ``dirs`` (k, 3) at once, in one stacked product."""
    proj = _projectors(dirs)
    m = proj @ rho @ proj
    return (0.0 + m[0]) + m[1]


def _disturbances(rho: np.ndarray, dirs: np.ndarray) -> list[float]:
    """Squared Hilbert-Schmidt distance between rho and its measured image,
    for every row of ``dirs``."""
    return [float(np.vdot(diff, diff).real) for diff in rho - _dephase(rho, dirs)]


def _gram(rho: np.ndarray) -> np.ndarray:
    """Gram matrix G_ab = Re tr(rho A_a rho A_b) with A_a = sigma_a (x) I,
    from explicit operator products: the disturbance along n is
    (||rho||^2 - n^T G n)/2."""
    a_rho = PAULI_PRODUCTS[:3] @ rho  # rows 0-2 are sigma_a (x) I
    gram = np.einsum("aij,bji->ab", a_rho, a_rho).real
    return (gram + gram.T) / 2.0


def _screen(gram: np.ndarray, norm2: float):
    """The Gram screen (x, y, z) -> (norm2 - n^T G n)/2, on plain floats or
    elementwise on arrays of direction components."""
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram.tolist()

    def screen(x: float, y: float, z: float) -> float:
        quad = g00 * x * x + g11 * y * y + g22 * z * z
        quad += 2.0 * (g01 * x * y + g02 * x * z + g12 * y * z)
        return 0.5 * (norm2 - quad)

    return screen


def _check(n: np.ndarray, value: float, screen: float) -> None:
    """Raise :class:`OracleMismatch` unless the Gram screen value ``screen``
    at direction ``n`` agrees with the explicit disturbance ``value`` there
    to half the tie margin."""
    if abs(value - screen) > _TIE_MARGIN / 2.0:
        raise OracleMismatch(
            f"Gram screen {screen!r} deviates from the explicit disturbance "
            f"{value!r} at direction {n!r}"
        )


def _xyz(theta: float, phi: float) -> tuple[float, float, float]:
    """The unit direction at polar angle ``theta`` and azimuth ``phi``."""
    return math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta)


def _extremize(rho: np.ndarray, maximize: bool) -> OracleResult:
    """The maximum (``maximize``) or the minimum of the disturbance D,
    found as the maximum of sign * D with sign = +1 or -1.

    The grid rows within the tie margin of the best signed screen are
    scored explicitly, and the best of them (lowest grid index on ties)
    starts coordinate ascent on the spherical angles: each sweep tries
    +/-step on both angles, keeping strict improvements, and the step
    halves after a sweep without one, from 0.1 rad down to 1e-7, for at
    most 500 sweeps. A trial within the tie margin of the current best is
    decided by the explicit disturbance at both points, so every move is
    the one explicit scoring alone would make.

    Explicit values come from a memo keyed by the angles (theta, phi),
    filled one stacked call at a time: a near-tie that misses the memo
    scores the current point (if its value is unknown) and the rest of
    this sweep's trials. Each row keeps every bit of a one-row call. A
    value is checked against its screen when it is read, in the order
    one-row scoring would check it; a row scored ahead but never read is
    never checked.
    """
    sign = 1.0 if maximize else -1.0
    screen = _screen(_gram(rho), float(np.vdot(rho, rho).real))
    # (theta, phi) -> (direction row, D). The angles start from acos and
    # atan2 of a grid row and move by sums, so none is -0.0 and equal keys
    # are equal bits.
    memo: dict = {}

    def score(keys: list) -> None:  # one stacked call for the keys not yet in the memo
        keys = [key for key in keys if key not in memo]
        if keys:
            dirs = np.array([_xyz(*key) for key in keys])
            memo.update(zip(keys, zip(dirs, _disturbances(rho, dirs))))

    def read(key: tuple, signed_screen: float) -> float:  # checked sign * D at ``key``
        n, value = memo[key]
        _check(n, value, sign * signed_screen)
        return sign * value

    grid_screen = sign * screen(*_GRID_COLUMNS)
    near = np.flatnonzero(grid_screen >= grid_screen.max() - _TIE_MARGIN)
    rows = GRID_DIRECTIONS[near]
    values = _disturbances(rho, rows)
    for n, value, signed_screen in zip(rows, values, grid_screen[near].tolist()):
        _check(n, value, sign * signed_screen)
    values = [sign * v for v in values]
    pick = int(np.argmax(values))
    x, y, z = rows[pick].tolist()
    theta, phi = math.acos(z), math.atan2(y, x)
    best_screen = sign * screen(x, y, z)
    best = values[pick]  # explicit value at the current point; None once unknown
    evaluations = len(GRID_DIRECTIONS)
    step = _REFINE_INITIAL_STEP
    sweeps = 0
    while step >= _REFINE_FINAL_STEP and sweeps < _REFINE_MAX_SWEEPS:
        improved = False
        moves = (step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)
        for i, (d_theta, d_phi) in enumerate(moves):
            t, p = theta + d_theta, phi + d_phi
            trial_screen = sign * screen(*_xyz(t, p))
            evaluations += 1
            if abs(trial_screen - best_screen) > _TIE_MARGIN:
                trial = None
                better = trial_screen > best_screen
            else:
                current = [] if best is not None else [(theta, phi)]
                if any(key not in memo for key in current + [(t, p)]):
                    score(current + [(theta + dt, phi + dp) for dt, dp in moves[i:]])
                if best is None:
                    best = read((theta, phi), best_screen)
                trial = read((t, p), trial_screen)
                better = trial > best
            if better:
                theta, phi = t, p
                best_screen, best = trial_screen, trial
                improved = True
        if not improved:
            step /= 2.0
        sweeps += 1
    direction = np.array(_xyz(theta, phi))
    if best is None:
        score([(theta, phi)])
        best = sign * memo[theta, phi][1]
    value = sign * best
    final_screen = screen(*direction.tolist())
    if abs(value - final_screen) > _FINAL_TOL:
        raise OracleMismatch(
            f"Gram screen {final_screen!r} deviates from the explicit "
            f"disturbance {value!r} at the final direction {direction!r}"
        )
    return OracleResult(value=value, direction=direction, evaluations=evaluations)


def min_oracle(rho: np.ndarray) -> OracleResult:
    """Maximal marginal-preserving measurement disturbance, by brute force.

    With a maximally mixed first-qubit marginal (|x| <= 1e-9, the same
    cutoff the closed form uses) every axis preserves the marginal, so the
    disturbance is maximized over the whole grid and refined. Otherwise the
    only admissible axis is x/|x| and the oracle evaluates exactly there.
    """
    rho = qmat.validate_state(rho)
    x = decompose(rho).x
    x_norm = float(np.linalg.norm(x))
    if x_norm <= X_DEGENERACY_CUTOFF:
        return _extremize(rho, maximize=True)
    axis = x / x_norm
    return OracleResult(value=_disturbances(rho, axis[None])[0], direction=axis, evaluations=1)


def gmod_oracle(rho: np.ndarray) -> OracleResult:
    """Minimal measurement disturbance over all axes, by brute force.

    The nearest zero-discord state in a fixed measurement basis is the
    dephased state, so minimizing the disturbance over the measurement
    direction yields the convention-free geometric discord.
    """
    rho = qmat.validate_state(rho)
    return _extremize(rho, maximize=False)


def ppt_entangled(rho: np.ndarray) -> bool:
    """Entanglement witness: True iff the partial transpose (on the second
    qubit) has an eigenvalue below -1e-10. For two qubits this is exact:
    entangled if and only if the partial transpose is negative."""
    rho = qmat.validate_state(rho)
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return bool(np.linalg.eigvalsh(pt)[0] < -1e-10)  # ascending
