"""Thermal states and closed-form measures of two Heisenberg spin models.

Two exchange-coupled qubit pairs at equilibrium temperature, parameterized
by dimensionless ratios (every coupling is divided by kT):

- ``isodm``: isotropic exchange ``j`` plus an antisymmetric
  Dzyaloshinskii-Moriya term ``d`` along z,
  H = (1/2) [ j (XX + YY + ZZ) + d (XY - YX) ].
- ``xxz``: anisotropic XXZ exchange with anisotropy ``delta`` and a
  magnetic field ``b`` along z,
  H = (1/2) [ j (XX + YY + (1+delta) ZZ) + b (ZI + IZ) ].

Both thermal states are X-states with zero corners off the anti-diagonal
block; their entries have elementary closed forms, as do concurrence and
the measurement-induced nonlocality. Every closed-form value is recomputed
through the generic pipeline (thermal state -> Bloch form -> measures) and
cross-checked, and a deviation above 1e-10 raises. For the ``xxz`` model
the nonlocality takes two closed forms, and the one checked is the one for
the branch the pipeline took: N = 2 kappa^2/Z^2 when the field polarizes
the marginal, and tr(T T^t) - lambda_min(T T^t) of the diagonal
correlation matrix T = diag(kappa/Z, kappa/Z, t3) when it is maximally
mixed.

Critical couplings (where concurrence first becomes nonzero) are found by
a uniform sign scan over j in [-50, 50] followed by bisection.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import measures, qmat
from .errors import ClosedFormMismatch, NonFiniteParameter, NoSignChange
from .measures import BRANCH_X_ZERO, MeasureReport
from .qmat import PAULIS

CROSS_CHECK_TOL = 1e-10
SCAN_RANGE = (-50.0, 50.0)
SCAN_POINTS = 2001
BISECT_WIDTH = 1e-9


def _require_finite(**params: float) -> tuple[float, ...]:
    """Check that every parameter is a finite real number (``bool`` is not
    one) and return them as Python floats, in order. The conversion keeps
    numpy scalars such as ``np.float32`` from carrying single precision
    into the closed forms."""
    values = []
    for name, value in params.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value)):
            raise NonFiniteParameter(f"{name} must be finite, got {value!r}")
        values.append(float(value))
    return tuple(values)


@dataclass(frozen=True)
class IsoDMParams:
    """Dimensionless couplings of the isotropic + Dzyaloshinskii-Moriya
    model: exchange ``j`` = J/kT and antisymmetric coupling ``d`` = D/kT."""

    j: float
    d: float = 0.0

    def __post_init__(self):
        j, d = _require_finite(j=self.j, d=self.d)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "d", d)


@dataclass(frozen=True)
class XXZParams:
    """Dimensionless couplings of the XXZ model in a field: exchange
    ``j`` = J/kT, anisotropy ``delta``, and field ``b`` = B/kT."""

    j: float
    delta: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        j, delta, b = _require_finite(j=self.j, delta=self.delta, b=self.b)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class ClosedFormState:
    """A thermal state assembled from its closed-form entries.

    ``entries`` maps entry names to values: mu, omega, nu, Z for the
    isodm model; delta_plus, delta_minus, epsilon, kappa, Z for the xxz
    model. ``matrix`` is the unit-trace 4x4 state with the X pattern
    exact (structural zeros are exactly zero). Z is the matrix trace of
    the unnormalized entries.
    """

    entries: dict
    matrix: np.ndarray


def hamiltonian_isodm(p: IsoDMParams) -> np.ndarray:
    """Hamiltonian (in units of kT) of the isotropic + DM model."""
    sx, sy, sz = PAULIS
    exchange = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    antisym = np.kron(sx, sy) - np.kron(sy, sx)
    return 0.5 * (p.j * exchange + p.d * antisym)


def hamiltonian_xxz(p: XXZParams) -> np.ndarray:
    """Hamiltonian (in units of kT) of the XXZ model in a z field."""
    sx, sy, sz = PAULIS
    i2 = qmat.I2
    exchange = np.kron(sx, sx) + np.kron(sy, sy) + (1.0 + p.delta) * np.kron(sz, sz)
    field = np.kron(sz, i2) + np.kron(i2, sz)
    return 0.5 * (p.j * exchange + p.b * field)


def _sinhc(x: float) -> float:
    """sinh(x)/x with a series fallback near the removable singularity."""
    if abs(x) < 1e-6:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return math.sinh(x) / x


def _isodm_entries(j: float, d: float) -> tuple[float, float, complex, float]:
    """Closed-form entries (mu, omega, nu, Z) of the isodm thermal state."""
    eta = math.hypot(j, d)
    mu = math.exp(-j / 2.0)
    omega = math.exp(j / 2.0) * math.cosh(eta)
    nu = -(j + 1j * d) * math.exp(j / 2.0) * _sinhc(eta)
    z = 2.0 * (mu + omega)
    return mu, omega, nu, z


def _xxz_entries(
    j: float, delta: float, b: float
) -> tuple[float, float, float, float, float]:
    """Closed-form entries (delta_plus, delta_minus, epsilon, kappa, Z) of
    the xxz thermal state. Z is the matrix trace delta_plus + delta_minus
    + 2 epsilon."""
    alpha = j * (1.0 + delta) / 2.0
    delta_plus = math.exp(-(alpha + b))
    delta_minus = math.exp(-(alpha - b))
    epsilon = math.exp(alpha) * math.cosh(j)
    kappa = -math.exp(alpha) * math.sinh(j)
    z = delta_plus + delta_minus + 2.0 * epsilon
    return delta_plus, delta_minus, epsilon, kappa, z


def thermal_isodm(p: IsoDMParams) -> ClosedFormState:
    """Closed-form thermal state of the isodm model (equals the Gibbs state
    of its Hamiltonian at beta = 1 within 1e-10)."""
    mu, omega, nu, z = _isodm_entries(p.j, p.d)
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 0] = mu
    matrix[3, 3] = mu
    matrix[1, 1] = omega
    matrix[2, 2] = omega
    matrix[1, 2] = nu
    matrix[2, 1] = np.conj(nu)
    matrix /= z
    return ClosedFormState(
        entries={"mu": mu, "omega": omega, "nu": nu, "Z": z}, matrix=matrix
    )


def thermal_xxz(p: XXZParams) -> ClosedFormState:
    """Closed-form thermal state of the xxz model (equals the Gibbs state
    of its Hamiltonian at beta = 1 within 1e-10). All entries are real."""
    delta_plus, delta_minus, epsilon, kappa, z = _xxz_entries(p.j, p.delta, p.b)
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 0] = delta_plus
    matrix[3, 3] = delta_minus
    matrix[1, 1] = epsilon
    matrix[2, 2] = epsilon
    matrix[1, 2] = kappa
    matrix[2, 1] = kappa
    matrix /= z
    return ClosedFormState(
        entries={
            "delta_plus": delta_plus,
            "delta_minus": delta_minus,
            "epsilon": epsilon,
            "kappa": kappa,
            "Z": z,
        },
        matrix=matrix,
    )


@dataclass(frozen=True)
class ModelReport:
    """Closed-form measures of a model point, cross-checked against the
    generic pipeline.

    ``c_closed``/``n_closed`` are the model's closed-form concurrence and
    nonlocality; ``q_paper`` is the closed proportionality value
    n_closed/2. ``pipeline`` carries the generic-pipeline measures of the
    assembled state, whose ``gmod_lower`` is the state's actual discord
    lower bound Q. ``c_deviation`` and ``n_deviation`` are the cross-check
    gaps, each at most 1e-10 (a larger one raises
    :class:`ClosedFormMismatch`). ``q_deviation`` = |Q - n_closed/2| is the
    proportionality gap, reported rather than asserted to vanish.
    """

    c_closed: float
    n_closed: float
    q_paper: float
    pipeline: MeasureReport
    c_deviation: float
    n_deviation: float
    q_deviation: float


def _cross_checked_report(
    c_closed: float,
    n_x_nonzero: float,
    n_x_zero: float,
    matrix: np.ndarray,
    label: str,
) -> ModelReport:
    """Cross-check closed forms against the pipeline of ``matrix``.

    ``n_x_nonzero`` and ``n_x_zero`` are the closed nonlocality on either
    side of the marginal cutoff; the one for the branch the pipeline took
    is checked and reported, so the closed form and the pipeline never
    split a point near |x| = 1e-9 between two branches.
    """
    pipeline = measures.report(matrix)
    n_closed = n_x_zero if pipeline.branch == BRANCH_X_ZERO else n_x_nonzero
    c_dev = abs(c_closed - pipeline.concurrence)
    n_dev = abs(n_closed - pipeline.min_value)
    if c_dev > CROSS_CHECK_TOL:
        raise ClosedFormMismatch(
            f"{label}: closed concurrence {c_closed!r} deviates from the "
            f"pipeline by {c_dev:.3e}"
        )
    if n_dev > CROSS_CHECK_TOL:
        raise ClosedFormMismatch(
            f"{label}: closed nonlocality {n_closed!r} deviates from the "
            f"pipeline by {n_dev:.3e}"
        )
    return ModelReport(
        c_closed=c_closed,
        n_closed=n_closed,
        q_paper=n_closed / 2.0,
        pipeline=pipeline,
        c_deviation=c_dev,
        n_deviation=n_dev,
        q_deviation=abs(pipeline.gmod_lower - n_closed / 2.0),
    )


def measures_isodm(p: IsoDMParams) -> ModelReport:
    """Closed-form measures of the isodm model at ``p``:
    C = (2/Z) max{0, |nu| - mu}, N = 2 |nu|^2 / Z^2 (exact for every j, d,
    since |mu - omega| <= |nu| always holds for this family)."""
    state = thermal_isodm(p)
    mu, nu, z = state.entries["mu"], state.entries["nu"], state.entries["Z"]
    c_closed = (2.0 / z) * max(0.0, abs(nu) - mu)
    n_closed = 2.0 * abs(nu) ** 2 / z**2
    return _cross_checked_report(c_closed, n_closed, n_closed, state.matrix, "isodm")


def measures_xxz(p: XXZParams) -> ModelReport:
    """Closed-form measures of the xxz model at ``p``:
    C = (2/Z) max{0, |kappa| - sqrt(delta_plus delta_minus)}, and N from the
    correlation matrix T = diag(kappa/Z, kappa/Z, t3) with
    t3 = (delta_plus + delta_minus - 2 epsilon)/(2Z): N = 2 kappa^2/Z^2
    when the marginal x_z = (delta_plus - delta_minus)/(2Z) is polarized
    (the measurement axis is pinned to z), otherwise
    N = (kappa/Z)^2 + max{(kappa/Z)^2, t3^2} = tr(T T^t) - lambda_min(T T^t).
    Both are exact for every j, delta, b. Which one applies is decided by
    the pipeline's branch (|x| > 1e-9 from the Bloch decomposition), not by
    x_z from the entries: the two round differently within a few hundred
    ulps of the cutoff.
    """
    state = thermal_xxz(p)
    e = state.entries
    dp, dm, eps, kappa, z = (
        e["delta_plus"],
        e["delta_minus"],
        e["epsilon"],
        e["kappa"],
        e["Z"],
    )
    c_closed = (2.0 / z) * max(0.0, abs(kappa) - math.sqrt(dp * dm))
    t12_sq = kappa**2 / z**2
    t3 = (dp + dm - 2.0 * eps) / (2.0 * z)
    n_polarized = 2.0 * t12_sq
    n_mixed = t12_sq + max(t12_sq, t3 * t3)
    return _cross_checked_report(c_closed, n_polarized, n_mixed, state.matrix, "xxz")


def _bisect_root(f, lo: float, hi: float, f_lo: float) -> float:
    while hi - lo > BISECT_WIDTH:
        mid = (lo + hi) / 2.0
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _first_root(f, scan_points: int, what: str) -> float:
    """First sign change of ``f`` over an ascending uniform scan of
    [-50, 50], refined by bisection to an interval of 1e-9. Raises
    :class:`NoSignChange` when the scan finds no bracket."""
    xs = np.linspace(SCAN_RANGE[0], SCAN_RANGE[1], scan_points)
    values = [f(float(x)) for x in xs]
    for i in range(scan_points - 1):
        if values[i] == 0.0:
            return float(xs[i])
        if (values[i] < 0.0) != (values[i + 1] < 0.0):
            return _bisect_root(f, float(xs[i]), float(xs[i + 1]), values[i])
    if values[-1] == 0.0:
        return float(xs[-1])
    raise NoSignChange(
        f"{what}: no sign change over j in [{SCAN_RANGE[0]:g}, {SCAN_RANGE[1]:g}]"
    )


def critical_coupling_isodm(d: float, scan_points: int = SCAN_POINTS) -> float:
    """Exchange threshold j_c where the isodm concurrence first turns on:
    the root of |nu(j, d)| = mu(j, d). Concurrence is positive for j > j_c
    and zero for j <= j_c in a neighborhood of the root."""
    (d,) = _require_finite(d=d)

    def gap(j: float) -> float:
        mu, _, nu, _ = _isodm_entries(j, d)
        return abs(nu) - mu

    return _first_root(gap, scan_points, f"isodm threshold at d={d:g}")


def critical_coupling_xxz(
    delta: float, b: float, scan_points: int = SCAN_POINTS
) -> float:
    """Exchange threshold j_c of the xxz concurrence: the root of
    |kappa| = sqrt(delta_plus delta_minus), i.e. sinh|j| = exp(-j(1+delta)).
    The field b cancels from the condition, so the threshold is
    b-independent (the field suppresses the magnitude of the concurrence
    above threshold but does not move the threshold)."""
    delta, b = _require_finite(delta=delta, b=b)

    def gap(j: float) -> float:
        dp, dm, _, kappa, _ = _xxz_entries(j, delta, b)
        return abs(kappa) - math.sqrt(dp * dm)

    return _first_root(gap, scan_points, f"xxz threshold at delta={delta:g}, b={b:g}")
