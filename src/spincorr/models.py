"""Thermal states and closed-form measures of two Heisenberg spin models.

Two exchange-coupled qubit pairs at equilibrium temperature, parameterized
by dimensionless ratios (every coupling is divided by kT):

- ``isodm``: isotropic exchange ``j`` plus an antisymmetric
  Dzyaloshinskii-Moriya term ``d`` along z,
  H = (1/2) [ j (XX + YY + ZZ) + d (XY - YX) ].
- ``xxz``: anisotropic XXZ exchange with anisotropy ``delta`` and a
  magnetic field ``b`` along z,
  H = (1/2) [ j (XX + YY + (1+delta) ZZ) + b (ZI + IZ) ].

Both thermal states are X-states: a diagonal (rho00, rho11 = rho22, rho33)
and one coherence rho12 = conj(rho21), all else exactly zero. A family
supplies only its entries (rho00, rho11, rho33, rho12, Z), Z the trace; one
path builds the matrix, and one gap |rho12| - sqrt(rho00 rho33) gives the
concurrence (2/Z) max{0, gap} and the threshold condition gap = 0. Every
closed-form value is recomputed through the generic pipeline (thermal
state -> Bloch form -> measures) and cross-checked; a deviation above 1e-10
raises. The ``xxz`` nonlocality has two closed forms, and the one checked
is the one for the branch the pipeline took: N = 2 kappa^2/Z^2 when the
field polarizes the marginal, else tr(T T^t) - lambda_min(T T^t) of the
correlation matrix T = diag(kappa/Z, kappa/Z, t3).

Critical couplings (where concurrence first becomes nonzero) are found by
a uniform sign scan over j in [-50, 50] that stops at the first bracket,
followed by bisection.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from . import measures
from .errors import ClosedFormMismatch, NonFiniteParameter, NoSignChange
from .measures import BRANCH_X_ZERO, MeasureReport

CROSS_CHECK_TOL = 1e-10
SCAN_RANGE = (-50.0, 50.0)
SCAN_POINTS = 2001
BISECT_WIDTH = 1e-9


class _ModelParams:
    """Base of the params dataclasses: the exchange ``j`` comes first and
    the model's secondary parameters follow it. Every field must be a
    finite real number (``bool`` is not one) and is stored as a Python
    float, which keeps numpy scalars such as ``np.float32`` from carrying
    single precision into the closed forms."""

    def __post_init__(self):
        # The names fields(self) gives, without the tuple it builds per call:
        # the params classes declare no ClassVar or InitVar pseudo-fields.
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            real = isinstance(value, numbers.Real) and not isinstance(value, bool)
            try:
                number = float(value) if real else math.nan
            except OverflowError:  # shown as the float it rounds to: a long int has no repr
                number = value = math.inf if value > 0 else -math.inf
            if not math.isfinite(number):
                raise NonFiniteParameter(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, number)


@dataclass(frozen=True)
class IsoDMParams(_ModelParams):
    """Dimensionless couplings of the isotropic + Dzyaloshinskii-Moriya
    model: exchange ``j`` = J/kT and antisymmetric coupling ``d`` = D/kT."""

    j: float
    d: float = 0.0


@dataclass(frozen=True)
class XXZParams(_ModelParams):
    """Dimensionless couplings of the XXZ model in a field: exchange
    ``j`` = J/kT, anisotropy ``delta``, and field ``b`` = B/kT."""

    j: float
    delta: float = 0.0
    b: float = 0.0


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


def _sinhc(x: float) -> float:
    """sinh(x)/x with a series fallback near the removable singularity."""
    if abs(x) < 1e-6:
        x2 = x * x
        return 1.0 + x2 / 6.0 + x2 * x2 / 120.0
    return math.sinh(x) / x


# Entry names in X-state order (rho00, rho11, rho33, rho12, Z); isodm has
# rho00 = rho33 = mu, so its entries dict holds mu once.
_ISODM_NAMES = ("mu", "omega", "mu", "nu", "Z")
_XXZ_NAMES = ("delta_plus", "epsilon", "delta_minus", "kappa", "Z")


def _isodm_entries(j: float, p: IsoDMParams) -> tuple[float, float, float, complex, float]:
    """Closed-form entries (mu, omega, mu, nu, Z) of the isodm thermal state
    at exchange ``j`` (not ``p.j``: the critical scan varies it) and ``p.d``."""
    d = p.d
    eta = math.hypot(j, d)
    mu = math.exp(-j / 2.0)
    omega = math.exp(j / 2.0) * math.cosh(eta)
    nu = -(j + 1j * d) * math.exp(j / 2.0) * _sinhc(eta)
    return mu, omega, mu, nu, 2.0 * (mu + omega)


def _xxz_entries(j: float, p: XXZParams) -> tuple[float, float, float, float, float]:
    """Closed-form entries (delta_plus, epsilon, delta_minus, kappa, Z) of
    the xxz thermal state at exchange ``j`` and ``p.delta``, ``p.b``. All are
    real."""
    delta, b = p.delta, p.b
    alpha = j * (1.0 + delta) / 2.0
    delta_plus = math.exp(-(alpha + b))
    delta_minus = math.exp(-(alpha - b))
    epsilon = math.exp(alpha) * math.cosh(j)
    kappa = -math.exp(alpha) * math.sinh(j)
    return delta_plus, epsilon, delta_minus, kappa, delta_plus + delta_minus + 2.0 * epsilon


def _x_matrix(e: tuple) -> np.ndarray:
    """The unit-trace X-state of entries e = (rho00, rho11, rho33, rho12, Z),
    with its structural zeros exactly zero."""
    r00, r11, r33, r12, z = e
    matrix = np.zeros((4, 4), dtype=complex)
    matrix[0, 0] = r00
    matrix[3, 3] = r33
    matrix[1, 1] = matrix[2, 2] = r11
    matrix[1, 2] = r12
    matrix[2, 1] = np.conj(r12)
    matrix /= z
    return matrix


def _x_gap(e: tuple) -> float:
    """|rho12| - sqrt(rho00 rho33) of X-state entries e: the state is
    entangled exactly where it is positive."""
    return abs(e[3]) - math.sqrt(e[0] * e[2])


def thermal_isodm(p: IsoDMParams) -> ClosedFormState:
    """Closed-form thermal state of the isodm model (equals the Gibbs state
    of its Hamiltonian at beta = 1 within 1e-10)."""
    e = _isodm_entries(p.j, p)
    return ClosedFormState(entries=dict(zip(_ISODM_NAMES, e)), matrix=_x_matrix(e))


def thermal_xxz(p: XXZParams) -> ClosedFormState:
    """Closed-form thermal state of the xxz model (equals the Gibbs state
    of its Hamiltonian at beta = 1 within 1e-10). All entries are real."""
    e = _xxz_entries(p.j, p)
    return ClosedFormState(entries=dict(zip(_XXZ_NAMES, e)), matrix=_x_matrix(e))


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


def _x_report(e: tuple, n_x_nonzero: float, n_x_zero: float, label: str) -> ModelReport:
    """Cross-checked report of the X-state with entries e, whose closed
    concurrence is C = (2/Z) max{0, |rho12| - sqrt(rho00 rho33)}.

    ``n_x_nonzero`` and ``n_x_zero`` are the closed nonlocality on either
    side of the marginal cutoff; the one for the branch the pipeline took
    is checked and reported, so the closed form and the pipeline never
    split a point near |x| = 1e-9 between two branches.
    """
    c_closed = (2.0 / e[4]) * max(0.0, _x_gap(e))
    pipeline = measures.report(_x_matrix(e))
    n_closed = n_x_zero if pipeline.branch == BRANCH_X_ZERO else n_x_nonzero
    c_dev = abs(c_closed - pipeline.concurrence)
    n_dev = abs(n_closed - pipeline.min_value)
    checks = (("concurrence", c_closed, c_dev), ("nonlocality", n_closed, n_dev))
    for what, closed, dev in checks:
        if dev > CROSS_CHECK_TOL:
            raise ClosedFormMismatch(
                f"{label}: closed {what} {closed!r} deviates from the pipeline by {dev:.3e}"
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
    e = _isodm_entries(p.j, p)
    n_closed = 2.0 * abs(e[3]) ** 2 / e[4] ** 2
    return _x_report(e, n_closed, n_closed, "isodm")


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
    e = _xxz_entries(p.j, p)
    dp, eps, dm, kappa, z = e
    t12_sq = kappa**2 / z**2
    t3 = (dp + dm - 2.0 * eps) / (2.0 * z)
    return _x_report(e, 2.0 * t12_sq, t12_sq + max(t12_sq, t3 * t3), "xxz")


def _bisect_root(entries, p: _ModelParams, lo: float, hi: float, f_lo: float) -> float:
    while hi - lo > BISECT_WIDTH:
        mid = (lo + hi) / 2.0
        f_mid = _x_gap(entries(mid, p))
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def _first_root(label: str, entries, p: _ModelParams) -> float:
    """First sign change of the X-state gap of ``entries(j, p)`` over an
    ascending uniform scan of ``SCAN_POINTS`` values of j in [-50, 50],
    refined by bisection to an interval of 1e-9. The gap is evaluated as
    the scan goes, so no point past the first bracket is computed. Raises
    :class:`NoSignChange` when the scan finds no bracket."""
    xs = np.linspace(SCAN_RANGE[0], SCAN_RANGE[1], SCAN_POINTS).tolist()
    prev = _x_gap(entries(xs[0], p))
    if prev == 0.0:
        return xs[0]
    for lo, hi in zip(xs, xs[1:]):
        value = _x_gap(entries(hi, p))
        if (prev < 0.0) != (value < 0.0):
            return _bisect_root(entries, p, lo, hi, prev)
        if value == 0.0:
            return hi
        prev = value
    at = ", ".join(f"{f.name}={getattr(p, f.name):g}" for f in fields(p)[1:])
    raise NoSignChange(
        f"{label} threshold at {at}: no sign change over j in "
        f"[{SCAN_RANGE[0]:g}, {SCAN_RANGE[1]:g}]"
    )


def critical_coupling_isodm(d: float) -> float:
    """Exchange threshold j_c where the isodm concurrence first turns on:
    the root of |nu(j, d)| = mu(j, d). Concurrence is positive for j > j_c
    and zero for j <= j_c in a neighborhood of the root."""
    return _first_root("isodm", _isodm_entries, IsoDMParams(0.0, d))


def critical_coupling_xxz(delta: float, b: float) -> float:
    """Exchange threshold j_c of the xxz concurrence: the root of
    |kappa| = sqrt(delta_plus delta_minus), i.e. sinh|j| = exp(-j(1+delta)).
    The field b cancels from the condition, so the threshold is
    b-independent (the field suppresses the magnitude of the concurrence
    above threshold but does not move the threshold)."""
    return _first_root("xxz", _xxz_entries, XXZParams(0.0, delta, b))
