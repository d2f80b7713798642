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

Critical couplings (where concurrence first becomes nonzero) are the first
bracket of a gap sign change on a uniform grid of j in [-50, 50], refined
by bisection. Each model sets one number, ``walk_to``: the search visits
the grid points with j <= ``walk_to`` one by one and cuts the rest of the
grid at the last j <= 0 and at the last point, into pieces on which the
gap's sign is provably monotone. It evaluates each piece's end and
binary-searches the piece that holds the first stop. The xxz gap is
monotone on j <= 0 and on j > 0, so xxz walks no point
(``walk_to = -math.inf``): about 40 gap evaluations in place of about
1,000. The isodm gap is monotone on j > 0, so isodm walks j <= 0
(``walk_to = 0.0``) and then evaluates the last point: 1,002 evaluations
where no root exists, in place of 2,001. An entry that overflows counts
as a stop, so both searches give the bracket, root bits, ``NoSignChange``
and ``OverflowError`` of a scan that visits every grid point in order.
"""

import bisect
import functools
import math
import numbers
from dataclasses import dataclass, fields

# numpy and measures are imported where used: the critical search needs neither.
from .errors import ClosedFormMismatch, NonFiniteParameter, NoSignChange

CROSS_CHECK_TOL = 1e-10
SCAN_RANGE = (-50.0, 50.0)
SCAN_POINTS = 2001
BISECT_WIDTH = 1e-9


class _ModelParams:
    """Base of the params dataclasses: the exchange ``j`` comes first and
    the model's secondary parameters follow it. Every field must be a finite
    real number (``bool`` is not one) and is stored as a Python float: an
    exact float as given, anything else converted, so numpy scalars such as
    ``np.float32`` carry no single precision into the closed forms."""

    def __post_init__(self):
        # fields(self)'s names without its per-call tuple: no ClassVar or InitVar fields here.
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if type(value) is float and math.isfinite(value):
                continue  # float(value) is value, which __init__ stored
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
    matrix: "np.ndarray"


def _sinhc(x: float) -> float:
    """sinh(x)/x with a series fallback near the removable singularity;
    below 1e-6 the series' next term, x**4/120, is under half an ulp of 1."""
    if abs(x) < 1e-6:
        return 1.0 + x * x / 6.0
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
    grow = math.exp(j / 2.0)
    omega = grow * math.cosh(eta)
    nu = -(j + 1j * d) * grow * _sinhc(eta)
    return mu, omega, mu, nu, 2.0 * (mu + omega)


def _xxz_entries(j: float, p: XXZParams) -> tuple[float, float, float, float, float]:
    """Closed-form entries (delta_plus, epsilon, delta_minus, kappa, Z) of
    the xxz thermal state at exchange ``j`` and ``p.delta``, ``p.b``. All are
    real."""
    delta, b = p.delta, p.b
    alpha = j * (1.0 + delta) / 2.0
    delta_plus = math.exp(-(alpha + b))
    delta_minus = math.exp(-(alpha - b))
    grow = math.exp(alpha)
    epsilon = grow * math.cosh(j)
    kappa = -grow * math.sinh(j)
    return delta_plus, epsilon, delta_minus, kappa, delta_plus + delta_minus + 2.0 * epsilon


def _x_matrix(e: tuple) -> "np.ndarray":
    """The unit-trace X-state of entries e = (rho00, rho11, rho33, rho12, Z),
    with its structural zeros exactly zero."""
    import numpy as np

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
    entangled exactly where it is positive. A |rho12| beyond the float
    range reads as +inf, also where ``abs`` raises on finite parts."""
    try:
        rho12 = abs(e[3])
    except OverflowError:
        rho12 = math.inf
    return rho12 - math.sqrt(e[0] * e[2])


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
    pipeline: "measures.MeasureReport"
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
    import spincorr.measures as measures  # cheaper per row than a relative import

    c_closed = (2.0 / e[4]) * max(0.0, _x_gap(e))
    pipeline = measures.report(_x_matrix(e))
    n_closed = n_x_zero if pipeline.branch == measures.BRANCH_X_ZERO else n_x_nonzero
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


@functools.lru_cache(maxsize=4)
def _scan_grid(lo: float, hi: float, points: int) -> tuple:
    """The ascending uniform scan grid, built once per (range, points), by
    the arithmetic of ``np.linspace``: lo + i * step, and hi as the last point."""
    step = (hi - lo) / (points - 1)
    return (*(i * step + lo for i in range(points - 1)), hi)


def _first_root(label: str, entries, p: _ModelParams, walk_to: float) -> float:
    """First sign change of the X-state gap of ``entries(j, p)`` over the
    ascending uniform grid of ``SCAN_POINTS`` values of j in [-50, 50],
    refined by bisection to an interval of 1e-9. Raises
    :class:`NoSignChange` when no two adjacent grid points bracket a root.

    The result is that of a dense scan which evaluates the gap point by
    point from j = -50 and stops at the first point that overflows
    (``OverflowError`` propagates), has the other sign than the first
    point (bisect from the point before it), or is an exact zero reached
    from above (return it). The search visits the grid points with
    j <= ``walk_to`` one by one, as the dense scan does. It cuts the rest
    of the grid at the last j <= 0 and at the last point, skipping a cut
    at or before the last walked point; the caller must know that on each
    piece so cut "the dense scan has stopped here or earlier" is false and
    then true. The search evaluates each piece's end, and only in the
    piece where that holds does it binary-search for the first such
    point; the gap there and at the point before it are the dense scan's
    values, so bracket, bisection and exit are its own, bit for bit.
    ``walk_to = math.inf`` is the dense scan itself."""
    xs = _scan_grid(SCAN_RANGE[0], SCAN_RANGE[1], SCAN_POINTS)
    walked = bisect.bisect_right(xs, walk_to) - 1
    cuts = (bisect.bisect_right(xs, 0.0) - 1, len(xs) - 1)
    first = _x_gap(entries(xs[0], p))
    if first == 0.0:
        return xs[0]
    negative = first < 0.0
    last = first  # the gap stopped() saw, None where an entry overflowed

    def stopped(i: int) -> bool:
        nonlocal last
        try:
            last = _x_gap(entries(xs[i], p))
        except OverflowError:
            last = None
            return True
        return (last < 0.0) != negative or last == 0.0

    lo, f_lo = 0, first
    for hi in (*range(1, walked + 1), *(i for i in cuts if i > walked)):
        if not stopped(hi):
            lo, f_lo = hi, last
            continue
        f_hi = last
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if stopped(mid):
                hi, f_hi = mid, last
            else:
                lo, f_lo = mid, last
        if f_hi is None:  # raises the dense scan's OverflowError again
            _x_gap(entries(xs[hi], p))
        if (f_hi < 0.0) != negative:
            return _bisect_root(entries, p, xs[lo], xs[hi], f_lo)
        return xs[hi]
    at = ", ".join(f"{f.name}={getattr(p, f.name):g}" for f in fields(p)[1:])
    raise NoSignChange(
        f"{label} threshold at {at}: no sign change over j in "
        f"[{SCAN_RANGE[0]:g}, {SCAN_RANGE[1]:g}]"
    )


def critical_coupling_isodm(d: float) -> float:
    """Exchange threshold j_c where the isodm concurrence first turns on:
    the root of |nu(j, d)| = mu(j, d). Concurrence is positive for j > j_c
    and zero for j <= j_c in a neighborhood of the root. The search walks
    every grid point with j <= 0 (``walk_to = 0.0``), which is the dense
    scan there, then evaluates the last point and binary-searches j > 0 if
    the sign moved there, with the dense scan's result. The argument below
    holds for every d and for grid steps h in [0.01, 0.05], that is for
    2001 <= SCAN_POINTS <= 10001.

    Sign. With eta = hypot(j, d), |nu| = e^(j/2) sinh(eta) and
    mu = e^(-j/2), so the gap has the sign of g(j) = j + log sinh(eta). On
    j > 0, g' = 1 + coth(eta) j/eta >= 1: g increases. The j > 0 piece is
    searched only when every grid point up to the last one j_k <= 0 has
    the sign of gap(-50), and that leaves two cases.

    - gap(-50) < 0. Along j > 0 the sign runs - then +, so "left the sign
      of gap(-50) or hit zero" is false and then true.
    - gap(-50) > 0. Then gap(j_k) > 0, so g(j_k) > -1e-12 (see Rounding),
      with -h < j_k <= 0. That needs sinh(eta_k) > e^(-1e-12), so
      eta_k > 0.8813 and |d| > 0.8799. On [j_k, 0], eta >= |d| and
      g' >= 1 - 0.05 coth(0.8799)/0.8799 > 0.9; on j > 0, g' >= 1. So at
      every grid point j > 0, g > 0.9 h - 1e-12 > 0.008: the sign stays +
      and the search evaluates the last point only.

    Rounding. For |d| <= 680, mu lies in [e^-25, e^25], |nu| is normal
    or far below mu, and the computed |nu| and mu carry relative errors
    below eta eps + 8 eps < 1e-13 (eps = 2^-53; the eta eps term is the
    rounding of hypot passed through sinh). So the computed gap has the
    sign of g wherever |g| > 1e-12. As g' >= 1 on j > 0 and grid points
    lie at least 0.01 apart, at most one grid point there has
    |g| <= 1e-12, next to the root, and either sign there keeps the sign
    sequence monotone. For |d| > 680, g > -50 + log sinh(680) > 600 on
    all of [-50, 50], so every computed gap is positive, +inf included.

    Overflow. exp(+-j/2) <= e^25, so an entry raises only from cosh or
    sinh of eta, each above one fixed argument. The computed eta is even
    in j and, at |j| <= 50 - h, below its value at j = +-50 by far more
    than its rounding. So either j = -50, the first point evaluated,
    raises as in the dense scan, or no grid point does. Nothing else
    raises: a |nu| beyond the float range reads as a +inf gap (see
    :func:`_x_gap`). For |d| <= 680 nothing overflows: every entry, each
    part of nu and |nu| is at most e^25 cosh(hypot(50, 680)) < e^707."""
    return _first_root("isodm", _isodm_entries, IsoDMParams(0.0, d), 0.0)


def critical_coupling_xxz(delta: float, b: float) -> float:
    """Exchange threshold j_c of the xxz concurrence: the root of
    |kappa| = sqrt(delta_plus delta_minus), i.e. sinh|j| = exp(-j(1+delta)).
    The field b cancels from the condition, so the threshold is
    b-independent (the field suppresses the magnitude of the concurrence
    above threshold but does not move the threshold). The search walks no
    grid point (``walk_to = -math.inf``): it evaluates the ends of two
    pieces, the last j <= 0 and the last point, and binary-searches the
    first piece where the sign moved, about 40 gap evaluations in place of
    one per grid point, with the dense scan's result. The argument below
    holds for grid steps h in [0.01, 0.05], that is for
    2001 <= SCAN_POINTS <= 10001.

    Sign. With alpha = j(1+delta)/2, |kappa| = e^alpha sinh|j| and
    sqrt(delta_plus delta_minus) = e^-alpha, so the gap has the sign of
    f(j) = log sinh|j| + j(1+delta), and b cancels. Read delta as the value
    1+delta rounds to, minus 1. Unless an entry overflows at j = -50,
    where the search starts, |1+delta| <= 709.78/25 < 28.4.

    - On j < 0, f = log(1 - e^(-2|j|)) - ln 2 - delta|j|. When delta >= 0,
      f < -delta|j| - ln 2 < 0. When delta < 0, f' = (1+delta) - coth|j|
      <= delta < 0, so f decreases.
    - At j = 0, kappa = -0.0, so the gap is -sqrt(delta_plus delta_minus):
      exactly negative, as e^-b and e^b cannot both underflow without one
      of them overflowing. Along j <= 0 the sign is + then -, or -
      throughout.
    - The j > 0 piece is searched only when every point of the first has
      the sign of gap(-50), and that sign is -. A + at the last point
      j_m <= 0, within h of 0, would need f(j_m) > 0, but f(j_m) <=
      log sinh h + 28.4 h < -1.5. And gap(-50) < 0 needs f(-50) =
      -ln 2 - 50 delta < 1e-12, that is delta > -0.014 >= -2, where
      f' = coth j + 1 + delta > 1.9 on j > 0: f increases.

    Rounding. The computed gap has the sign of f wherever |f| > 1e-12.
    |f| < 1 needs |j| > 0.06, and then alpha < 1.9, so no entry lies
    below e^-714 (the partner of a small delta stays below e^709.78):
    every factor is normal or nearly so and carries a relative error
    below 1e-12. Where |f| >= 1 the two sides stay apart. |kappa|
    overflows silently to inf only when alpha > 660, and
    delta_plus delta_minus only when alpha < -354: each on the side of
    its true sign, never both, so no NaN. A delta below e^-714 with its
    partner finite needs alpha > 2.1, so |j| > 0.14 and f > 2.3; rounding
    at most triples such a delta or flushes it to zero, which keeps the
    gap positive. On a piece, f is monotone with slope at least |delta|
    (j <= 0) or 1.9 (j > 0). Two grid points at least 0.01 apart can
    both have |f| <= 1e-12 only when |delta| < 2e-10, and then f < -0.69
    on all of j <= 0. So at most one grid point per piece, next to the
    root, can take another sign than f, and either sign there keeps the
    sign sequence monotone.

    Overflow. ``math.exp`` raises above one fixed argument, and the
    computed arguments -(alpha+b), -(alpha-b) and alpha are monotone in
    j, as every rounded operation is; cosh and sinh never overflow on
    [-50, 50]. So each entry overflows on a prefix or a suffix of the
    grid, and the points where none overflows are contiguous. If j = -50
    does not raise, the points that do form a suffix. Either way,
    "overflowed, or left the sign of gap(-50), or hit zero" is false and
    then true on each piece."""
    return _first_root("xxz", _xxz_entries, XXZParams(0.0, delta, b), -math.inf)
