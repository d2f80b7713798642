"""Independent references the tests check the package against.

None of these is used by the library or the CLI. They rebuild what the
closed forms shortcut, the long way: the squared Hilbert-Schmidt norm,
Hamiltonians of the two spin models, Gibbs states by
eigendecomposition, partial traces, Bloch-form reconstruction, Haar
unitaries, the measured state of a local projective measurement and its
``np.kron`` projector algebra, a randomized spot check that dephasing is
the nearest zero-discord state in a fixed basis, and the dense threshold scan
that evaluates the gap at every grid point up to the first bracket, and
``fmt12`` as a format-spec f-string per number. ``PAULIS`` is the tests'
one written-out table of sigma_x, sigma_y and sigma_z.

Only ``dense_first_root`` still runs package code: it evaluates the gap
with ``models._x_gap`` and refines with ``models._bisect_root``. Random
inputs come from the ``spincorr.rng.Lcg`` stream through two generators the
package does not need: ``gaussian_matrix(rng, dim)``, a dim x dim matrix of
complex standard normals, and ``random_qubit_state(rng)``, a random 2x2
density matrix drawn the way ``spincorr.rng.random_state`` draws its 4x4
state.

The exact references work in ``decimal`` at 50 digits and take float
arguments at their exact binary values: the X-state entries of both
thermal models, C, N, D and Q of an X-state from its entries, and the
threshold roots of both models, bisected on the sign of the threshold
condition in log form. They share no formula with the package.
"""

import math
from collections import namedtuple
from decimal import Decimal, localcontext

import numpy as np

from spincorr import models
from spincorr.bloch import BlochForm
from spincorr.errors import NoSignChange
from spincorr.models import IsoDMParams, XXZParams
from spincorr.rng import Lcg

# The tests' one table of sigma_x, sigma_y, sigma_z, and the Bloch-form
# operators, built here rather than taken from the package.
I2 = np.eye(2, dtype=complex)
PAULIS = np.array(
    [[[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0j], [1.0j, 0.0]], [[1.0, 0.0], [0.0, -1.0]]],
    dtype=complex,
)
_BASIS_A = [np.kron(s, I2) for s in PAULIS]
_BASIS_B = [np.kron(I2, s) for s in PAULIS]
_BASIS_AB = [[np.kron(si, sj) for sj in PAULIS] for si in PAULIS]


def hs_norm2(a: np.ndarray) -> float:
    """Squared Hilbert-Schmidt norm tr(A^dagger A) = sum of |entries|^2."""
    return float(np.vdot(a, a).real)


def gibbs(h: np.ndarray, beta: float) -> np.ndarray:
    """Thermal state exp(-beta*H) / tr exp(-beta*H) of a Hermitian H at a
    finite, positive beta.

    The minimum of beta*values is subtracted from every exponent before
    exponentiation, so the result stays finite for arbitrarily large
    couplings.
    """
    h = np.asarray(h, dtype=complex)
    values, vectors = np.linalg.eigh((h + h.conj().T) / 2.0)
    exponents = -beta * values
    weights = np.exp(exponents - exponents.max())
    rho = (vectors * weights) @ vectors.conj().T
    rho /= weights.sum()
    return (rho + rho.conj().T) / 2.0


def partial_trace(rho: np.ndarray, subsystem: str) -> np.ndarray:
    """Trace a 4x4 two-qubit operator down to one qubit.

    ``subsystem`` names the qubit to trace *out*: ``"B"`` returns the
    first qubit's 2x2 marginal, ``"A"`` the second's. Trace and hermiticity
    are preserved.
    """
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if subsystem == "B":
        return np.trace(r, axis1=1, axis2=3)
    return np.trace(r, axis1=0, axis2=2)


def hamiltonian_isodm(p: IsoDMParams) -> np.ndarray:
    """Hamiltonian (in units of kT) of the isotropic + DM model."""
    sx, sy, sz = PAULIS
    exchange = np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)
    antisym = np.kron(sx, sy) - np.kron(sy, sx)
    return 0.5 * (p.j * exchange + p.d * antisym)


def hamiltonian_xxz(p: XXZParams) -> np.ndarray:
    """Hamiltonian (in units of kT) of the XXZ model in a z field."""
    sx, sy, sz = PAULIS
    exchange = np.kron(sx, sx) + np.kron(sy, sy) + (1.0 + p.delta) * np.kron(sz, sz)
    field = np.kron(sz, I2) + np.kron(I2, sz)
    return 0.5 * (p.j * exchange + p.b * field)


def gaussian_matrix(rng: Lcg, dim: int) -> np.ndarray:
    """dim x dim matrix of independent complex standard normals, row-major,
    each real part drawn before its imaginary part."""
    parts = [rng.normal() for _ in range(2 * dim * dim)]
    return np.array(parts).view(complex).reshape(dim, dim)


def random_qubit_state(rng: Lcg) -> np.ndarray:
    """Random 2x2 density matrix G G^dagger / tr(G G^dagger), the qubit
    analogue of ``spincorr.rng.random_state``.

    Full-rank with probability one, Hermitian, unit trace, PSD.
    """
    g = gaussian_matrix(rng, 2)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0


def random_unitary(rng: Lcg) -> np.ndarray:
    """Haar-distributed 2x2 unitary from the QR decomposition of a Gaussian
    matrix, with the R diagonal's phases absorbed so the factorization is
    unique."""
    q, r = np.linalg.qr(gaussian_matrix(rng, 2))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def reconstruct(form: BlochForm) -> tuple[np.ndarray, bool]:
    """Assemble the density matrix of a Bloch form.

    Returns ``(matrix, is_valid)``. The matrix is always Hermitian with
    unit trace; ``is_valid`` reports whether it is also positive
    semidefinite (within 1e-10), since arbitrary Bloch components need not
    describe a physical state. For valid output, ``decompose`` recovers the
    input components within 1e-12.
    """
    rho = np.eye(4, dtype=complex) / 4.0
    for i in range(3):
        rho += 0.5 * form.x[i] * _BASIS_A[i]
        rho += 0.5 * form.y[i] * _BASIS_B[i]
        for j in range(3):
            rho += 0.5 * form.T[i, j] * _BASIS_AB[i][j]
    rho = (rho + rho.conj().T) / 2.0
    is_valid = bool(np.linalg.eigvalsh(rho).min() >= -1e-10)
    return rho, is_valid


def post_measurement(rho: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Apply the local projective measurement along ``n`` to the first qubit.

    :func:`kron_dephase` of the Hermitian part of ``rho``, symmetrized.
    Idempotent for a unit ``n``: applying twice equals applying once within
    1e-12.
    """
    rho = np.asarray(rho, dtype=complex)
    out = kron_dephase((rho + rho.conj().T) / 2.0, n)
    return (out + out.conj().T) / 2.0


def tensor_projectors(n: np.ndarray) -> np.ndarray:
    """P (x) I for the kron algebra's P = (I2 + s n.sigma)/2, s = +1 then -1,
    as a (2, 4, 4) stack: entry (i, j) of P, bit for bit, on the diagonal
    of block (i, j), and +0.0 everywhere else. np.kron has the same values
    but multiplies by the entries of I2, and those complex products give
    some zeros a sign the factor does not hold, so its bytes are no
    reference for zero signs."""
    n_sigma = n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]
    out = np.zeros((2, 4, 4), dtype=complex)
    for proj, sign in zip(out, (1.0, -1.0)):
        proj[0::2, 0::2] = proj[1::2, 1::2] = (I2 + sign * n_sigma) / 2.0
    return out


def kron_dephase(rho: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The projector algebra spelled out with np.kron: sum over the two signs
    of (P (x) I) rho (P (x) I), P = (I +/- n.sigma)/2."""
    n_sigma = n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]
    out = np.zeros_like(rho)
    for sign in (1.0, -1.0):
        proj = np.kron((I2 + sign * n_sigma) / 2.0, I2)
        out += proj @ rho @ proj
    return out


def nested_gmod_spotcheck(rho: np.ndarray, n: np.ndarray, k: int) -> float:
    """Randomized check that dephasing is optimal within a fixed basis.

    Draws ``k`` random zero-discord candidates p |+n><+n| (x) rho_1 +
    (1-p) |-n><-n| (x) rho_2 from ``Lcg(1)``, in the basis fixed by the
    unit vector ``n``, and returns the smallest squared Hilbert-Schmidt
    distance to ``rho``. That minimum can never undercut the dephased
    distance by more than roundoff (dephasing uses the optimal weights and
    conditional states).
    """
    rho = np.asarray(rho, dtype=complex)
    rho = (rho + rho.conj().T) / 2.0
    n_sigma = n[0] * PAULIS[0] + n[1] * PAULIS[1] + n[2] * PAULIS[2]
    proj_plus = (I2 + n_sigma) / 2.0
    proj_minus = (I2 - n_sigma) / 2.0
    rng = Lcg(1)
    best = math.inf
    for _ in range(k):
        p = rng.uniform()
        rho_1 = random_qubit_state(rng)
        rho_2 = random_qubit_state(rng)
        candidate = p * np.kron(proj_plus, rho_1) + (1.0 - p) * np.kron(
            proj_minus, rho_2
        )
        best = min(best, hs_norm2(rho - candidate))
    return best


def dense_first_root(label: str, entries, p) -> float:
    """First sign change of the X-state gap of ``entries(j, p)`` over an
    ascending uniform scan of ``models.SCAN_POINTS`` values of j in
    [-50, 50], refined by ``models._bisect_root``: the gap is evaluated at
    every grid point up to the first bracket. Raises :class:`NoSignChange`
    when the scan finds no bracket, and lets the first ``OverflowError``
    of the entries through."""
    xs = np.linspace(models.SCAN_RANGE[0], models.SCAN_RANGE[1], models.SCAN_POINTS).tolist()
    prev = models._x_gap(entries(xs[0], p))
    if prev == 0.0:
        return xs[0]
    for lo, hi in zip(xs, xs[1:]):
        value = models._x_gap(entries(hi, p))
        if (prev < 0.0) != (value < 0.0):
            return models._bisect_root(entries, p, lo, hi, prev)
        if value == 0.0:
            return hi
        prev = value
    at = ", ".join(f"{name}={getattr(p, name):g}" for name in p._fields[1:])
    raise NoSignChange(
        f"{label} threshold at {at}: no sign change over j in "
        f"[{models.SCAN_RANGE[0]:g}, {models.SCAN_RANGE[1]:g}]"
    )


def fmt12_fstring(value: float) -> str:
    """``cli.fmt12`` written with a format spec built per number: 12
    significant digits, fixed from 1e-4 up, scientific below."""
    if value == 0.0:
        return "0.000000000000"
    if abs(value) < 1e-4:
        return f"{value:.11e}"
    decimals = max(0, 11 - math.floor(math.log10(abs(value))))
    return f"{value:.{decimals}f}"


_DIGITS = 50
# The nonlocality branch cutoff on |x|, at the float's exact value.
_X_CUTOFF = Decimal(1e-9)
_ROOT_RANGE = (Decimal(-50), Decimal(50))
_ROOT_WIDTH = Decimal("1e-22")

XEntries = namedtuple("XEntries", "r00 r11 r33 r12_abs z")
XMeasures = namedtuple("XMeasures", "c n d q x_zero")


def _sinh_cosh(x: Decimal) -> tuple[Decimal, Decimal]:
    grow = x.exp()
    return (grow - 1 / grow) / 2, (grow + 1 / grow) / 2


def isodm_entries(j: float, d: float) -> XEntries:
    """Exact unnormalized X-state entries of the isodm thermal state:
    rho00 = rho33 = e^(-j/2), rho11 = e^(j/2) cosh eta and
    |rho12| = e^(j/2) sinh eta with eta = hypot(j, d), Z their trace."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        j, d = Decimal(j), Decimal(d)
        sinh, cosh = _sinh_cosh((j * j + d * d).sqrt())
        grow = (j / 2).exp()
        mu = 1 / grow
        return XEntries(mu, grow * cosh, mu, grow * sinh, 2 * (mu + grow * cosh))


def xxz_entries(j: float, delta: float, b: float) -> XEntries:
    """Exact unnormalized X-state entries of the xxz thermal state: with
    alpha = j(1+delta)/2, rho00 = e^-(alpha+b), rho33 = e^-(alpha-b),
    rho11 = e^alpha cosh j and |rho12| = e^alpha sinh|j|, Z their trace."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        j, delta, b = Decimal(j), Decimal(delta), Decimal(b)
        alpha = j * (1 + delta) / 2
        sinh, cosh = _sinh_cosh(abs(j))
        grow = alpha.exp()
        r00, r33 = (-(alpha + b)).exp(), (b - alpha).exp()
        return XEntries(r00, grow * cosh, r33, grow * sinh, r00 + r33 + 2 * grow * cosh)


def x_state_measures(e: XEntries) -> XMeasures:
    """Exact C, N, D and Q of the X-state with entries ``e``, in the
    half-trace Bloch normalization. With t12^2 = |rho12|^2/Z^2,
    t3 = (rho00 + rho33 - 2 rho11)/(2Z) and x_z = (rho00 - rho33)/(2Z), the
    state has x = (0, 0, x_z), T T^t = diag(t12^2, t12^2, t3^2) and
    S = diag(t12^2, t12^2, x_z^2 + t3^2)/4. N takes the pipeline's branch
    rule: 2 t12^2 when |x_z| > 1e-9 (``x_zero`` false), else
    t12^2 + max(t12^2, t3^2)."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        t12_sq = (e.r12_abs / e.z) ** 2
        t3 = (e.r00 + e.r33 - 2 * e.r11) / (2 * e.z)
        x_z = (e.r00 - e.r33) / (2 * e.z)
        x_zero = abs(x_z) <= _X_CUTOFF
        k_pair, k_z = t12_sq / 4, (x_z * x_z + t3 * t3) / 4
        trace_s = 2 * k_pair + k_z
        # The spectrum of S is (k_pair, k_pair, k_z): sum_{i<j} (k_i - k_j)^2 = 2 (k_pair - k_z)^2.
        return XMeasures(
            c=max(Decimal(0), 2 * (e.r12_abs - (e.r00 * e.r33).sqrt()) / e.z),
            n=t12_sq + max(t12_sq, t3 * t3) if x_zero else 2 * t12_sq,
            d=2 * (trace_s - max(k_pair, k_z)),
            q=Decimal(2) / 3 * (2 * trace_s - 2 * abs(k_pair - k_z)),
            x_zero=x_zero,
        )


def _bisect_sign(f, lo: Decimal, hi: Decimal, negative: bool) -> Decimal:
    """A root of f in [lo, hi], bisected to an interval below 1e-22, where
    f has the sign ``negative`` says next to lo and the other one next to
    hi. Neither end is evaluated."""
    while hi - lo >= _ROOT_WIDTH:
        mid = (lo + hi) / 2
        value = f(mid)
        if value == 0:
            return mid
        if (value < 0) == negative:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def isodm_threshold(d: float) -> Decimal | None:
    """Exact first root on [-50, 50] of g(j) = j + ln sinh(hypot(j, d)),
    where |rho12| = rho00 of the isodm model, or None where g(-50) >= 0.
    g changes sign there only if g(-50) < 0, and then once, from - to +:
    its critical points on j < 0 lie below -0.58, and g' >= 1 on j > 0."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        d = Decimal(d)

        def g(j):
            return j + _sinh_cosh((j * j + d * d).sqrt())[0].ln()

        lo, hi = _ROOT_RANGE
        if g(lo) >= 0:
            return None
        return _bisect_sign(g, lo, hi, True)


def xxz_threshold(delta: float) -> Decimal | None:
    """Exact first root on [-50, 50] of f(j) = ln sinh|j| + j(1+delta),
    where |rho12| = sqrt(rho00 rho33) of the xxz model, for any field. f
    tends to -inf at j = 0. On j < 0 it is negative (delta >= 0) or
    decreasing (delta < 0). f(-50) <= 0 needs delta > -0.014, and then f
    increases on j > 0. So the root is in [-50, 0] when f(-50) > 0, else in
    [0, 50] when f(50) > 0, else there is none."""
    with localcontext() as ctx:
        ctx.prec = _DIGITS
        slope = 1 + Decimal(delta)

        def f(j):
            return _sinh_cosh(abs(j))[0].ln() + j * slope

        lo, hi = _ROOT_RANGE
        if f(lo) > 0:
            return _bisect_sign(f, lo, Decimal(0), False)
        if f(hi) > 0:
            return _bisect_sign(f, Decimal(0), hi, True)
        return None
