"""The thermal models against exact references computed in ``decimal``.

The closed forms ``ModelReport.c_closed`` and ``n_closed``, the pipeline
values the CLI prints, and the critical couplings are compared with
``reference``'s 50-digit values. Each tolerance is about 4x the largest
error measured over 8,000 seeded points per model (the roots: the largest
error the 1e-9 bisection interval allows).
"""

import numpy as np
import pytest

from spincorr.errors import NoSignChange
from spincorr.models import (
    IsoDMParams,
    XXZParams,
    critical_coupling_isodm,
    critical_coupling_xxz,
    measures_isodm,
    measures_xxz,
)
from spincorr.rng import Lcg

from reference import (
    gibbs,
    hamiltonian_isodm,
    hamiltonian_xxz,
    isodm_entries,
    isodm_threshold,
    x_state_measures,
    xxz_entries,
    xxz_threshold,
)

# |c_closed - C| over the larger of the gap's two terms, (2/Z) max(|rho12|,
# sqrt(rho00 rho33)): C is their difference, so near the threshold its own
# relative error grows without bound. Measured maximum 1.7e-15.
C_SCALED_TOL = 7e-15
# Relative error of n_closed. Measured maxima 2.4e-15 (isodm) and 1.9e-14
# (xxz, whose exponents reach 45 on this grid).
N_RELATIVE_TOL = {"isodm": 1e-14, "xxz": 8e-14}
# Absolute error of the pipeline's C, N, D and Q, the values the CLI
# prints. Measured maxima 1.5e-15, 6.1e-16, 2.8e-16 and 2.8e-16.
PIPELINE_TOL = {"C": 6e-15, "N": 2.5e-15, "D": 1.2e-15, "Q": 1.2e-15}
# critical_coupling_* bisects to an interval of 1e-9; the largest measured
# distance from the exact root is 3.7e-10.
ROOT_TOL = 5e-10
# Critical-coupling inputs of the byte-pinned CLI commands and the suite.
ROOT_INPUTS_ISODM = (0.0, 1.0, 2.0, 3.0, 10.0, 685.85)
ROOT_INPUTS_XXZ = ((0.0, 0.0), (0.0, 2.0), (0.0, 5.0), (-0.5, 3.0), (-1.0, 0.0), (-2.0, 0.0))


def _model_points(model: str):
    """200 seeded (params, exact entries, report) triples over j in [-20, 20],
    d in [-10, 10], delta in [-3, 3] and b in [-5, 5], every fourth b zero."""
    rng = Lcg(2024 if model == "isodm" else 2025)

    def uniform(lo, hi):
        return lo + (hi - lo) * rng.uniform()

    for k in range(200):
        if model == "isodm":
            j, d = uniform(-20.0, 20.0), uniform(-10.0, 10.0)
            yield (j, d), isodm_entries(j, d), measures_isodm(IsoDMParams(j, d))
        else:
            j, delta = uniform(-20.0, 20.0), uniform(-3.0, 3.0)
            b = 0.0 if k % 4 == 0 else uniform(-5.0, 5.0)
            yield (j, delta, b), xxz_entries(j, delta, b), measures_xxz(XXZParams(j, delta, b))


def test_exact_entries_match_the_gibbs_state():
    cases = [(isodm_entries(*p), hamiltonian_isodm(IsoDMParams(*p)))
             for p in ((1.0, 0.5), (-3.0, 2.0), (0.0, 0.0))]
    cases += [(xxz_entries(*p), hamiltonian_xxz(XXZParams(*p)))
              for p in ((1.0, 0.0, 1.0), (-2.0, 1.5, -0.5), (0.7, -2.0, 0.0))]
    for e, h in cases:
        got = gibbs(h, 1.0)
        want = [float(entry / e.z) for entry in (e.r00, e.r11, e.r11, e.r33)]
        assert np.max(np.abs(np.diag(got) - want)) <= 1e-12
        assert abs(abs(got[1, 2]) - float(e.r12_abs / e.z)) <= 1e-12


@pytest.mark.parametrize("model", ["isodm", "xxz"])
def test_model_values_match_the_exact_reference(model):
    for params, e, got in _model_points(model):
        exact = x_state_measures(e)
        pipeline = got.pipeline
        assert exact.x_zero == (pipeline.branch == "XZero"), params
        scale = float(2 * max(e.r12_abs, (e.r00 * e.r33).sqrt()) / e.z)
        assert abs(got.c_closed - float(exact.c)) <= C_SCALED_TOL * scale, params
        assert abs(got.n_closed - float(exact.n)) <= N_RELATIVE_TOL[model] * float(exact.n), params
        printed = {"C": pipeline.concurrence, "N": pipeline.min_value,
                   "D": pipeline.gmod_exact, "Q": pipeline.gmod_lower}
        for name, value in printed.items():
            assert abs(value - float(getattr(exact, name.lower()))) <= PIPELINE_TOL[name], (name, params)


def _assert_root_matches(compute, exact, label):
    if exact is None:
        with pytest.raises(NoSignChange):
            compute()
    else:
        assert abs(compute() - float(exact)) <= ROOT_TOL, label


def test_critical_isodm_matches_the_exact_root():
    rng = Lcg(31)
    seeded = tuple(-9.0 + 18.0 * rng.uniform() for _ in range(50))
    for d in ROOT_INPUTS_ISODM + seeded:
        _assert_root_matches(lambda: critical_coupling_isodm(d), isodm_threshold(d), d)


def test_critical_xxz_matches_the_exact_root():
    rng = Lcg(37)
    seeded = tuple((-3.0 + 6.0 * rng.uniform(), -5.0 + 10.0 * rng.uniform()) for _ in range(50))
    for delta, b in ROOT_INPUTS_XXZ + seeded:
        _assert_root_matches(lambda: critical_coupling_xxz(delta, b), xxz_threshold(delta), (delta, b))
