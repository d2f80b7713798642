"""Two-qubit correlation measures for thermal spin models.

The package computes concurrence, a closed-form measurement-disturbance
minimum, and geometric-discord quantities for arbitrary two-qubit density
matrices, provides exact thermal states of two anisotropic spin models
(Heisenberg + Dzyaloshinskii-Moriya, and XXZ in a field), locates critical
exchange couplings where entanglement turns on, and verifies every closed
form against brute-force oracles on a deterministic random-state stream.
"""

from .bloch import BlochForm, decompose
from .errors import (
    ClosedFormMismatch,
    InvalidState,
    NoSignChange,
    NonFiniteParameter,
    OracleMismatch,
    SpincorrError,
)
from .measures import MeasureReport, concurrence, report
from .models import (
    IsoDMParams,
    ModelReport,
    XXZParams,
    critical_coupling_isodm,
    critical_coupling_xxz,
    measures_isodm,
    measures_xxz,
    thermal_isodm,
    thermal_xxz,
)
from .oracle import OracleResult, gmod_oracle, min_oracle, ppt_entangled
from .rng import Lcg, random_state

__version__ = "0.1.0"

__all__ = [
    "BlochForm",
    "ClosedFormMismatch",
    "InvalidState",
    "IsoDMParams",
    "Lcg",
    "MeasureReport",
    "ModelReport",
    "NoSignChange",
    "NonFiniteParameter",
    "OracleMismatch",
    "OracleResult",
    "SpincorrError",
    "XXZParams",
    "concurrence",
    "critical_coupling_isodm",
    "critical_coupling_xxz",
    "decompose",
    "gmod_oracle",
    "measures_isodm",
    "measures_xxz",
    "min_oracle",
    "ppt_entangled",
    "random_state",
    "report",
    "thermal_isodm",
    "thermal_xxz",
]
