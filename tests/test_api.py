"""The package's public surface, pinned so that adding or removing a public
name is a deliberate change to this list."""

import spincorr

PUBLIC_NAMES = [
    "BlochForm",
    "ClosedFormMismatch",
    "InvalidState",
    "IsoDMParams",
    "Lcg",
    "MeasureReport",
    "ModelReport",
    "NoSignChange",
    "NonFiniteParameter",
    "NonHermitianInput",
    "NotPositiveSemidefinite",
    "OracleMismatch",
    "OracleResult",
    "SpincorrError",
    "XXZParams",
    "concurrence",
    "critical_coupling_isodm",
    "critical_coupling_xxz",
    "decompose",
    "gmod_exact",
    "gmod_lower",
    "gmod_oracle",
    "measures_isodm",
    "measures_xxz",
    "min_closed",
    "min_oracle",
    "ppt_entangled",
    "random_state",
    "report",
    "thermal_isodm",
    "thermal_xxz",
]


def test_public_names_are_pinned():
    assert sorted(spincorr.__all__) == PUBLIC_NAMES
    assert all(hasattr(spincorr, name) for name in PUBLIC_NAMES)
