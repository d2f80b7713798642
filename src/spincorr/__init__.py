"""Two-qubit correlation measures for thermal spin models.

The package computes concurrence, a closed-form measurement-disturbance
minimum, and geometric-discord quantities for arbitrary two-qubit density
matrices, provides exact thermal states of two anisotropic spin models
(Heisenberg + Dzyaloshinskii-Moriya, and XXZ in a field), locates critical
exchange couplings where entanglement turns on, and verifies every closed
form against brute-force oracles on a deterministic random-state stream.

``import spincorr`` is lazy: it loads no submodule and no numpy. A public
name (``spincorr.report``) or a submodule (``spincorr.measures``) is
resolved on each use through a module ``__getattr__`` (PEP 562) that
imports its home module, so ``spincorr.report is spincorr.measures.report``
holds even after the home module's binding is replaced.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_PUBLIC = {
    "bloch": ("BlochForm", "decompose"),
    "errors": ("ClosedFormMismatch", "InvalidState", "NoSignChange", "NonFiniteParameter",
               "OracleMismatch", "SpincorrError"),
    "measures": ("MeasureReport", "concurrence", "report"),
    "models": ("IsoDMParams", "ModelReport", "XXZParams", "critical_coupling_isodm",
               "critical_coupling_xxz", "measures_isodm", "measures_xxz", "thermal_isodm",
               "thermal_xxz"),
    "oracle": ("OracleResult", "gmod_oracle", "min_oracle", "ppt_entangled"),
    "qmat": (),
    "rng": ("Lcg", "random_state"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
