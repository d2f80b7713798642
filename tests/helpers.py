"""Shared builders for the test suite: reference states, seeded streams and
fresh Python processes."""

import os
import subprocess
import sys

import numpy as np

import spincorr
from spincorr.bloch import BlochForm, decompose
from spincorr.models import IsoDMParams, XXZParams, thermal_isodm, thermal_xxz
from spincorr.rng import Lcg, random_state

from reference import PAULIS, random_qubit_state, reconstruct

MIXED = np.eye(4, dtype=complex) / 4.0
MIXED.flags.writeable = False


def bell_psi_plus() -> np.ndarray:
    """Density matrix of (|01> + |10>)/sqrt(2)."""
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 0.5
    return m


def ground_product_state() -> np.ndarray:
    """Density matrix of |00>."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = 1.0
    return m


def random_product_state(rng: Lcg) -> np.ndarray:
    """Tensor product of two independent random single-qubit states."""
    return np.kron(random_qubit_state(rng), random_qubit_state(rng))


def spin_flip_average(rho: np.ndarray) -> np.ndarray:
    """(rho + rho~)/2 with rho~ = (sigma_y (x) sigma_y) rho* (sigma_y (x) sigma_y):
    the spin flip negates both local Bloch vectors and keeps T, so the
    average is a state with x = y = 0."""
    yy = np.kron(PAULIS[1], PAULIS[1])
    return (rho + yy @ rho.conj() @ yy) / 2.0


def x_zeroed_states(seed: int, want: int, max_attempts: int = 200) -> list:
    """Random states with the first marginal forced maximally mixed.

    Zeroes the x vector of random states and keeps the reconstructions that
    remain positive semidefinite. Deterministic for a fixed seed.
    """
    rng = Lcg(seed)
    states = []
    for _ in range(max_attempts):
        if len(states) >= want:
            break
        form = decompose(random_state(rng))
        matrix, valid = reconstruct(BlochForm(x=np.zeros(3), y=form.y, T=form.T))
        if valid:
            states.append(matrix)
    return states


def pinned_states() -> list:
    """The 1,605 states whose measures and validation outcomes are pinned by
    digest: 1,000 random states, three thermal series of 201 couplings each,
    the maximally mixed state and a Bell state."""
    rng = Lcg(41)
    states = [random_state(rng) for _ in range(1000)]
    for j in np.linspace(-20.0, 20.0, 201):
        states.append(thermal_isodm(IsoDMParams(j=float(j), d=1.5)))
        states.append(thermal_xxz(XXZParams(j=float(j), delta=0.5, b=1.0)))
        states.append(thermal_xxz(XXZParams(j=float(j), delta=1.0, b=0.0)))
    states += [MIXED, bell_psi_plus()]
    return states


def run_python(cwd, *argv):
    """Run ``python *argv`` in ``cwd``; returns (code, stdout, stderr).

    The subprocess imports the ``spincorr`` this process imported (the
    checkout's ``src``, or an installed copy), not whatever else is on its
    path."""
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(spincorr.__file__)))
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    result = subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return result.returncode, result.stdout, result.stderr
