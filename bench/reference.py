"""Reference probe that tracks the machine's current speed.

On a shared host the speed of one vCPU drifts on its own by up to 1.8x,
in phases of seconds to minutes, with no change of steal time: another
tenant's load slows the whole core, process CPU time included. Wall times
of the same calls then disagree from run to run by more than any useful
bound. The benchmark therefore times a fixed probe next to the calls it
measures and scales each call time by the probe's speed at that moment:

    scaled time = measured time * REFERENCE_NS / probe time nearby

The probe is what spincorr's own time is made of, Python glue around
numpy calls on 4x4 matrices, and it calls nothing in spincorr, so a
change to the program cannot move it. REFERENCE_NS is the probe's usual
time between spincorr calls on a 2-vCPU x86-64 virtual machine (2.1 GHz,
Python 3.11, numpy 2.4), so a scaled time reads as the wall time of that
machine at its usual speed. Set-up time is scaled the same way, by a
reference process instead of the probe (``scaled_setup_s``).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_NS = 380_000
# Usual set-up time of a process that imports only numpy and argparse on
# the machine REFERENCE_NS was taken on.
REFERENCE_IMPORT_S = 0.085
_ROUNDS = 8
_M = np.array(
    [[2.0, 0.5, 0.1, 0.0], [0.5, 1.0, 0.2, 0.3], [0.1, 0.2, 0.7, 0.4], [0.0, 0.3, 0.4, 1.5]]
)


def _probe() -> float:
    total = 0.0
    for k in range(_ROUNDS):
        w, v = np.linalg.eigh(_M)
        b = (v * np.sqrt(w)) @ v.T
        c = np.kron(b[:2, :2], b[2:, 2:])
        total += float(np.trace(c)) + max(w) * (k + 1) ** 0.5
    return total


def probe_ns() -> int:
    """Wall time of one run of the probe, in ns. An untimed run goes
    first: right after a spincorr call the first run is about 40% slower,
    by an amount that depends on what the call left in the caches."""
    _probe()
    start = time.perf_counter_ns()
    _probe()
    return time.perf_counter_ns() - start


def speed(samples: list[int]) -> float:
    """How much slower than the reference the machine ran while these
    probe times were taken (1.0 at reference speed, 1.5 when slower)."""
    return statistics.median(samples) / REFERENCE_NS


def scaled_setup_s(setups: list[float], references: list[float]) -> float:
    """Set-up time at reference speed: the median ratio of each set-up
    time to that of the reference process started just before it, times
    REFERENCE_IMPORT_S. Process start and imports read files and map
    libraries more than they compute, and their speed drifts apart from
    the probe's; a process importing the same dependencies drifts with
    them."""
    return REFERENCE_IMPORT_S * statistics.median(
        s / r for s, r in zip(setups, references)
    )
