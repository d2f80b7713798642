"""Deterministic random generators for verification runs.

A fully specified 64-bit linear congruential generator drives every
randomized check in the toolkit, so verification streams are reproducible
bit-for-bit across platforms and implementations without depending on any
external library's generator. Definition:

- state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64
  (advance first, then output state')
- uniform on (0, 1]: ((state' >> 11) + 1) * 2^-53
- standard normals: Box-Muller on two uniforms, cosine branch returned
  first, sine branch cached for the next call
- complex standard normal: real part drawn first, then imaginary part
- random two-qubit state: the 4x4 density matrix G G^dagger / tr(G G^dagger),
  G 4x4 filled row-major from complex standard normals, then its
  Hermitian part
"""

import math

import numpy as np

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
_MASK64 = (1 << 64) - 1


class Lcg:
    """64-bit linear congruential generator with the documented constants."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        """Advance the state and return it as an unsigned 64-bit integer."""
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & _MASK64
        return self.state

    def uniform(self) -> float:
        """Uniform draw on the half-open interval (0, 1]."""
        return ((self.next_u64() >> 11) + 1) * 2.0**-53

    def normal(self) -> float:
        """Standard normal draw via Box-Muller (cosine first, sine cached)."""
        if self._spare_normal is not None:
            value = self._spare_normal
            self._spare_normal = None
            return value
        u1 = self.uniform()
        u2 = self.uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self._spare_normal = radius * math.sin(angle)
        return radius * math.cos(angle)


def random_state(rng: Lcg) -> np.ndarray:
    """Random 4x4 two-qubit density matrix G G^dagger / tr(G G^dagger).

    Full-rank with probability one, Hermitian, unit trace, PSD.
    """
    g = np.array([rng.normal() for _ in range(32)]).view(complex).reshape(4, 4)
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (rho + rho.conj().T) / 2.0
