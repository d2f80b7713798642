"""Exception taxonomy for the two-qubit correlation toolkit.

Every error raised by the library is a subclass of :class:`SpincorrError`,
so callers can catch the whole family with one handler while the CLI maps
individual classes to documented exit codes.
"""


class SpincorrError(Exception):
    """Base class for all toolkit errors."""


class NonFiniteParameter(SpincorrError):
    """A numeric parameter is NaN, infinite, or not a real number (``bool``
    is not one)."""


class InvalidState(SpincorrError):
    """A matrix failed density-matrix validation (hermiticity, unit trace,
    or positive semidefiniteness)."""


class ClosedFormMismatch(SpincorrError):
    """A model's closed-form measure disagrees with the generic pipeline
    on a point where the closed form is provably exact."""


class NoSignChange(SpincorrError):
    """A root bracketing scan found no sign change in the search interval."""


class OracleMismatch(SpincorrError):
    """The oracle's Gram-form screen and its explicit projector algebra
    disagree beyond roundoff, so the screen cannot be trusted."""
