"""Exception hierarchy shared by all sl2units modules.

Every error carries a stable machine-readable name (the class name) so the
CLI can map failures to JSON without string matching on messages.
"""

from __future__ import annotations


class AlgebraError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def name(self) -> str:
        return type(self).__name__


class ParseError(AlgebraError):
    """Malformed ring, element, matrix, or word text."""


class NonUnit(AlgebraError):
    """An operation required a unit but the element is not invertible."""


class ZeroIdeal(AlgebraError):
    """Principal ideals must have a nonzero generator."""


class NoInfiniteOrderUnit(AlgebraError):
    """No unit of infinite order: the ring has none, or the given unit has u^8 = 1."""


class DeterminantNotOne(AlgebraError):
    """Matrix constructor received entries with determinant != 1."""


class UnsupportedRing(AlgebraError):
    """The requested operation is not available over this ring."""


class UnitCongruenceViolated(AlgebraError):
    """u - 1 is not divisible by the square of the corner entry."""


class ZNotInIdeal(AlgebraError):
    """Witness parameter z lies outside the required ideal."""


class GeneratorsNotClosed(AlgebraError):
    """Generating set is not symmetric and conjugation-closed."""


class DegenerateQuotient(AlgebraError):
    """All sampled elements reduce to the identity in the quotient."""


class QuotientTooLarge(AlgebraError):
    """Finite group table past the fixed cap n^3 <= norms.TABLE_CAP, n the quotient's
    index, or a word-length search past norms.WORK_CAP products."""


class VerificationFailed(AlgebraError):
    """A serialized certificate failed re-verification."""


class DocumentTooLarge(AlgebraError):
    """An emitted certificate that `verify` could not read back, or a unit,
    or a power of one, that would have more digits than `verify` reads."""
