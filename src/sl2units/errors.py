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


class MixedRings(AlgebraError):
    """Operands belong to different rings."""


class NonUnit(AlgebraError):
    """An operation required a unit but the element is not invertible."""


class ZeroIdeal(AlgebraError):
    """Principal ideals must have a nonzero generator."""


class NotUnitInQuotient(AlgebraError):
    """Element is not invertible modulo the given ideal."""


class NoInfiniteOrderUnit(AlgebraError):
    """The ring has no unit of infinite order (plain integers)."""


class NonUnitDiagonal(AlgebraError):
    """A diagonal word factor was built from a non-unit."""


class DeterminantNotOne(AlgebraError):
    """Matrix constructor received entries with determinant != 1."""


class UnsupportedRing(AlgebraError):
    """The requested operation is not available over this ring."""


class ZeroCorner(AlgebraError):
    """The (2,1) entry is zero where a nonzero corner is required."""


class UnitCongruenceViolated(AlgebraError):
    """u - 1 is not divisible by the square of the corner entry."""


class ZNotInIdeal(AlgebraError):
    """Witness parameter z lies outside the required ideal."""


class ScalarInput(AlgebraError):
    """Scalar matrices cannot be normalized to a nonzero corner."""


class GeneratorsNotClosed(AlgebraError):
    """Generating set is not symmetric and conjugation-closed."""


class DegenerateQuotient(AlgebraError):
    """All sampled elements reduce to the identity in the quotient."""


class NegativeCount(AlgebraError):
    """A count that must be >= 0, such as a sample size, is negative."""


class QuotientTooLarge(AlgebraError):
    """Finite group table would exceed the configured size cap."""


class VerificationFailed(AlgebraError):
    """A serialized certificate failed re-verification."""
