"""Determinant-one 2x2 matrices and structured words over them.

Mat2 is an immutable matrix whose every value is a genuine element of SL2
of its ring.  The public constructor -- and so parse_matrix, where untrusted
matrix text enters -- checks determinant one; products, inverses,
transvections and unit diagonals lie in SL2 by closure and skip that check,
which would cost a big-integer determinant per product.  Every command works
in the one ring it parsed, so operands are never checked for a common ring.
GroupWord is an unevaluated flat product of elementary transvections and
diagonal unit matrices, which lets callers exhibit *how* a matrix was built
(e.g. each conjugator of a witness as E12(t), diag(u^2), M diag(u^2) or
M E12(t)) and still evaluate it exactly.  Its JSON form is one flat list,
so a word is never longer than the document text it is read from.  Word
letters are checked once, where they enter: word_from_json refuses a
position other than "12" or "21", and verify evaluates no recorded diag
letter, as a decomposition admits none and the words of a witness or an
h-decomposition are compared with the built ones; the package writes only
"12", "21" and certified units, and diag() refuses a non-unit all the same.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DeterminantNotOne, ParseError
from .rings import (
    QuotientRing,
    RingDescriptor,
    RingElement,
    parse_element,
)


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix [[a, b], [c, d]] with determinant one, checked by Mat2(...);
    closed operations build their results with the unchecked Mat2._trusted."""

    a: RingElement
    b: RingElement
    c: RingElement
    d: RingElement

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise DeterminantNotOne(f"determinant is {det}, not 1")

    @classmethod
    def _trusted(cls, a, b, c, d) -> "Mat2":
        """Entries of one ring with ad - bc = 1, taken without the check."""
        m = object.__new__(cls)
        vars(m).update(a=a, b=b, c=c, d=d)
        return m

    @property
    def ring(self) -> RingDescriptor:
        return self.a.ring

    def __mul__(self, other: "Mat2") -> "Mat2":
        """Row-by-column product; a term with a factor 0 or 1 builds no ring element."""
        return Mat2._trusted(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        """Adjugate; exact because the determinant is one."""
        return Mat2._trusted(self.d, -self.b, -self.c, self.a)

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"

    def __repr__(self):
        return f"{self} over {self.ring.name}"


def identity(ring: RingDescriptor) -> Mat2:
    one, zero = ring.one(), ring.zero()
    return Mat2._trusted(one, zero, zero, one)


def elem12(x: RingElement) -> Mat2:
    """Upper elementary matrix [[1, x], [0, 1]]."""
    ring = x.ring
    return Mat2._trusted(ring.one(), x, ring.zero(), ring.one())


def elem21(x: RingElement) -> Mat2:
    """Lower elementary matrix [[1, 0], [x, 1]]."""
    ring = x.ring
    return Mat2._trusted(ring.one(), ring.zero(), x, ring.one())


def diag(u: RingElement) -> Mat2:
    """Diagonal matrix [[u, 0], [0, 1/u]]; NonUnit for a non-unit u."""
    zero = u.ring.zero()
    return Mat2._trusted(u, zero, zero, u.inverse())


# ---------------------------------------------------------------------------
# structured words


@dataclass(frozen=True)
class ElemFactor:
    """One transvection: position "12" for upper, "21" for lower."""

    position: str
    argument: RingElement


@dataclass(frozen=True)
class DiagFactor:
    """Diagonal factor diag(u, 1/u); GroupWord.evaluate refuses a non-unit u."""

    unit: RingElement


# a string: a typing.Union would stay in typing's cache and keep old imports alive
Factor = "ElemFactor | DiagFactor"


@dataclass(frozen=True)
class GroupWord:
    """An ordered product of factors over a fixed ring, evaluated left to right."""

    ring: RingDescriptor
    factors: tuple[Factor, ...] = ()

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.ring, self.factors + other.factors)

    def __len__(self):
        return len(self.factors)

    def evaluate(self) -> Mat2:
        m = identity(self.ring)
        for f in self.factors:
            m = m * _evaluate_factor(f)
        return m


def _evaluate_factor(f: Factor) -> Mat2:
    if isinstance(f, ElemFactor):
        return elem12(f.argument) if f.position == "12" else elem21(f.argument)
    return diag(f.unit)


def word_elem(position: str, argument: RingElement) -> GroupWord:
    return GroupWord(argument.ring, (ElemFactor(position, argument),))


def word_diag(unit: RingElement) -> GroupWord:
    return GroupWord(unit.ring, (DiagFactor(unit),))


# ---------------------------------------------------------------------------
# serialization

_MATRIX_RE = re.compile(r"^\[\[([^\[\],]+),([^\[\],]+)\],\[([^\[\],]+),([^\[\],]+)\]\]$")


def parse_matrix(ring: RingDescriptor, text: str) -> Mat2:
    """Parse '[[a,b],[c,d]]' with entries in the ring's element syntax."""
    if not isinstance(text, str):
        raise ParseError(f"a matrix must be given as text, not {type(text).__name__}")
    compact = "".join(text.split())
    m = _MATRIX_RE.match(compact)
    if not m:
        raise ParseError(f"cannot parse {text!r} as a 2x2 matrix")
    a, b, c, d = (parse_element(ring, part) for part in m.groups())
    return Mat2(a, b, c, d)


def word_to_json(word: GroupWord) -> dict:
    return {"factors": [_factor_to_json(f) for f in word.factors]}


def _factor_to_json(f: Factor) -> dict:
    if isinstance(f, ElemFactor):
        return {"kind": "elem", "position": f.position, "argument": str(f.argument)}
    return {"kind": "diag", "unit": str(f.unit)}


def word_from_json(ring: RingDescriptor, data) -> GroupWord:
    if not isinstance(data, dict) or not isinstance(data.get("factors"), list):
        raise ParseError("a word must be an object with a 'factors' list")
    return GroupWord(ring, tuple(_factor_from_json(ring, f) for f in data["factors"]))


def _factor_from_json(ring: RingDescriptor, data) -> Factor:
    if not isinstance(data, dict):
        raise ParseError("each factor must be a JSON object")
    kind = data.get("kind")
    try:
        if kind == "elem":
            position, argument = data["position"], parse_element(ring, data["argument"])
            if position not in ("12", "21"):
                raise ValueError(f"position must be '12' or '21', got {position!r}")
            return ElemFactor(position, argument)
        if kind == "diag":
            return DiagFactor(parse_element(ring, data["unit"]))
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad {kind} factor: {exc}") from None
    raise ParseError(f"unknown factor kind {kind!r}")


def reduce_mat(m: Mat2, q: QuotientRing) -> tuple[int, int, int, int]:
    """Entrywise image in R/cR, as the quotient's dense integer codes."""
    return (q.encode(m.a), q.encode(m.b), q.encode(m.c), q.encode(m.d))
