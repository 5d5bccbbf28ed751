"""Writing determinant-one matrices as products of transvections.

The driver runs Euclidean reduction on the first column: row operations
shrink the lower-left entry against the upper-left one until the matrix is
upper triangular, and diag(u, 1/u) is left to a six-transvection identity.
One division serves every supported ring: Euclid on the prime-to-m parts
over Z and Z[1/m] (over Z, x/y rounded to nearest, ties to even), and x/y
rounded componentwise over Z[sqrt(2)] and Z[sqrt(3)].  Each provably leaves
a smaller Euclidean size, so the loop ends; a step that does not is a bug,
an AssertionError.  No word built here is evaluated: a step appends the
inverse of its row operation, so matrix = word * m throughout, and
tests/test_symbolic.py proves the rest; verify evaluates a document's word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import UnsupportedRing
from .rings import QUADRATIC, RingElement, euclidean_size, exact_quotient
from .sl2 import ElemFactor, GroupWord, Mat2, diag, elem12, elem21, word_elem


@dataclass(frozen=True)
class Decomposition:
    """A matrix together with a flat transvection word that multiplies out to it.

    Construction checks that the word has only ElemFactor nodes.  The product
    holds for every word built here; verify checks it for a word it reads.
    """

    matrix: Mat2
    word: GroupWord

    def __post_init__(self):
        if any(not isinstance(f, ElemFactor) for f in self.word.factors):
            raise ValueError("decomposition words admit only transvection factors")

    @property
    def length(self) -> int:
        return len(self.word.factors)


def h_decomposition(u: RingElement) -> Decomposition:
    """diag(u, 1/u) as the six transvections E12(u) E21(-1/u) E12(u) E12(-1) E21(1) E12(-1)."""
    inv = u.inverse()
    one = u.ring.one()
    word = (
        word_elem("12", u)
        * word_elem("21", -inv)
        * word_elem("12", u)
        * word_elem("12", -one)
        * word_elem("21", one)
        * word_elem("12", -one)
    )
    return Decomposition(diag(u), word)


def expand_diagonals(word: GroupWord) -> GroupWord:
    """Replace every diagonal factor by its six-transvection expansion."""
    out: list = []
    for f in word.factors:
        if isinstance(f, ElemFactor):
            out.append(f)
        else:
            out.extend(h_decomposition(f.unit).word.factors)
    return GroupWord(word.ring, tuple(out))


# ---------------------------------------------------------------------------
# the division step


def _divide(x: RingElement, y: RingElement, nx: int, ny: int) -> RingElement:
    """A quotient q with euclidean_size(x - q*y) < ny, for nonzero x and y of
    Euclidean sizes nx and ny."""
    if x.ring.kind == QUADRATIC:
        # rounding x/y componentwise keeps |N(remainder)| <= (d+1)/4 * |N(y)| < |N(y)|
        # for d in {2, 3}
        n = y.field_norm()
        num = x * y.conjugate()
        return x.ring.from_pair(round(num.rat / n), round(Fraction(num.irr) / n))
    # Euclid on the prime-to-m parts: x = ux*nx and y = uy*ny with ux, uy units,
    # so x - (t*ux/uy)*y = ux*(nx - t*ny) and the remainder size is |nx - t*ny|;
    # ux/uy = x*ny / (y*nx).  Over Z the units are signs, and since round() is
    # symmetric about 0 the quotient sign(x)*sign(y)*round(|x|/|y|) is round(x/y).
    return exact_quotient(x * ny, y * nx) * round(Fraction(nx, ny))


# ---------------------------------------------------------------------------
# the decomposition driver


def decompose(matrix: Mat2) -> Decomposition:
    """Express the matrix as a product of transvections.

    Supported over Z, Z[1/m], Z[sqrt(2)], and Z[sqrt(3)]; other rings raise
    UnsupportedRing.
    """
    ring = matrix.ring
    if ring.kind == QUADRATIC and ring.param not in (2, 3):
        raise UnsupportedRing(f"no elementary decomposition strategy for {ring.name}")
    one = ring.one()
    factors: list[ElemFactor] = []
    m = matrix
    while m.c:
        if m.a == 1:
            # one row operation clears the corner outright
            factors.append(ElemFactor("21", m.c))
            m = elem21(-m.c) * m
            continue
        size_a, size_c = euclidean_size(m.a), euclidean_size(m.c)  # once per step
        if size_c == 1:
            # unit corner (size 1): one row operation pins a = 1, a second clears c
            t = (one - m.a) * exact_quotient(one, m.c)
            m = elem12(t) * m
            factors.append(ElemFactor("12", -t))
            factors.append(ElemFactor("21", m.c))
            m = elem21(-m.c) * m
            continue
        # a = 0 would force -bc = 1, a unit corner, so a is nonzero from here on
        if size_a == 1:
            # unit pivot: steer the corner to 1 and let the branch above finish
            t = (one - m.c) * exact_quotient(one, m.a)
            m = elem21(t) * m
            factors.append(ElemFactor("21", -t))
            continue
        if size_c >= size_a:
            q = _divide(m.c, m.a, size_c, size_a)
            step = elem21(-q) * m
            if euclidean_size(step.c) >= size_c:
                raise AssertionError(f"division of {m.c} by {m.a} did not shrink")
            factors.append(ElemFactor("21", q))
        else:
            q = _divide(m.a, m.c, size_a, size_c)
            step = elem12(-q) * m
            if euclidean_size(step.a) >= size_a:
                raise AssertionError(f"division of {m.a} by {m.c} did not shrink")
            factors.append(ElemFactor("12", q))
        m = step
    return Decomposition(matrix, GroupWord(ring, tuple(factors) + _upper_letters(m)))


def _upper_letters(m: Mat2) -> tuple[ElemFactor, ...]:
    """[[a, b], [0, 1/a]], a a unit, as h_decomposition(a) * E12(b/a), with no
    letters for diag(1, 1) and none for E12(0)."""
    if m.a == 1:
        head, shifted = (), m.b
    else:
        head, shifted = h_decomposition(m.a).word.factors, m.b * m.a.inverse()
    return head + ((ElemFactor("12", shifted),) if shifted else ())
