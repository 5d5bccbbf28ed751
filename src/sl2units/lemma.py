"""Unit certificates and bounded-conjugate witnesses.

Two constructions live here, both exact and both re-verifiable from their
recorded data alone.

* A unit certificate for a nonzero c: starting from a unit v of infinite
  order, the power u = v^k (k the multiplicative order of v modulo c^2)
  satisfies u - 1 = c^2*y and u^8 != 1.  certify_unit is the one function
  that decides these conditions and the only one that builds a certificate,
  for an emitter and for the verifier alike; the verifier bounds k by the
  recorded u before any power is taken.

* A bounded-conjugate witness: for A and a certificate for its lower-left
  corner c, the transvection E12((u^4 - u^-4)*z) -- for any z in cR -- is
  written as a product of exactly four conjugates of A and A^-1, with every
  conjugator congruent to the identity modulo c.  Save the test z in (c), the
  construction is ring arithmetic alone, and tests/test_symbolic.py runs it
  over R0 = Z[a, b, c, d, y, z, w] / (ad - bc - 1, uw - 1), u = 1 + c^2*y: Y
  is upper triangular with diagonal (u^-4, u^4), the conjugates multiply to
  E12((u^4 - u^-4)*z) and, z in (c), each conjugator is I mod (c).  The ring
  map R0 -> R that sends A, a certified u and z to their values carries this
  over, so verify_witness rebuilds the witness from A, u and z alone, plain
  or elementary as the recorded words are, and the verifier accepts only the
  construction's words, as for h-decompositions: no recorded word is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .elemgen import expand_diagonals
from .errors import (
    NoInfiniteOrderUnit,
    UnitCongruenceViolated,
    VerificationFailed,
    ZeroIdeal,
    ZNotInIdeal,
)
from .rings import (
    RingElement,
    exact_quotient,
    height,
    in_ideal,
    infinite_order_unit,
    quotient,
    unit_order,
)
from .sl2 import DiagFactor, GroupWord, Mat2, diag, elem12, identity, word_diag, word_elem


@dataclass(frozen=True)
class ManyUnitsCertificate:
    """Certified data (c, v, u = v^k, y) with u - 1 = c^2*y, and the nonzero
    epsilon_generator = (u^8 - 1)*c; only certify_unit builds one."""

    c: RingElement
    v: RingElement
    u: RingElement
    k: int
    y: RingElement
    epsilon_generator: RingElement


def verify_certificate(
    c: RingElement, v: RingElement, u: RingElement, k: int
) -> ManyUnitsCertificate:
    """The certificate that certify_unit derives from c, v and k, once k fits the
    recorded u, for the caller to compare with what it recorded.  Raises
    VerificationFailed for a k that is not positive or that u is too small
    for, and otherwise certify_unit's own error."""
    if k < 1:
        raise VerificationFailed(f"exponent k = {k} is not positive")
    # height(v^k) >= 2^(k-2) for a unit v != +-1; also height(v^k) = height(v)^k over
    # Z[1/m], and height(v^k) >= height(v)^k / (1 + sqrt(d)) > height(v)^k / 2^bits(d)
    # over Z[sqrt(d)]: a k that u is too small for is refused before v**k is taken
    hu = height(u).bit_length()
    d = v.ring.param if v.irr else 0  # a unit v != +-1 of Z[sqrt(d)] has irr != 0
    too_small = v not in (1, -1) and k > hu + 1
    if too_small or k * (height(v).bit_length() - 1) >= hu + d.bit_length():
        raise VerificationFailed(f"u is not {v}^{k}")
    return certify_unit(c, v, k)


def _refuse_zero(c: RingElement) -> None:
    if not c:
        raise ZeroIdeal("cannot certify a unit for c = 0")


def certify_unit(c: RingElement, v: RingElement, k: int) -> ManyUnitsCertificate:
    """Certify u = v^k with u - 1 divisible by c^2 and u^8 != 1: ZeroIdeal for
    c = 0, NonUnit for a non-unit v, UnitCongruenceViolated if c^2 does not
    divide u - 1, and NoInfiniteOrderUnit for u^8 = 1."""
    _refuse_zero(c)
    v.inverse()  # raises NonUnit
    u = v**k
    y = exact_quotient(u - 1, c * c)
    if y is None:
        raise UnitCongruenceViolated(f"u - 1 = {u - 1} is not divisible by c^2 = {c * c}")
    epsilon = (u**8 - 1) * c  # zero exactly when u^8 = 1, as c != 0
    if not epsilon:
        raise NoInfiniteOrderUnit("u^8 = 1, so u generates no usable ideal")
    return ManyUnitsCertificate(c=c, v=v, u=u, k=k, y=y, epsilon_generator=epsilon)


def find_unit(c: RingElement) -> ManyUnitsCertificate:
    """Certify a unit u with u - 1 divisible by c^2 and u^8 != 1.

    Takes v of infinite order, computes the order k of v in (R/c^2 R)*, and
    sets u = v^k.  The smallest such k is used so results are deterministic.
    """
    _refuse_zero(c)  # before the ring's unit is sought, which Z has none of
    v = infinite_order_unit(c.ring)
    k = unit_order(v, quotient(c * c))
    try:
        return certify_unit(c, v, k)
    except UnitCongruenceViolated:  # k is the order of v mod c^2: a bug, not bad input
        message = "u - 1 is not divisible by c^2 despite the order computation"
        raise AssertionError(message) from None


class YParts(NamedTuple):
    """Output of compute_Y: the upper-triangular Y plus the scalars it certifies."""

    Y: Mat2
    q: RingElement
    t: RingElement
    x: RingElement
    y: RingElement


def compute_Y(A: Mat2, cert: ManyUnitsCertificate) -> YParts:
    """Conjugate A^-1 and A into an upper-triangular product.

    With c the lower-left corner of A and cert's u = 1 + c^2*y, set
    x = (u^4 - 1)/c and t = a*x.  Then E12(t) A^-1 E12(-t) diag(u^2) A diag(u^-2)
    equals [[u^-4, q], [0, u^4]] for some q in cR; x, t, q all lie in cR.
    That is a ring identity (tests/test_symbolic.py), and certify_unit has
    checked u and y for c.
    """
    u, y = cert.u, cert.y
    # u^4 - 1 = (u - 1)(u^3 + u^2 + u + 1) = c^2*y*(...), so x = c*y*(...) in cR
    x = A.c * y * (u**3 + u**2 + u + 1)
    t = A.a * x
    h = diag(u * u)
    Y = elem12(t) * A.inverse() * elem12(-t) * h * A * h.inverse()
    return YParts(Y=Y, q=Y.b, t=t, x=x, y=y)


@dataclass(frozen=True)
class ConjugateFactor:
    """One factor g * core * g^-1, where core is the witnessed matrix (or its
    inverse when core_inverted is set) and g is given as a structured word."""

    conjugator: GroupWord
    core_inverted: bool


@dataclass(frozen=True)
class ConjugateWitness:
    """Four conjugates of A / A^-1 multiplying out to E12((u^4 - u^-4)*z).

    The sign convention is p = -q - z: the triangular identity produces
    E12((u^-4 - u^4)(p + q)), and this choice of p turns it into the target
    exactly (z and -z range over the same ideal).
    """

    matrix: Mat2
    u: RingElement
    z: RingElement
    t: RingElement
    q: RingElement
    p: RingElement
    Y: Mat2
    factors: tuple[ConjugateFactor, ...]
    target: Mat2


def verify_witness(
    A: Mat2, cert: ManyUnitsCertificate, z: RingElement, words: list[GroupWord]
) -> ConjugateWitness:
    """The witness that lemma2_witness builds for A, cert's u and z, plain when a
    recorded conjugator word has a diag letter and elementary otherwise, for the
    caller to compare with what it recorded: no recorded word is evaluated."""
    diagonal = any(isinstance(f, DiagFactor) for word in words for f in word.factors)
    return lemma2_witness(A, cert, z, elementary=not diagonal)


def _checked_witness(
    A: Mat2, u: RingElement, z: RingElement, parts: YParts, factors: tuple[ConjugateFactor, ...]
) -> ConjugateWitness:
    """The witness of compute_Y's parts with p = -q - z, once the conjugates of A^+-1
    by the evaluated conjugators multiply to the target (VerificationFailed if not)."""
    u4 = u**4
    w = ConjugateWitness(
        matrix=A, u=u, z=z, t=parts.t, q=parts.q, p=-parts.q - z, Y=parts.Y,
        factors=factors, target=elem12((u4 - u4.inverse()) * z),
    )
    cores = (A, A.inverse())
    product = identity(A.ring)
    for factor in factors:
        # left to right: P*g telescopes (P = Y after two factors, Y*M = E12(-z/u^4))
        g = factor.conjugator.evaluate()
        product = product * g * cores[factor.core_inverted] * g.inverse()
    if product != w.target:
        raise VerificationFailed("product of the four conjugate factors misses the target")
    return w


def _witness_factors(
    u: RingElement, t: RingElement, p: RingElement, elementary: bool
) -> tuple[ConjugateFactor, ...]:
    """The conjugators E12(t), diag(u^2), M*diag(u^2) and M*E12(t), where
    M = [[u^4, p], [0, u^-4]] = diag(u^4)*E12(p*u^-4) is recorded in exactly
    that regrouped form so the words stay inspectable.  With elementary set,
    every diagonal letter is expanded into its six transvections."""
    u2 = u * u
    u4 = u2 * u2
    g1 = word_elem("12", t)
    g2 = word_diag(u2)
    m_word = word_diag(u4) * word_elem("12", p * u4.inverse())
    if elementary:
        g2, m_word = expand_diagonals(g2), expand_diagonals(m_word)
    return (
        ConjugateFactor(g1, core_inverted=True),
        ConjugateFactor(g2, core_inverted=False),
        ConjugateFactor(m_word * g2, core_inverted=True),
        ConjugateFactor(m_word * g1, core_inverted=False),
    )


def lemma2_witness(
    A: Mat2, cert: ManyUnitsCertificate, z: RingElement, elementary: bool = False
) -> ConjugateWitness:
    """Build and self-check the four-conjugate witness for E12((u^4 - u^-4)*z),
    u the unit of cert, a certificate for A's corner, with the conjugators of
    _witness_factors and p = -q - z.

    ZNotInIdeal for z outside (c), the one test of the witness that needs more
    of the ring than its arithmetic.  The self-check is one pass: the witness
    is the one _checked_witness derives from the compute_Y result it was built
    from, so a wrong q, t or expansion misses the target.
    """
    if not in_ideal(z, A.c):
        raise ZNotInIdeal(f"{z} is not in ({A.c})")
    parts = compute_Y(A, cert)
    factors = _witness_factors(cert.u, parts.t, -parts.q - z, elementary)
    return _checked_witness(A, cert.u, z, parts, factors)
