"""Unit certificates and bounded-conjugate witnesses.

Two constructions live here, both exact and both re-verifiable from their
recorded data alone.

* A unit certificate for a nonzero c: starting from a unit v of infinite
  order, the power u = v^k (k the multiplicative order of v modulo c^2)
  satisfies u - 1 = c^2*y and u^8 != 1.

* A bounded-conjugate witness: for A with nonzero lower-left corner c and a
  certified unit u, the transvection E12((u^4 - u^-4)*z) -- for any z in cR
  -- is written as a product of exactly four conjugates of A and A^-1, with
  every conjugator congruent to the identity modulo c.  The verifier
  recomputes the whole construction and multiplies everything back out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .errors import (
    AlgebraError,
    NonUnit,
    UnitCongruenceViolated,
    VerificationFailed,
    ZeroCorner,
    ZeroIdeal,
    ZNotInIdeal,
)
from .rings import (
    PrincipalIdeal,
    RingElement,
    exact_quotient,
    height,
    in_ideal,
    infinite_order_unit,
    is_unit,
    quotient,
    unit_order,
)
from .sl2 import (
    GroupWord,
    Mat2,
    diag,
    elem12,
    identity,
    reduce_mat,
    word_diag,
    word_elem,
)


@dataclass(frozen=True)
class ManyUnitsCertificate:
    """Certified data (c, v, u = v^k, y) with u - 1 = c^2*y and u^8 != 1."""

    c: RingElement
    v: RingElement
    u: RingElement
    k: int
    y: RingElement
    check_u8: bool


def verify_certificate(cert: ManyUnitsCertificate) -> None:
    """Recheck every certificate invariant; raises VerificationFailed."""
    if not cert.c:
        raise VerificationFailed("certificate has c = 0")
    if cert.k < 1:
        raise VerificationFailed(f"exponent k = {cert.k} is not positive")
    if is_unit(cert.v) is None:
        raise VerificationFailed(f"base {cert.v} is not a unit")
    # height(v^k) >= 2^(k-2) for a unit v != +-1; also height(v^k) = height(v)^k over
    # Z[1/m], and height(v^k) >= height(v)^k / (1 + sqrt(d)) > height(v)^k / 2^bits(d)
    # over Z[sqrt(d)]: a k that u is too small for is refused before v**k is taken
    hu = height(cert.u).bit_length()
    d = cert.v.ring.param if cert.v.irr else 0  # a unit v != +-1 of Z[sqrt(d)] has irr != 0
    too_small = cert.v not in (1, -1) and cert.k > hu + 1
    too_high = cert.k * (height(cert.v).bit_length() - 1) >= hu + d.bit_length()
    if too_small or too_high or cert.u != cert.v**cert.k:
        raise VerificationFailed(f"u is not {cert.v}^{cert.k}")
    if cert.u - 1 != cert.c * cert.c * cert.y:
        raise VerificationFailed("u - 1 does not equal c^2 * y")
    eighth = cert.u**8
    if eighth == 1:
        raise VerificationFailed("u^8 = 1, so u generates no usable ideal")
    if not cert.check_u8:
        raise VerificationFailed("check_u8 flag is unset")


def certify_unit(c: RingElement, v: RingElement, k: int) -> ManyUnitsCertificate:
    """Certify u = v^k with u - 1 divisible by c^2 and u^8 != 1: ZeroIdeal for
    c = 0, UnitCongruenceViolated if c^2 does not divide u - 1, and
    VerificationFailed from verify_certificate otherwise."""
    if not c:
        raise ZeroIdeal("cannot certify a unit for c = 0")
    u = v**k
    y = exact_quotient(u - 1, c * c)
    if y is None:
        raise UnitCongruenceViolated(f"u - 1 = {u - 1} is not divisible by c^2 = {c * c}")
    # verify_certificate refuses u^8 = 1 before it reads the flag
    cert = ManyUnitsCertificate(c=c, v=v, u=u, k=k, y=y, check_u8=True)
    verify_certificate(cert)
    return cert


def find_unit(c: RingElement) -> ManyUnitsCertificate:
    """Certify a unit u with u - 1 divisible by c^2 and u^8 != 1.

    Takes v of infinite order, computes the order k of v in (R/c^2 R)*, and
    sets u = v^k.  The smallest such k is used so results are deterministic.
    """
    if not c:
        raise ZeroIdeal("cannot certify a unit for c = 0")
    v = infinite_order_unit(c.ring)
    k = unit_order(v, quotient(PrincipalIdeal(c * c)))
    try:
        return certify_unit(c, v, k)
    except UnitCongruenceViolated:  # k is the order of v mod c^2: a bug, not bad input
        message = "u - 1 is not divisible by c^2 despite the order computation"
        raise AssertionError(message) from None


def epsilon_ideal(cert: ManyUnitsCertificate) -> PrincipalIdeal:
    """The ideal ((u^8 - 1) * c); nonzero in these integral domains since u^8 != 1."""
    return PrincipalIdeal((cert.u**8 - 1) * cert.c)


class YParts(NamedTuple):
    """Output of compute_Y: the upper-triangular Y plus the scalars it certifies."""

    Y: Mat2
    q: RingElement
    t: RingElement
    x: RingElement
    y: RingElement


def compute_Y(A: Mat2, u: RingElement) -> YParts:
    """Conjugate A^-1 and A into an upper-triangular product.

    With c the lower-left corner of A and u = 1 + c^2*y, set x = (u^4 - 1)/c
    and t = a*x.  Then E12(t) A^-1 E12(-t) diag(u^2) A diag(u^-2) equals
    [[u^-4, q], [0, u^4]] for some q in cR; x, t, q all lie in cR.  The form
    checks raise AssertionError: firing would falsify the algebra.
    """
    c = A.c
    if not c:
        raise ZeroCorner("lower-left corner is zero")
    if is_unit(u) is None:
        raise NonUnit(f"{u} is not a unit of {u.ring.name}")
    y = exact_quotient(u - 1, c * c)
    if y is None:
        raise UnitCongruenceViolated(f"{u} - 1 is not divisible by ({c})^2")
    # u^4 - 1 = (u - 1)(u^3 + u^2 + u + 1) = c^2*y*(...), so x = c*y*(...) in cR
    x = c * y * (u**3 + u**2 + u + 1)
    t = A.a * x
    u2 = u * u
    Y = elem12(t) * A.inverse() * elem12(-t) * diag(u2) * A * diag(u2.inverse())
    if Y.c or Y.a != u**-4 or Y.d != u**4:
        raise AssertionError("Y is not upper triangular with diagonal (u^-4, u^4)")
    q = Y.b
    if not in_ideal(q, PrincipalIdeal(c)):
        raise AssertionError("q is not in cR")
    return YParts(Y=Y, q=q, t=t, x=x, y=y)


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


def verify_witness(w: ConjugateWitness) -> None:
    """Recheck every witness invariant from the recorded data; raises
    VerificationFailed with the first failure."""
    if not w.matrix.c:
        raise VerificationFailed("witnessed matrix has zero lower-left corner")
    try:
        parts = compute_Y(w.matrix, w.u)
    except AlgebraError as exc:
        raise VerificationFailed(f"recomputing Y failed: {exc}") from None
    if parts.Y != w.Y:
        raise VerificationFailed("recorded Y does not match the recomputation")
    if parts.q != w.q or parts.t != w.t:
        raise VerificationFailed("recorded q or t does not match the recomputation")
    _check_witness(w)


def _check_witness(w: ConjugateWitness) -> None:
    """The invariants that follow Y, q and t: ideal membership, the sign
    convention, the target, and the product of the four conjugates."""
    A = w.matrix
    c = A.c
    ideal = PrincipalIdeal(c)
    for name, value in (("z", w.z), ("t", w.t), ("q", w.q), ("p", w.p)):
        if not in_ideal(value, ideal):
            raise VerificationFailed(f"{name} = {value} is not in ({c})")
    if w.p != -w.q - w.z:
        raise VerificationFailed("p does not follow the p = -q - z convention")
    u4 = w.u**4
    if w.target != elem12((u4 - u4.inverse()) * w.z):
        raise VerificationFailed("target is not E12((u^4 - u^-4)*z)")
    if len(w.factors) != 4:
        raise VerificationFailed(f"expected exactly 4 factors, found {len(w.factors)}")
    mod_c = quotient(ideal)
    identity_mod_c = reduce_mat(identity(A.ring), mod_c)
    cores = (A, A.inverse())
    product = identity(A.ring)
    for i, factor in enumerate(w.factors):
        g = factor.conjugator.evaluate()
        if reduce_mat(g, mod_c) != identity_mod_c:
            raise VerificationFailed(f"conjugator {i} is not congruent to I mod ({c})")
        # left to right: P*g telescopes (P = Y after two factors, Y*M = E12(-z/u^4))
        product = product * g * cores[factor.core_inverted] * g.inverse()
    if product != w.target:
        raise VerificationFailed("product of the four conjugate factors misses the target")


def lemma2_witness(A: Mat2, u: RingElement, z: RingElement) -> ConjugateWitness:
    """Build and self-check the four-conjugate witness for E12((u^4 - u^-4)*z).

    The four conjugators are E12(t), diag(u^2), M*diag(u^2), and M*E12(t),
    where M = [[u^4, p], [0, u^-4]] = diag(u^4)*E12(p*u^-4) is recorded in
    exactly that regrouped form so the words stay inspectable.

    The self-check is one pass: it reuses the compute_Y result the witness
    was built from and runs the checks of verify_witness that follow it.  A
    wrong q or t still fails there: the product misses the target.
    """
    parts = compute_Y(A, u)
    c = A.c
    if not in_ideal(z, PrincipalIdeal(c)):
        raise ZNotInIdeal(f"{z} is not in ({c})")
    p = -parts.q - z
    u2 = u * u
    u4 = u2 * u2
    g1 = word_elem("12", parts.t)
    g2 = word_diag(u2)
    m_word = word_diag(u4) * word_elem("12", p * u4.inverse())
    factors = (
        ConjugateFactor(g1, core_inverted=True),
        ConjugateFactor(g2, core_inverted=False),
        ConjugateFactor(m_word * g2, core_inverted=True),
        ConjugateFactor(m_word * g1, core_inverted=False),
    )
    witness = ConjugateWitness(
        matrix=A,
        u=u,
        z=z,
        t=parts.t,
        q=parts.q,
        p=p,
        Y=parts.Y,
        factors=factors,
        target=elem12((u4 - u4.inverse()) * z),
    )
    _check_witness(witness)
    return witness


def rewrite_conjugators(
    w: ConjugateWitness, rewrite: Callable[[GroupWord], GroupWord]
) -> ConjugateWitness:
    """w with every conjugator word passed through rewrite, checked again.

    w must be checked already (by lemma2_witness or verify_witness).  Y, q
    and t do not depend on the words, so only the checks that follow them
    run: a rewritten word of another value fails the congruence or the
    product test.
    """
    factors = tuple(replace(f, conjugator=rewrite(f.conjugator)) for f in w.factors)
    rewritten = replace(w, factors=factors)
    _check_witness(rewritten)
    return rewritten
