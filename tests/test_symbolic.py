"""The witness algebra and the decomposition's closing step, run over the generic ring.

R0 = Z[a, b, c, d, y, z, w] / (ad - bc - 1, u*w - 1), with u = 1 + c^2*y, is
the ring in which A = [[a, b], [c, d]] has determinant one, u is a unit with
inverse w, and z is free.  Over any commutative ring R, an A in SL2(R), a unit
u = 1 + c^2*y of R and a z of R are the images of the generic ones under the
one ring map R0 -> R that sends each letter to its value.  So an identity that
the package's own code meets over R0 holds for every input of every ring:

* Y is upper triangular with diagonal (u^-4, u^4);
* the four conjugates multiply to E12((u^4 - u^-4)*z), plain and elementary;
* with z = c*z1, every entry of g - I, for each conjugator g, is c times an
  element of R0, so every conjugator is I mod (c);
* h_decomposition, expand_diagonals and the closing step of decompose
  multiply out to what they stand for.

Sym holds an element of R0 as its normal form modulo a lex Groebner basis of
the two relations, so == decides equality in R0 exactly.  It offers what the
witness algebra asks of an element -- + - *, powers, ==, bool, the inverse of
a unit and a ring with one() and zero() -- and nothing more: code that needs
more of the ring fails here, and no package function is replaced.  What stays
concrete is the test z in (c) at the head of lemma2_witness, each ring's own
membership test; the last test ties the code on concrete inputs to the
formulas proved here.  Since the verifier accepts a witness only if its words
are the ones lemma2_witness builds, plain or elementary, these identities are
what makes an accepted witness prove its claim.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from sl2units.elemgen import _upper_letters, expand_diagonals, h_decomposition
from sl2units.errors import NonUnit, VerificationFailed
from sl2units.lemma import (
    ManyUnitsCertificate,
    _checked_witness,
    _witness_factors,
    compute_Y,
    find_unit,
    lemma2_witness,
)
from sl2units.rings import random_element
from sl2units.sl2 import (
    ElemFactor,
    GroupWord,
    Mat2,
    diag,
    elem12,
    word_diag,
    word_elem,
)
from tests.conftest import WITNESS_RINGS, random_witness_matrix

POLYS, a, b, c, d, y, z, w = ring("a b c d y z w", ZZ, lex)
U = 1 + c**2 * y
BASIS = groebner([a * d - b * c - 1, U * w - 1], POLYS)
assert all(g.LC == 1 for g in BASIS)  # so normal forms keep integer coefficients


class R0:
    """The ring an element names: the package asks it for one() and zero()."""

    name = "R0"

    @staticmethod
    def one():
        return Sym(POLYS.one)

    @staticmethod
    def zero():
        return Sym(POLYS.zero)


def _poly(x):
    return x.poly if isinstance(x, Sym) else POLYS(x)


class Sym:
    """An element of R0, held as its normal form."""

    ring = R0
    __hash__ = None

    def __init__(self, poly):
        self.poly = poly.rem(BASIS)

    def __add__(self, other):
        return Sym(self.poly + _poly(other))

    def __sub__(self, other):
        return Sym(self.poly - _poly(other))

    def __neg__(self):
        return Sym(-self.poly)

    def __mul__(self, other):
        return Sym(self.poly * _poly(other))

    def __pow__(self, n: int):
        return Sym(self.poly**n)

    def __eq__(self, other):
        return self.poly == _poly(other)

    def __bool__(self):
        return bool(self.poly)

    def inverse(self):
        """The inverse of a unit +-u^k or +-w^k, the only units the code inverts."""
        for sign in (1, -1):
            for k in range(17):
                for unit, inverse in ((U**k, w**k), (w**k, U**k)):
                    if self.poly == sign * unit:
                        return Sym(sign * inverse)
        raise NonUnit(f"{self.poly} is not a unit of R0 of the form +-u^k or +-w^k")

    def __repr__(self):
        return str(self.poly)


A_, B_, C_, D_, Y_, Z_, W_ = (Sym(g) for g in POLYS.gens)
UNIT = Sym(U)
A = Mat2(A_, B_, C_, D_)  # the constructor's determinant check passes in R0
CERT = ManyUnitsCertificate(c=C_, v=UNIT, u=UNIT, k=1, y=Y_, epsilon_generator=(UNIT**8 - 1) * C_)


def conjugators(factors):
    return [factor.conjugator.evaluate() for factor in factors]


def over_c(e: Sym):
    """h with e = c*h in R0, or None when e is not in cR0.  The terms of e's
    normal form that c divides give one part of h.  The rest, free of c, lies in
    cR0 exactly when it is alpha*(ad - 1) + beta*(w - 1) for integer polynomials
    alpha and beta, as R0/cR0 = Z[a, b, d, y, z, w]/(ad - 1, w - 1); and in R0,
    ad - 1 = b*c and w - 1 = -c^2*y*w."""
    rest = e.poly.subs(c, 0)
    h = (e.poly - rest).exquo(c)
    if rest:  # sympy divides 0 into no quotients at all
        (alpha, beta), remainder = rest.div([a * d - 1, w - 1])
        if remainder:
            return None
        h += alpha * b - beta * c * y * w
    return Sym(h)


def in_c(e: Sym) -> bool:
    h = over_c(e)
    return h is not None and C_ * h == e


def off_identity_mod_c(factors) -> list:
    """The indices of the conjugators with an entry of g - I outside cR0."""
    return [i for i, g in enumerate(conjugators(factors))
            if not all(in_c(e) for e in (g.a - 1, g.b, g.c, g.d - 1))]


@pytest.fixture(scope="module")
def parts():
    return compute_Y(A, CERT)


@pytest.fixture(scope="module")
def generic(parts):
    """The witness that the plain words give over R0, built once, outside the
    hypothesis draws: a bug that breaks it fails each test that asks for it."""
    factors = _witness_factors(UNIT, parts.t, -parts.q - Z_, elementary=False)
    return _checked_witness(A, UNIT, Z_, parts, factors)


def test_Y_is_upper_triangular_with_diagonal_u_to_the_minus_4_and_4(parts):
    assert (parts.Y.a, parts.Y.c, parts.Y.d) == (W_**4, 0, UNIT**4)
    assert parts.q == parts.Y.b
    assert parts.x * C_ == UNIT**4 - 1 and parts.t == A_ * parts.x and parts.y == Y_
    assert all(in_c(e) for e in (parts.x, parts.t, parts.q))


@pytest.mark.parametrize("elementary", [False, True])
def test_four_conjugates_multiply_to_the_target(parts, elementary):
    """_checked_witness raises VerificationFailed unless the product meets the target."""
    factors = _witness_factors(UNIT, parts.t, -parts.q - Z_, elementary)
    witness = _checked_witness(A, UNIT, Z_, parts, factors)
    assert witness.target == elem12((UNIT**4 - W_**4) * Z_)
    assert witness.p == -parts.q - Z_
    assert [f.core_inverted for f in witness.factors] == [True, False, True, False]
    letters = [f for factor in factors for f in factor.conjugator.factors]
    assert elementary == all(isinstance(f, ElemFactor) for f in letters)


def test_the_product_check_refuses_swapped_factors(parts, generic):
    factors = generic.factors
    swapped = (factors[1], factors[0]) + factors[2:]
    with pytest.raises(VerificationFailed, match="misses the target"):
        _checked_witness(A, UNIT, Z_, parts, swapped)


@pytest.mark.parametrize("elementary", [False, True])
def test_every_conjugator_is_the_identity_mod_c_once_z_is_in_c(parts, elementary):
    factors = _witness_factors(UNIT, parts.t, -parts.q - C_ * Z_, elementary)
    assert off_identity_mod_c(factors) == []


def test_a_z_outside_c_leaves_the_conjugators_through_M_off_the_identity(generic):
    """The congruence needs z in (c): M = [[u^4, p], [0, u^-4]] has p = -q - z."""
    assert off_identity_mod_c(generic.factors) == [2, 3]


def test_in_c_decides_membership():
    assert not in_c(A_ - 1) and not in_c(Z_) and not in_c(R0.one())
    assert in_c(UNIT - 1) and in_c(A_ * D_ - 1) and in_c(R0.zero())
    assert in_c(W_ - 1)  # w - 1 = -c^2*y*w: needs the relation u*w = 1


@pytest.mark.parametrize("unit", [UNIT, W_, UNIT**2, -(W_**4)], ids=["u", "w", "u^2", "-w^4"])
def test_h_decomposition_and_expand_diagonals(unit):
    """Decomposition's own check evaluates the six letters against diag(unit)."""
    assert h_decomposition(unit).matrix == diag(unit)
    word = word_elem("21", B_) * word_diag(unit) * word_elem("12", A_) * word_diag(unit)
    expanded = expand_diagonals(word)
    assert all(isinstance(f, ElemFactor) for f in expanded.factors) and len(expanded) == 14
    assert expanded.evaluate() == word.evaluate()


@pytest.mark.parametrize("unit", [R0.one(), UNIT, W_**3, -UNIT], ids=["1", "u", "w^3", "-u"])
@pytest.mark.parametrize("b_entry", [R0.zero(), B_], ids=["b=0", "b"])
def test_closing_step_of_decompose(unit, b_entry):
    """[[a', b'], [0, 1/a']] = h_decomposition(a') * E12(b'/a'), for a unit a'."""
    m = Mat2(unit, b_entry, R0.zero(), unit.inverse())
    letters = _upper_letters(m)
    assert GroupWord(R0, letters).evaluate() == m
    assert len(letters) == (0 if unit == 1 else 6) + (1 if b_entry else 0)


# ---------------------------------------------------------------------------
# the code on concrete inputs computes the formulas proved above


def at(e: Sym, values, ring):
    """e's normal form evaluated at the ring elements values, one per letter."""
    total = ring.zero()
    for monom, coeff in e.poly.terms():
        term = ring.from_int(int(coeff))
        for value, k in zip(values, monom):
            term = term * value**k
        total = total + term
    return total


@pytest.mark.parametrize("witness_ring", WITNESS_RINGS, ids=str)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_witness_on_concrete_inputs_is_the_generic_formula(generic, witness_ring, seed):
    rng = random.Random(seed)
    matrix = random_witness_matrix(witness_ring, rng)
    cert = find_unit(matrix.c)
    z_in_c = matrix.c * random_element(witness_ring, rng, 5)
    concrete = lemma2_witness(matrix, cert, z_in_c)
    values = (matrix.a, matrix.b, matrix.c, matrix.d, cert.y, z_in_c, cert.u.inverse())
    for name in ("t", "q", "p"):
        assert getattr(concrete, name) == at(getattr(generic, name), values, witness_ring), name
    Y = generic.Y
    assert concrete.Y == Mat2(*(at(e, values, witness_ring) for e in (Y.a, Y.b, Y.c, Y.d)))
