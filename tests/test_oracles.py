"""Oracles from the mathematics: answers known in closed form, and a symmetry.

Every expected value here is computed in plain ints, with no sl2units code,
so a bug the library shares between its emitter and its verifier still
fails these tests:

* in SL2(Z/p), p an odd prime, the nontrivial unipotents form two classes of
  (p^2 - 1)/2 elements, and E21(1) and E21(-1) share a class exactly when -1
  is a square mod p, that is when p = 1 (mod 4);
* over F_p, E12(x) and E12(y) are conjugate exactly when x/y is a square, and
  A = E21(3) is conjugate to E12(-3), so a nontrivial E12(j) has norm 1 over
  the conjugates of A and A^-1 when -3j or 3j is a square mod p (Euler's
  criterion), and norm 2 otherwise;
* the Galois conjugation a + b*sqrt(d) -> a - b*sqrt(d) is a ring
  automorphism, and the witness construction uses ring operations only, so
  it commutes with the construction;
* the conjugation closure of a seed is a union of conjugacy classes, so
  conjugating the seed by any group element h leaves the closure unchanged.
"""

import dataclasses
import random
from collections import Counter

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sl2units.lemma import (
    ConjugateFactor,
    ConjugateWitness,
    ManyUnitsCertificate,
    certify_unit,
    find_unit,
    lemma2_witness,
)
from sl2units.norms import TABLE_CAP, FiniteGroupTable, conjugation_closure, lemma_bound_report
from sl2units.rings import euclidean_size, integers, localized, quadratic
from sl2units.sl2 import DiagFactor, ElemFactor, GroupWord, Mat2, elem12, elem21, identity

Z = integers()
Zh = localized(2)


def _odd_primes_admitted():
    """Odd primes p whose quotient Z/p the table cap n^3 <= TABLE_CAP admits."""
    n = 2
    while (n + 1) ** 3 <= TABLE_CAP:
        n += 1
    return [p for p in range(3, n + 1) if all(p % k for k in range(2, p))]


def test_closure_of_a_transvection_is_its_class_and_maybe_its_inverse_class():
    primes = _odd_primes_admitted()
    assert primes[0] == 3 and primes[-1] == 97
    for p in primes:
        table = FiniteGroupTable(Z.from_int(p))
        closure = conjugation_closure(table, [table.transvection("21", Z.one())])
        expected = p * p - 1 if p % 4 == 3 else (p * p - 1) // 2
        assert len(closure) == expected, p


def _random_group_element(table, rng):
    g = table.identity
    for _ in range(16):
        x = rng.choice(table.generators)
        g = table.mul(g, x if rng.random() < 0.5 else table.inv(x))
    return g


def test_closure_of_a_conjugated_seed_is_the_same_closure():
    rng = random.Random(16)
    moduli = [Z.from_int(n) for n in range(2, 14)] + [quadratic(2).from_int(3)]
    for modulus in moduli:
        table = FiniteGroupTable(modulus)
        for _ in range(3):
            seed = [_random_group_element(table, rng) for _ in range(2)]
            h = _random_group_element(table, rng)
            conjugated = [table.conj(h, s) for s in seed]
            assert conjugation_closure(table, conjugated) == conjugation_closure(table, seed), (
                modulus
            )


def _is_square_mod(x, p):
    return pow(x % p, (p - 1) // 2, p) == 1


def test_sample_norms_at_primes_follow_eulers_criterion():
    A = Mat2(Zh.one(), Zh.zero(), Zh.from_int(3), Zh.one())
    for p in (5, 7, 11, 13):
        js = list(range(1, p))
        report = lemma_bound_report(
            FiniteGroupTable(Zh.from_int(p)), A, [Zh.from_int(j) for j in js], len(js), 0
        )
        expected = [
            1 if _is_square_mod(3 * j, p) or _is_square_mod(-3 * j, p) else 2 for j in js
        ]
        assert report.samples == tuple((str(j), n) for j, n in zip(js, expected)), p
        assert report.histogram == dict(Counter(str(n) for n in expected))
        assert report.all_within_bound


def _sigma(value):
    """The Galois conjugate of an element, matrix, word, unit certificate or
    witness (a certificate's k is an int, which is its own conjugate)."""
    if isinstance(value, Mat2):
        return Mat2(*(_sigma(e) for e in (value.a, value.b, value.c, value.d)))
    if isinstance(value, GroupWord):
        return GroupWord(value.ring, tuple(_sigma(f) for f in value.factors))
    if isinstance(value, ElemFactor):
        return ElemFactor(value.position, _sigma(value.argument))
    if isinstance(value, ConjugateFactor):
        return ConjugateFactor(_sigma(value.conjugator), value.core_inverted)
    if isinstance(value, (ConjugateWitness, ManyUnitsCertificate)):
        fields = {f.name: _sigma(getattr(value, f.name)) for f in dataclasses.fields(value)}
        return type(value)(**fields)
    if isinstance(value, DiagFactor):
        return DiagFactor(_sigma(value.unit))
    if isinstance(value, tuple):
        return tuple(_sigma(v) for v in value)
    return value.conjugate()


_SMALL = st.integers(-2, 2)


@settings(max_examples=40, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    letters=st.lists(st.tuples(st.booleans(), _SMALL, _SMALL), min_size=1, max_size=4),
    w=st.tuples(_SMALL, _SMALL),
    elementary=st.booleans(),
)
def test_witness_commutes_with_galois_conjugation(d, letters, w, elementary):
    ring = quadratic(d)
    A = identity(ring)
    for upper, a, b in letters:
        x = ring.from_pair(a, b)
        A = A * (elem12(x) if upper else elem21(x))
    assume(A.c and euclidean_size(A.c) <= 12)
    cert = find_unit(A.c)
    z = A.c * ring.from_pair(*w)
    witness = lemma2_witness(A, cert, z, elementary)
    # sigma is a ring automorphism, so it maps a certificate for c to one for sigma(c)
    mirrored_cert = _sigma(cert)
    assert certify_unit(_sigma(A.c), mirrored_cert.v, cert.k) == mirrored_cert
    mirrored = lemma2_witness(_sigma(A), mirrored_cert, _sigma(z), elementary)
    expected = _sigma(witness)
    for field in dataclasses.fields(ConjugateWitness):
        assert getattr(mirrored, field.name) == getattr(expected, field.name), field.name
