"""Unit certificates, the triangular conjugate Y, and the four-factor witness."""

import pytest

from sl2units import lemma
from sl2units.errors import (
    NoInfiniteOrderUnit,
    NonUnit,
    UnitCongruenceViolated,
    VerificationFailed,
    ZeroIdeal,
    ZNotInIdeal,
)
from sl2units.lemma import (
    certify_unit,
    compute_Y,
    find_unit,
    lemma2_witness,
    verify_certificate,
    verify_witness,
)
from sl2units.rings import (
    exact_quotient,
    height,
    in_ideal,
    integers,
    localized,
    parse_element,
    quadratic,
)
from sl2units.sl2 import GroupWord, diag, elem12, elem21, identity, parse_matrix
from tests.conftest import (
    WITNESS_RINGS,
    random_nonzero_nonunit,
    random_witness_matrix,
    reduces_to_identity,
)

Z = integers()
Zh = localized(2)
R2 = quadratic(2)
A3 = elem21(Zh.from_int(3))
CERT_64 = certify_unit(Zh.from_int(3), Zh.from_int(64), 1)  # for A3's corner


def _brute_force_order(cert):
    """Independent minimality check: k is the first exponent with c^2 | v^k - 1."""
    c2 = cert.c * cert.c
    w = cert.v.ring.one()
    for j in range(1, cert.k):
        w = w * cert.v
        assert exact_quotient(w - 1, c2) is None, f"v^{j} = 1 mod c^2 before k"
    assert exact_quotient(w * cert.v - 1, c2) is not None


# ---------------------------------------------------------------------------
# find_unit


def test_find_unit_anchor_3_over_half():
    cert = find_unit(Zh.from_int(3))
    assert (cert.v, cert.k, cert.u, cert.y) == (2, 6, 64, 7)
    assert verify_certificate(cert.c, cert.v, cert.u, cert.k) == cert
    assert cert.epsilon_generator == 3 * (64**8 - 1)


def test_find_unit_anchor_unit_c():
    cert = find_unit(Zh.from_int(1))
    assert (cert.u, cert.k) == (2, 1)
    assert cert.epsilon_generator == 255


def test_find_unit_quadratic_anchor():
    cert = find_unit(R2.from_int(3))
    assert cert.v == R2.from_pair(1, 1)
    assert cert.k == 24
    assert verify_certificate(cert.c, cert.v, cert.u, cert.k) == cert
    _brute_force_order(cert)


def test_find_unit_errors():
    from sl2units.errors import NoInfiniteOrderUnit

    with pytest.raises(NoInfiniteOrderUnit):
        find_unit(Z.from_int(3))
    with pytest.raises(ZeroIdeal):
        find_unit(Zh.zero())


def test_certify_unit():
    c = Zh.from_int(3)
    cert = certify_unit(c, Zh.from_int(64), 1)
    assert (cert.v, cert.u, cert.k, cert.y) == (64, 64, 1, 7)
    assert certify_unit(c, Zh.from_int(2), 6) == find_unit(c)
    with pytest.raises(ZeroIdeal, match="c = 0"):
        certify_unit(Zh.zero(), Zh.from_int(64), 1)
    with pytest.raises(UnitCongruenceViolated, match=r"u - 1 = 1 is not divisible by c\^2 = 9"):
        certify_unit(c, Zh.from_int(2), 1)
    with pytest.raises(NonUnit, match=r"^10 is not a unit of Z\[1/2\]$"):
        certify_unit(c, Zh.from_int(10), 1)  # 10 = 1 + 9, but 5 is not invertible
    with pytest.raises(NoInfiniteOrderUnit, match=r"^u\^8 = 1, so u generates no usable ideal$"):
        certify_unit(Zh.one(), Zh.from_int(-1), 1)


def test_certify_unit_refuses_each_input_compute_Y_relies_on():
    """compute_Y takes a certificate, so the refusals of its inputs are
    certify_unit's: a zero corner, a non-unit u and c^2 not dividing u - 1."""
    with pytest.raises(ZeroIdeal, match=r"^cannot certify a unit for c = 0$"):
        certify_unit(diag(Zh.from_int(2)).c, Zh.from_int(2), 1)
    with pytest.raises(NonUnit, match=r"^3 is not a unit of Z\[1/2\]$"):
        certify_unit(A3.c, Zh.from_int(3), 1)
    with pytest.raises(UnitCongruenceViolated, match=r"^u - 1 = 1 is not divisible by c\^2 = 9$"):
        certify_unit(A3.c, Zh.from_int(2), 1)


def test_find_unit_randomized(rng):
    for ring in WITNESS_RINGS:
        for _ in range(8):
            c = random_nonzero_nonunit(ring, rng, size_cap=25)
            cert = find_unit(c)
            assert verify_certificate(c, cert.v, cert.u, cert.k) == cert
            assert exact_quotient(cert.u - 1, c * c) == cert.y
            assert cert.u**8 != 1
            _brute_force_order(cert)


def test_verify_certificate_tampering():
    """A recorded u or y is not checked here but derived, for the caller to
    compare; a k that the recorded u is too small for is refused, and a c
    that certify_unit refuses gets certify_unit's own error."""
    cert = find_unit(Zh.from_int(3))
    assert verify_certificate(cert.c, cert.v, cert.u, cert.k) == cert
    assert verify_certificate(cert.c, cert.v, cert.u + 1, cert.k) == cert
    with pytest.raises(VerificationFailed, match=r"^u is not 2\^7$"):
        verify_certificate(cert.c, cert.v, cert.u, cert.k + 1)
    with pytest.raises(UnitCongruenceViolated, match=r"^u - 1 = 63 is not divisible by c\^2 = 25$"):
        verify_certificate(Zh.from_int(5), cert.v, cert.u, cert.k)
    with pytest.raises(ZeroIdeal, match=r"^cannot certify a unit for c = 0$"):
        verify_certificate(Zh.zero(), cert.v, cert.u, cert.k)


def test_verify_certificate_u8_trap():
    # a hand-built "certificate" whose unit has finite order must be rejected
    one, minus_one = Zh.from_int(1), Zh.from_int(-1)
    with pytest.raises(NoInfiniteOrderUnit, match="u generates no usable ideal"):
        verify_certificate(one, minus_one, minus_one, 1)


def test_exponent_cap_admits_every_true_power():
    # before computing v**k, verify_certificate refuses k > bits(height(u)) + 1, which
    # needs height(v^k) >= 2^(k-2) for every unit v != +-1, and
    # k * (bits(height(v)) - 1) >= bits(height(u)) + bits(d), which needs
    # height(v^k) >= height(v)^k / (1 + sqrt(d)); the heights 2^j - 1 are where
    # bits(height(v)) - 1 is furthest below log2 height(v)
    for ring, text in [(Zh, "1/2"), (localized(6), "-3/2"), (R2, "1+sqrt(2)"),
                       (R2, "1-sqrt(2)"), (quadratic(3), "2-sqrt(3)"),
                       (localized(7), "1/7"), (localized(6), "-2/3"), (localized(10), "5/2"),
                       (R2, "3+2*sqrt(2)"), (quadratic(3), "7-4*sqrt(3)"),
                       (quadratic(5), "2+sqrt(5)"), (quadratic(7), "8+3*sqrt(7)")]:
        v = parse_element(ring, text)
        d = ring.param if v.irr else 0
        for k in range(1, 300):
            bits = height(v**k).bit_length()
            assert k <= bits + 1
            assert k * (height(v).bit_length() - 1) < bits + d.bit_length()


# ---------------------------------------------------------------------------
# compute_Y


def test_compute_Y_anchor():
    A = A3
    parts = compute_Y(A, CERT_64)
    assert parts.x == 5592405
    assert parts.t == 5592405
    assert parts.y == 7
    # recompute the product from raw matrix operations
    u2 = Zh.from_int(64 * 64)
    direct = (
        elem12(parts.t)
        * A.inverse()
        * elem12(-parts.t)
        * diag(u2)
        * A
        * diag(u2.inverse())
    )
    assert parts.Y == direct
    assert parts.Y.a == Zh.from_fraction(1, 64**4) and parts.Y.d == 64**4
    assert not parts.Y.c
    assert in_ideal(parts.q, Zh.from_int(3))


def test_compute_Y_small_anchor():
    parts = compute_Y(elem21(Zh.from_int(1)), certify_unit(Zh.one(), Zh.from_int(2), 1))
    assert parts.x == 15 and parts.t == 15


def test_compute_Y_general_matrix(rng):
    for ring in WITNESS_RINGS:
        A = random_witness_matrix(ring, rng)
        parts = compute_Y(A, find_unit(A.c))
        assert in_ideal(parts.x, A.c)
        assert in_ideal(parts.t, A.c)
        assert in_ideal(parts.q, A.c)


# ---------------------------------------------------------------------------
# the four-factor witness


def _words(w):
    return [f.conjugator for f in w.factors]


def test_witness_anchor():
    w = lemma2_witness(A3, CERT_64, Zh.from_int(3))
    assert len(w.factors) == 4 and w.u == 64
    assert w.target == parse_matrix(Zh, "[[1,844424930131965/16777216],[0,1]]")
    assert w.p == -w.q - w.z
    assert verify_witness(A3, CERT_64, w.z, _words(w)) == w


def test_witness_product_matches_target():
    A = parse_matrix(Zh, "[[5,2],[12,5]]")
    cert = find_unit(A.c)
    z = A.c * Zh.from_int(-7)
    w = lemma2_witness(A, cert, z)
    product = identity(Zh)
    for f in w.factors:
        g = f.conjugator.evaluate()
        product = product * g * (A.inverse() if f.core_inverted else A) * g.inverse()
    u4 = cert.u**4
    assert product == elem12((u4 - u4.inverse()) * z) == w.target


def test_witness_inverted_cores_alternate():
    w = lemma2_witness(A3, CERT_64, Zh.from_int(3))
    assert [f.core_inverted for f in w.factors] == [True, False, True, False]


def test_witness_requires_z_in_ideal():
    with pytest.raises(ZNotInIdeal):
        lemma2_witness(A3, CERT_64, Zh.from_int(1))


def test_witness_randomized(rng):
    for ring in WITNESS_RINGS:
        for _ in range(4):
            A = random_witness_matrix(ring, rng)
            cert = find_unit(A.c)
            from sl2units.rings import random_element

            z = A.c * random_element(ring, rng, 5)
            for elementary in (False, True):
                w = lemma2_witness(A, cert, z, elementary)
                assert verify_witness(A, cert, z, _words(w)) == w


def test_witness_tampering_rejected():
    """verify_witness reads only A, the certificate, z and whether a word has a
    diag letter; it builds every other field, for certs to compare with the
    recorded ones, which tests/test_certs.py refuses where they differ."""
    z = Zh.from_int(3)
    w = lemma2_witness(A3, CERT_64, z)
    words = _words(w)
    shifted = verify_witness(A3, CERT_64, z + 3, words)
    assert shifted == lemma2_witness(A3, CERT_64, z + 3) and shifted.factors != w.factors
    for tampered in (words[:3], [words[1], words[0], *words[2:]]):
        assert verify_witness(A3, CERT_64, z, tampered) == w
    elementary = lemma2_witness(A3, CERT_64, z, elementary=True)
    assert verify_witness(A3, CERT_64, z, [words[0]]) == elementary  # no diag letter


def test_witness_self_check_is_one_pass(monkeypatch):
    calls = {"compute_Y": 0, "evaluate": 0}
    real_compute_Y, real_evaluate = lemma.compute_Y, GroupWord.evaluate

    def counted_compute_Y(*args):
        calls["compute_Y"] += 1
        return real_compute_Y(*args)

    def counted_evaluate(word):
        calls["evaluate"] += 1
        return real_evaluate(word)

    A = parse_matrix(Zh, "[[5,2],[12,5]]")
    cert = find_unit(A.c)
    monkeypatch.setattr(lemma, "compute_Y", counted_compute_Y)
    monkeypatch.setattr(GroupWord, "evaluate", counted_evaluate)
    lemma2_witness(A, cert, A.c * Zh.from_int(-7))
    # the conjugator words hold no nested words, so each call is one conjugator
    assert calls == {"compute_Y": 1, "evaluate": 4}


def test_witness_self_check_catches_a_wrong_q(monkeypatch):
    real_compute_Y = lemma.compute_Y

    def off_by_c(A, cert):
        parts = real_compute_Y(A, cert)
        return parts._replace(q=parts.q + A.c)

    monkeypatch.setattr(lemma, "compute_Y", off_by_c)
    with pytest.raises(VerificationFailed, match="misses the target"):
        lemma2_witness(A3, CERT_64, Zh.from_int(3))


def test_verify_witness_lets_a_bug_in_compute_Y_through(monkeypatch):
    w = lemma2_witness(A3, CERT_64, Zh.from_int(3))

    def broken(A, cert):
        raise TypeError("bug inside compute_Y")

    monkeypatch.setattr(lemma, "compute_Y", broken)
    with pytest.raises(TypeError, match="bug inside compute_Y"):
        verify_witness(w.matrix, CERT_64, w.z, _words(w))


def test_witness_conjugators_vanish_mod_c():
    w = lemma2_witness(A3, CERT_64, Zh.from_int(6))
    for f in w.factors:
        assert reduces_to_identity(f.conjugator.evaluate(), Zh.from_int(3))


def test_diagonal_of_certified_unit_vanishes_mod_c(rng):
    # the normal-generation shadow: u = 1 mod c^2 makes diag(u, 1/u)
    # congruent to the identity modulo c
    for ring in WITNESS_RINGS:
        c = random_nonzero_nonunit(ring, rng, size_cap=25)
        cert = find_unit(c)
        assert reduces_to_identity(diag(cert.u), c)
