"""Ring layer: canonical forms, divisibility, quotients, units, parsing."""

import decimal
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.solvers.diophantine.diophantine import diop_DN

from sl2units.errors import DocumentTooLarge, NoInfiniteOrderUnit, NonUnit, ParseError, ZeroIdeal
from sl2units.rings import (
    _PLAIN_BITS,
    _PLAIN_DIGITS,
    DENOMINATOR_BOUND,
    DIGIT_BOUND,
    ORDER_BOUND,
    QUADRATIC,
    _int_text,
    _is_squarefree,
    _strip_primes,
    _text_int,
    _xgcd,
    euclidean_size,
    exact_quotient,
    height,
    in_ideal,
    infinite_order_unit,
    integers,
    is_unit,
    localized,
    parse_element,
    parse_ring,
    pell_fundamental_unit,
    quadratic,
    quotient,
    random_element,
    unit_order,
)
from tests.conftest import ALL_RINGS, count_calls
from tests.test_hostile import EMIT, check

Z = integers()
Zh = localized(2)
Z6 = localized(6)
R2 = quadratic(2)
R3 = quadratic(3)


# ---------------------------------------------------------------------------
# descriptors and parsing


def test_ring_names():
    assert Z.name == "Z"
    assert Z6.name == "Z[1/6]"
    assert R2.name == "Z[sqrt2]"


def test_parse_ring_round_trip():
    for ring in (Z, Zh, Z6, R2, R3):
        assert parse_ring(ring.name) == ring
    assert parse_ring("Z[sqrt(2)]") == R2
    assert parse_ring(" Z[1/6] ") == Z6


@pytest.mark.parametrize("bad", ["Q", "Z[1/1]", "Z[sqrt4]", "Z[sqrt1]", "Z[2]", ""])
def test_parse_ring_rejects(bad):
    with pytest.raises(ParseError):
        parse_ring(bad)


def _squarefree_by_sieve(limit):
    """flags[d] for d < limit: cross off every multiple of every square p^2."""
    flags = [True] * limit
    for p in range(2, math.isqrt(limit) + 1):
        for d in range(p * p, limit, p * p):
            flags[d] = False
    return flags


def _small_prime(pick, lo, hi):
    while True:
        n = pick.randrange(lo, hi)
        if all(n % p for p in range(2, math.isqrt(n) + 1)):
            return n


def test_is_squarefree_matches_the_sieve():
    flags = _squarefree_by_sieve(2 * 10**5)
    assert all(_is_squarefree(d) == flags[d] for d in range(1, 2 * 10**5))


def test_is_squarefree_past_the_cube_root():
    pick = random.Random(5)
    for _ in range(50):
        q, r = _small_prime(pick, 10**5, 10**6), _small_prime(pick, 10**5, 10**6)
        assert _is_squarefree(q * r) == (q != r)
        assert not _is_squarefree(q * q)
        assert not _is_squarefree(q * q * pick.randrange(1, 10**6))
        s = pick.randrange(2, 10**4)
        assert not _is_squarefree(s * s * pick.randrange(1, 10**10))


def test_large_quadratic_parameter_answered_at_once():
    check(EMIT["h-decompose"]["ring-Z[sqrt(10^17+3)]"])
    assert parse_ring("Z[sqrt100000000000000003]").param == 10**17 + 3
    with pytest.raises(ParseError, match=r"below 10\^18"):
        parse_ring("Z[sqrt1000000000000000003]")


def test_descriptor_validation():
    with pytest.raises(ValueError):
        localized(1)
    with pytest.raises(ValueError):
        quadratic(12)  # 12 = 4 * 3 is not squarefree
    assert quadratic(6).param == 6


@pytest.mark.parametrize(
    "ring,text",
    [
        (Z, "-7"),
        (Zh, "5/8"),
        (Z6, "-35/12"),
        (R2, "1-sqrt(2)"),
        (R2, "-sqrt(2)"),
        (R3, "3+2*sqrt(3)"),
        (R3, "0"),
    ],
)
def test_parse_format_round_trip(ring, text):
    x = parse_element(ring, text)
    assert parse_element(ring, str(x)) == x
    assert str(x) == text


def test_parse_element_rejects():
    with pytest.raises(ParseError, match="1/2 is not an integer"):
        parse_element(Z, "1/2")
    with pytest.raises(ParseError, match="1/3 does not lie in Z\\[1/2\\]"):
        parse_element(Zh, "1/3")
    with pytest.raises(ParseError):
        parse_element(R2, "sqrt(3)")  # wrong root for the ring
    with pytest.raises(ParseError):
        parse_element(R2, "1/2")
    with pytest.raises(ParseError):
        parse_element(Z, "x")


# ---------------------------------------------------------------------------
# decimal text of integers past CPython's int <-> str digit limit


@pytest.mark.parametrize(
    "k", [_PLAIN_DIGITS - 1, _PLAIN_DIGITS, _PLAIN_DIGITS + 1, 4300, DIGIT_BOUND - 1, DIGIT_BOUND]
)
def test_int_text_of_powers_of_ten_and_their_neighbours(k):
    # the expected text is built without str(), which refuses most of these
    texts = {10**k - 1: "9" * k, 10**k: "1" + "0" * k, 10**k + 1: "1" + "0" * (k - 1) + "1"}
    for n, text in texts.items():
        for sign, value in (("", n), ("-", -n)):
            assert _int_text(value) == sign + text
            if len(text) <= DIGIT_BOUND:
                assert _text_int(sign + text) == value
            else:
                with pytest.raises(ParseError, match=f"{k + 1} digits exceeds the bound of {k}"):
                    _text_int(sign + text)


def test_int_text_agrees_with_str_within_the_limit():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(10 ** rng.randint(1, 4300)) * rng.choice((1, -1))
        assert _int_text(n) == str(n)
        assert _text_int(str(n)) == n
        assert _text_int("+" + "0" * rng.randint(0, 900) + str(abs(n))) == abs(n)


def test_int_text_leaves_the_interpreter_settings_alone():
    limit, context = sys.get_int_max_str_digits(), repr(decimal.getcontext())
    n = 7**100_000 + 1  # 84,510 digits
    assert _text_int(_int_text(-n)) == -n
    assert sys.get_int_max_str_digits() == limit
    assert repr(decimal.getcontext()) == context


@pytest.mark.parametrize("ring", [Z, Zh, Z6, R2], ids=str)
def test_elements_past_the_str_limit_round_trip(ring):
    big = 3**30_000 + 2  # 14,314 digits
    values = [ring.from_int(big), ring.from_int(-big)]
    if ring.kind == QUADRATIC:
        values += [ring.from_pair(big, -big), ring.from_pair(-1, big)]
    elif ring.param:
        values += [ring.from_fraction(-big, 2**14_000)]  # a 4,215-digit denominator
    for x in values:
        text = str(x)
        assert parse_element(ring, text) == x
        assert len(text) > 14_000


def test_bit_bounds_of_the_digit_bounds():
    assert 2 ** (ORDER_BOUND - 3) <= 10**DIGIT_BOUND < 2 ** (ORDER_BOUND - 2)
    assert 2**_PLAIN_BITS <= 10**_PLAIN_DIGITS < 2 ** (_PLAIN_BITS + 1)


def test_parse_refuses_an_integer_over_the_digit_bound_at_once():
    for name in ("of-100001-digits", "of-10^6-digits-over-1", "of-minus-100001-digits"):
        check(EMIT["unit find"][f"c-{name}"])


def test_parse_refuses_a_denominator_over_its_bound_at_once():
    # 1/2^e is a unit of Z[1/2]; checking that its denominator is 2-smooth
    # divides by 2 once per pass, so a long one is refused before it is read
    for name in ("over-2^14288", "over-2^332000", "over-10^6-digits"):
        check(EMIT["unit find"][f"c-{name}"])
    at_bound = _int_text(2**14_284)
    assert len(at_bound) == DENOMINATOR_BOUND
    assert parse_element(Zh, "1/" + at_bound) == Zh.from_fraction(1, 2**14_284)


def test_parse_power_denominator():
    # str() never writes n/p^e, so the parser does not read it
    with pytest.raises(ParseError, match="cannot parse"):
        parse_element(Zh, "3/2^4")


def test_parse_power_denominator_refused_before_the_power():
    check(EMIT["unit find"]["c-over-2^100000"])


# ---------------------------------------------------------------------------
# canonical form and arithmetic


def test_canonical_lowest_terms():
    x = Zh.from_fraction(6, 4)
    assert x.rat == Fraction(3, 2) and str(x) == "3/2"
    assert Z6.from_fraction(8, 4) == 2


def test_membership_enforced():
    with pytest.raises(ValueError):
        Z.from_fraction(1, 2)
    with pytest.raises(ValueError):
        Zh.from_fraction(1, 3)


def test_quadratic_arithmetic():
    r = R2.from_pair(1, 1)  # 1 + sqrt(2)
    s = R2.from_pair(1, -1)
    assert r * s == -1
    assert r.field_norm() == -1
    assert Zh.from_fraction(3, 2).field_norm() == Fraction(9, 4)
    assert Z.from_int(-3).field_norm() == 9
    assert r.conjugate() == s
    assert r**2 == R2.from_pair(3, 2)
    assert r**-1 == R2.from_pair(-1, 1)
    assert r * r**-1 == 1


def test_negative_powers_localized():
    two = Zh.from_int(2)
    assert two**-3 == Zh.from_fraction(1, 8)
    with pytest.raises(NonUnit):
        Z.from_int(2) ** -1


# ---------------------------------------------------------------------------
# units, division, sizes


def test_is_unit_oracles():
    assert is_unit(Zh.from_int(2)) == Zh.from_fraction(1, 2)
    assert is_unit(Zh.from_int(3)) is None
    assert is_unit(Z.from_int(-1)) == -1
    assert is_unit(Z.from_int(2)) is None
    assert is_unit(R2.from_pair(1, 1)) == R2.from_pair(-1, 1)
    assert is_unit(R3.from_pair(2, 1)) == R3.from_pair(2, -1)
    assert is_unit(R2.zero()) is None


def test_exact_quotient_oracles():
    assert exact_quotient(Z.from_int(6), Z.from_int(3)) == 2
    assert exact_quotient(Z.from_int(7), Z.from_int(3)) is None
    assert exact_quotient(Zh.from_int(1), Zh.from_int(2)) == Zh.from_fraction(1, 2)
    sq = R2.from_pair(3, 2)  # (1 + sqrt2)^2
    assert exact_quotient(sq, R2.from_pair(1, 1)) == R2.from_pair(1, 1)
    assert exact_quotient(R2.from_pair(1, 0), R2.from_pair(0, 1)) is None
    with pytest.raises(ZeroDivisionError):
        exact_quotient(Z.one(), Z.zero())


def test_euclidean_size_oracles():
    assert euclidean_size(Z.zero()) == 0
    assert euclidean_size(Zh.from_fraction(1, 2)) == 1
    assert euclidean_size(Zh.from_int(12)) == 3
    assert euclidean_size(R2.from_pair(1, 1)) == 1
    assert euclidean_size(R2.from_pair(3, 1)) == 7
    assert euclidean_size(Z.from_int(-9)) == 9


def test_height_oracles():
    assert height(Zh.from_fraction(5, 8)) == 8
    assert height(R2.from_pair(3, -2)) == 3
    assert height(Z.from_int(-11)) == 11


# ---------------------------------------------------------------------------
# ideals and quotients


def test_principal_ideal_membership():
    three = Z.from_int(3)
    assert in_ideal(Z.from_int(6), three)
    assert not in_ideal(Z.from_int(7), three)
    assert in_ideal(Zh.from_fraction(3, 2), Zh.from_int(3))
    r = R2.from_pair(0, 1)  # sqrt(2) divides 2
    assert in_ideal(R2.from_int(2), r)
    assert not in_ideal(R2.from_int(3), r)
    with pytest.raises(ZeroIdeal, match="^principal ideals require a nonzero generator$"):
        quotient(Z.zero())


@pytest.mark.parametrize(
    "ring,gen,index",
    [
        (Z, "3", 3),
        (Z, "-6", 6),
        (Zh, "9", 9),
        (Zh, "12", 3),  # powers of 2 are units, so only the odd part survives
        (Zh, "3/2", 3),
        (R2, "3", 9),
        (R2, "sqrt(2)", 2),
        (R2, "1+sqrt(2)", 1),  # unit generator: the quotient collapses
        (R3, "1+sqrt(3)", 2),
    ],
)
def test_quotient_index(ring, gen, index):
    q = quotient(parse_element(ring, gen))
    assert q.index == index
    assert len({q.decode(i) for i in range(q.index)}) == index


_RESIDUE_COUNT_MODULI = {
    "Z": ("1", "2", "-6", "7", "12"),
    "Z[1/6]": ("1", "6", "5", "12", "35/6", "2/3"),
    "Z[sqrt2]": ("1+sqrt(2)", "sqrt(2)", "3", "1+2*sqrt(2)", "2+sqrt(2)", "3+sqrt(2)", "4"),
    "Z[sqrt3]": ("1+sqrt(3)", "2+sqrt(3)", "sqrt(3)", "3", "1+2*sqrt(3)", "5"),
}


@pytest.mark.parametrize(
    "ring_name,gen", [(r, g) for r, gens in _RESIDUE_COUNT_MODULI.items() for g in gens]
)
def test_residue_count_is_the_euclidean_size(ring_name, gen):
    """Count the classes of a box of lattice points mod cR by divisibility of
    differences alone.  The box [0, M) is taken along each coordinate for an
    integer M in cR (M = c * conjugate(c) over Z[sqrt(d)], the numerator of c
    otherwise), so it meets every class: Z[sqrt(d)] is Z + Z*sqrt(d), and the
    integers reach every class of Z[1/m]/cR, since the inverse of m in that
    finite ring is a power of m."""
    ring = parse_ring(ring_name)
    c = parse_element(ring, gen)
    if ring.kind == QUADRATIC:
        m = abs(int((c * c.conjugate()).rat))
        box = [ring.from_pair(a, b) for a in range(m) for b in range(m)]
    else:
        m = abs(c.rat.numerator)
        box = [ring.from_int(a) for a in range(m)]
    representatives = []
    for x in box:
        if not any(in_ideal(x - r, c) for r in representatives):
            representatives.append(x)
    assert len(representatives) == euclidean_size(c) == quotient(c).index


def test_quotient_encode_homomorphism(rng):
    for ring, gen in [(Z, "6"), (Zh, "9"), (R2, "3"), (R3, "sqrt(3)")]:
        q = quotient(parse_element(ring, gen))
        for _ in range(40):
            x = random_element(ring, rng, 9)
            y = random_element(ring, rng, 9)
            assert q.encode(x + y) == q.add_enc(q.encode(x), q.encode(y))
            assert q.encode(x * y) == q.mul_enc(q.encode(x), q.encode(y))
        assert q.encode(ring.one()) == q.one_enc


def _unit_codes(q):
    """Codes of the units of q, read off its multiplication: i is a unit iff
    i*j = 1 for some code j."""
    one = q.one_enc
    return {i for i in range(q.index) if any(q.mul_enc(i, j) == one for j in range(q.index))}


def test_quotient_unit_group_orders():
    def unit_count(q):
        return len(_unit_codes(q))

    assert unit_count(quotient(Z.from_int(5))) == 4
    assert unit_count(quotient(Z.from_int(9))) == 6
    assert unit_count(quotient(Zh.from_int(2))) == 1  # Z[1/2]/(2) = 0
    # R2/(3) is the field with 9 elements
    assert unit_count(quotient(R2.from_int(3))) == 8


def _lattice_index_is_one(rows):
    """Row-stacking HNF test that integer rows span all of Z^2, an oracle for
    the units of a quotient: x is a unit iff xR + cR, spanned by x,
    x*sqrt(d) and the Hermite rows of cR, is the whole ring."""
    acc = None
    seconds = []
    for r in [r for r in rows if r[0] or r[1]]:
        if r[0] == 0:
            seconds.append(r[1])
        elif acc is None:
            acc = list(r)
        else:
            g, s, t = _xgcd(acc[0], r[0])
            seconds.append((-r[0] // g) * acc[1] + (acc[0] // g) * r[1])
            acc = [g, s * acc[1] + t * r[1]]
    return acc is not None and abs(acc[0]) == 1 and math.gcd(*seconds) == 1


def _row_stacking_is_unit(q, x):
    if q.index == 1:
        return True
    r = q.decode(q.encode(x))
    a, b, d = int(r.rat), r.irr, q.ring.param
    h11, h12, h22 = q._hnf
    if math.gcd(a, d * b, h11) != 1:
        return False
    return _lattice_index_is_one([[a, b], [d * b, a], [h11, h12], [0, h22]])


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13])
def test_quotient_is_unit_matches_row_stacking(d):
    ring = quadratic(d)
    rng = random.Random(d)
    moduli = [ring.from_int(1), ring.from_pair(0, 1)]
    while len(moduli) < 8:
        c = ring.from_pair(rng.randint(-7, 7), rng.randint(-3, 3))
        if c:
            moduli.append(c)
    for c in moduli:
        q = quotient(c)
        units = _unit_codes(q)
        for i in range(q.index):
            x = q.decode(i)
            far = x + c * random_element(ring, rng, 50)  # an unreduced representative
            expected = _row_stacking_is_unit(q, x)
            assert (i in units) == (q.encode(far) in units) == expected, (c, x, far)


def _hnf_2x2(rows: list[list[int]]) -> tuple[int, int, int]:
    """Row Hermite form (h11, h12; 0, h22) of a nonsingular 2x2 integer matrix,
    normalized so h11, h22 > 0 and 0 <= h12 < h22: the reference that
    QuotientRing's form from c mod N(c) must equal."""
    (a1, b1), (a2, b2) = rows
    g, s, t = _xgcd(a1, a2)
    h22 = abs((-a2 // g) * b1 + (a1 // g) * b2)
    return g, (s * b1 + t * b2) % h22, h22


@pytest.mark.parametrize("d", [2, 3, 5, 6, 7, 10, 13, 1009])
def test_hermite_form_from_c_mod_n_matches_the_full_form(d):
    ring = quadratic(d)
    rng = random.Random(d)
    unit = infinite_order_unit(ring) ** 40  # large coordinates, the same ideal
    for _ in range(300):
        c = ring.from_pair(rng.randint(-10**6, 10**6), rng.randint(-10**4, 10**4))
        if not c:
            continue
        for gen in (c, c * unit):
            q = quotient(gen)
            assert q._hnf == _hnf_2x2([[int(gen.rat), gen.irr], [d * gen.irr, int(gen.rat)]])
            assert q._hnf[0] * q._hnf[2] == q.index


class _SplitResidues:
    """The two residue representations QuotientRing kept before one lattice
    form served every ring -- Z/c0 off the quadratic rings, the Hermite box of
    c and c*sqrt(d) over Z[sqrt(d)] -- kept here as an oracle."""

    def __init__(self, c):
        self.ring = c.ring
        if self.ring.kind == QUADRATIC:
            d = self.ring.param
            self._hnf = _hnf_2x2([[int(c.rat), c.irr], [d * c.irr, int(c.rat)]])
            self.index = self._hnf[0] * self._hnf[2]
        else:
            self._c0 = self.index = _strip_primes(c.rat.numerator, self.ring.param or 1)

    def _box_reduce(self, x1, x2):
        h11, h12, h22 = self._hnf
        k = x1 // h11
        return x1 - k * h11, (x2 - k * h12) % h22

    def encode(self, x):
        if self.ring.kind == QUADRATIC:
            r1, r2 = self._box_reduce(int(x.rat), x.irr)
            return r1 * self._hnf[2] + r2
        num, den = x.rat.numerator, x.rat.denominator
        if den == 1:
            return num % self._c0
        return num * pow(den, -1, self._c0) % self._c0

    def decode(self, i):
        if self.ring.kind == QUADRATIC:
            return self.ring.from_pair(i // self._hnf[2], i % self._hnf[2])
        return self.ring.from_int(i)

    def add_enc(self, i, j):
        if self.ring.kind != QUADRATIC:
            return (i + j) % self.index
        h22 = self._hnf[2]
        r1, r2 = self._box_reduce(i // h22 + j // h22, i % h22 + j % h22)
        return r1 * h22 + r2

    def neg_enc(self, i):
        if self.ring.kind != QUADRATIC:
            return (-i) % self.index
        h22 = self._hnf[2]
        r1, r2 = self._box_reduce(-(i // h22), -(i % h22))
        return r1 * h22 + r2

    def mul_enc(self, i, j):
        if self.ring.kind != QUADRATIC:
            return (i * j) % self.index
        d, h22 = self.ring.param, self._hnf[2]
        a, b = i // h22, i % h22
        e, f = j // h22, j % h22
        r1, r2 = self._box_reduce(a * e + d * b * f, a * f + b * e)
        return r1 * h22 + r2


Z3 = localized(3)
_LATTICE_MODULI = {
    "Z": [Z.from_int(s * c0) for c0 in range(1, 61) for s in (1, -1)],
    "Z[1/6]": [Z6.from_fraction(c0 * 2 ** (c0 % 3), 6 ** (c0 % 2)) for c0 in range(1, 61)],
    "Z[1/3]": [Z3.from_fraction(49, 3), Z3.from_fraction(-20, 9), Z3.from_fraction(55, 27)],
    **{
        R.name: [parse_element(R, t.replace("r", f"sqrt({R.param})"))
                 for t in ("1", "2", "3", "5", "r", "1+r", "3-2*r", "4+r", "-2+3*r")]
        for R in (R2, R3, quadratic(5))
    },
}


@pytest.mark.parametrize("ring_name", list(_LATTICE_MODULI))
def test_lattice_residues_match_the_split_oracle(ring_name):
    rng = random.Random(ring_name)
    for c in _LATTICE_MODULI[ring_name]:
        q = quotient(c)
        oracle = _SplitResidues(c)
        assert q.index == oracle.index
        n = q.index
        for i in range(n):
            x = oracle.decode(i)
            far = x + c * random_element(c.ring, rng, 50)  # an unreduced representative
            assert q.decode(i) == x
            assert q.encode(x) == q.encode(far) == oracle.encode(far) == i, (c, x, far)
            assert q.neg_enc(i) == oracle.neg_enc(i)
            for j in {rng.randrange(n) for _ in range(8)} | {0, n - 1}:
                assert q.add_enc(i, j) == oracle.add_enc(i, j), (c, i, j)
                assert q.mul_enc(i, j) == oracle.mul_enc(i, j), (c, i, j)


def test_unit_order_oracles():
    assert unit_order(Zh.from_int(2), quotient(Zh.from_int(9))) == 6
    assert unit_order(Z.from_int(2), quotient(Z.from_int(7))) == 3


# ---------------------------------------------------------------------------
# distinguished units


@pytest.mark.parametrize("d,expected", [(2, (1, 1)), (3, (2, 1)), (5, (2, 1)), (7, (8, 3))])
def test_pell_fundamental_unit(d, expected):
    assert pell_fundamental_unit(d) == expected


def _pell_by_search(d, cap):
    """Smallest (a, b) with 1 <= b <= cap and a^2 - d*b^2 = +-1, or None."""
    for b in range(1, cap + 1):
        db2 = d * b * b
        for target in (db2 - 1, db2 + 1):
            a = math.isqrt(target)
            if a * a == target:
                return a, b
    return None


def test_pell_solves_the_equation_and_matches_the_search():
    # the search finds a solution with b <= 10^4 exactly when the continued
    # fraction's is that small, and then the same one
    cap = 10**4
    for d in range(2, 1001):
        if not _is_squarefree(d):
            continue
        a, b = pell_fundamental_unit(d)
        assert b >= 1 and a * a - d * b * b in (1, -1), d
        assert _pell_by_search(d, cap) == ((a, b) if b <= cap else None), d


def test_pell_matches_sympy_for_every_non_square_d_below_1000():
    """sympy's diop_DN gives the fundamental solutions of x^2 - d*y^2 = N; the
    unit is the smaller of those for N = 1 and N = -1."""
    non_squares = [d for d in range(2, 1000) if math.isqrt(d) ** 2 != d]
    assert len(non_squares) == 968
    for d in non_squares:
        solutions = [(x, y) for n in (1, -1) for x, y in diop_DN(d, n) if y >= 1]
        assert pell_fundamental_unit(d) == min(solutions, key=lambda s: s[1]), d


def test_pell_walk_refuses_only_what_the_exact_check_refuses(monkeypatch):
    """Under a bound of 9 digits, ORDER_BOUND - 2 = bits(10^9) = 30: the walk's
    lower bound on log2(a) refuses no unit that the exact check would print."""
    units = {d: pell_fundamental_unit(d) for d in range(2, 1000) if math.isqrt(d) ** 2 != d}
    monkeypatch.setattr("sl2units.rings.DIGIT_BOUND", 9)
    monkeypatch.setattr("sl2units.rings.ORDER_BOUND", (10**9).bit_length() + 2)
    refused = 0
    for d, (a, b) in units.items():
        if a >= 10**9:
            refused += 1
            with pytest.raises(DocumentTooLarge, match="has more than 9 digits"):
                pell_fundamental_unit(d)
        else:
            assert pell_fundamental_unit(d) == (a, b), d
    assert refused > 100


def test_infinite_order_unit():
    assert infinite_order_unit(Z6) == 2
    assert infinite_order_unit(Zh) == 2
    assert [infinite_order_unit(localized(m)) for m in (15, 49, 13)] == [3, 7, 13]
    assert infinite_order_unit(R3) == R3.from_pair(2, 1)
    with pytest.raises(NoInfiniteOrderUnit):
        infinite_order_unit(Z)


def test_infinite_order_unit_within_the_trial_division_bound():
    for name, row in EMIT["ring info"].items():
        if name.startswith("m-"):
            check(row)


def _strip_by_trial_division(n: int, m: int) -> int:
    n, p = abs(n), 2
    while m > 1:
        while m % p == 0:
            m //= p
            while n and n % p == 0:
                n //= p
        p += 1
    return n


@settings(max_examples=300)
@given(n=st.integers(-(10**12), 10**12), m=st.integers(1, 3000))
def test_strip_primes_matches_trial_division(n, m):
    assert _strip_primes(n, m) == _strip_by_trial_division(n, m)


def test_large_localization_parameter_is_not_factored():
    check(EMIT["h-decompose"]["Z[1/m]-u-m^2"])
    check(EMIT["h-decompose"]["Z[1/m]-u-5/m^3"])
    m = 100000000000000003
    ring = localized(m)
    x = parse_element(ring, f"5/{m**3}")
    assert is_unit(ring.from_int(m**2)) == ring.from_fraction(1, m**2)
    assert is_unit(x) is None and euclidean_size(x) == 5


def test_random_element_deterministic():
    a = [random_element(Z6, random.Random(9), 10) for _ in range(20)]
    b = [random_element(Z6, random.Random(9), 10) for _ in range(20)]
    assert a == b
    assert all(height(x) <= 10 for x in a)


# ---------------------------------------------------------------------------
# properties


def _quad_elements(ring):
    coord = st.integers(min_value=-50, max_value=50)
    return st.builds(ring.from_pair, coord, coord)


def _localized_elements(ring):
    return st.builds(
        lambda n, e: ring.from_fraction(n, ring.param**e),
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=0, max_value=4),
    )


def _elements_with_units(ring):
    """Elements of ring, with +-v^k for an infinite-order unit v drawn too, so
    that units other than +-1 turn up."""
    if ring.kind == QUADRATIC:
        return _quad_elements(ring) | _powers_of_a_unit(ring)
    if ring.param:
        return _localized_elements(ring) | _powers_of_a_unit(ring)
    return st.builds(ring.from_int, st.integers(min_value=-200, max_value=200))


def _powers_of_a_unit(ring):
    v = infinite_order_unit(ring)
    return st.builds(lambda k, sign: v**k * sign, st.integers(-6, 6), st.sampled_from([1, -1]))


@settings(max_examples=300)
@given(data=st.data())
def test_is_unit_exactly_on_size_one(data):
    """x is a unit exactly when its Euclidean size is 1, and is_unit gives its inverse."""
    ring = data.draw(st.sampled_from(ALL_RINGS))
    x = data.draw(_elements_with_units(ring))
    inverse = is_unit(x)
    assert (inverse is not None) == (euclidean_size(x) == 1)
    if inverse is not None:
        assert x * inverse == 1


@settings(max_examples=150)
@given(x=_quad_elements(R2), y=_quad_elements(R2), z=_quad_elements(R2))
def test_quadratic_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x + (-x) == 0


@settings(max_examples=150)
@given(x=_localized_elements(Z6), y=_localized_elements(Z6))
def test_localized_canonical_form(x, y):
    s = x * y
    assert math.gcd(s.rat.numerator, s.rat.denominator) == 1
    assert _strip_primes(s.rat.denominator, Z6.param) == 1
    assert parse_element(Z6, str(s)) == s


@settings(max_examples=150)
@given(x=_quad_elements(R3), y=_quad_elements(R3))
def test_norm_size_multiplicative(x, y):
    assert euclidean_size(x * y) == euclidean_size(x) * euclidean_size(y)
    if y:
        assert exact_quotient(x * y, y) == x


@settings(max_examples=100)
@given(x=_localized_elements(Zh), y=_localized_elements(Zh))
def test_localized_size_multiplicative(x, y):
    assert euclidean_size(x * y) == euclidean_size(x) * euclidean_size(y)


def test_power_builds_no_square_past_the_top_bit(monkeypatch):
    from sl2units.rings import RingElement

    x = localized(3).from_fraction(2, 3)
    built = count_calls(monkeypatch, "__post_init__", RingElement)
    for n, expected in ((1, 0), (4, 2), (8, 3)):
        built[0] = 0
        power = x**n
        assert built[0] == expected, n
        assert power.rat == Fraction(2**n, 3**n)


def test_failing_membership_formats_no_text(monkeypatch):
    import sl2units.rings as rings

    big = Zh.from_int(10**60_205 + 1)  # 60,206 digits, 2 mod 3
    formatted = count_calls(monkeypatch, "_int_text", rings)
    assert not in_ideal(big, Zh.from_int(3))
    assert exact_quotient(big, Zh.from_int(3)) is None
    assert formatted[0] == 0
    with pytest.raises(ParseError, match="^1/3 does not lie in Z\\[1/2\\]$"):
        parse_element(Zh, "1/3")
    assert formatted[0] > 0
