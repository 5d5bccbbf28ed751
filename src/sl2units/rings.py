"""Exact arithmetic for the three supported coefficient rings.

Supported rings: the integers Z, localizations Z[1/m], and real quadratic
rings Z[sqrt(d)] for squarefree d >= 2.  Elements are immutable values in a
unique canonical form, so equality is plain field comparison and all
arithmetic is exact; nothing here ever rounds.  Z is handled as Z[1/1], the
localization that inverts nothing: membership, units, exact division and
Euclidean size all strip the primes of m from an integer, and with m = 1
that leaves its absolute value.

Alongside the element type the module provides principal ideals with exact
membership tests, finite quotient rings R/cR with canonical residue
enumeration, multiplicative order computation in quotients, and units of
infinite order (an inverted prime for Z[1/m], the fundamental Pell unit from
the continued fraction of sqrt(d) for Z[sqrt(d)]).  The parser reads only
the syntax str() writes, so a power n/p^e is refused.  Integers go to and
from decimal text in subquadratic time at any size up to DIGIT_BOUND digits
when parsed (DENOMINATOR_BOUND for a denominator), under CPython's default
int <-> str digit limit.
"""

from __future__ import annotations

import decimal
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import DocumentTooLarge, NoInfiniteOrderUnit, NonUnit, ParseError, ZeroIdeal

INTEGERS = "integers"
LOCALIZED = "localized"
QUADRATIC = "quadratic"


QUADRATIC_PARAM_BOUND = 10**18  # so _is_squarefree tries p < 10^6 only


def _is_squarefree(n: int) -> bool:
    # trial division while p^3 <= n leaves at most two prime factors, both >= p
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    return math.isqrt(n) ** 2 != n or n == 1


@dataclass(frozen=True)
class RingDescriptor:
    """Identifies one of the supported rings; equal iff kind and parameter agree."""

    kind: str
    param: int = 0

    def __post_init__(self):
        if self.kind == LOCALIZED:
            if self.param < 2:
                raise ValueError("localization parameter m must be >= 2")
        elif self.kind == QUADRATIC:
            if self.param >= QUADRATIC_PARAM_BOUND:
                raise ValueError("quadratic parameter d must be below 10^18")
            if self.param < 2 or not _is_squarefree(self.param):
                raise ValueError("quadratic parameter d must be squarefree and >= 2")

    @property
    def name(self) -> str:
        if self.kind == INTEGERS:
            return "Z"
        if self.kind == LOCALIZED:
            return f"Z[1/{self.param}]"
        return f"Z[sqrt{self.param}]"

    def __str__(self):
        return self.name

    def __repr__(self):
        return self.name

    # element constructors

    def from_int(self, n: int) -> "RingElement":
        return RingElement(self, Fraction(n))

    def from_fraction(self, num: int, den: int = 1) -> "RingElement":
        return RingElement(self, Fraction(num, den))

    def from_pair(self, a: int, b: int) -> "RingElement":
        """Element a + b*sqrt(d); b must be 0 outside quadratic rings."""
        return RingElement(self, Fraction(a), b)

    def zero(self) -> "RingElement":
        return self.from_int(0)

    def one(self) -> "RingElement":
        return self.from_int(1)


def integers() -> RingDescriptor:
    return RingDescriptor(INTEGERS)


def localized(m: int) -> RingDescriptor:
    return RingDescriptor(LOCALIZED, m)


def quadratic(d: int) -> RingDescriptor:
    return RingDescriptor(QUADRATIC, d)


def _strip_primes(n: int, m: int) -> int:
    """|n| with every prime factor of m divided out, without factoring m.

    Each prime of m that still divides n divides g, so the loop ends exactly
    when none is left; it divides by g once per pass.
    """
    n = abs(n)
    g = math.gcd(n, m) if n else 1
    while g > 1:
        n //= g
        g = math.gcd(n, g)
    return n


@dataclass(frozen=True, eq=False)
class RingElement:
    """One exact ring element: rat + irr*sqrt(d), with irr = 0 outside quadratic rings.

    The rational part is a Fraction in lowest terms, which makes the
    representation canonical: equal values always have identical fields.
    For quadratic rings the rational part is restricted to integers, for
    Z[1/m] the denominator must be m-smooth.
    """

    ring: RingDescriptor
    rat: Fraction
    irr: int = 0

    def __post_init__(self):
        # quadratic elements are built from ints only (the parser, from_pair, closed
        # arithmetic), so den is 1 there; Z has param 0: strip by m = 1, which leaves |den|
        den = self.rat.denominator
        if den != 1 and _strip_primes(den, self.ring.param or 1) != 1:
            if self.ring.kind == INTEGERS:
                raise ValueError(f"{_fraction_text(self.rat)} is not an integer")
            raise ValueError(f"{_fraction_text(self.rat)} does not lie in {self.ring.name}")

    # -- equality and hashing (canonical form makes this field comparison)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.irr == 0 and self.rat == other
        if isinstance(other, RingElement):
            return (self.ring, self.rat, self.irr) == (other.ring, other.rat, other.irr)
        return NotImplemented

    def __hash__(self):
        return hash((self.ring, self.rat, self.irr))

    def __bool__(self):
        return self.rat != 0 or self.irr != 0

    # -- arithmetic

    def _coerce(self, other) -> "RingElement":
        # an int becomes an element; an element comes from this same ring
        return self.ring.from_int(other) if isinstance(other, int) else other

    def __add__(self, other) -> "RingElement":
        o = self._coerce(other)
        return RingElement(self.ring, self.rat + o.rat, self.irr + o.irr)

    def __sub__(self, other) -> "RingElement":
        o = self._coerce(other)
        return RingElement(self.ring, self.rat - o.rat, self.irr - o.irr)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, -self.rat, -self.irr)

    def __mul__(self, other) -> "RingElement":
        o = self._coerce(other)
        if self.ring.kind == QUADRATIC:
            d = self.ring.param
            a, b = int(self.rat), self.irr
            e, f = int(o.rat), o.irr
            return RingElement(self.ring, Fraction(a * e + d * b * f), a * f + b * e)
        return RingElement(self.ring, self.rat * o.rat)

    def __pow__(self, n: int) -> "RingElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "RingElement":
        """Galois conjugate a - b*sqrt(d); identity on the other rings."""
        return RingElement(self.ring, self.rat, -self.irr)

    def field_norm(self) -> Fraction:
        """Product of self with its conjugate (a^2 - d*b^2 for quadratic rings)."""
        if self.ring.kind == QUADRATIC:
            return self.rat * self.rat - self.ring.param * self.irr * self.irr
        return self.rat

    def inverse(self) -> "RingElement":
        inv = is_unit(self)
        if inv is None:
            raise NonUnit(f"{self} is not a unit of {self.ring.name}")
        return inv

    # -- text form (round-trips through parse_element)

    def __str__(self):
        if self.ring.kind != QUADRATIC:
            return _fraction_text(self.rat)
        a, b, d = int(self.rat), self.irr, self.ring.param
        if b == 0:
            return _int_text(a)
        if b == 1:
            root = f"sqrt({d})"
        elif b == -1:
            root = f"-sqrt({d})"
        else:
            root = f"{_int_text(b)}*sqrt({d})"
        if a == 0:
            return root
        sign = "+" if not root.startswith("-") else ""
        return f"{_int_text(a)}{sign}{root}"

    def __repr__(self):
        return f"{self} in {self.ring.name}"


def is_unit(x: RingElement) -> Optional[RingElement]:
    """Return the inverse of x if x is invertible in its ring, else None."""
    if not x:
        return None
    ring = x.ring
    if ring.kind == QUADRATIC:
        n = x.field_norm()
        if n == 1 or n == -1:
            s = 1 if n == 1 else -1
            return RingElement(ring, x.rat * s, -x.irr * s)
        return None
    if _strip_primes(x.rat.numerator, ring.param or 1) == 1:
        return RingElement(ring, 1 / x.rat)
    return None


def exact_quotient(x: RingElement, y: RingElement) -> Optional[RingElement]:
    """x / y if the quotient lies in the ring, else None.  Every caller divides
    by a nonzero generator or size; y = 0 raises ZeroDivisionError."""
    ring = x.ring
    if ring.kind == QUADRATIC:
        n = int(y.field_norm())
        num = x * y.conjugate()
        p, q = int(num.rat), num.irr
        if p % n or q % n:
            return None
        return RingElement(ring, Fraction(p // n), q // n)
    f = x.rat / y.rat
    if _strip_primes(f.denominator, ring.param or 1) == 1:
        return RingElement(ring, f)
    return None


def euclidean_size(x: RingElement) -> int:
    """Non-negative size used by division chains; 0 only for x = 0, 1 exactly on units."""
    ring = x.ring
    if ring.kind == QUADRATIC:
        return abs(int(x.field_norm()))
    return _strip_primes(x.rat.numerator, ring.param or 1)


def height(x: RingElement) -> int:
    """Max absolute value over the integer data of the canonical form."""
    if x.ring.kind == QUADRATIC:
        return max(abs(int(x.rat)), abs(x.irr))
    return max(abs(x.rat.numerator), x.rat.denominator)


@dataclass(frozen=True)
class PrincipalIdeal:
    """The ideal gR of all multiples of a fixed nonzero generator."""

    generator: RingElement

    def __post_init__(self):
        if not self.generator:
            raise ZeroIdeal("principal ideals require a nonzero generator")

    @property
    def ring(self) -> RingDescriptor:
        return self.generator.ring

    def __str__(self):
        return f"({self.generator})"

    def __repr__(self):
        return f"({self.generator}) in {self.ring.name}"


def in_ideal(x: RingElement, ideal: PrincipalIdeal) -> bool:
    """Exact divisibility test: true iff x / generator lies in the ring."""
    return exact_quotient(x, ideal.generator) is not None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    # returns (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class QuotientRing:
    """The finite ring R/cR as Z^2 = {x1 + x2*sqrt(d)} modulo the lattice of cR.

    The lattice is kept in row Hermite form (h11, h12; 0, h22).  Over
    Z[sqrt(d)] it is spanned by c and c*sqrt(d), and its index is |N(c)|.  Off
    the quadratic rings d = 0 and the form is (c0, 0; 0, 1), where c0 is the
    positive generator of cR intersected with Z with every prime of m
    stripped (none for Z), so the quotient is Z/c0.

    Residues are exposed both as canonical RingElements and as dense integer
    codes x1*h22 + x2 in range(index), with 0 <= x1 < h11 and 0 <= x2 < h22;
    the integer side exists so that group tables and breadth-first searches
    stay cheap.  Zero is code 0 in every quotient.
    """

    def __init__(self, modulus: PrincipalIdeal):
        self.ring = modulus.ring
        self.modulus = modulus
        c = modulus.generator
        self.index = quotient_index(modulus)
        if self.ring.kind == QUADRATIC:
            self._d = d = self.ring.param
            self._hnf = _hnf_2x2([[int(c.rat), c.irr], [d * c.irr, int(c.rat)]])
            if self._hnf[0] * self._hnf[2] != self.index:
                raise AssertionError("HNF determinant disagrees with the field norm")
        else:
            self._d = 0
            self._hnf = (self.index, 0, 1)

    def __repr__(self):
        return f"{self.ring.name}/{self.modulus} of index {_int_text(self.index)}"

    # encoded-residue arithmetic

    def _code(self, x1: int, x2: int) -> int:
        """Code of x1 + x2*sqrt(d): reduce into the Hermite box, then pack."""
        h11, h12, h22 = self._hnf
        k = x1 // h11
        return (x1 - k * h11) * h22 + (x2 - k * h12) % h22

    def encode(self, x: RingElement) -> int:
        num, den = x.rat.numerator, x.rat.denominator
        if den != 1:  # over Z[1/m] only; den is m-smooth, so a unit mod c0
            num *= pow(den, -1, self._hnf[0])
        return self._code(num, x.irr)

    def decode(self, i: int) -> RingElement:
        return self.ring.from_pair(*divmod(i, self._hnf[2]))

    def add_enc(self, i: int, j: int) -> int:
        h22 = self._hnf[2]
        return self._code(i // h22 + j // h22, i % h22 + j % h22)

    def neg_enc(self, i: int) -> int:
        h22 = self._hnf[2]
        return self._code(-(i // h22), -(i % h22))

    def mul_enc(self, i: int, j: int) -> int:
        h22 = self._hnf[2]
        a, b = divmod(i, h22)
        e, f = divmod(j, h22)
        return self._code(a * e + self._d * b * f, a * f + b * e)

    @property
    def one_enc(self) -> int:
        return self.encode(self.ring.one())


def _hnf_2x2(rows: list[list[int]]) -> tuple[int, int, int]:
    """Row Hermite form (h11, h12; 0, h22) of a nonsingular 2x2 integer matrix.

    Normalized so h11, h22 > 0 and 0 <= h12 < h22.
    """
    (a1, b1), (a2, b2) = rows
    g, s, t = _xgcd(a1, a2)
    h22 = abs((-a2 // g) * b1 + (a1 // g) * b2)
    return g, (s * b1 + t * b2) % h22, h22


def quotient_index(modulus: PrincipalIdeal) -> int:
    """|R/cR| without building the quotient: |N(c)| over Z[sqrt(d)], else c0."""
    c = modulus.generator
    if c.ring.kind == QUADRATIC:
        return abs(int(c.field_norm()))
    # Z has param 0: strip by m = 1, which leaves |c|
    return _strip_primes(c.rat.numerator, c.ring.param or 1)


def quotient(modulus: PrincipalIdeal) -> QuotientRing:
    """Finite quotient R/cR; raises ZeroIdeal before this point if c = 0."""
    return QuotientRing(modulus)


def unit_order(x: RingElement, q: QuotientRing) -> int:
    """Smallest k >= 1 with x^k = 1 modulo the ideal, by iterated multiplication.
    x is a unit of R, so it is a unit modulo every nonzero ideal.  A unit
    x != +-1 has height(x^k) >= 2^(k-2), so past ORDER_BOUND x^k would have
    more than DIGIT_BOUND digits, and DocumentTooLarge is raised instead."""
    one = q.one_enc
    base = q.encode(x)
    acc = base
    for k in range(1, min(q.index, ORDER_BOUND) + 1):
        if acc == one:
            return k
        acc = q.mul_enc(acc, base)
    if q.index > ORDER_BOUND:
        message = f"the order of {x} modulo {q.modulus} exceeds {ORDER_BOUND}, so its power"
        raise DocumentTooLarge(f"{message} would have more than {DIGIT_BOUND} digits")
    # the order divides |(R/cR)*| <= index, so the loop never gets here
    raise AssertionError(f"{x} has no order up to {_int_text(q.index)} modulo {q.modulus}")


def pell_fundamental_unit(d: int) -> tuple[int, int]:
    """Smallest (a, b), b >= 1, with a^2 - d*b^2 = +-1, for non-square d >= 2.

    It is the convergent a/b that closes the first period of the continued
    fraction of sqrt(d) (Lenstra, "Solving the Pell equation", 2002); the
    partial quotients come from the exact recurrence on (m + sqrt(d)) / q.
    """
    root = math.isqrt(d)
    m, q, digit = 0, 1, root
    a_prev, a, b_prev, b = 1, root, 0, 1
    while a * a - d * b * b not in (1, -1):
        m = digit * q - m
        q = (d - m * m) // q
        digit = (root + m) // q
        a_prev, a = a, digit * a + a_prev
        b_prev, b = b, digit * b + b_prev
    return a, b


def infinite_order_unit(ring: RingDescriptor) -> RingElement:
    """A unit whose powers never repeat: the smallest inverted prime for Z[1/m],
    the fundamental Pell unit for Z[sqrt(d)]."""
    if ring.kind == INTEGERS:
        raise NoInfiniteOrderUnit("Z has only the units 1 and -1")
    if ring.kind == LOCALIZED:
        m = ring.param
        return ring.from_int(next((p for p in range(2, math.isqrt(m) + 1) if m % p == 0), m))
    a, b = pell_fundamental_unit(ring.param)
    return ring.from_pair(a, b)


# ---------------------------------------------------------------------------
# decimal text of integers
#
# CPython converts between int and str in quadratic time, and refuses more
# than sys.get_int_max_str_digits() digits (4300 by default).  The two
# helpers below split the work in halves instead (Brent and Zimmermann,
# Modern Computer Arithmetic, 1.7; CPython 3.12's Lib/_pylong.py does the
# same).  Formatting splits the binary digits and recombines the halves as
# decimal.Decimal values, whose libmpdec multiplication is subquadratic;
# parsing splits the decimal digits and recombines hi * 10**w + lo as
# (hi * 5**w << w) + lo.  Pieces of at most _PLAIN_DIGITS digits go through
# plain str() and int(): that is below 640, the least limit CPython accepts,
# so the limit is never met and never changed.

DIGIT_BOUND = 100_000  # most digits one integer may have in parsed element text
ORDER_BOUND = math.ceil(DIGIT_BOUND * math.log2(10)) + 2  # 2^(k-2) > 10^DIGIT_BOUND past it
# Most digits of a parsed denominator.  The element constructor checks that
# it is m-smooth by dividing out the gcd once per pass (_strip_primes), which
# takes time quadratic in its length: about 0.07 s at this bound, 33 s at
# DIGIT_BOUND.  The bound holds the longest denominator that perfbench's
# witness corners write (3,929 digits); a longer one is written but not read
# back until the strip takes O(log e) divisions (ROADMAP 3(a)).
DENOMINATOR_BOUND = 4_300
_PLAIN_DIGITS = 600
_PLAIN_BITS = int(_PLAIN_DIGITS * math.log2(10))  # so 2**_PLAIN_BITS <= 10**_PLAIN_DIGITS


def _int_text(n: int) -> str:
    """str(n), at any size."""
    if n.bit_length() <= _PLAIN_BITS:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:  # 2**w
        if w not in powers:
            half = w >> 1
            powers[w] = (
                decimal.Decimal(1 << w)
                if w <= _PLAIN_BITS
                else ctx.multiply(power(half), power(w - half))
            )
        return powers[w]

    def convert(n: int, w: int) -> decimal.Decimal:  # 0 <= n < 2**w
        if w <= _PLAIN_BITS:
            return decimal.Decimal(n)
        half = w >> 1
        hi = n >> half
        lo = n - (hi << half)
        return ctx.add(ctx.multiply(convert(hi, w - half), power(half)), convert(lo, half))

    return str(convert(n, n.bit_length()))


def _fraction_text(r: Fraction) -> str:
    """str(r), at any size."""
    if r.denominator == 1:
        return _int_text(r.numerator)
    return f"{_int_text(r.numerator)}/{_int_text(r.denominator)}"


def _text_int(text: str) -> int:
    """int(text) for text of an optional sign and decimal digits, at any size
    up to DIGIT_BOUND digits; more raise a ParseError that names the bound."""
    digits = text[1:] if text[:1] in "+-" else text
    if len(digits) > DIGIT_BOUND:
        raise ParseError(f"an integer of {len(digits)} digits exceeds the bound of {DIGIT_BOUND}")
    if len(digits) <= _PLAIN_DIGITS:
        return int(text)
    powers: dict[int, int] = {}

    def convert(start: int, stop: int) -> int:  # the value of digits[start:stop]
        if stop - start <= _PLAIN_DIGITS:
            return int(digits[start:stop])
        w = (stop - start) >> 1
        if w not in powers:
            powers[w] = 5**w
        return (convert(start, stop - w) * powers[w] << w) + convert(stop - w, stop)

    n = convert(0, len(digits))
    return -n if text[0] == "-" else n


# ---------------------------------------------------------------------------
# text syntax


_RING_RE = re.compile(r"^Z(?:\[\s*(?:1\s*/\s*(\d+)|sqrt\(?\s*(\d+)\s*\)?)\s*\])?$")


def parse_ring(text: str) -> RingDescriptor:
    """Parse 'Z', 'Z[1/m]', or 'Z[sqrtd]' (also accepts 'Z[sqrt(d)]')."""
    if not isinstance(text, str):
        raise ParseError(f"a ring must be given as text, not {type(text).__name__}")
    m = _RING_RE.match(text.strip())
    if not m:
        raise ParseError(f"cannot parse ring descriptor {text!r}")
    inv, root = m.groups()
    try:
        if inv is not None:
            return localized(int(inv))
        if root is not None:
            return quadratic(int(root))
        return integers()
    except ValueError as exc:
        raise ParseError(str(exc)) from None


_INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^([+-]?\d+)\s*/\s*(\d+)$")
_QUAD_RE = re.compile(
    r"^\s*(?:([+-]?\d+)\s*)?"  # optional rational part
    r"(?:(?(1)([+-])|([+-]?))\s*"  # sign separating the root term
    r"(?:(\d+)\s*\*\s*)?sqrt\(?\s*(\d+)\s*\)?)?\s*$"
)


def parse_element(ring: RingDescriptor, text: str) -> RingElement:
    """Parse one element in the ring's text syntax; inverse of str().

    Surrounding spaces, a leading +, leading zeros, and fractions not in
    lowest terms are read too, so str(parse_element(ring, text)) may differ
    from text; the certificate verifier refuses such text.  An integer of
    more than DIGIT_BOUND digits, or a denominator of more than
    DENOMINATOR_BOUND, raises a ParseError that names the bound, and a
    ValueError from the element constructors becomes a ParseError.
    """
    if not isinstance(text, str):
        raise ParseError(f"an element must be given as text, not {type(text).__name__}")
    try:
        return _parse_element(ring, text.strip())
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _parse_element(ring: RingDescriptor, text: str) -> RingElement:
    if _INT_RE.match(text):
        return ring.from_int(_text_int(text))
    if ring.kind == QUADRATIC:
        m = _QUAD_RE.match(text)
        if m and (m.group(1) is not None or m.group(5) is not None):
            rat_s, sign1, sign2, coeff_s, d_s = m.groups()
            a = _text_int(rat_s) if rat_s is not None else 0
            b = 0
            if d_s is not None:
                if _text_int(d_s) != ring.param:
                    raise ParseError(f"{text!r}: root {d_s} does not match {ring.name}")
                b = _text_int(coeff_s) if coeff_s is not None else 1
                sign = sign1 if sign1 is not None else sign2
                if sign == "-":
                    b = -b
            return ring.from_pair(a, b)
        raise ParseError(f"cannot parse {text!r} as an element of {ring.name}")
    m = _FRAC_RE.match(text)
    if m:
        digits = len(m.group(2))
        if digits > DENOMINATOR_BOUND:
            raise ParseError(
                f"a denominator of {digits} digits exceeds the bound of {DENOMINATOR_BOUND}"
            )
        num, den = map(_text_int, m.groups())
        if den == 0:
            raise ParseError(f"{text!r} has a zero denominator")
        return ring.from_fraction(num, den)
    raise ParseError(f"cannot parse {text!r} as an element of {ring.name}")


def random_element(ring: RingDescriptor, rng, height_bound: int = 10) -> RingElement:
    """Uniform-ish random element with all integer data bounded by height_bound."""
    h = max(1, height_bound)
    if ring.kind == QUADRATIC:
        return ring.from_pair(rng.randint(-h, h), rng.randint(-h, h))
    if ring.kind == LOCALIZED:
        m = ring.param
        exp = 0
        if m <= h:
            max_exp = 0
            while m ** (max_exp + 1) <= h:
                max_exp += 1
            exp = rng.randint(0, max_exp)
        return ring.from_fraction(rng.randint(-h, h), m**exp)
    return ring.from_int(rng.randint(-h, h))
