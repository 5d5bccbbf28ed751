"""Exact arithmetic for the three supported coefficient rings.

Supported rings: the integers Z, localizations Z[1/m], and real quadratic
rings Z[sqrt(d)] for squarefree d >= 2.  Elements are immutable values in a
unique canonical form, so equality is plain field comparison and all
arithmetic is exact; nothing here ever rounds.  Z is handled as Z[1/1], the
localization that inverts nothing: membership, units, exact division and
Euclidean size all strip the primes of m from an integer, and with m = 1
that leaves its absolute value.

Sums and products absorb 0 and 1: x + 0, x*0 and x*1 return an operand,
not a new element whose denominator is stripped again, so the zero entries
and identity matrices of sl2 cost nothing.  An exact quotient is stripped
once, by the element constructor; is_unit is the exact quotient 1/x of an
x of Euclidean size 1, so a non-unit builds no refused element.

Every ideal the package uses is principal, so an ideal cR is handled as its
nonzero generator c: in_ideal tests exact divisibility by c, and quotient(c)
builds the finite ring R/cR with canonical residue enumeration and
multiplicative order computation.  euclidean_size is the one size function:
it is the index |R/cR|, and it is 1 exactly on the units.  Units of infinite
order are an inverted prime for Z[1/m] and the fundamental Pell unit from
the continued fraction of sqrt(d) for Z[sqrt(d)].  The parser reads the
syntax str() writes, and also surrounding spaces, a leading +, leading zeros
and fractions not in lowest terms; a power n/p^e is refused.  Integers go to
and from decimal text in subquadratic time at any size up to DIGIT_BOUND
digits when parsed (DENOMINATOR_BOUND for a denominator), under CPython's
default int <-> str digit limit.
"""

from __future__ import annotations

import decimal
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    DocumentTooLarge, NoInfiniteOrderUnit, NonUnit, ParseError, UnsupportedRing, ZeroIdeal
)

INTEGERS = "integers"
LOCALIZED = "localized"
QUADRATIC = "quadratic"


TRIAL_DIVISION_BOUND = 10**6  # the largest prime any trial division here tries
QUADRATIC_PARAM_BOUND = TRIAL_DIVISION_BOUND**3  # so _is_squarefree tries p < 10^6 only


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
            raise _Refusal(self)

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
        if not o:
            return self
        if not self:
            return o
        return RingElement(self.ring, self.rat + o.rat, self.irr + o.irr)

    def __sub__(self, other) -> "RingElement":
        o = self._coerce(other)
        return RingElement(self.ring, self.rat - o.rat, self.irr - o.irr)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, -self.rat, -self.irr)

    def __mul__(self, other) -> "RingElement":
        o = self._coerce(other)
        if not self or o == 1:
            return self
        if not o or self == 1:
            return o
        if self.ring.kind == QUADRATIC:
            d = self.ring.param
            a, b = int(self.rat), self.irr
            e, f = int(o.rat), o.irr
            return RingElement(self.ring, Fraction(a * e + d * b * f), a * f + b * e)
        return RingElement(self.ring, self.rat * o.rat)

    def __pow__(self, n: int) -> "RingElement":
        # square-and-multiply from the top bit: x^n builds no power above itself
        if n < 0:
            return self.inverse() ** (-n)
        result = self if n else self.ring.one()
        for bit in bin(n)[3:]:
            square = result * result
            result = square * self if bit == "1" else square
        return result

    def conjugate(self) -> "RingElement":
        """Galois conjugate a - b*sqrt(d); identity on the other rings."""
        return RingElement(self.ring, self.rat, -self.irr)

    def field_norm(self) -> Fraction:
        """Product of self with its conjugate: a^2 - d*b^2, and rat^2 off the quadratic rings."""
        return self.rat * self.rat - self.ring.param * self.irr * self.irr

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


class _Refusal(ValueError):
    """The refusal of the element args[0], its message formatted only when shown."""

    def __str__(self):
        x = self.args[0]
        where = "is not an integer" if x.ring.kind == INTEGERS else f"does not lie in {x.ring.name}"
        return f"{_fraction_text(x.rat)} {where}"


def is_unit(x: RingElement) -> Optional[RingElement]:
    """Return the inverse of x if x is invertible in its ring, else None; the
    units are the elements of Euclidean size 1."""
    return exact_quotient(x.ring.one(), x) if euclidean_size(x) == 1 else None


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
    try:  # the constructor refuses a denominator that is not m-smooth
        return RingElement(ring, x.rat / y.rat)
    except ValueError:
        return None


def euclidean_size(x: RingElement) -> int:
    """Non-negative size used by division chains, and the index |R/xR| of a
    nonzero x: |N(x)| over Z[sqrt(d)], else the numerator of x with every
    prime of m stripped.  0 only for x = 0, 1 exactly on units."""
    ring = x.ring
    if ring.kind == QUADRATIC:
        return abs(int(x.field_norm()))
    return _strip_primes(x.rat.numerator, ring.param or 1)


def height(x: RingElement) -> int:
    """Max absolute value over the integer data of the canonical form."""
    if x.ring.kind == QUADRATIC:
        return max(abs(int(x.rat)), abs(x.irr))
    return max(abs(x.rat.numerator), x.rat.denominator)


def in_ideal(x: RingElement, c: RingElement) -> bool:
    """Exact divisibility test: true iff x lies in cR, that is x / c lies in
    the ring; c is nonzero."""
    return exact_quotient(x, c) is not None


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

    The lattice is kept in row Hermite form (h11, h12; 0, h22).  Its index
    is n = euclidean_size(c).  Over Z[sqrt(d)] the lattice is spanned by c
    and c*sqrt(d), and n = |N(c)|.  Off the quadratic rings d = 0 and n = c0,
    the positive generator of cR intersected with Z: the numerator of c with
    every prime of m stripped (none for Z).  Either way n lies in cR, so
    cR = (c mod n)R + nZ^2: the form comes from c mod n by one extended gcd
    on numbers below n, whatever the size of c.  Off the quadratic rings c0
    divides the numerator of c, so c mod n = 0, the form is (c0, 0; 0, 1)
    and the quotient is Z/c0.

    Residues are exposed both as canonical RingElements and as dense integer
    codes x1*h22 + x2 in range(index), with 0 <= x1 < h11 and 0 <= x2 < h22;
    the integer side exists so that group tables and breadth-first searches
    stay cheap.  Zero is code 0 in every quotient.  c = 0 raises ZeroIdeal.
    """

    def __init__(self, c: RingElement):
        if not c:
            raise ZeroIdeal("principal ideals require a nonzero generator")
        self.ring = c.ring
        self.modulus = c
        self._d = d = self.ring.param if self.ring.kind == QUADRATIC else 0
        self.index = n = euclidean_size(c)
        # rows c mod n = (a, b) and c*sqrt(d) mod n = (d*b, a); h11 also divides n
        a, b = c.rat.numerator % n, c.irr % n
        g, s, t = _xgcd(a, d * b % n)
        h11, r, _ = _xgcd(g, n)
        self._hnf = (h11, r * (s * b + t * a) % (n // h11), n // h11)

    def __repr__(self):
        return f"{self.ring.name}/({self.modulus}) of index {_int_text(self.index)}"

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


def quotient(c: RingElement) -> QuotientRing:
    """Finite quotient R/cR; ZeroIdeal for c = 0."""
    return QuotientRing(c)


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
    # the order divides |(R/cR)*| < index, so only index > ORDER_BOUND gets here
    message = f"the order of {x} modulo ({q.modulus}) exceeds {ORDER_BOUND}, so its power"
    raise DocumentTooLarge(f"{message} would have more than {DIGIT_BOUND} digits")


def pell_fundamental_unit(d: int) -> tuple[int, int]:
    """Smallest (a, b), b >= 1, with a^2 - d*b^2 = +-1, for non-square d >= 2.

    It is the convergent a/b that closes the first period of the continued
    fraction of sqrt(d) (Lenstra, "Solving the Pell equation", 2002); the
    partial quotients come from the exact recurrence on (m + sqrt(d)) / q.
    The k-th convergent has a^2 - d*b^2 = (-1)^(k+1) times the next q, so the
    search ends when q returns to 1.  An a of more than DIGIT_BOUND digits
    raises DocumentTooLarge instead: a first walk of the small recurrence keeps
    a lower bound on log2(a), from a_k >= digit*a_(k-1) and a_k >= 2*a_(k-2),
    and refuses a period that outgrows the bound before any big-integer work.
    """
    root = math.isqrt(d)
    message = f"the fundamental unit of Z[sqrt{d}] has more than {DIGIT_BOUND} digits"
    low, low_prev = root.bit_length() - 1, 0  # a >= 2^low, a_prev >= 2^low_prev
    for digit in _partial_quotients(d, root):
        low, low_prev = max(low + digit.bit_length() - 1, low_prev + 1), low
        if low >= ORDER_BOUND - 2:  # a >= 2^bits(10^DIGIT_BOUND) > 10^DIGIT_BOUND
            raise DocumentTooLarge(message)
    a_prev, a, b_prev, b = 1, root, 0, 1
    limit = 0  # 10^DIGIT_BOUND, built only once a passes 2^(3 DIGIT_BOUND) < 10^DIGIT_BOUND
    for digit in _partial_quotients(d, root):
        a_prev, a = a, digit * a + a_prev
        b_prev, b = b, digit * b + b_prev
        if a.bit_length() > 3 * DIGIT_BOUND and a >= (limit := limit or 10**DIGIT_BOUND):
            raise DocumentTooLarge(message)
    return a, b


def _partial_quotients(d: int, root: int):
    """The partial quotients of sqrt(d) after root, up to the convergent that closes the period."""
    m, q = root, d - root * root
    while q != 1:
        digit = (root + m) // q
        yield digit
        m = digit * q - m
        q = (d - m * m) // q


def infinite_order_unit(ring: RingDescriptor) -> RingElement:
    """A unit whose powers never repeat: the smallest inverted prime for Z[1/m],
    the fundamental Pell unit for Z[sqrt(d)].  Trial division to 10^6 decides
    m <= 10^12; a larger m with no prime factor that small raises UnsupportedRing."""
    if ring.kind == INTEGERS:
        raise NoInfiniteOrderUnit("Z has only the units 1 and -1")
    if ring.kind == LOCALIZED:
        m = ring.param
        reach = min(math.isqrt(m), TRIAL_DIVISION_BOUND)
        p = next((p for p in range(2, reach + 1) if m % p == 0), m)
        if p == m > TRIAL_DIVISION_BOUND**2:
            bound = f"the trial division bound {TRIAL_DIVISION_BOUND}"
            raise UnsupportedRing(f"m = {m} has no prime factor up to {bound}")
        return ring.from_int(p)
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
ORDER_BOUND = 332_195  # (10**DIGIT_BOUND).bit_length() + 2: 2^(k-2) > 10^DIGIT_BOUND past it
# Most digits of a parsed denominator.  The element constructor checks that
# it is m-smooth by dividing out the gcd once per pass (_strip_primes), which
# takes time quadratic in its length: about 0.07 s at this bound, 33 s at
# DIGIT_BOUND.  The bound holds the longest denominator that perfbench's
# witness corners write (3,929 digits).  make_document reads each payload back
# through the parsers, so an emitter refuses a longer one with DocumentTooLarge
# until the strip takes O(log e) divisions (ROADMAP 3(a)).
DENOMINATOR_BOUND = 4_300
_PLAIN_DIGITS = 600
_PLAIN_BITS = (10**_PLAIN_DIGITS).bit_length() - 1  # so 2**_PLAIN_BITS <= 10**_PLAIN_DIGITS


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
