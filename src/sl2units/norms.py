"""Word metrics on SL2 of finite quotients and the 4-ball experiment.

A FiniteGroupTable counts SL2(R/cR) without listing it and multiplies by
reading addition and multiplication tables of the quotient's dense integer
codes, so breadth-first searches over Cayley graphs stay cheap.  Norms here
are word lengths over symmetric, conjugation-closed generating sets -- the
concrete realization of a conjugation-invariant norm -- and such a set is
conjugation_closure's, built by conjugating with the table's generators
only: a finite ring is semilocal, so SL2(R/cR) is generated by the E12(x),
E21(x) (Bass, Algebraic K-theory, 1968), hence by x = 1, and x = sqrt(d)
too over Z[sqrt(d)], as E12(x + y) = E12(x) E12(y).  A NormTable searches
only until its targets have lengths.

lemma_bound_experiment is the finite shadow of the bounded-conjugate
construction: the four-conjugate identity is a ring identity, so it survives
reduction, and every transvection E12(j) with j in the ideal ((u^8-1)c) must
land within word length 4 of the identity over the conjugates of the reduced
matrix.  A failure would falsify the witness construction, not the
experiment.  It draws the samples, and lemma_bound_report derives every
recorded field from them, for verify as for the emitter.
"""

from __future__ import annotations

import math
import random
from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DegenerateQuotient, QuotientTooLarge
from .lemma import ManyUnitsCertificate
from .rings import QUADRATIC, RingElement, _int_text, euclidean_size, quotient, random_element
from .sl2 import Mat2, reduce_mat

TABLE_CAP = 10**6
# A search product, with its lookups and loop, costs 0.3-1.2 us in CPython 3.11
# on a 2-vCPU x86-64 host, 1.2 us at mod 97, where the lengths soon fill a dict
# of 10^6 keys: 2.5 * 10^6 products at 1.2 us keep one search within 3 s
WORK_CAP = 2_500_000


class FiniteGroupTable:
    """SL2(R/cR), counted but not listed; elements are 4-tuples of residue codes.

    The quotient's addition and multiplication are built once as n x n
    tables, and negation as a list of n, so the count, mul and inv read
    entries instead of reducing through the Hermite form.  The cap
    n^3 <= TABLE_CAP keeps n <= 100, so each table holds at most 10^4 codes
    below 100.  generators are the elementary matrices that generate the
    group.  The cap is checked on euclidean_size(modulus) before the quotient
    is built, as the Hermite form takes an extended gcd on numbers below the
    index; a zero modulus has size 0 and is refused by the quotient.
    """

    def __init__(self, modulus: RingElement):
        n = euclidean_size(modulus)
        # n > TABLE_CAP first, so an index of many digits is not cubed
        if n > TABLE_CAP or n**3 > TABLE_CAP:
            raise QuotientTooLarge(
                f"a quotient whose index has {len(_int_text(n))} digits may exceed "
                f"{TABLE_CAP} elements (cap n^3)"
            )
        self.quotient = q = quotient(modulus)
        codes = range(n)
        self._add = add = [[q.add_enc(i, j) for j in codes] for i in codes]
        self._mul = mul = [[q.mul_enc(i, j) for j in codes] for i in codes]
        self._neg = [q.neg_enc(i) for i in codes]
        one = q.one_enc
        self.identity = (one, 0, 0, one)
        # ad - bc = 1 pairs each product v = bc with every product ad = v + 1
        products = Counter(v for row in mul for v in row)
        plus_one = add[one]
        self.order = sum(k * products[plus_one[v]] for v, k in products.items())
        spans = [q.ring.one()] + ([q.ring.from_pair(0, 1)] if q.ring.kind == QUADRATIC else [])
        self.generators = tuple(self.transvection(p, x) for x in spans for p in ("12", "21"))

    def __len__(self):
        return self.order

    def mul(self, g, h):
        add, mul = self._add, self._mul
        a, b, c, d = g
        e, f, i, j = h
        ma, mb, mc, md = mul[a], mul[b], mul[c], mul[d]
        return (
            add[ma[e]][mb[i]],
            add[ma[f]][mb[j]],
            add[mc[e]][md[i]],
            add[mc[f]][md[j]],
        )

    def inv(self, g):
        neg = self._neg
        a, b, c, d = g
        return (d, neg[b], neg[c], a)

    def conj(self, g, h):
        """g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

    def from_matrix(self, m: Mat2):
        return reduce_mat(m, self.quotient)

    def transvection(self, position: str, x: RingElement):
        code = self.quotient.encode(x)
        if position == "12":
            return (self.identity[0], code, 0, self.identity[3])
        return (self.identity[0], 0, code, self.identity[3])

    def format_element(self, g) -> str:
        q = self.quotient
        a, b, c, d = (q.decode(i) for i in g)
        return f"[[{a},{b}],[{c},{d}]]"


def conjugation_closure(table: FiniteGroupTable, seed: Iterable) -> frozenset:
    """Smallest symmetric, conjugation-closed superset S of the seed.

    Each element taken pushes its inverse and its conjugates by the
    generators, and the loop ends when none is pending, so S is closed under
    the group they generate, all of SL2(R/cR): h S h^-1 in the finite S is S.
    The word length n over S, inf off the subgroup S generates, is then a
    conjugation-invariant norm: n(g) = 0 iff g = e; n(g^-1) = n(g), as
    s1...sk inverts to sk^-1...s1^-1; n(gh) <= n(g) + n(h), as words
    concatenate; n(a g a^-1) = n(g), as a s1...sk a^-1 = prod a si a^-1.
    """
    closed: set = set()
    pending = deque(seed)
    while pending:
        s = pending.popleft()
        if s in closed:
            continue
        closed.add(s)
        pending.append(table.inv(s))
        for h in table.generators:
            t = table.conj(h, s)
            if t not in closed:
                pending.append(t)
    return frozenset(closed)


class NormTable:
    """Word lengths by breadth-first search over a generating set taken as
    given, until every target has one, as the search first reaches each
    element at its length: lengths holds the elements reached, and norm reads
    inf off them.  A search past WORK_CAP products raises QuotientTooLarge."""

    def __init__(self, group: FiniteGroupTable, generating_set, targets):
        gens = frozenset(generating_set)
        self.group = group
        self.generating_set = gens
        self.lengths = dist = {group.identity: 0}
        missing = set(targets) - {group.identity}
        frontier = deque([group.identity])
        products = 0
        while missing and frontier:
            products += len(gens)
            if products > WORK_CAP:
                raise QuotientTooLarge(
                    f"the word-length search over {len(gens)} generators in a group of order "
                    f"{group.order} needs more than {WORK_CAP} products"
                )
            g = frontier.popleft()
            d = dist[g] + 1
            for s in gens:
                h = group.mul(g, s)
                if h not in dist:
                    dist[h] = d
                    frontier.append(h)
                    missing.discard(h)

    def norm(self, g):
        return self.lengths.get(g, math.inf)


def format_norm(v) -> Union[int, str]:
    """A norm as certificates write it: an int, or "inf" when unreachable."""
    return "inf" if v == math.inf else v


@dataclass(frozen=True)
class LemmaBoundReport:
    """Outcome of the 4-ball experiment in one finite quotient."""

    modulus: str
    quotient_index: int
    group_order: int
    generator_count: int
    requested: int
    nontrivial_count: int
    trivial_count: int
    histogram: dict  # norm as text -> count
    max_norm: Union[int, str]
    bound: int
    all_within_bound: bool
    samples: tuple  # (ideal element as text, norm) per nontrivial image


def lemma_bound_report(
    table: FiniteGroupTable, A: Mat2, js: list, requested: int, trivial: int
) -> LemmaBoundReport:
    """The report of a 4-ball experiment asked for requested samples, whose
    draws gave the js of nontrivial image E12(j) and trivial others: the word
    length over the conjugation closure of A and A^-1, each sample's norm,
    their histogram, their maximum (0 for no samples), the bound 4 and whether
    every norm is within it.  The emitter and verify both derive a report here."""
    gens = conjugation_closure(table, [table.from_matrix(A), table.from_matrix(A.inverse())])
    targets = [table.transvection("12", j) for j in js]
    sampled = list(map(NormTable(table, gens, targets).norm, targets))
    bound = 4
    return LemmaBoundReport(
        modulus=str(table.quotient.modulus),
        quotient_index=table.quotient.index,
        group_order=len(table),
        generator_count=len(gens),
        requested=requested,
        nontrivial_count=len(js),
        trivial_count=trivial,
        histogram=dict(Counter(str(format_norm(v)) for v in sampled)),
        max_norm=format_norm(max(sampled, default=0)),
        bound=bound,
        all_within_bound=all(v <= bound for v in sampled),
        samples=tuple((str(j), format_norm(v)) for j, v in zip(js, sampled)),
    )


def draw_budget(sample_size: int) -> int:
    """Most draws a strict experiment makes to find sample_size nontrivial images."""
    return 40 * sample_size + 200


def lemma_bound_experiment(
    A: Mat2,
    cert: ManyUnitsCertificate,
    modulus: RingElement,
    sample_size: int,
    *,
    rng: random.Random,
    require_nontrivial: bool = True,
) -> LemmaBoundReport:
    """Sample j from ((u^8 - 1)c) and check E12(j) lies in the 4-ball of the
    conjugates of the reduced matrix.

    Images equal to the identity are vacuous (norm 0) and are excluded from
    the histogram; with require_nontrivial the experiment insists on
    sample_size genuinely nontrivial images and raises DegenerateQuotient
    when the quotient absorbs the whole ideal.  cert is a certificate for
    A's corner that certify_unit or find_unit has verified, and sample_size
    is a count the caller has checked to be >= 0.
    """
    table = FiniteGroupTable(modulus)
    eps = cert.epsilon_generator
    trivial = 0
    js: list = []
    draws = 0
    max_draws = draw_budget(sample_size) if require_nontrivial else sample_size
    if sample_size and table.transvection("12", eps) == table.identity:
        trivial = draws = max_draws  # eps lies in (modulus): every image eps * r is trivial
    while draws < max_draws and len(js) < sample_size:
        draws += 1
        j = eps * random_element(A.ring, rng, 8)
        if table.transvection("12", j) == table.identity:
            trivial += 1
        else:
            js.append(j)
    if require_nontrivial and len(js) < sample_size:
        raise DegenerateQuotient(
            f"only {len(js)} nontrivial images of ({eps}) in {draws} draws; "
            f"the ideal may reduce to zero modulo {modulus}"
        )
    return lemma_bound_report(table, A, js, sample_size, trivial)
