"""Word metrics on SL2 of finite quotients and the 4-ball experiment.

A FiniteGroupTable counts SL2(R/cR) without listing it and multiplies by
reading addition and multiplication tables of the quotient's dense integer
codes, so breadth-first searches over Cayley graphs stay cheap.  Norms here
are word lengths over symmetric, conjugation-closed generating sets -- the
concrete realization of a conjugation-invariant norm -- and
check_norm_axioms certifies that a table of lengths is such a word length,
which implies the four defining axioms, in |reached| |S| steps instead of
testing them over all |G|^2 pairs.  Both conjugate by
the table's generators only: a finite ring is semilocal, so SL2(R/cR) is
generated by the E12(x), E21(x) (Bass, Algebraic K-theory, 1968), hence by
x = 1, and x = sqrt(d) too over Z[sqrt(d)], as E12(x + y) = E12(x) E12(y).

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
    """Smallest symmetric, conjugation-closed superset of the seed.

    Conjugating by the generators suffices: h S h^-1 in the finite S equals
    S, conjugation being injective, so S is closed under the group they
    generate, all of SL2(R/cR) (Bass 1968; see the module docstring).
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
    given: lengths holds the elements reached, and norm reads inf off them."""

    def __init__(self, group: FiniteGroupTable, generating_set):
        gens = frozenset(generating_set)
        self.group = group
        self.generating_set = gens
        self.lengths = dist = {group.identity: 0}
        frontier = deque([group.identity])
        while frontier:
            g = frontier.popleft()
            d = dist[g] + 1
            for s in gens:
                h = group.mul(g, s)
                if h not in dist:
                    dist[h] = d
                    frontier.append(h)

    def norm(self, g):
        return self.lengths.get(g, math.inf)


def closure_norm_table(table: FiniteGroupTable, seed: Iterable[Mat2]) -> NormTable:
    """Word lengths over the conjugation closure of the seed matrices' images."""
    return NormTable(table, conjugation_closure(table, [table.from_matrix(m) for m in seed]))


def format_norm(v) -> Union[int, str]:
    """A norm as certificates write it: an int, or "inf" when unreachable."""
    return "inf" if v == math.inf else v


def check_norm_axioms(norms: NormTable) -> None:
    """Certify that norms.lengths, read as inf where it stores no length, is
    the word length over its generating set S.

    It checks that n(e) = 0, that S is symmetric and closed under conjugation
    by the table's generators, and at each stored g that n(gs) <= n(g) + 1 for
    every s in S and, for g != e of finite length, n(gs) = n(g) - 1 for some s.
    Both are vacuous at an unstored g, of length inf.  The first, an unstored
    gs read as inf, forces every element reachable from e to be stored and
    gives n <= word length; the second walks g down to e in n(g) steps, so
    word length <= n and n(g) > 0 off e.  Such a word length is a conjugation-
    invariant norm (module docstring), so n(g) = 0 iff g = e; n(g) = n(g^-1);
    n(gh) <= n(g) + n(h); n(a g a^-1) = n(g).  It costs |reached| |S| products;
    a failure is a closure or BFS bug, raised as AssertionError.
    """
    group, n, gens = norms.group, norms.lengths, norms.generating_set
    ident, mul, get, inf = group.identity, group.mul, n.get, math.inf
    if n[ident] != 0:
        raise AssertionError(f"the identity has length {n[ident]}")
    for s in gens:
        if group.inv(s) not in gens or any(group.conj(h, s) not in gens for h in group.generators):
            raise AssertionError(f"the generating set is not closed at {group.format_element(s)}")
    for g, ng in n.items():
        steps = {get(mul(g, s), inf) for s in gens}
        if any(m > ng + 1 for m in steps) or (g != ident and ng < inf and ng - 1 not in steps):
            raise AssertionError(f"{group.format_element(g)} has length {ng}, not its word length")


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
    norms = closure_norm_table(table, [A, A.inverse()])
    sampled = [norms.norm(table.transvection("12", j)) for j in js]
    bound = 4
    return LemmaBoundReport(
        modulus=str(table.quotient.modulus),
        quotient_index=table.quotient.index,
        group_order=len(table),
        generator_count=len(norms.generating_set),
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
