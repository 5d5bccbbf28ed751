"""Word metrics on SL2 of finite quotients and the 4-ball experiment.

A FiniteGroupTable enumerates SL2(R/cR) once and multiplies by reading
addition and multiplication tables of the quotient's dense integer codes, so
breadth-first searches over Cayley graphs stay cheap.  Norms here are word
lengths over symmetric, conjugation-closed generating sets -- the concrete
realization of a conjugation-invariant norm -- and check_norm_axioms
certifies that a table of lengths is such a word length, which implies the
four defining axioms, in |G| |S| steps instead of testing them over all
|G|^2 pairs.  Both conjugate by
the table's generators only: a finite ring is semilocal, so SL2(R/cR) is
generated by the E12(x), E21(x) (Bass, Algebraic K-theory, 1968), hence by
x = 1, and x = sqrt(d) too over Z[sqrt(d)], as E12(x + y) = E12(x) E12(y).

lemma_bound_experiment is the finite shadow of the bounded-conjugate
construction: the four-conjugate identity is a ring identity, so it survives
reduction, and every transvection E12(j) with j in the ideal ((u^8-1)c) must
land within word length 4 of the identity over the conjugates of the reduced
matrix.  A failure would falsify the witness construction, not the
experiment.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Union

from .errors import DegenerateQuotient, QuotientTooLarge
from .lemma import ManyUnitsCertificate, epsilon_ideal
from .rings import (
    QUADRATIC,
    PrincipalIdeal,
    RingElement,
    _int_text,
    quotient,
    quotient_index,
    random_element,
)
from .sl2 import Mat2, reduce_mat

TABLE_CAP = 10**6


class FiniteGroupTable:
    """All of SL2(R/cR), enumerated; elements are 4-tuples of residue codes.

    The quotient's addition and multiplication are built once as n x n
    tables, and negation as a list of n, so enumeration, mul and inv read
    entries instead of reducing through the Hermite form.  The cap
    n^3 <= TABLE_CAP keeps n <= 100, so each table holds at most 10^4 codes
    below 100.  generators are the elementary matrices that generate the
    group.  The cap is checked before the quotient is built: over Z[sqrt(d)]
    the Hermite form takes time quadratic in c's digits.
    """

    def __init__(self, modulus: PrincipalIdeal):
        n = quotient_index(modulus)
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
        # group by pivot a: products[a] maps each value a*d to the list of d's
        products: list[dict[int, list[int]]] = [{} for _ in codes]
        for a in codes:
            for d in codes:
                products[a].setdefault(mul[a][d], []).append(d)
        plus_one = add[one]
        elements = []
        for a in codes:
            sols = products[a]
            for b in codes:
                for c in codes:
                    for d in sols.get(plus_one[mul[b][c]], ()):
                        elements.append((a, b, c, d))
        self.elements: tuple = tuple(elements)
        spans = [q.ring.one()] + ([q.ring.from_pair(0, 1)] if q.ring.kind == QUADRATIC else [])
        self.generators = tuple(self.transvection(p, x) for x in spans for p in ("12", "21"))

    def __len__(self):
        return len(self.elements)

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
    """Word lengths of every group element over a generating set taken as
    given, by breadth-first search; math.inf where unreachable."""

    def __init__(self, group: FiniteGroupTable, generating_set):
        gens = frozenset(generating_set)
        self.group = group
        self.generating_set = gens
        dist = {group.identity: 0}
        frontier = deque([group.identity])
        while frontier:
            g = frontier.popleft()
            d = dist[g] + 1
            for s in gens:
                h = group.mul(g, s)
                if h not in dist:
                    dist[h] = d
                    frontier.append(h)
        self.lengths: dict = {g: dist.get(g, math.inf) for g in group.elements}


def closure_norm_table(table: FiniteGroupTable, seed: Iterable[Mat2]) -> NormTable:
    """Word lengths over the conjugation closure of the seed matrices' images."""
    return NormTable(table, conjugation_closure(table, [table.from_matrix(m) for m in seed]))


def format_norm(v) -> Union[int, str]:
    """A norm as certificates write it: an int, or "inf" when unreachable."""
    return "inf" if v == math.inf else v


def check_norm_axioms(norms: NormTable) -> None:
    """Certify that norms.lengths is the word length over its generating set S.

    It checks that n(e) = 0, that S is symmetric and closed under conjugation
    by the table's generators, that n(gs) <= n(g) + 1 for every g and s in S,
    and that every g != e with n(g) < inf has an s with n(gs) = n(g) - 1.  The
    third gives n <= word length; the fourth walks g down to e in n(g) steps,
    so word length <= n and n(g) > 0 off e.  A word length over such an S is
    a conjugation-invariant norm (module docstring), so the four axioms hold:
    n(g) = 0 iff g = e; n(g) = n(g^-1); n(gh) <= n(g) + n(h); n(a g a^-1) = n(g).
    It costs |G| |S| products; a failure is a closure or BFS bug, raised as
    AssertionError.
    """
    group, n, gens = norms.group, norms.lengths, norms.generating_set
    ident = group.identity
    if n[ident] != 0:
        raise AssertionError(f"the identity has length {n[ident]}")
    for s in gens:
        if group.inv(s) not in gens or any(group.conj(h, s) not in gens for h in group.generators):
            raise AssertionError(f"the generating set is not closed at {group.format_element(s)}")
    for g in group.elements:
        ng = n[g]
        steps = {n[group.mul(g, s)] for s in gens}
        if any(m > ng + 1 for m in steps) or (g != ident and ng < math.inf and ng - 1 not in steps):
            raise AssertionError(f"{group.format_element(g)} has length {ng}, not its word length")


def summarize_norms(sampled: list, bound: int) -> tuple[dict, Union[int, str], bool]:
    """Histogram, maximum (0 for no samples) and within-bound flag of sampled
    norms, with each norm written by format_norm."""
    histogram: dict = {}
    for v in sampled:
        key = format_norm(v)
        histogram[key] = histogram.get(key, 0) + 1
    return histogram, format_norm(max(sampled, default=0)), all(v <= bound for v in sampled)


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
    histogram: dict
    max_norm: Union[int, str]
    bound: int
    all_within_bound: bool
    samples: tuple  # (ideal element as text, norm) per nontrivial image


def lemma_bound_experiment(
    A: Mat2,
    cert: ManyUnitsCertificate,
    modulus: PrincipalIdeal,
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
    norms = closure_norm_table(table, [A, A.inverse()])
    eps = epsilon_ideal(cert).generator
    bound = 4
    trivial = 0
    samples: list = []
    draws = 0
    max_draws = 40 * sample_size + 200 if require_nontrivial else sample_size
    while draws < max_draws and len(samples) < sample_size:
        draws += 1
        j = eps * random_element(A.ring, rng, 8)
        image = table.transvection("12", j)
        if image == table.identity:
            trivial += 1
            continue
        samples.append((str(j), norms.lengths[image]))
    if require_nontrivial and len(samples) < sample_size:
        raise DegenerateQuotient(
            f"only {len(samples)} nontrivial images of ({eps}) in {draws} draws; "
            f"the ideal may reduce to zero modulo {modulus.generator}"
        )
    histogram, max_norm, within = summarize_norms([v for _, v in samples], bound)
    return LemmaBoundReport(
        modulus=str(modulus.generator),
        quotient_index=table.quotient.index,
        group_order=len(table),
        generator_count=len(norms.generating_set),
        requested=sample_size,
        nontrivial_count=len(samples),
        trivial_count=trivial,
        histogram=histogram,
        max_norm=max_norm,
        bound=bound,
        all_within_bound=within,
        samples=tuple((j, format_norm(v)) for j, v in samples),
    )

