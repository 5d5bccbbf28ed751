"""Word metrics on SL2 of finite quotients and the 4-ball experiment.

A FiniteGroupTable enumerates SL2(R/cR) once and multiplies on the fly using
the quotient's dense integer codes, so breadth-first searches over Cayley
graphs stay cheap.  Norms here are word lengths over symmetric,
conjugation-closed generating sets -- the concrete realization of a
conjugation-invariant norm -- and check_norm_axioms verifies the four
defining axioms exhaustively, reporting counterexamples instead of raising.

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
from typing import Iterable, Mapping, Optional, Union

from .errors import (
    DegenerateQuotient,
    GeneratorsNotClosed,
    MixedRings,
    QuotientTooLarge,
    VerificationFailed,
)
from .lemma import ManyUnitsCertificate, epsilon_ideal, verify_certificate
from .rings import (
    PrincipalIdeal,
    QuotientRing,
    RingElement,
    quotient,
    random_element,
)
from .sl2 import Mat2, reduce_mat

DEFAULT_TABLE_CAP = 10**6


class FiniteGroupTable:
    """All of SL2(R/cR), enumerated; elements are 4-tuples of residue codes.

    Multiplication and inversion are computed on demand from the quotient's
    integer arithmetic rather than stored, so memory stays linear in the
    group order.
    """

    def __init__(self, q: QuotientRing, table_cap: int = DEFAULT_TABLE_CAP):
        n = q.index
        if n**3 > table_cap:
            raise QuotientTooLarge(
                f"index {n} quotient may exceed {table_cap} elements (cap n^3)"
            )
        self.quotient = q
        one = q.one_enc
        zero = q.encode(q.ring.zero())
        self._zero = zero
        self.identity = (one, zero, zero, one)
        # group by pivot a: products[a] maps each value a*d to the list of d's
        products: list[dict[int, list[int]]] = []
        for a in range(n):
            sols: dict[int, list[int]] = {}
            for d in range(n):
                sols.setdefault(q.mul_enc(a, d), []).append(d)
            products.append(sols)
        elements = []
        for a in range(n):
            sols = products[a]
            for b in range(n):
                for c in range(n):
                    rhs = q.add_enc(one, q.mul_enc(b, c))
                    for d in sols.get(rhs, ()):
                        elements.append((a, b, c, d))
        self.elements: tuple = tuple(elements)
        self._members = frozenset(elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self._members

    def mul(self, g, h):
        q = self.quotient
        a, b, c, d = g
        e, f, i, j = h
        return (
            q.add_enc(q.mul_enc(a, e), q.mul_enc(b, i)),
            q.add_enc(q.mul_enc(a, f), q.mul_enc(b, j)),
            q.add_enc(q.mul_enc(c, e), q.mul_enc(d, i)),
            q.add_enc(q.mul_enc(c, f), q.mul_enc(d, j)),
        )

    def inv(self, g):
        q = self.quotient
        a, b, c, d = g
        return (d, q.neg_enc(b), q.neg_enc(c), a)

    def conj(self, g, h):
        """g h g^-1."""
        return self.mul(self.mul(g, h), self.inv(g))

    def from_matrix(self, m: Mat2):
        return reduce_mat(m, self.quotient)

    def transvection(self, position: str, x: RingElement):
        code = self.quotient.encode(x)
        if position == "12":
            return (self.identity[0], code, self._zero, self.identity[3])
        if position == "21":
            return (self.identity[0], self._zero, code, self.identity[3])
        raise ValueError(f"position must be '12' or '21', got {position!r}")

    def format_element(self, g) -> str:
        q = self.quotient
        a, b, c, d = (q.decode(i) for i in g)
        return f"[[{a},{b}],[{c},{d}]]"


def conjugation_closure(table: FiniteGroupTable, seed: Iterable) -> frozenset:
    """Smallest symmetric, conjugation-closed superset of the seed."""
    closed: set = set()
    pending = deque(seed)
    while pending:
        s = pending.popleft()
        if s in closed:
            continue
        closed.add(s)
        pending.append(table.inv(s))
        for g in table.elements:
            t = table.conj(g, s)
            if t not in closed:
                pending.append(t)
    return frozenset(closed)


def _closure_violation(table: FiniteGroupTable, gens: frozenset) -> Optional[str]:
    for s in gens:
        if table.inv(s) not in gens:
            return f"inverse of {table.format_element(s)} missing"
    for s in gens:
        for g in table.elements:
            if table.conj(g, s) not in gens:
                return (
                    f"conjugate of {table.format_element(s)} "
                    f"by {table.format_element(g)} missing"
                )
    return None


def _distances(table: FiniteGroupTable, gens: frozenset):
    dist = {table.identity: 0}
    frontier = deque([table.identity])
    while frontier:
        g = frontier.popleft()
        d = dist[g] + 1
        for s in gens:
            h = table.mul(g, s)
            if h not in dist:
                dist[h] = d
                frontier.append(h)
    return dist


def bfs_norm(table: FiniteGroupTable, gens, g) -> Union[int, float]:
    """Cayley-graph distance from the identity; math.inf when unreachable.

    The generating set must be symmetric and conjugation-closed (checked;
    GeneratorsNotClosed otherwise) so the resulting word length is a
    conjugation-invariant norm.
    """
    return NormTable(table, gens).lengths.get(g, math.inf)


class NormTable:
    """Word lengths of every group element over a fixed generating set."""

    def __init__(self, group: FiniteGroupTable, generating_set, *, check: bool = True):
        gens = frozenset(generating_set)
        if check:
            violation = _closure_violation(group, gens)
            if violation is not None:
                raise GeneratorsNotClosed(violation)
        self.group = group
        self.generating_set = gens
        finite = _distances(group, gens)
        self.lengths: dict = {
            g: finite.get(g, math.inf) for g in group.elements
        }

    def length(self, g) -> Union[int, float]:
        return self.lengths[g]


def closure_norm_table(table: FiniteGroupTable, seed: Iterable[Mat2]) -> NormTable:
    """Word lengths over the conjugation closure of the seed matrices' images."""
    gens = conjugation_closure(table, [table.from_matrix(m) for m in seed])
    return NormTable(table, gens, check=False)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    counterexample: Optional[dict] = None


@dataclass(frozen=True)
class AxiomReport:
    """One AxiomCheck per norm axiom; failures carry a concrete counterexample."""

    separation: AxiomCheck
    symmetry: AxiomCheck
    subadditivity: AxiomCheck
    conjugation_invariance: AxiomCheck

    @property
    def checks(self) -> tuple[AxiomCheck, ...]:
        return (self.separation, self.symmetry, self.subadditivity, self.conjugation_invariance)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def format_norm(v) -> Union[int, str]:
    """A norm as certificates write it: an int, or "inf" when unreachable."""
    return "inf" if v == math.inf else v


def check_norm_axioms(
    norm: Union[NormTable, FiniteGroupTable],
    lengths: Optional[Mapping] = None,
) -> AxiomReport:
    """Exhaustively check the four conjugation-invariant-norm axioms.

    Accepts a NormTable, or a FiniteGroupTable plus an explicit length map.
    Axioms: n(g) = 0 iff g = identity; n(g) = n(g^-1); n(gh) <= n(g) + n(h);
    n(a g a^-1) = n(g).  Failures come back as report content, never errors.
    """
    if isinstance(norm, NormTable):
        group, lengths = norm.group, norm.lengths
    else:
        group = norm
        if lengths is None:
            raise TypeError("explicit tables need a lengths mapping")

    def fmt(g):
        return group.format_element(g)

    separation = AxiomCheck("separation", True)
    ident = group.identity
    if lengths[ident] != 0:
        separation = AxiomCheck(
            "separation", False, {"g": fmt(ident), "norm": format_norm(lengths[ident])}
        )
    else:
        for g in group.elements:
            if g != ident and lengths[g] == 0:
                separation = AxiomCheck("separation", False, {"g": fmt(g), "norm": 0})
                break

    symmetry = AxiomCheck("symmetry", True)
    for g in group.elements:
        gi = group.inv(g)
        if lengths[g] != lengths[gi]:
            symmetry = AxiomCheck(
                "symmetry",
                False,
                {
                    "g": fmt(g),
                    "norm": format_norm(lengths[g]),
                    "inverse_norm": format_norm(lengths[gi]),
                },
            )
            break

    subadditivity = AxiomCheck("subadditivity", True)
    for g in group.elements:
        ng = lengths[g]
        broken = False
        for h in group.elements:
            if lengths[group.mul(g, h)] > ng + lengths[h]:
                subadditivity = AxiomCheck(
                    "subadditivity",
                    False,
                    {
                        "g": fmt(g),
                        "h": fmt(h),
                        "norm_product": format_norm(lengths[group.mul(g, h)]),
                        "norm_sum": format_norm(ng + lengths[h]),
                    },
                )
                broken = True
                break
        if broken:
            break

    conjugation = AxiomCheck("conjugation_invariance", True)
    for g in group.elements:
        ng = lengths[g]
        broken = False
        for a in group.elements:
            if lengths[group.conj(a, g)] != ng:
                conjugation = AxiomCheck(
                    "conjugation_invariance",
                    False,
                    {
                        "a": fmt(a),
                        "g": fmt(g),
                        "norm": format_norm(ng),
                        "conjugated_norm": format_norm(lengths[group.conj(a, g)]),
                    },
                )
                broken = True
                break
        if broken:
            break

    return AxiomReport(separation, symmetry, subadditivity, conjugation)


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

    ring: str
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
    rng: Optional[random.Random] = None,
    require_nontrivial: bool = True,
    table_cap: int = DEFAULT_TABLE_CAP,
) -> LemmaBoundReport:
    """Sample j from ((u^8 - 1)c) and check E12(j) lies in the 4-ball of the
    conjugates of the reduced matrix.

    Images equal to the identity are vacuous (norm 0) and are excluded from
    the histogram; with require_nontrivial the experiment insists on
    sample_size genuinely nontrivial images and raises DegenerateQuotient
    when the quotient absorbs the whole ideal.
    """
    if A.ring != modulus.ring or A.ring != cert.ring:
        raise MixedRings("matrix, certificate, and modulus must share one ring")
    verify_certificate(cert)
    if cert.c != A.c:
        raise VerificationFailed(
            f"certificate is for c = {cert.c}, matrix corner is {A.c}"
        )
    q = quotient(modulus)
    table = FiniteGroupTable(q, table_cap)
    norms = closure_norm_table(table, [A, A.inverse()])
    eps = epsilon_ideal(cert).generator
    rng = rng if rng is not None else random.Random(0)
    bound = 4
    trivial = 0
    samples: list = []
    draws = 0
    max_draws = 40 * sample_size + 200
    while draws < max_draws:
        if require_nontrivial:
            if len(samples) >= sample_size:
                break
        elif draws >= sample_size:
            break
        draws += 1
        j = eps * random_element(A.ring, rng, 8)
        image = table.transvection("12", j)
        if image == table.identity:
            trivial += 1
            continue
        samples.append((str(j), norms.length(image)))
    if require_nontrivial and len(samples) < sample_size:
        raise DegenerateQuotient(
            f"only {len(samples)} nontrivial images of ({eps}) in {draws} draws; "
            f"the ideal may reduce to zero modulo {modulus.generator}"
        )
    histogram, max_norm, within = summarize_norms([v for _, v in samples], bound)
    return LemmaBoundReport(
        ring=A.ring.name,
        modulus=str(modulus.generator),
        quotient_index=q.index,
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

