"""Finite quotients of SL2, conjugation closures, BFS word norms, experiments."""

import copy
import functools
import math
import random
from fractions import Fraction

import pytest

from sl2units import certs
from sl2units.errors import DegenerateQuotient, QuotientTooLarge, VerificationFailed
from sl2units.lemma import certify_unit, find_unit, lemma2_witness
from sl2units.norms import (
    FiniteGroupTable,
    NormTable,
    conjugation_closure,
    lemma_bound_experiment,
)
from sl2units.rings import exact_quotient, integers, localized, parse_element, quadratic
from sl2units.sl2 import elem12, elem21, parse_matrix
from tests.conftest import (
    certify_word_length,
    check_norm_axioms,
    count_calls,
    group_elements,
    random_sl2,
    verdicts_by_exhaustion,
)

Z = integers()
Zh = localized(2)
R2 = quadratic(2)
R3 = quadratic(3)


def _table(ring, gen_text):
    return FiniteGroupTable(parse_element(ring, gen_text))


# ---------------------------------------------------------------------------
# group tables


@pytest.mark.parametrize("p,order", [(2, 6), (3, 24), (5, 120), (7, 336), (11, 1320)])
def test_group_order_prime(p, order):
    assert p * (p * p - 1) == order  # the order formula itself
    assert len(_table(Z, str(p))) == order


def test_group_order_composite_and_extensions():
    assert len(_table(Z, "6")) == 144  # SL2(Z/6) = SL2(Z/2) x SL2(Z/3)
    assert len(_table(Zh, "3")) == 24
    assert len(_table(R2, "3")) == 720  # SL2(F9) = 9 * 80
    assert len(_table(R2, "sqrt(2)")) == 6  # residue field F2


def _prime_factors(n):
    return {p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))}


def test_counted_order_matches_the_formula_over_Z():
    # |SL2(Z/N)| = N^3 prod_{p | N} (1 - p^-2), for every modulus the cap admits
    for n in range(1, 101):
        expected = Fraction(n**3)
        for p in _prime_factors(n):
            expected *= 1 - Fraction(1, p * p)
        assert len(_table(Z, str(n))) == expected, n


def test_closure_at_the_largest_modulus_stays_small(capsys):
    # the closure of -I is {-I}: a table of 97^2 products serves it, not |G| elements
    import json
    import tracemalloc

    from sl2units.cli import run

    tracemalloc.start()
    try:
        code = run(["norm", "bfs", "--ring", "Z", "--modulus", "97",
                    "--gen", "[[-1,0],[0,-1]]", "--element", "[[-1,0],[0,-1]]"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["group_order"] == 912576 and out["norm"] == 1
    assert peak < 16 * 2**20


def test_table_cap():
    with pytest.raises(QuotientTooLarge):
        _table(Z, "101")  # 101^3 > 10^6
    _table(Z, "97")  # 97^3 fits


def test_table_group_laws(rng):
    table = _table(Z, "3")
    elems = group_elements(table)
    for _ in range(50):
        g = rng.choice(elems)
        h = rng.choice(elems)
        assert table.mul(g, table.inv(g)) == table.identity
        assert table.mul(g, h) in elems
        assert table.conj(g, h) == table.mul(table.mul(g, h), table.inv(g))


@pytest.mark.parametrize(
    "ring,modulus", [(Z, str(n)) for n in range(2, 14)] + [(R2, "3")], ids=lambda v: str(v)
)
def test_tabulated_products_match_the_quotient(ring, modulus, rng):
    table = _table(ring, modulus)
    q = table.quotient
    elems = group_elements(table)
    for _ in range(200):
        (a, b, c, d), (e, f, i, j) = rng.choice(elems), rng.choice(elems)
        assert table.mul((a, b, c, d), (e, f, i, j)) == (
            q.add_enc(q.mul_enc(a, e), q.mul_enc(b, i)),
            q.add_enc(q.mul_enc(a, f), q.mul_enc(b, j)),
            q.add_enc(q.mul_enc(c, e), q.mul_enc(d, i)),
            q.add_enc(q.mul_enc(c, f), q.mul_enc(d, j)),
        )
        assert table.inv((a, b, c, d)) == (d, q.neg_enc(b), q.neg_enc(c), a)


def test_from_matrix_respects_reduction(rng):
    table = _table(Zh, "9")
    for _ in range(20):
        a = random_sl2(Zh, rng)
        b = random_sl2(Zh, rng)
        assert table.from_matrix(a * b) == table.mul(table.from_matrix(a), table.from_matrix(b))


def test_transvection_images():
    table = _table(Z, "5")
    assert table.generators == (
        table.from_matrix(elem12(Z.one())),
        table.from_matrix(elem21(Z.one())),
    )
    g = table.transvection("12", Z.from_int(7))
    assert g == table.from_matrix(elem12(Z.from_int(7)))
    assert table.transvection("12", Z.from_int(5)) == table.identity


ELEMENTARY_CASES = (
    [(Z, str(n)) for n in range(2, 31)]
    + [(Zh, "9"), (Zh, "15"), (localized(6), "25")]
    + [(R2, "3"), (R2, "sqrt(2)"), (R2, "1+sqrt(2)"), (R2, "5")]
    + [(R3, "2"), (R3, "sqrt(3)"), (R3, "1+sqrt(3)")]
)


@pytest.mark.parametrize("ring,modulus", ELEMENTARY_CASES, ids=lambda v: str(v))
def test_elementary_generators_reach_every_element(ring, modulus):
    # SL2 of a finite ring is elementary, and 1 (and sqrt(d)) span it additively
    table = _table(ring, modulus)
    assert len(table.generators) == (4 if ring.kind == "quadratic" else 2)
    lengths = NormTable(table, table.generators, group_elements(table)).lengths
    assert len(lengths) == len(table) == len(group_elements(table))
    assert set(lengths) == set(group_elements(table))


# ---------------------------------------------------------------------------
# conjugation closure


def _closure_by_whole_group(table, seed):
    """The oracle: the closure conjugating by every group element."""
    closed = set()
    pending = list(seed)
    while pending:
        s = pending.pop()
        if s in closed:
            continue
        closed.add(s)
        pending.append(table.inv(s))
        for g in group_elements(table):
            t = table.conj(g, s)
            if t not in closed:
                pending.append(t)
    return frozenset(closed)


@pytest.mark.parametrize(
    "ring,modulus", [(Z, str(n)) for n in range(2, 14)] + [(R2, "3")], ids=lambda v: str(v)
)
def test_generator_closure_matches_whole_group_closure(ring, modulus):
    table = _table(ring, modulus)
    pick = random.Random(f"{ring}/{modulus}")
    seed = pick.sample(group_elements(table), pick.randint(1, 2))
    assert conjugation_closure(table, seed) == _closure_by_whole_group(table, seed)


def test_closure_conjugates_by_generators_only(monkeypatch):
    table = _table(Z, "11")
    calls = []
    conj = FiniteGroupTable.conj
    monkeypatch.setattr(
        FiniteGroupTable, "conj", lambda self, g, h: calls.append(g) or conj(self, g, h)
    )
    gens = conjugation_closure(table, [table.from_matrix(elem12(Z.one()))])
    assert len(gens) == 120
    # conjugating by the whole group made |G| |S| = 1320 * 120 = 158400 calls
    assert len(calls) <= len(gens) * len(table.generators) == 240
    assert set(calls) <= set(table.generators)


def test_closure_sizes():
    t2 = _table(Z, "2")
    gens2 = conjugation_closure(t2, [t2.from_matrix(elem12(Z.one()))])
    assert len(gens2) == 3  # the three transvections of SL2(F2)

    t5 = _table(Z, "5")
    gens5 = conjugation_closure(t5, [t5.from_matrix(elem12(Z.one()))])
    assert len(gens5) == 12


def test_closure_invariant_under_full_conjugation():
    table = _table(Z, "3")
    gens = conjugation_closure(table, [table.from_matrix(elem12(Z.one()))])
    for g in group_elements(table):
        for a in gens:
            assert table.conj(g, a) in gens
    assert all(table.inv(a) in gens for a in gens)


def test_closure_of_central_element_is_tiny():
    table = _table(Z, "5")
    minus_i = table.from_matrix(parse_matrix(Z, "[[-1,0],[0,-1]]"))
    # -I is central: its closure is itself (it is its own inverse)
    assert conjugation_closure(table, [minus_i]) == frozenset({minus_i})


# ---------------------------------------------------------------------------
# BFS norms and the axiom report


def test_bfs_norm_oracles():
    table = _table(Z, "5")
    e12 = table.from_matrix(elem12(Z.one()))
    gens = conjugation_closure(table, [e12, table.inv(e12)])
    lengths = NormTable(table, gens, group_elements(table)).lengths
    minus_i = table.from_matrix(parse_matrix(Z, "[[-1,0],[0,-1]]"))
    assert lengths[table.identity] == 0
    assert lengths[e12] == 1
    assert lengths[minus_i] == 3


def test_bfs_norm_requires_closed_generators(capsys):
    # `norm bfs` without --closure refuses a set that is not its own closure
    import json

    from sl2units.cli import run

    def norm_bfs(modulus, gens):
        flags = [arg for g in gens for arg in ("--gen", str(g))]
        code = run(["norm", "bfs", "--ring", "Z", "--modulus", modulus, *flags,
                    "--element", "[[-1,0],[0,-1]]"])
        return code, json.loads(capsys.readouterr().out)

    code, err = norm_bfs("5", [elem12(Z.one())])
    assert code == 1 and err["error"] == "GeneratorsNotClosed" and "lacks" in err["message"]
    # mod 3 the conjugates of E12(1) miss its inverse E12(-1): -1 is not a square.
    # Lift them to SL2(Z) by conjugating with integer words in E12(1), E21(1).
    t3 = _table(Z, "3")
    e12 = elem12(Z.one())
    conjugates = {}
    frontier = [parse_matrix(Z, "[[1,0],[0,1]]")]
    while len(conjugates) < len({t3.conj(g, t3.from_matrix(e12)) for g in group_elements(t3)}):
        frontier = [w * s for w in frontier for s in (e12, elem21(Z.one()))]
        for w in frontier:
            lift = w * e12 * w.inverse()
            conjugates.setdefault(t3.from_matrix(lift), lift)
    assert t3.inv(t3.from_matrix(e12)) not in conjugates
    code, err = norm_bfs("3", conjugates.values())
    assert code == 1 and err["error"] == "GeneratorsNotClosed" and "lacks" in err["message"]


def test_norm_table_matches_bfs():
    # the balls S^0, S^1, S^2, ... grown as sets: n(g) is the first radius whose
    # ball holds g, a second computation of the word length
    table = _table(Z, "3")
    e12 = table.from_matrix(elem12(Z.one()))
    gens = conjugation_closure(table, [e12])
    norms = NormTable(table, gens, group_elements(table))
    ball = {table.identity}
    expected = {table.identity: 0}
    for radius in range(1, len(table)):  # S generates the group: radius < |G| suffices
        ball = ball | {table.mul(g, s) for g in ball for s in gens}
        for g in ball:
            expected.setdefault(g, radius)
    assert norms.lengths == expected


def test_norm_table_unreachable_is_inf():
    table = _table(Z, "5")
    minus_i = table.from_matrix(parse_matrix(Z, "[[-1,0],[0,-1]]"))
    norms = NormTable(table, conjugation_closure(table, [minus_i]), group_elements(table))
    assert norms.norm(minus_i) == 1
    assert norms.norm(table.from_matrix(elem12(Z.one()))) == math.inf
    # the certificate holds even with unreachable elements (inf arithmetic)
    certify_word_length(norms)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_axioms_pass_on_primes(p):
    table = _table(Z, str(p))
    e12 = table.from_matrix(elem12(Z.one()))
    gens = conjugation_closure(table, [e12, table.inv(e12)])
    certify_word_length(NormTable(table, gens, group_elements(table)))


@functools.lru_cache(maxsize=None)
def _transvection_closure_tables(ring, modulus):
    """The NormTable of the closure of each transvection E12(x), E21(x) over
    every residue x, one per distinct generating set."""
    table = _table(ring, modulus)
    q = table.quotient
    closures = {
        conjugation_closure(table, [table.transvection(p, q.decode(x))])
        for x in range(q.index)
        for p in ("12", "21")
    }
    return tuple(
        NormTable(table, gens, group_elements(table)) for gens in sorted(closures, key=sorted)
    )


CERTIFIED_CASES = [(Z, str(n)) for n in range(2, 8)] + [(R2, "3")]


@pytest.mark.parametrize("ring,modulus", CERTIFIED_CASES, ids=lambda v: str(v))
def test_certified_tables_pass_the_exhaustive_check(ring, modulus):
    tables = _transvection_closure_tables(ring, modulus)
    assert len(tables) >= 2  # the identity's closure {I}, and some nontrivial one
    for norms in tables:
        certify_word_length(norms)
        assert verdicts_by_exhaustion(norms.group, norms.lengths) == dict.fromkeys(
            ["separation", "symmetry", "subadditivity", "conjugation_invariance"], True
        )


@pytest.mark.parametrize(
    "ring,modulus", CERTIFIED_CASES + [(Z, "11"), (Z, "13")], ids=lambda v: str(v)
)
def test_early_exit_is_exact(ring, modulus):
    """A search stopped at its targets gives each the full table's length: the
    identity, an element of the largest norm, random elements and, over the
    closure of -I, elements it never reaches."""
    table = _table(ring, modulus)
    pick = random.Random(f"early/{ring}/{modulus}")
    minus_i = table.from_matrix(parse_matrix(ring, "[[-1,0],[0,-1]]"))
    central = NormTable(table, conjugation_closure(table, [minus_i]), group_elements(table))
    for full in _transvection_closure_tables(ring, modulus) + (central,):
        deepest = max(full.lengths, key=full.lengths.get)
        drawn = pick.sample(group_elements(table), 3)
        for targets in ([table.identity, deepest, table.generators[0], *drawn], [deepest],
                        drawn[:1]):
            early = NormTable(table, full.generating_set, targets)
            assert [early.norm(t) for t in targets] == [full.norm(t) for t in targets]
    assert central.norm(table.generators[0]) == math.inf


@pytest.mark.parametrize("ring,modulus", [(Z, "13"), (R2, "3")], ids=lambda v: str(v))
def test_a_target_in_the_set_costs_one_step(monkeypatch, ring, modulus):
    table = _table(ring, modulus)
    gens = conjugation_closure(table, [table.generators[0], table.inv(table.generators[0])])
    products = count_calls(monkeypatch, "mul", FiniteGroupTable)
    for s in sorted(gens)[:10]:
        products[0] = 0
        assert NormTable(table, gens, [s]).norm(s) == 1
        assert products[0] <= len(gens)


def _zero_off_identity(norms, pick):
    ident = norms.group.identity
    norms.lengths[pick.choice([g for g in group_elements(norms.group) if g != ident])] = 0


def _raised_by_two(norms, pick):
    ident = norms.group.identity
    finite = sorted(g for g, n in norms.lengths.items() if g != ident and n < math.inf)
    norms.lengths[pick.choice(finite)] += 2


def _generator_dropped(norms, pick):
    norms.generating_set -= {pick.choice(sorted(norms.generating_set))}


@pytest.mark.parametrize("ring,modulus", CERTIFIED_CASES, ids=lambda v: str(v))
@pytest.mark.parametrize(
    "corrupt", [_zero_off_identity, _raised_by_two, _generator_dropped],
    ids=lambda f: f.__name__.strip("_"),
)
def test_corrupted_table_fails_the_certificate(ring, modulus, corrupt):
    pick = random.Random(f"{ring}/{modulus}/{corrupt.__name__}")
    norms = max(_transvection_closure_tables(ring, modulus), key=lambda t: len(t.generating_set))
    for _ in range(8):
        corrupted = copy.copy(norms)
        corrupted.lengths = dict(norms.lengths)
        corrupt(corrupted, pick)
        with pytest.raises(AssertionError):
            certify_word_length(corrupted)


@pytest.mark.parametrize(
    "change", [lambda n: n + 1, lambda n: 0], ids=["every_length_plus_one", "every_length_zero"]
)
def test_uniformly_changed_table_fails_the_certificate(change):
    # every step still moves the length by at most 1: only n(e) = 0 catches the
    # first, and only the missing step down from the other elements the second
    table = _table(Z, "5")
    gens = conjugation_closure(table, [table.from_matrix(elem12(Z.one()))])
    norms = NormTable(table, gens, group_elements(table))
    norms.lengths = {g: change(n) for g, n in norms.lengths.items()}
    with pytest.raises(AssertionError):
        certify_word_length(norms)


def test_certificate_needs_a_symmetric_set():
    # mod 3 the conjugates of E12(1) miss its inverse E12(-1): -1 is not a square,
    # so the set is closed under conjugation and fails symmetry alone
    table = _table(Z, "3")
    e12 = table.from_matrix(elem12(Z.one()))
    with pytest.raises(AssertionError, match="not closed"):
        check_norm_axioms(table, {table.conj(g, e12) for g in group_elements(table)})


def test_scalar_norm_is_conjugation_invariant():
    table = _table(Z, "5")
    e12 = table.from_matrix(elem12(Z.one()))
    gens = conjugation_closure(table, [e12, table.inv(e12)])
    norms = NormTable(table, gens, group_elements(table))
    minus_i = table.from_matrix(parse_matrix(Z, "[[-1,0],[0,-1]]"))
    n = norms.norm(minus_i)
    assert all(norms.norm(table.conj(g, minus_i)) == n for g in group_elements(table))


# ---------------------------------------------------------------------------
# the 4-ball experiment


def _experiment(modulus, samples=50, seed=7, **kw):
    A = elem21(Zh.from_int(3))
    cert = find_unit(Zh.from_int(3))
    return lemma_bound_experiment(
        A, cert, Zh.from_int(modulus), samples, rng=random.Random(seed), **kw
    )


def test_experiment_bound_holds_mod_11():
    report = _experiment(11)
    assert report.nontrivial_count == 50
    assert report.all_within_bound
    assert report.max_norm <= 4
    assert sum(report.histogram.values()) == 50
    assert len(report.samples) == 50
    assert report.group_order == 1320


def test_experiment_degenerate_strict():
    # 64^8 - 1 = 2^48 - 1 is divisible by 5, so the scaled ideal dies mod 5
    with pytest.raises(DegenerateQuotient):
        _experiment(5)


def test_experiment_degenerate_vacuous():
    report = _experiment(5, samples=30, require_nontrivial=False)
    assert report.trivial_count == 30
    assert report.nontrivial_count == 0
    assert report.all_within_bound
    assert report.samples == ()


def test_experiment_unit_corner():
    A = elem21(Zh.from_int(1))
    cert = find_unit(Zh.from_int(1))
    report = lemma_bound_experiment(
        A, cert, Zh.from_int(7), 25, rng=random.Random(3)
    )
    assert report.all_within_bound and report.nontrivial_count == 25


def test_experiment_rejects_mismatched_certificate():
    """The experiment takes a certificate for the matrix corner on trust, as
    every command builds it from that corner; verify derives the certificate
    for the corner and refuses a document that records one for another c."""
    A = elem21(Zh.from_int(1))
    cert = find_unit(Zh.from_int(3))
    report = lemma_bound_experiment(A, cert, Zh.from_int(11), 5, rng=random.Random(0))
    doc = certs.make_document("norm-experiment", Zh, certs.experiment_payload(report, A, cert))
    message = r"^norm-experiment payload\.unit_certificate\.c: recorded '3', recomputed '1'$"
    with pytest.raises(VerificationFailed, match=message):
        certs.verify_document(doc)


@pytest.mark.parametrize(
    "ring,corner,u,modulus",
    [(Zh, 3, Zh.from_int(64), 11), (Zh, 3, Zh.from_int(64), 19), (Zh, 3, Zh.from_int(64), 23),
     (R2, 2, R2.from_pair(17, 12), 5)],
    ids=["Z[1/2]-11", "Z[1/2]-19", "Z[1/2]-23", "Z[sqrt2]-5"],
)
def test_every_sample_is_a_product_of_four_conjugates_mod_n(ring, corner, u, modulus):
    """The paper's reason for the bound 4, per sample: j = (u^8 - 1)*c*r gives
    z = u^4*j/(u^8 - 1) in (c) with (u^4 - u^-4)*z = j, so the witness of
    E12(j), reduced mod N, is four elements of the closure S of A and A^-1."""
    A = elem21(ring.from_int(corner))
    table = FiniteGroupTable(ring.from_int(modulus))
    closure = conjugation_closure(table, [table.from_matrix(A), table.from_matrix(A.inverse())])
    cert = certify_unit(A.c, u, 1)
    report = lemma_bound_experiment(A, cert, ring.from_int(modulus), 10, rng=random.Random(1))
    assert report.nontrivial_count == 10
    u4 = u**4
    for j_text, norm in report.samples:
        j = parse_element(ring, j_text)
        w = lemma2_witness(A, cert, u4 * exact_quotient(j, u4 * u4 - 1))
        images = []
        for f in w.factors:
            g = f.conjugator.evaluate()
            core = A.inverse() if f.core_inverted else A
            images.append(table.from_matrix(g * core * g.inverse()))
        assert all(image in closure for image in images)
        assert functools.reduce(table.mul, images) == table.transvection("12", j)
        assert norm <= 4


def test_experiment_respects_table_cap():
    with pytest.raises(QuotientTooLarge):
        _experiment(101)
