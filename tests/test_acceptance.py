"""Acceptance suite: seven end-to-end checks, one printed pass/fail line each.

Every expected value here is exact; there are no tolerances anywhere.  Each
test computes its verdict, prints a single summary line that survives output
capture, and only then asserts.
"""

import json
import random
import time

import pytest

from sl2units.cli import run as cli_run
from sl2units.elemgen import decompose, h_decomposition
from sl2units.errors import DegenerateQuotient
from sl2units.lemma import find_unit, lemma2_witness, verify_certificate
from sl2units.norms import (
    FiniteGroupTable,
    NormTable,
    conjugation_closure,
    lemma_bound_experiment,
)
from sl2units.rings import (
    exact_quotient,
    in_ideal,
    infinite_order_unit,
    integers,
    localized,
    quadratic,
    random_element,
)
from sl2units.sl2 import diag, elem12, elem21, identity
from tests.conftest import (
    certify_word_length,
    group_elements,
    random_nonzero_nonunit,
    random_witness_matrix,
    reduces_to_identity,
    verdicts_by_exhaustion,
)

Z = integers()
Zh = localized(2)
SUITE_RINGS = [localized(2), localized(3), localized(6), quadratic(2)]


@pytest.fixture
def announce(capsys):
    def _announce(n, ok, detail):
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: {verdict} — {detail}", flush=True)

    return _announce


def test_criterion_1_witness_suite(announce):
    """Four-factor witnesses over four rings, 100 randomized cases each."""
    rng = random.Random(101)
    t0 = time.monotonic()
    checked = 0
    ok = True
    detail = ""
    for ring in SUITE_RINGS:
        for _ in range(100):
            A = random_witness_matrix(ring, rng)
            c = A.c
            cert = find_unit(c)
            u = cert.u
            z = c * random_element(ring, rng, 100)  # multiplier height <= 10^2
            w = lemma2_witness(A, cert, z)
            # recompute the product of the four conjugate factors from scratch
            product = identity(ring)
            for f in w.factors:
                g = f.conjugator.evaluate()
                product = product * g * (A.inverse() if f.core_inverted else A) * g.inverse()
            u4 = u**4
            case_ok = (
                product == elem12((u4 - u4.inverse()) * z)
                and product == w.target
                and in_ideal(w.t, c)
                and in_ideal(w.q, c)
                and all(
                    reduces_to_identity(f.conjugator.evaluate(), c)
                    for f in w.factors
                )
            )
            checked += 1
            if not case_ok:
                ok = False
                detail = f"case {checked} over {ring.name} failed"
                break
        if not ok:
            break
    elapsed = time.monotonic() - t0
    if ok:
        ok = checked == 400 and elapsed < 60
        detail = f"{checked} witnesses exact over 4 rings in {elapsed:.1f}s"
    announce(1, ok, detail)
    assert ok, detail


def test_criterion_2_find_unit_suite(announce):
    """Certified units: c^2 | u - 1, u^8 != 1, k matches a brute-forced order."""
    rng = random.Random(202)
    checked = 0
    ok = True
    detail = ""
    anchor = find_unit(Zh.from_int(3))
    if anchor.u != 64:
        ok, detail = False, f"anchor expected u = 64, got {anchor.u}"
    for ring in SUITE_RINGS if ok else []:
        for _ in range(50):
            c = random_nonzero_nonunit(ring, rng, size_cap=30)
            cert = find_unit(c)
            c2 = c * c
            case_ok = (
                verify_certificate(c, cert.v, cert.u, cert.k) == cert
                and exact_quotient(cert.u - 1, c2) == cert.y and cert.u**8 != 1
            )
            # independent brute force: k is the least exponent that works
            w = ring.one()
            for j in range(1, cert.k):
                w = w * cert.v
                if exact_quotient(w - 1, c2) is not None:
                    case_ok = False
                    break
            if case_ok and exact_quotient(w * cert.v - 1, c2) is None:
                case_ok = False
            checked += 1
            if not case_ok:
                ok = False
                detail = f"certificate for c = {c} over {ring.name} failed"
                break
        if not ok:
            break
    if ok:
        ok = checked == 200
        detail = f"{checked} certificates verified, k minimal by brute force, anchor u = 64"
    announce(2, ok, detail)
    assert ok, detail


def test_criterion_3_h_decomposition(announce):
    """Six-factor diagonal decompositions for 50 random units per ring."""
    rng = random.Random(303)
    all_rings = [Z, localized(2), localized(3), localized(6), quadratic(2), quadratic(3)]
    checked = 0
    ok = True
    detail = ""
    for ring in all_rings:
        units = [ring.one(), -ring.one()]  # the degenerate cases, always included
        if ring.kind == "integers":
            units = units * 25
        else:
            base = infinite_order_unit(ring)
            while len(units) < 50:
                e = rng.randint(-8, 8)
                w = base**e
                units.append(w if rng.random() < 0.5 else -w)
        for u in units[:50]:
            dec = h_decomposition(u)
            if dec.length != 6 or dec.word.evaluate() != diag(u):
                ok = False
                detail = f"h({u}) over {ring.name} failed"
                break
            checked += 1
        if not ok:
            break
    if ok:
        ok = checked == 300
        detail = f"{checked} diagonal units decomposed exactly, including u = 1 and u = -1"
    announce(3, ok, detail)
    assert ok, detail


def test_criterion_4_decompose_round_trip(announce):
    """decompose inverts random elementary products over Z and Z[1/2]."""
    rng = random.Random(404)
    ok = True
    detail = ""
    checked = 0

    def sample(ring, arg):
        m = identity(ring)
        for _ in range(rng.randint(1, 8)):
            x = arg()
            m = m * (elem12(x) if rng.random() < 0.5 else elem21(x))
        return m

    for _ in range(100):
        m = sample(Z, lambda: Z.from_int(rng.randint(-5, 5)))
        if decompose(m).word.evaluate() != m:
            ok, detail = False, f"round trip failed over Z for {m}"
            break
        checked += 1
    if ok:
        for _ in range(100):
            m = sample(
                Zh,
                lambda: Zh.from_fraction(rng.randint(-5, 5), 2 ** rng.randint(0, 4)),
            )
            if decompose(m).word.evaluate() != m:
                ok, detail = False, f"round trip failed over Z[1/2] for {m}"
                break
            checked += 1
    if ok:
        ok = checked == 200
        detail = f"{checked} elementary products recovered exactly"
    announce(4, ok, detail)
    assert ok, detail


def test_criterion_5_norm_axioms(announce):
    """BFS word norms satisfy all four axioms exhaustively for N in {2,3,5,7}."""
    ok = True
    detail = ""
    for n in (2, 3, 5, 7):
        table = FiniteGroupTable(Z.from_int(n))
        if len(table) != n * (n * n - 1):  # the prime order formula
            ok, detail = False, f"order formula failed for N = {n}"
            break
        seed = table.from_matrix(elem12(Z.one()))
        gens = conjugation_closure(table, [seed, table.inv(seed)])
        norms = NormTable(table, gens, group_elements(table))
        try:
            certify_word_length(norms)
        except AssertionError as exc:
            ok, detail = False, f"the word-length certificate failed for N = {n}: {exc}"
            break
        verdicts = verdicts_by_exhaustion(table, norms.lengths)
        if not all(verdicts.values()):
            failed = [name for name, passed in verdicts.items() if not passed]
            ok, detail = False, f"axioms {failed} failed for N = {n}"
            break
    if ok:
        detail = "all four axioms hold exhaustively for N in {2, 3, 5, 7}; orders 6, 24, 120, 336"
    announce(5, ok, detail)
    assert ok, detail


def test_criterion_6_four_ball_bound(announce):
    """Reductions of the witness identity stay in the 4-ball of the conjugates.

    Mod 11 the scaled ideal has nontrivial images and all 50 samples must land
    in the 4-ball.  Mod 5 and mod 7 every image is trivial (both 5 and 7
    divide 64^8 - 1), so insisting on nontrivial samples raises
    DegenerateQuotient and the bound holds vacuously; the vacuous runs are
    still executed and checked.
    """
    t0 = time.monotonic()
    A = elem21(Zh.from_int(3))
    cert = find_unit(Zh.from_int(3))
    ok = True
    detail = ""

    report11 = lemma_bound_experiment(
        A, cert, Zh.from_int(11), 50, rng=random.Random(606)
    )
    if not (
        report11.nontrivial_count == 50
        and report11.all_within_bound
        and all(norm <= 4 for _, norm in report11.samples)
    ):
        ok, detail = False, f"mod 11 bound failed: histogram {report11.histogram}"

    vacuous = {}
    for n in (5, 7):
        if not ok:
            break
        try:
            lemma_bound_experiment(
                A, cert, Zh.from_int(n), 50, rng=random.Random(606)
            )
            ok, detail = False, f"expected every image to be trivial mod {n}"
        except DegenerateQuotient:
            rep = lemma_bound_experiment(
                A,
                cert,
                Zh.from_int(n),
                50,
                rng=random.Random(606),
                require_nontrivial=False,
            )
            if not (rep.nontrivial_count == 0 and rep.all_within_bound):
                ok, detail = False, f"vacuous run mod {n} inconsistent"
            vacuous[n] = rep.trivial_count
    elapsed = time.monotonic() - t0
    if ok:
        ok = elapsed < 30
        detail = (
            f"mod 11: 50/50 nontrivial images in the 4-ball (max {report11.max_norm}); "
            f"mod 5 and 7: all images trivial, bound vacuous; {elapsed:.1f}s"
        )
    announce(6, ok, detail)
    assert ok, detail


def test_criterion_7_certificate_round_trip(announce, tmp_path, capsys):
    """Every emitted certificate kind re-verifies from its JSON alone."""
    emitters = [
        ["unit", "find", "--ring", "Z[1/2]", "--c", "3"],
        ["lemma", "witness", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]", "--z", "3"],
        ["lemma", "witness", "--ring", "Z[sqrt2]", "--A", "[[1,0],[3,1]]",
         "--z", "3+3*sqrt(2)", "--elementary"],
        ["h-decompose", "--ring", "Z[1/2]", "--u", "1/8"],
        ["decompose", "--ring", "Z", "--A", "[[2,1],[3,2]]"],
        ["norm", "lemma-bound", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]",
         "--u", "64", "--modulus", "11", "--samples", "25", "--seed", "1"],
        ["norm", "axioms", "--ring", "Z", "--modulus", "5", "--gen", "[[1,1],[0,1]]"],
    ]
    total = 0
    reverified = 0
    kinds = set()
    for i, argv in enumerate(emitters):
        code = cli_run(argv)
        out = capsys.readouterr().out
        if code != 0:
            continue
        total += 1
        doc = json.loads(out)
        kinds.add(doc["kind"])
        path = tmp_path / f"cert{i}.json"
        path.write_text(out)
        if cli_run(["verify", str(path)]) == 0:
            reverified += 1
        capsys.readouterr()
    ok = total == len(emitters) and reverified == total and len(kinds) == 6
    detail = f"{reverified}/{total} certificates re-verified across {len(kinds)} kinds"
    announce(7, ok, detail)
    assert ok, detail
