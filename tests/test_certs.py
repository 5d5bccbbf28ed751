"""Certificate documents: build, serialize, and re-verify from JSON alone."""

import copy
import json
import random
import time

import pytest

from sl2units import certs
from sl2units.elemgen import decompose, h_decomposition
from sl2units.errors import AlgebraError, ParseError, VerificationFailed
from sl2units.lemma import find_unit, lemma2_witness
from sl2units.norms import (
    FiniteGroupTable,
    NormTable,
    check_norm_axioms,
    conjugation_closure,
    lemma_bound_experiment,
)
from sl2units.rings import PrincipalIdeal, integers, localized, parse_element, quotient
from sl2units.sl2 import elem12, elem21, parse_matrix

Z = integers()
Zh = localized(2)
Z3 = localized(3)


def _round_trip(doc):
    """Serialize, reload, and re-verify; returns the reloaded document."""
    loaded = json.loads(certs.dumps(doc))
    summary = certs.verify_document(loaded)
    assert summary["ok"] is True
    return loaded


def _many_units_doc():
    cert = find_unit(Zh.from_int(3))
    return certs.make_document("many-units", Zh, certs.many_units_payload(cert))


def _witness_doc():
    w = lemma2_witness(elem21(Zh.from_int(3)), Zh.from_int(64), Zh.from_int(3))
    return certs.make_document("lemma2-witness", Zh, certs.witness_payload(w))


def _decomposition_doc():
    dec = decompose(parse_matrix(Z, "[[2,1],[3,2]]"))
    return certs.make_document("decomposition", Z, certs.decomposition_payload(dec))


def _h_doc():
    u = Zh.from_int(4)
    return certs.make_document(
        "h-decomposition", Zh, certs.decomposition_payload(h_decomposition(u), unit=u)
    )


def _experiment_doc():
    A = elem21(Zh.from_int(3))
    cert = find_unit(Zh.from_int(3))
    report = lemma_bound_experiment(
        A, cert, PrincipalIdeal(Zh.from_int(11)), 15, rng=random.Random(1)
    )
    return certs.make_document(
        "norm-experiment", Zh, certs.experiment_payload(report, A, cert)
    )


def _axiom_doc():
    table = FiniteGroupTable(quotient(PrincipalIdeal(Z.from_int(5))))
    seed = [table.from_matrix(elem12(Z.one()))]
    gens = conjugation_closure(table, seed)
    check_norm_axioms(NormTable(table, gens))
    payload = certs.axiom_report_payload(
        modulus_text="5",
        seed_texts=["[[1,1],[0,1]]"],
        group_order=len(table),
        generator_count=len(gens),
    )
    return certs.make_document("axiom-report", Z, payload)


ALL_BUILDERS = [
    _many_units_doc,
    _witness_doc,
    _decomposition_doc,
    _h_doc,
    _experiment_doc,
    _axiom_doc,
]


@pytest.mark.parametrize("build", ALL_BUILDERS, ids=lambda b: b.__name__.strip("_"))
def test_round_trip(build):
    doc = build()
    assert doc["verified"] is True
    assert doc["tool_version"]
    _round_trip(doc)


def test_dumps_is_stable():
    a = certs.dumps(_witness_doc())
    b = certs.dumps(_witness_doc())
    assert a == b
    assert json.loads(a)  # valid JSON text


def test_unknown_kind_rejected():
    doc = _many_units_doc()
    doc["kind"] = "mystery"
    with pytest.raises(ParseError):
        certs.verify_document(doc)
    with pytest.raises(ValueError):
        certs.make_document("mystery", Zh, {})


def test_malformed_documents_rejected():
    with pytest.raises(ParseError):
        certs.verify_document("not a dict")
    with pytest.raises(ParseError):
        certs.verify_document({"kind": "many-units", "ring": "Z[1/2]", "payload": 3})
    doc = _many_units_doc()
    del doc["payload"]["v"]
    with pytest.raises(ParseError):
        certs.verify_document(doc)
    doc = _many_units_doc()
    doc["ring"] = "Q"
    with pytest.raises(ParseError):
        certs.verify_document(doc)


@pytest.mark.parametrize(
    "build,path,text",
    [
        (_many_units_doc, ("c",), "+3"),
        (_many_units_doc, ("c",), "6/2"),
        (_many_units_doc, ("y",), "6/4"),
        (_many_units_doc, ("y",), "0/5"),
        (_many_units_doc, ("c",), " 3"),
        (_many_units_doc, ("c",), "3 "),
        (_many_units_doc, ("c",), "03"),
        (_witness_doc, ("matrix",), "[[1, 0],[3,1]]"),
        (_witness_doc, ("factors", 0, "conjugator", "factors", 0, "argument"), "+3"),
        (_axiom_doc, ("seed", 0), "[[1,+1],[0,1]]"),
    ],
)
def test_non_canonical_element_text_refused(build, path, text):
    """verify reads only the text str() writes, though the parsers and the
    CLI read each of these values."""
    doc = build()
    certs.verify_document(doc)
    with pytest.raises(ParseError, match="not in canonical form"):
        certs.verify_document(_mutated(doc, path, text))


def test_verified_flag_must_be_true():
    doc = _many_units_doc()
    doc["verified"] = False
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)


def test_tampered_many_units():
    doc = _many_units_doc()
    doc["payload"]["u"] = "32"
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)
    doc = _many_units_doc()
    doc["payload"]["epsilon_generator"] = "255"
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)


def test_tampered_witness():
    doc = _witness_doc()
    doc["payload"]["p"] = "0"
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)
    doc = _witness_doc()
    doc["payload"]["factors"][0]["core"] = "A"
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)
    doc = _witness_doc()
    doc["payload"]["factors"][0]["core"] = "A^2"
    with pytest.raises(ParseError):
        certs.verify_document(doc)
    doc = _witness_doc()
    doc["payload"]["u"] = "3"  # not a unit of Z[1/2]
    with pytest.raises(VerificationFailed, match="recomputing Y failed"):
        certs.verify_document(doc)


def test_tampered_decomposition():
    doc = _decomposition_doc()
    doc["payload"]["length"] = 3
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)
    doc = _decomposition_doc()
    doc["payload"]["matrix"] = "[[1,0],[0,1]]"
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)


def test_tampered_h_decomposition():
    doc = _h_doc()
    doc["payload"]["unit"] = "2"
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)


def test_tampered_experiment():
    doc = _experiment_doc()
    doc["payload"]["samples"][0]["norm"] = 4
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)
    doc = _experiment_doc()
    doc["payload"]["samples"][0]["j"] = "1"  # outside the scaled ideal
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)
    doc = _experiment_doc()
    doc["payload"]["group_order"] = 6
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)


def test_tampered_axiom_report():
    doc = _axiom_doc()
    doc["payload"]["axioms"]["separation"]["passed"] = False
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)
    doc = _axiom_doc()
    doc["payload"]["all_passed"] = False
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)


# ---------------------------------------------------------------------------
# malformed payloads: every outcome is a verdict or a domain error


def _small_experiment_doc():
    """A norm experiment mod 7, whose closure is cheap enough to re-verify
    for every mutant (mod 5 and 3 absorb every epsilon ideal: u^8 = 1 there)."""
    A = elem21(Z3.from_int(2))
    cert = find_unit(Z3.from_int(2))
    report = lemma_bound_experiment(
        A, cert, PrincipalIdeal(Z3.from_int(7)), 3, rng=random.Random(1)
    )
    return certs.make_document(
        "norm-experiment", Z3, certs.experiment_payload(report, A, cert)
    )


# the largest integer a JSON number may carry under the default int <-> str limit
BIG = 10**4300 - 1
MUTANTS = [
    5, None, "x", [], {}, True,
    "7" * 100_000, BIG, -BIG, "3/2^4", "1/" + "3" * 4300,
]
DELETE = object()


def _key_paths(node, path=()):
    """Every key path of a payload, descending into objects and into the
    first entry of each list (factors[0], samples[0], word factors, ...)."""
    if isinstance(node, list) and node:
        yield from _key_paths(node[0], path + (0,))
    elif isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc["payload"]
    for step in path[:-1]:
        parent = parent[step]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _change(value):
    if value is DELETE:
        return "deleted"
    text = repr(value)
    return f"= {text:.40}" + (f"... ({len(text)} chars)" if len(text) > 40 else "")


FUZZ_BUILDERS = [
    _many_units_doc,
    _witness_doc,
    _decomposition_doc,
    _h_doc,
    _small_experiment_doc,
    _axiom_doc,
]


@pytest.mark.parametrize("build", FUZZ_BUILDERS, ids=lambda b: b.__name__.strip("_"))
def test_mutated_payload_is_verdict_or_domain_error(build):
    doc = build()
    certs.verify_document(json.loads(certs.dumps(doc)))
    paths = list(_key_paths(doc["payload"]))
    assert len(paths) >= len(doc["payload"])
    escaped = []
    for path in paths:
        for value in [DELETE] + MUTANTS:
            mutant = _mutated(doc, path, value)
            start = time.perf_counter()
            try:
                certs.verify_document(mutant)
            except AlgebraError:
                pass
            except Exception as exc:  # the defect this test exists to catch
                escaped.append(f"{path} {_change(value)}: {type(exc).__name__}: {exc}")
            else:
                if value is DELETE:  # every field is read, so none may go missing
                    escaped.append(f"{path} deleted: accepted")
            elapsed = time.perf_counter() - start
            if elapsed >= 1.0:
                escaped.append(f"{path} {_change(value)}: took {elapsed:.2f} s")
    assert not escaped, "\n".join(escaped)


@pytest.mark.parametrize("c,k", [("3", 10**11), (str(3**40), 10**30)])
def test_huge_exponent_rejected_before_the_power(c, k):
    doc = _many_units_doc()
    doc["payload"].update(c=c, k=k)
    start = time.perf_counter()
    with pytest.raises(VerificationFailed, match="u is not 2"):
        certs.verify_document(doc)
    assert time.perf_counter() - start < 1.0


def test_power_denominator_in_a_document_refused_before_the_power():
    doc = _many_units_doc()
    doc["payload"]["u"] = "1/2^100000"
    start = time.perf_counter()
    with pytest.raises(ParseError, match="cannot parse"):
        certs.verify_document(doc)
    assert time.perf_counter() - start < 1.0


def test_localization_by_a_large_parameter_answered_at_once():
    doc = _many_units_doc()
    doc["ring"] = "Z[1/100000000000000003]"
    start = time.perf_counter()
    with pytest.raises(VerificationFailed, match="base 2 is not a unit"):
        certs.verify_document(doc)
    assert time.perf_counter() - start < 1.0
