"""Certificate documents: build, serialize, and re-verify from JSON alone."""

import copy
import io
import json
import random
import time

import pytest

from sl2units import certs, lemma
from sl2units.cli import run
from sl2units.elemgen import decompose, h_decomposition
from sl2units.errors import (
    AlgebraError,
    DocumentTooLarge,
    NonUnit,
    ParseError,
    UnitCongruenceViolated,
    VerificationFailed,
    ZeroIdeal,
    ZNotInIdeal,
)
from sl2units.lemma import certify_unit, find_unit, lemma2_witness
from sl2units.norms import FiniteGroupTable, lemma_bound_experiment
from sl2units.rings import (
    DENOMINATOR_BOUND,
    DIGIT_BOUND,
    _int_text,
    integers,
    localized,
    parse_element,
    random_element,
)
from sl2units.sl2 import GroupWord, elem12, elem21, parse_matrix
from tests import bounded
from tests.conftest import WITNESS_RINGS, count_calls, random_witness_matrix
from tests.test_hostile import VERIFY, check

Z = integers()
Zh = localized(2)
Z3 = localized(3)


def _dumps(doc):
    """The document as the CLI prints it."""
    return json.dumps(doc, sort_keys=True, indent=2)


def _round_trip(doc):
    """Serialize, reload, and re-verify; returns the reloaded document."""
    loaded = json.loads(_dumps(doc))
    summary = certs.verify_document(loaded)
    assert summary["ok"] is True
    return loaded


def _many_units_doc():
    cert = find_unit(Zh.from_int(3))
    return certs.make_document("many-units", Zh, certs.many_units_payload(cert))


def _witness_doc(elementary=False):
    c = Zh.from_int(3)
    w = lemma2_witness(elem21(c), certify_unit(c, Zh.from_int(64), 1), c, elementary)
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
        A, cert, Zh.from_int(11), 15, rng=random.Random(1)
    )
    return certs.make_document(
        "norm-experiment", Zh, certs.experiment_payload(report, A, cert)
    )


def _axiom_doc():
    payload = certs.axiom_report_payload(FiniteGroupTable(Z.from_int(5)), [elem12(Z.one())])
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
    a = _dumps(_witness_doc())
    b = _dumps(_witness_doc())
    assert a == b
    assert json.loads(a)  # valid JSON text


def test_unknown_kind_rejected():
    doc = _many_units_doc()
    doc["kind"] = "mystery"
    with pytest.raises(ParseError):
        certs.verify_document(doc)


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
    for flag in ("false", "true", 1, 0, None, [True]):
        doc["verified"] = flag
        with pytest.raises(ParseError, match="field 'verified' must be bool"):
            certs.verify_document(doc)
    del doc["verified"]
    with pytest.raises(ParseError, match="field 'verified' must be bool"):
        certs.verify_document(doc)


def _set_u(doc, text):
    doc["payload"]["u"] = text


def _set_conjugator_argument(doc, text):
    doc["payload"]["factors"][0]["conjugator"]["factors"][0]["argument"] = text


@pytest.mark.parametrize(
    "build,place,at_bound,past_bound,bound",
    [(_many_units_doc, _set_u, "1" * DIGIT_BOUND, "1" * (DIGIT_BOUND + 1), DIGIT_BOUND),
     # 2^14284 has 4,300 digits and 2^14285 has 4,301
     (_witness_doc, _set_conjugator_argument, "-3/" + _int_text(2**14_284),
      "-3/" + _int_text(2**14_285), DENOMINATOR_BOUND)],
    ids=["integer", "denominator"],
)
def test_make_document_refuses_what_verify_cannot_read(build, place, at_bound, past_bound, bound):
    """An emitter may write an integer of the ring up to the bound verify
    reads, and no longer."""
    assert len(at_bound.split("/")[-1]) == bound and len(past_bound.split("/")[-1]) == bound + 1
    doc = build()
    place(doc, at_bound)
    assert certs.make_document(doc["kind"], Zh, doc["payload"])["payload"] is doc["payload"]
    place(doc, past_bound)
    with pytest.raises(DocumentTooLarge, match=f"{bound + 1} digits exceeds the bound of {bound}$"):
        certs.make_document(doc["kind"], Zh, doc["payload"])


# kind -> (the test builder, the command line) of a document of that kind
WRITERS = {
    "many-units": (_many_units_doc, ["unit", "find", "--ring", "Z[1/2]", "--c", "3"]),
    "lemma2-witness": (_witness_doc, ["lemma", "witness", "--ring", "Z[1/2]",
                                      "--A", "[[1,0],[3,1]]", "--z", "3"]),
    "decomposition": (_decomposition_doc, ["decompose", "--ring", "Z", "--A", "[[2,1],[3,2]]"]),
    "h-decomposition": (_h_doc, ["h-decompose", "--ring", "Z[sqrt2]", "--u", "1+sqrt(2)"]),
    "norm-experiment": (_experiment_doc, ["norm", "lemma-bound", "--ring", "Z[1/2]",
                                          "--A", "[[1,0],[3,1]]", "--u", "64",
                                          "--modulus", "11", "--samples", "3"]),
    "axiom-report": (_axiom_doc, ["norm", "axioms", "--ring", "Z", "--modulus", "5",
                                  "--gen", "[[1,1],[0,1]]"]),
}


def _differing_keys(schema, value, where="payload"):
    """Each object of value whose keys are not those of its schema."""
    if isinstance(schema, list):
        return [d for i, v in enumerate(value) for d in _differing_keys(schema[0], v, f"{where}[{i}]")]
    if not isinstance(schema, dict):
        return []
    if "*" in schema:
        schema = dict.fromkeys(value, schema["*"])
    differing = [] if set(value) == set(schema) else [f"{where}: {sorted(set(value) ^ set(schema))}"]
    for key in schema.keys() & value.keys():
        differing += _differing_keys(schema[key], value[key], f"{where}.{key}")
    return differing


@pytest.mark.parametrize("kind", sorted(certs.SCHEMAS))
def test_schema_covers_every_writer(capsys, kind):
    """Every field a writer writes is one that verify reads, and none is missing."""
    build, argv = WRITERS[kind]
    assert run(argv) == 0
    for doc in (build(), json.loads(capsys.readouterr().out)):
        assert doc["kind"] == kind
        assert _differing_keys(certs.SCHEMAS[kind], doc["payload"]) == []


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
    message = "lemma2-witness payload.factors[0].core: recorded 'A^2', recomputed 'A^-1'"
    with pytest.raises(VerificationFailed) as refused:
        certs.verify_document(doc)
    assert str(refused.value) == message
    doc = _witness_doc()
    doc["payload"]["u"] = "3"  # not a unit of Z[1/2]
    with pytest.raises(NonUnit, match=r"^3 is not a unit of Z\[1/2\]$"):
        certs.verify_document(doc)


def test_tampered_decomposition():
    doc = _decomposition_doc()
    doc["payload"]["length"] = 3
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)
    doc = _decomposition_doc()
    doc["payload"]["matrix"] = "[[1,0],[0,1]]"
    with pytest.raises(VerificationFailed, match="^word does not evaluate to the decomposed matrix$"):
        certs.verify_document(doc)


@pytest.mark.parametrize("command, emits, verifies", [
    ("decompose --ring Z --A [[2,1],[3,2]]", 0, 1),
    ("h-decompose --ring Z[1/2] --u 4", 0, 0),
    ("lemma witness --ring Z[1/2] --A [[1,0],[3,1]] --z 3 --elementary", 4, 4),
    ("lemma witness --ring Z[1/2] --A [[1,0],[3,1]] --z 3", 4, 4),
], ids=["decompose", "h-decompose", "elementary-witness", "plain-witness"])
def test_a_word_is_evaluated_only_where_it_is_checked(monkeypatch, capsys, command, emits, verifies):
    """The emitters build their decomposition words unevaluated, and verify
    multiplies out only a decomposition's recorded word; a witness's four
    conjugators are evaluated by its product check, once on each side."""
    calls = count_calls(monkeypatch, "evaluate", GroupWord)
    assert run(command.split()) == 0
    assert calls[0] == emits
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert run(["verify", "-"]) == 0
    assert calls[0] == emits + verifies


def test_tampered_h_decomposition():
    doc = _h_doc()
    doc["payload"]["unit"] = "2"
    with pytest.raises(VerificationFailed):
        certs.verify_document(doc)


def test_h_decomposition_of_another_word_refused():
    """E12(1) E12(-1) appended leaves the product diag(u): verify accepts only
    the word that h-decompose writes."""
    doc = _h_doc()
    doc["payload"]["word"]["factors"] += [
        {"kind": "elem", "position": "12", "argument": text} for text in ("1", "-1")
    ]
    with pytest.raises(VerificationFailed, match=r"^h-decomposition payload\.word\.factors: "):
        certs.verify_document(doc)


# ---------------------------------------------------------------------------
# a witness verifies only as the words its construction builds, plain when a
# recorded conjugator has a diag letter and elementary otherwise


@pytest.mark.parametrize("ring", WITNESS_RINGS, ids=str)
def test_plain_and_elementary_witnesses_verify(ring):
    rng = random.Random(36)
    for elementary in (False, True):
        A = random_witness_matrix(ring, rng)
        z = A.c * random_element(ring, rng, 5)
        w = lemma2_witness(A, find_unit(A.c), z, elementary)
        doc = _round_trip(certs.make_document("lemma2-witness", ring, certs.witness_payload(w)))
        kinds = {letter["kind"] for factor in doc["payload"]["factors"]
                 for letter in factor["conjugator"]["factors"]}
        assert kinds == ({"elem"} if elementary else {"elem", "diag"})


def test_plain_witness_with_an_expanded_conjugator_refused():
    """The six letters of diag(u^2) multiply to it, so the product still meets
    the target; a plain document must carry the plain word."""
    doc = _witness_doc()
    doc["payload"]["factors"][1] = _witness_doc(elementary=True)["payload"]["factors"][1]
    with pytest.raises(VerificationFailed) as refused:
        certs.verify_document(doc)
    assert str(refused.value) == (
        "lemma2-witness payload.factors[1].conjugator.factors: recorded [{'kind': 'elem', "
        "'position': '12', 'arg, recomputed [{'kind': 'diag', 'unit': '4096'}]"
    )


def test_elementary_witness_with_a_diag_letter_refused():
    """One diag letter makes the document plain, and the plain words differ."""
    doc = _witness_doc(elementary=True)
    doc["payload"]["factors"][1]["conjugator"]["factors"][0] = {"kind": "diag", "unit": "4096"}
    with pytest.raises(VerificationFailed) as refused:
        certs.verify_document(doc)
    assert str(refused.value) == (
        "lemma2-witness payload.factors[1].conjugator.factors: recorded [{'kind': 'diag', "
        "'unit': '4096'}, {'kin, recomputed [{'kind': 'diag', 'unit': '4096'}]"
    )


@pytest.mark.parametrize("elementary", [False, True], ids=["plain", "elementary"])
def test_verify_rebuilds_a_witness_and_evaluates_no_recorded_word(monkeypatch, elementary):
    calls = {"compute_Y": 0, "_checked_witness": 0}
    built, recorded, evaluated = [], [], []

    def counted(name):
        real = getattr(lemma, name)

        def wrapper(*args):
            calls[name] += 1
            built.append(real(*args))
            return built[-1]

        return wrapper

    (real_read, write), real_evaluate = certs._READERS["word"], GroupWord.evaluate

    def reading(ring, data):
        recorded.append(real_read(ring, data))
        return recorded[-1]

    def noting(word):
        evaluated.append(word)
        return real_evaluate(word)

    doc = _witness_doc(elementary)
    for name in calls:
        monkeypatch.setattr(lemma, name, counted(name))
    monkeypatch.setitem(certs._READERS, "word", (reading, write))
    monkeypatch.setattr(GroupWord, "evaluate", noting)
    certs.verify_document(doc)
    assert calls == {"compute_Y": 1, "_checked_witness": 1} and len(recorded) == 4
    assert not any(word is r for word in evaluated for r in recorded)
    # each conjugator that the construction built is evaluated, by the product check
    assert all(any(f.conjugator is word for word in evaluated) for f in built[-1].factors)


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


@pytest.mark.parametrize("trivial,accepted", [(785, True), (786, False)])
def test_strict_trivial_count_bounded_by_the_draw_budget(trivial, accepted):
    """The draws are not recorded, so a strict run's trivial_count is checked
    only against the 800 draws that 15 samples allow, not recomputed."""
    doc = _experiment_doc()
    assert doc["payload"]["requested"] == doc["payload"]["nontrivial_count"] == 15
    doc["payload"]["trivial_count"] = trivial
    if accepted:
        assert certs.verify_document(doc)["ok"] is True
    else:
        with pytest.raises(VerificationFailed, match="exceeds 785"):
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


# (builder, key path, tampered value): one per field that the emitter's own
# writers derive or fix, each value other than the written one
DERIVED_FIELD_CASES = [
    (_many_units_doc, ("u",), "65"),  # 2^6 = 64, and 65 passes both height bounds of k = 6
    (_many_units_doc, ("y",), "8"),
    (_many_units_doc, ("epsilon_generator",), "1"),
    (_many_units_doc, ("check_u8",), False),
    (_witness_doc, ("sign_convention",), "p = q + z"),
    (_witness_doc, ("t",), "3"),
    (_witness_doc, ("q",), "3"),
    (_witness_doc, ("p",), "3"),
    (_witness_doc, ("Y",), "[[1,0],[0,1]]"),
    (_witness_doc, ("target",), "[[1,0],[0,1]]"),
    (_decomposition_doc, ("length",), 99),
    (_h_doc, ("matrix",), "[[1,0],[0,1]]"),
    (_h_doc, ("word", "factors", 0, "argument"), "5"),
    (_experiment_doc, ("unit_certificate", "c"), "1"),  # the matrix corner is 3
    (_experiment_doc, ("quotient_index",), 0),
    (_experiment_doc, ("group_order",), 0),
    (_experiment_doc, ("generator_count",), 0),
    (_experiment_doc, ("nontrivial_count",), 0),
    (_experiment_doc, ("histogram",), {}),
    (_experiment_doc, ("max_norm",), 4),
    (_experiment_doc, ("bound",), 0),
    (_experiment_doc, ("bound",), 1_000_000),
    (_experiment_doc, ("all_within_bound",), False),
    (_experiment_doc, ("samples", 0, "norm"), "inf"),
    (_axiom_doc, ("all_passed",), False),
    (_axiom_doc, ("axioms", "symmetry", "passed"), False),
    (_axiom_doc, ("axioms", "separation", "counterexample"), "[[1,0],[0,1]]"),
]


def _dotted(path):
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)


@pytest.mark.parametrize(
    "build,path,value",
    DERIVED_FIELD_CASES,
    ids=[f"{b.__name__.strip('_')}{_dotted(path)}" for b, path, _ in DERIVED_FIELD_CASES],
)
def test_tampered_derived_field_exit_1(capsys, tmp_path, build, path, value):
    """verify re-derives the payload with the emitter's code and names the
    first field where the recorded one differs: a bound other than 4 too."""
    doc = build()
    file = tmp_path / "doc.json"
    file.write_text(_dumps(_mutated(doc, path, value)))
    assert run(["verify", str(file)]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "VerificationFailed"
    assert err["message"].startswith(f"{doc['kind']} payload{_dotted(path)}: recorded {value!r}, ")


@pytest.mark.parametrize("kind", ["axiom-report", "norm-experiment"])
def test_wrong_group_order_refused_before_the_closure(kind):
    check(VERIFY[kind]["mod-97-wrong-group-order"])


# ---------------------------------------------------------------------------
# one tampered field per check, refused with that check's own class and message,
# the derivation's own where the derivation makes the check: where a later check
# would refuse the document too, it would say something else.  A witness's
# factors are checked by the comparison with the words its construction builds


def _witness_doc_of_a_matrix_not_I_mod_c():
    """A witness for A = [[2,1],[3,2]], which is not congruent to I mod c = 3."""
    c = Zh.from_int(3)
    w = lemma2_witness(parse_matrix(Zh, "[[2,1],[3,2]]"), certify_unit(c, Zh.from_int(64), 1), c)
    return certs.make_document("lemma2-witness", Zh, certs.witness_payload(w))


def _k_is_true(payload):
    payload["k"] = True
    return "many-units payload: field 'k' must be int, not True"


def _c_is_zero(payload):
    payload["c"] = "0"
    return "cannot certify a unit for c = 0"


def _c_breaks_the_congruence(payload):
    """c = 5 passes every bound of k, and certify_unit finds 25 does not divide 2^6 - 1."""
    payload["c"] = "5"
    return "u - 1 = 63 is not divisible by c^2 = 25"


def _sample_with_trivial_image(payload):
    """A multiple of the epsilon generator by the modulus 11: E12(j) reduces to I."""
    j = parse_element(Zh, payload["unit_certificate"]["epsilon_generator"]) * 11
    payload["samples"][0]["j"] = str(j)
    return f"sampled {j} has trivial image, not a valid sample"


def _requested_matches_neither_count(payload):
    payload["requested"] = 999
    return "requested 999 matches neither count of samples"


def _trivial_count_beyond_the_budget(payload):
    """The experiment's 15 samples allow 40*15 + 200 = 800 draws, 785 of them trivial."""
    payload["trivial_count"] = 1000000
    return "trivial_count 1000000 exceeds 785: a strict run of 15 samples makes at most 800 draws"


def _zero_corner(payload):
    payload["matrix"] = "[[1,0],[0,1]]"
    return "cannot certify a unit for c = 0"


def _z_outside_the_ideal(payload):
    payload["z"] = "1"
    return "1 is not in (3)"


def _two_more_factors(payload):
    """I*A*I and I*A^-1*I: the product of all six factors still meets the target,
    and the comparison with the construction's four factors refuses them."""
    payload["factors"] += [{"conjugator": {"factors": []}, "core": core} for core in ("A", "A^-1")]
    return ("lemma2-witness payload.factors: recorded [{'conjugator': {'factors': [{'kind': 'e, "
            "recomputed [{'conjugator': {'factors': [{'kind': 'e")


def _conjugator_times_A(payload):
    """g*A conjugates A as g does, so the product still meets the target, and
    the comparison with the construction's words refuses the longer word."""
    of_A = certs.decomposition_payload(decompose(parse_matrix(Zh, payload["matrix"])))
    payload["factors"][1]["conjugator"]["factors"] += of_A["word"]["factors"]
    return ("lemma2-witness payload.factors[1].conjugator.factors: recorded [{'kind': 'diag', "
            "'unit': '4096'}, {'kin, recomputed [{'kind': 'diag', 'unit': '4096'}]")


OWN_CHECK_CASES = [
    (_many_units_doc, _k_is_true, ParseError),
    (_many_units_doc, _c_is_zero, ZeroIdeal),
    (_many_units_doc, _c_breaks_the_congruence, UnitCongruenceViolated),
    (_experiment_doc, _sample_with_trivial_image, VerificationFailed),
    (_experiment_doc, _requested_matches_neither_count, VerificationFailed),
    (_experiment_doc, _trivial_count_beyond_the_budget, VerificationFailed),
    (_witness_doc, _zero_corner, ZeroIdeal),
    (_witness_doc, _z_outside_the_ideal, ZNotInIdeal),
    (_witness_doc, _two_more_factors, VerificationFailed),
    (_witness_doc_of_a_matrix_not_I_mod_c, _conjugator_times_A, VerificationFailed),
]


@pytest.mark.parametrize(
    "build,tamper,error",
    OWN_CHECK_CASES,
    ids=[tamper.__name__.strip("_") for _, tamper, _ in OWN_CHECK_CASES],
)
def test_tampered_field_refused_by_its_own_check(build, tamper, error):
    doc = build()
    certs.verify_document(doc)
    message = tamper(doc["payload"])
    with pytest.raises(error) as refused:
        certs.verify_document(doc)
    assert str(refused.value) == message


# ---------------------------------------------------------------------------
# malformed payloads: every outcome is a verdict or a domain error


def _small_experiment_doc():
    """A norm experiment mod 7, whose closure is cheap enough to re-verify
    for every mutant (mod 5 and 3 absorb every epsilon ideal: u^8 = 1 there)."""
    A = elem21(Z3.from_int(2))
    cert = find_unit(Z3.from_int(2))
    report = lemma_bound_experiment(
        A, cert, Z3.from_int(7), 3, rng=random.Random(1)
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
UNLISTED = "unlisted"


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


def _escapes(build) -> list:
    """Each mutant of build's document that verify accepts though it lacks or
    adds a field, that raises other than a domain error, or that takes 1 s."""
    doc = build()
    certs.verify_document(json.loads(_dumps(doc)))
    paths = list(_key_paths(doc["payload"]))
    assert len(paths) >= len(doc["payload"])
    mutations = [(path, value) for path in paths for value in [DELETE] + MUTANTS]
    # a key that no schema lists, added to each object the walk reaches
    mutations += [(parent + (UNLISTED,), 0) for parent in dict.fromkeys(p[:-1] for p in paths)]
    escaped = []
    for path, value in mutations:
        mutant = _mutated(doc, path, value)
        start = time.perf_counter()
        try:
            certs.verify_document(mutant)
        except AlgebraError:
            pass
        except Exception as exc:  # the defect this test exists to catch
            escaped.append(f"{path} {_change(value)}: {type(exc).__name__}: {exc}")
        else:
            # every field is read, so none may go missing, and none may be added
            if value is DELETE or path[-1] == UNLISTED:
                escaped.append(f"{path} {_change(value)}: accepted")
        elapsed = time.perf_counter() - start
        if elapsed >= 1.0:
            escaped.append(f"{path} {_change(value)}: took {elapsed:.2f} s")
    return escaped


@pytest.mark.parametrize("build", FUZZ_BUILDERS, ids=lambda b: b.__name__.strip("_"))
def test_mutated_payload_is_verdict_or_domain_error(build):
    """In a bounded child, so that a mutant that sends verify into an unbounded
    power fails the test at the memory cap or the timeout, not hanging the suite."""
    done = bounded.spawn(f"import json\nfrom tests.test_certs import _escapes, {build.__name__}\n"
                         f"print(json.dumps(_escapes({build.__name__})))", "", timeout=30.0)
    assert done.code is not None, "killed at the hard timeout of 30 s"
    assert done.code == 0, done.stdout[-500:]
    assert not json.loads(done.stdout), "\n".join(json.loads(done.stdout))


@pytest.mark.parametrize("name", ["k-10^11", "k-10^30-c-3^40"],
                         ids=["3-100000000000", f"{3**40}-{10**30}"])
def test_huge_exponent_rejected_before_the_power(name):
    check(VERIFY["many-units"][name])


@pytest.mark.parametrize("name", ["v-3^200-k-26500", "v-3^2095-k-at-the-height-bound"],
                         ids=["16KB", "parse-bounds"])
def test_exponent_too_large_for_the_height_of_v_refused_before_the_power(name):
    check(VERIFY["many-units"][name])


def test_power_denominator_in_a_document_refused_before_the_power():
    check(VERIFY["many-units"]["u-1/2^100000"])


def test_localization_by_a_large_parameter_answered_at_once():
    check(VERIFY["many-units"]["ring-Z[1/m]"])
