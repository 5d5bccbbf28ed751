"""JSON certificates and their payload-only re-verification.

Every certificate is a JSON object with the shape

    {"kind": ..., "ring": ..., "payload": {...}, "verified": true,
     "tool_version": ...}

where the payload alone carries enough data to recheck the claim: the
verifier never needs the random seed or intermediate state of the run that
produced the document.  SCHEMAS lists each kind's payload fields and their
shapes, and one reader parses a payload against it.  verify_document, the
single entry point the `verify` subcommand uses, reads every field that way,
makes the checks that no derivation makes (a unit certificate's k >= 1
and height bounds on k; a decomposition word's product; a norm experiment's
sample rules and draw budget; and each norm kind's counted group order),
then derives the payload again with the emitter's own code and writers and
compares it field by field, raising VerificationFailed at the first
difference: a unit certificate's u and y are derived from c, v and k, a norm
experiment's certificate from the matrix corner, an h-decomposition from its
unit, and a whole witness from its matrix, z and the certificate that
certify_unit derives for its u and the matrix corner, as `lemma witness --u`
does.  So verify accepts only the words the construction builds, plain or
elementary as the recorded conjugators are, and evaluates no recorded word
of a witness or h-decomposition: lemma's module docstring says why the ring
map from the generic ring makes such a witness prove its claim.  An input
that the derivation itself refuses (c = 0 or a zero corner, a non-unit,
c^2 not dividing u - 1, u^8 = 1, z outside cR, the one concrete test of a
witness) raises the derivation's own error, as the emitter does; a text
that str() does not write ("+3", "6/4") differs from the derivation's.
make_document reads each payload it emits back through the same reader, so
the digit bounds of the ring parsers hold on both sides.
"""

from __future__ import annotations

from . import __version__
from .elemgen import Decomposition, h_decomposition
from .errors import DocumentTooLarge, ParseError, VerificationFailed
from .lemma import (
    ConjugateWitness,
    ManyUnitsCertificate,
    certify_unit,
    verify_certificate,
    verify_witness,
)
from .norms import (
    FiniteGroupTable,
    LemmaBoundReport,
    conjugation_closure,
    draw_budget,
    lemma_bound_report,
)
from .rings import RingDescriptor, in_ideal, parse_element, parse_ring
from .sl2 import Mat2, parse_matrix, word_from_json, word_to_json

# the four norm axioms an axiom report records, in the order verify checks them
_AXIOMS = ("separation", "symmetry", "subadditivity", "conjugation_invariance")

_UNIT_CERTIFICATE = {
    "c": "element", "v": "element", "u": "element", "k": "int", "y": "element",
    "check_u8": "bool", "epsilon_generator": "element",
}
_DECOMPOSITION = {"matrix": "matrix", "word": "word", "length": "int"}

# kind -> payload key -> shape, in the order verify reads the keys.  A shape
# is a leaf ("element", "matrix", "word", "int", "bool", "norm" for an int or
# "inf", or "any"), a dict for a JSON object of its keys ("*" for any key), or
# a one-element list for a JSON list of entries of that shape.
SCHEMAS = {
    "many-units": _UNIT_CERTIFICATE,
    "lemma2-witness": {
        "factors": [{"core": "any", "conjugator": "word"}],
        "sign_convention": "any",
        "matrix": "matrix", "u": "element", "z": "element", "t": "element",
        "q": "element", "p": "element", "Y": "matrix", "target": "matrix",
    },
    "h-decomposition": {"unit": "element", **_DECOMPOSITION},
    "decomposition": _DECOMPOSITION,
    "norm-experiment": {
        "matrix": "matrix",
        "unit_certificate": _UNIT_CERTIFICATE,
        "modulus": "element",
        "quotient_index": "int", "group_order": "int", "generator_count": "int",
        "requested": "int", "nontrivial_count": "int", "trivial_count": "int",
        "histogram": {"*": "int"},
        "max_norm": "norm",
        "bound": "int",
        "all_within_bound": "bool",
        "samples": [{"j": "element", "norm": "norm"}],
    },
    "axiom-report": {
        "modulus": "element",
        "seed": ["matrix"],
        "group_order": "int",
        "generator_count": "int",
        "all_passed": "bool",
        "axioms": {name: {"passed": "bool", "counterexample": "any"} for name in _AXIOMS},
    },
}


def make_document(kind: str, ring: RingDescriptor, payload: dict) -> dict:
    """The certificate of payload, once payload reads back through
    SCHEMAS[kind] as verify reads it.  The parsers read all that str()
    writes, so only their digit bounds refuse it: a refusal raises
    DocumentTooLarge with the reader's message, which names the field and
    the bound."""
    try:
        _read(f"{kind} payload", ring, SCHEMAS[kind], payload)
    except ParseError as exc:
        raise DocumentTooLarge(str(exc)) from None
    return {
        "kind": kind,
        "ring": ring.name,
        "payload": payload,
        "verified": True,
        "tool_version": __version__,
    }


# ---------------------------------------------------------------------------
# payload builders


def _write(schema: dict, values: dict) -> dict:
    """The payload of schema's keys, each element, matrix and word written as
    its reader insists; values of other shapes must be written already."""
    return {
        key: _READERS[shape][1](values[key])
        if isinstance(shape, str) and shape in _READERS else values[key]
        for key, shape in schema.items()
    }


def many_units_payload(cert: ManyUnitsCertificate) -> dict:
    return _write(_UNIT_CERTIFICATE, {**vars(cert), "check_u8": True})


def witness_payload(w: ConjugateWitness) -> dict:
    factors = [
        {"conjugator": word_to_json(f.conjugator), "core": "A^-1" if f.core_inverted else "A"}
        for f in w.factors
    ]
    values = {**vars(w), "factors": factors, "sign_convention": "p = -q - z"}
    return _write(SCHEMAS["lemma2-witness"], values)


def decomposition_payload(dec: Decomposition, unit=None) -> dict:
    values = {**vars(dec), "length": dec.length, "unit": unit}
    return _write(SCHEMAS["decomposition" if unit is None else "h-decomposition"], values)


def experiment_payload(
    report: LemmaBoundReport, matrix: Mat2, cert: ManyUnitsCertificate
) -> dict:
    values = {
        **vars(report),
        "matrix": matrix,
        "unit_certificate": many_units_payload(cert),
        "samples": [{"j": j, "norm": n} for j, n in report.samples],
    }
    return _write(SCHEMAS["norm-experiment"], values)


def axiom_report_payload(table: FiniteGroupTable, seed: list[Mat2]) -> dict:
    """The report of the word length over the conjugation closure S of
    seed's images in table, a norm as S is (conjugation_closure): every
    axiom passed, with no counterexample, and |S| generators."""
    gens = conjugation_closure(table, [table.from_matrix(m) for m in seed])
    return {
        "modulus": str(table.quotient.modulus),
        "seed": [str(m) for m in seed],
        "group_order": len(table),
        "generator_count": len(gens),
        "all_passed": True,
        "axioms": {name: {"passed": True, "counterexample": None} for name in _AXIOMS},
    }


# ---------------------------------------------------------------------------
# payload reading

# shape -> (the parser _read uses, the writer _write uses)
_READERS = {
    "element": (parse_element, str),
    "matrix": (parse_matrix, str),
    "word": (word_from_json, word_to_json),
}
_JSON_TYPES = {
    "element": str, "matrix": str, "matrices": list, "word": dict, "int": int,
    "bool": bool, "norm": (int, str), "object": dict, "objects": list, "any": object,
}


def _name(shape) -> str:
    """The key of _JSON_TYPES that names shape."""
    if isinstance(shape, dict):
        return "object"
    if isinstance(shape, list):
        return {"object": "objects", "matrix": "matrices"}[_name(shape[0])]
    return shape


def _read(where: str, ring: RingDescriptor, shape, value):
    """value read as shape: a dict of the read fields of an object, a list of
    read entries, a parsed element, matrix or word, or else value itself.

    A missing or unknown key, a wrong JSON type (a bool is not an int, a norm
    is an int or "inf") or a value the parsers reject raises a ParseError
    that names the certificate kind and the key.  Every field is read before
    any verifier runs; _compare refuses text that is not canonical ("+3").
    """
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ParseError(f"{where} must be a JSON object")
        fields = dict.fromkeys(value, shape["*"]) if "*" in shape else shape
        unknown = [key for key in value if key not in fields]
        if unknown:
            raise ParseError(f"{where}: unknown field {unknown[0]!r:.40}")
        return {key: _field(where, ring, key, field, value) for key, field in fields.items()}
    if isinstance(shape, list):
        return [_read(f"{where}[{i}]", ring, shape[0], v) for i, v in enumerate(value)]
    if shape not in _READERS:
        return value
    try:
        return _READERS[shape][0](ring, value)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _field(where: str, ring: RingDescriptor, key: str, shape, data: dict):
    """data[key], of the JSON type of shape, read as shape."""
    if key not in data:
        raise ParseError(f"{where}: missing field {key!r}")
    value, name = data[key], _name(shape)
    if (
        not isinstance(value, _JSON_TYPES[name])
        or (name != "any" and isinstance(value, bool) != (name == "bool"))
        or (name == "norm" and isinstance(value, str) and value != "inf")
    ):
        raise ParseError(f"{where}: field {key!r} must be {name}, not {value!r:.40}")
    return _read(f"{where}.{key}", ring, shape, value)


def _compare(where: str, recorded, recomputed) -> None:
    """Raise VerificationFailed at the first path where the recorded JSON
    differs from the recomputed, comparing objects of the same keys and lists
    of the same length entry by entry."""
    if type(recorded) is type(recomputed) is dict and recorded.keys() == recomputed.keys():
        for key, value in recomputed.items():
            _compare(f"{where}.{key}", recorded[key], value)
    elif type(recorded) is type(recomputed) is list and len(recorded) == len(recomputed):
        for i, (old, new) in enumerate(zip(recorded, recomputed)):
            _compare(f"{where}[{i}]", old, new)
    elif recorded != recomputed:
        raise VerificationFailed(
            f"{where}: recorded {recorded!r:.40}, recomputed {recomputed!r:.40}"
        )


# ---------------------------------------------------------------------------
# verifiers, one per kind: each takes the fields _read has read, makes the
# checks that no derivation makes, and returns the payload the emitter's own
# writers build from the checked values, for verify_document to compare


def _verify_many_units(fields: dict) -> dict:
    return many_units_payload(verify_certificate(*(fields[key] for key in "cvuk")))


def _verify_witness(fields: dict) -> dict:
    matrix = fields["matrix"]
    cert = certify_unit(matrix.c, fields["u"], 1)
    words = [entry["conjugator"] for entry in fields["factors"]]
    return witness_payload(verify_witness(matrix, cert, fields["z"], words))


def _verify_decomposition(fields: dict) -> dict:
    try:
        dec = Decomposition(fields["matrix"], fields["word"])
    except ValueError as exc:
        raise VerificationFailed(str(exc)) from None
    if dec.word.evaluate() != dec.matrix:
        raise VerificationFailed("word does not evaluate to the decomposed matrix")
    return decomposition_payload(dec)


def _verify_h_decomposition(fields: dict) -> dict:
    return decomposition_payload(h_decomposition(fields["unit"]), fields["unit"])


# The counted table's fields of the norm kinds are compared first, before the
# closure and the search for an experiment's samples.


def _verify_experiment(fields: dict) -> dict:
    matrix, unit = fields["matrix"], fields["unit_certificate"]
    cert = verify_certificate(matrix.c, unit["v"], unit["u"], unit["k"])
    table = FiniteGroupTable(fields["modulus"])
    where = "norm-experiment payload"
    _compare(f"{where}.quotient_index", fields["quotient_index"], table.quotient.index)
    _compare(f"{where}.group_order", fields["group_order"], len(table))
    js = [sample["j"] for sample in fields["samples"]]
    for j in js:
        if not in_ideal(j, cert.epsilon_generator):
            raise VerificationFailed(f"sampled {j} lies outside the epsilon ideal")
        if table.transvection("12", j) == table.identity:
            raise VerificationFailed(f"sampled {j} has trivial image, not a valid sample")
    # a strict run stops at `requested` nontrivial images within draw_budget(requested)
    # draws, a degenerate one after `requested` draws; the draws are not recorded
    requested, trivial = fields["requested"], fields["trivial_count"]
    if trivial < 0 or requested not in (len(js), len(js) + trivial):
        raise VerificationFailed(f"requested {requested} matches neither count of samples")
    budget = draw_budget(requested)
    if requested == len(js) and trivial > budget - requested:
        limit = f"a strict run of {requested} samples makes at most {budget} draws"
        raise VerificationFailed(f"trivial_count {trivial} exceeds {budget - requested}: {limit}")
    report = lemma_bound_report(table, matrix, js, requested, trivial)
    return experiment_payload(report, matrix, cert)


def _verify_axiom_report(fields: dict) -> dict:
    table = FiniteGroupTable(fields["modulus"])
    _compare("axiom-report payload.group_order", fields["group_order"], len(table))
    return axiom_report_payload(table, fields["seed"])


_VERIFIERS = {
    "many-units": _verify_many_units,
    "lemma2-witness": _verify_witness,
    "h-decomposition": _verify_h_decomposition,
    "decomposition": _verify_decomposition,
    "norm-experiment": _verify_experiment,
    "axiom-report": _verify_axiom_report,
}


def verify_document(doc) -> dict:
    """Recheck a certificate document from its payload alone.

    Returns a small summary dict on success.  Raises ParseError for a
    malformed document; VerificationFailed for a recorded field that differs
    from its derivation or fails a check that only verify makes; or else the
    derivation's own domain error, the one the emitter raises for that input.
    """
    if not isinstance(doc, dict):
        raise ParseError("certificate must be a JSON object")
    unknown = [k for k in doc if k not in ("kind", "ring", "payload", "verified", "tool_version")]
    if unknown:
        raise ParseError(f"certificate: unknown field {unknown[0]!r:.40}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in SCHEMAS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    ring = parse_ring(doc.get("ring", ""))
    verified = doc.get("verified")
    if not isinstance(verified, bool):
        raise ParseError(f"field 'verified' must be bool, not {verified!r:.40}")
    version = doc.get("tool_version", "")
    if not isinstance(version, str):
        raise ParseError(f"field 'tool_version' must be str, not {version!r:.40}")
    where, payload = f"{kind} payload", doc.get("payload")
    _compare(where, payload, _VERIFIERS[kind](_read(where, ring, SCHEMAS[kind], payload)))
    if not verified:
        raise VerificationFailed("document is marked verified = false")
    return {"kind": kind, "ring": ring.name, "ok": True}
