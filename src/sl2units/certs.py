"""JSON certificates and their payload-only re-verification.

Every certificate is a JSON object with the shape

    {"kind": ..., "ring": ..., "payload": {...}, "verified": true,
     "tool_version": ...}

where the payload alone carries enough data to recheck the claim: the
verifier never needs the random seed or intermediate state of the run that
produced the document.  SCHEMAS lists each kind's payload fields and their
shapes, and one reader parses a payload against it.  verify_document, the
single entry point the `verify` subcommand uses, reads every field that way,
redoes the relevant exact computation, and raises VerificationFailed on the
first mismatch.  make_document reads each payload it emits back through the
same reader, so the digit bounds of the ring parsers hold on both sides.
"""

from __future__ import annotations

from . import __version__
from .elemgen import Decomposition
from .errors import DocumentTooLarge, ParseError, VerificationFailed
from .lemma import (
    ConjugateFactor,
    ConjugateWitness,
    ManyUnitsCertificate,
    epsilon_generator,
    verify_certificate,
    verify_witness,
)
from .norms import (
    FiniteGroupTable,
    LemmaBoundReport,
    check_norm_axioms,
    closure_norm_table,
    format_norm,
    summarize_norms,
)
from .rings import RingDescriptor, in_ideal, parse_element, parse_ring
from .sl2 import Mat2, diag, parse_matrix, word_from_json, word_to_json

# the four norm axioms an axiom report records, in the order verify checks them
_AXIOMS = ("separation", "symmetry", "subadditivity", "conjugation_invariance")
# how every witness relates p to q and z; verify insists on this exact text
_SIGN_CONVENTION = "p = -q - z"

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
    SCHEMAS[kind] as verify reads it.  The writers write str(x) and the
    reader insists on str(parse(text)) == text, so only a digit bound of the
    parsers refuses it: a refusal raises DocumentTooLarge with the reader's
    message, which names the field and the bound."""
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
    return _write(_UNIT_CERTIFICATE, {**vars(cert), "epsilon_generator": epsilon_generator(cert)})


def witness_payload(w: ConjugateWitness) -> dict:
    factors = [
        {"conjugator": word_to_json(f.conjugator), "core": "A^-1" if f.core_inverted else "A"}
        for f in w.factors
    ]
    values = {**vars(w), "factors": factors, "sign_convention": _SIGN_CONVENTION}
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
        "quotient_index": report.index,
        "histogram": {str(k): v for k, v in sorted(report.histogram.items(), key=str)},
        "samples": [{"j": j, "norm": n} for j, n in report.samples],
    }
    return _write(SCHEMAS["norm-experiment"], values)


def axiom_report_payload(
    modulus_text: str,
    seed_texts: list[str],
    group_order: int,
    generator_count: int,
) -> dict:
    """The report of a NormTable that check_norm_axioms has certified: every
    axiom passed, with no counterexample."""
    return {
        "modulus": modulus_text,
        "seed": list(seed_texts),
        "group_order": group_order,
        "generator_count": generator_count,
        "all_passed": True,
        "axioms": {name: {"passed": True, "counterexample": None} for name in _AXIOMS},
    }


# ---------------------------------------------------------------------------
# payload reading

# shape -> (parser, the writer whose output the parser must have been given)
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
    is an int or "inf"), a value the parsers reject, or text other than the
    canonical text of what it parses to (no "+3", "6/4", "0/5" or spaces)
    raises a ParseError that names the certificate kind and the key.  Every
    field is read before any verifier runs.
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
    parse, write = _READERS[shape]
    try:
        parsed = parse(ring, value)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from None
    if write(parsed) != value:
        raise ParseError(f"{where}: {value!r:.40} is not in canonical form")
    return parsed


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


def _expect(recorded, recomputed, message: str) -> None:
    if recorded != recomputed:
        raise VerificationFailed(message)


# ---------------------------------------------------------------------------
# verifiers, one per kind: each takes the fields _read has read, and recomputes


def _verify_many_units(fields: dict) -> ManyUnitsCertificate:
    values = dict(fields)
    epsilon = values.pop("epsilon_generator")
    cert = ManyUnitsCertificate(**values)
    verify_certificate(cert)
    _expect(epsilon, epsilon_generator(cert), "recorded epsilon generator is wrong")
    return cert


def _verify_witness(fields: dict) -> None:
    factors = []
    for i, entry in enumerate(fields.pop("factors")):
        if entry["core"] not in ("A", "A^-1"):
            raise ParseError(
                f"lemma2-witness payload.factors[{i}]: "
                f"factor core must be 'A' or 'A^-1', not {entry['core']!r}"
            )
        factors.append(ConjugateFactor(entry["conjugator"], entry["core"] == "A^-1"))
    convention = fields.pop("sign_convention")
    _expect(convention, _SIGN_CONVENTION, f"sign convention is not {_SIGN_CONVENTION!r}")
    verify_witness(ConjugateWitness(factors=tuple(factors), **fields))


def _verify_decomposition(fields: dict) -> Decomposition:
    try:
        dec = Decomposition(fields["matrix"], fields["word"])
    except ValueError as exc:
        raise VerificationFailed(str(exc)) from None
    length = fields["length"]
    _expect(length, dec.length, f"recorded length {length}, actual {dec.length}")
    return dec


def _verify_h_decomposition(fields: dict) -> None:
    dec = _verify_decomposition(fields)
    _expect(dec.matrix, diag(fields["unit"]), "matrix is not diag(u, 1/u) for the recorded unit")
    _expect(dec.length, 6, "the diagonal decomposition must have six factors")


def _verify_experiment(fields: dict) -> None:
    matrix, samples = fields["matrix"], fields["samples"]
    cert = _verify_many_units(fields["unit_certificate"])
    epsilon = fields["unit_certificate"]["epsilon_generator"]  # the nonzero (u^8 - 1) * c
    _expect(cert.c, matrix.c, "unit certificate does not match the matrix corner")
    table = FiniteGroupTable(fields["modulus"])
    _expect(fields["quotient_index"], table.quotient.index, "recorded quotient index is wrong")
    _expect(fields["group_order"], len(table), "recorded group order is wrong")
    norms = closure_norm_table(table, [matrix, matrix.inverse()])
    _expect(fields["generator_count"], len(norms.generating_set),
            "recorded generating set size is wrong")
    recomputed = []
    for sample in samples:
        j, recorded = sample["j"], sample["norm"]
        if not in_ideal(j, epsilon):
            raise VerificationFailed(f"sampled {j} lies outside the epsilon ideal")
        image = table.transvection("12", j)
        if image == table.identity:
            raise VerificationFailed(f"sampled {j} has trivial image, not a valid sample")
        norm = norms.norm(image)
        _expect(recorded, format_norm(norm), f"recorded norm {recorded} for {j}, recomputed {norm}")
        recomputed.append(norm)
    nontrivial, trivial = fields["nontrivial_count"], fields["trivial_count"]
    _expect(nontrivial, len(samples), "nontrivial_count does not match the sample list")
    # a strict run stops at `requested` nontrivial images, a degenerate one after as many draws
    requested = fields["requested"]
    if trivial < 0 or requested not in (nontrivial, nontrivial + trivial):
        raise VerificationFailed(f"requested {requested} matches neither count of samples")
    histogram, max_norm, within = summarize_norms(recomputed, fields["bound"])
    _expect(fields["histogram"], {str(k): v for k, v in histogram.items()},
            "histogram does not match the sample list")
    _expect(fields["max_norm"], max_norm, "recorded max norm is wrong")
    _expect(fields["all_within_bound"], within, "all_within_bound flag does not match the samples")


def _verify_axiom_report(fields: dict) -> None:
    table = FiniteGroupTable(fields["modulus"])
    _expect(fields["group_order"], len(table), "recorded group order is wrong")
    norms = closure_norm_table(table, fields["seed"])
    _expect(fields["generator_count"], len(norms.generating_set),
            "recorded generating set size is wrong")
    check_norm_axioms(norms)
    _expect(fields["all_passed"], True, "all_passed flag does not re-verify")
    for name, entry in fields["axioms"].items():
        _expect(entry["passed"], True, f"axiom {name} result does not re-verify")
        _expect(entry["counterexample"], None, f"axiom {name} counterexample differs")


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

    Returns a small summary dict on success; raises ParseError for malformed
    documents and VerificationFailed when any recorded claim fails to recheck.
    """
    if not isinstance(doc, dict):
        raise ParseError("certificate must be a JSON object")
    unknown = [k for k in doc if k not in ("kind", "ring", "payload", "verified", "tool_version")]
    if unknown:
        raise ParseError(f"certificate: unknown field {unknown[0]!r:.40}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _VERIFIERS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    ring = parse_ring(doc.get("ring", ""))
    verified = doc.get("verified")
    if not isinstance(verified, bool):
        raise ParseError(f"field 'verified' must be bool, not {verified!r:.40}")
    _VERIFIERS[kind](_read(f"{kind} payload", ring, SCHEMAS[kind], doc.get("payload")))
    if not verified:
        raise VerificationFailed("document is marked verified = false")
    return {"kind": kind, "ring": ring.name, "ok": True}
