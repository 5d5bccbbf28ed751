"""JSON certificates and their payload-only re-verification.

Every certificate is a JSON object with the shape

    {"kind": ..., "ring": ..., "payload": {...}, "verified": true,
     "tool_version": ...}

where the payload alone carries enough data to recheck the claim: the
verifier never needs the random seed or intermediate state of the run that
produced the document.  verify_document is the single entry point the
`verify` subcommand uses; it re-parses the payload, redoes the relevant
exact computation, and raises VerificationFailed on the first mismatch.
"""

from __future__ import annotations

import json

from . import __version__
from .elemgen import Decomposition
from .errors import ParseError, VerificationFailed
from .lemma import (
    ConjugateFactor,
    ConjugateWitness,
    ManyUnitsCertificate,
    epsilon_ideal,
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
from .rings import PrincipalIdeal, RingDescriptor, in_ideal, parse_element, parse_ring
from .sl2 import Mat2, diag, parse_matrix, word_from_json, word_to_json


def make_document(kind: str, ring: RingDescriptor, payload: dict) -> dict:
    if kind not in _VERIFIERS:
        raise ValueError(f"unknown certificate kind {kind!r}")
    return {
        "kind": kind,
        "ring": ring.name,
        "payload": payload,
        "verified": True,
        "tool_version": __version__,
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# payload builders


def many_units_payload(cert: ManyUnitsCertificate) -> dict:
    return {
        "c": str(cert.c),
        "v": str(cert.v),
        "u": str(cert.u),
        "k": cert.k,
        "y": str(cert.y),
        "check_u8": cert.check_u8,
        "epsilon_generator": str(epsilon_ideal(cert).generator),
    }


def witness_payload(w: ConjugateWitness) -> dict:
    return {
        "matrix": str(w.matrix),
        "u": str(w.u),
        "z": str(w.z),
        "t": str(w.t),
        "q": str(w.q),
        "p": str(w.p),
        "sign_convention": _SIGN_CONVENTION,
        "Y": str(w.Y),
        "target": str(w.target),
        "factors": [
            {
                "conjugator": word_to_json(f.conjugator),
                "core": "A^-1" if f.core_inverted else "A",
            }
            for f in w.factors
        ],
    }


def decomposition_payload(dec: Decomposition, unit=None) -> dict:
    payload = {
        "matrix": str(dec.matrix),
        "word": word_to_json(dec.word),
        "length": dec.length,
    }
    if unit is not None:
        payload["unit"] = str(unit)
    return payload


def experiment_payload(
    report: LemmaBoundReport, matrix: Mat2, cert: ManyUnitsCertificate
) -> dict:
    return {
        "matrix": str(matrix),
        "unit_certificate": many_units_payload(cert),
        "modulus": report.modulus,
        "quotient_index": report.quotient_index,
        "group_order": report.group_order,
        "generator_count": report.generator_count,
        "requested": report.requested,
        "nontrivial_count": report.nontrivial_count,
        "trivial_count": report.trivial_count,
        "histogram": {str(k): v for k, v in sorted(report.histogram.items(), key=str)},
        "max_norm": report.max_norm,
        "bound": report.bound,
        "all_within_bound": report.all_within_bound,
        "samples": [{"j": j, "norm": n} for j, n in report.samples],
    }


# the four norm axioms an axiom report records, in the order verify checks them
_AXIOMS = ("separation", "symmetry", "subadditivity", "conjugation_invariance")
# how every witness relates p to q and z; verify insists on this exact text
_SIGN_CONVENTION = "p = -q - z"


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


class _Fields:
    """One JSON object of a payload, read key by key against an expected shape.

    A missing key, a wrong JSON type (a bool is not an int, a norm is an int
    or "inf"), a value the parsers reject, or text other than the canonical
    text of what it parses to (no "+3", "6/4", "0/5" or spaces) raises a
    ParseError that names the certificate kind and the key.  Objects come
    back as nested readers.
    """

    def __init__(self, where: str, ring: RingDescriptor, data):
        if not isinstance(data, dict):
            raise ParseError(f"{where} must be a JSON object")
        self.where = where
        self.ring = ring
        self.data = data

    def __call__(self, key: str, shape: str):
        if key not in self.data:
            raise ParseError(f"{self.where}: missing field {key!r}")
        value = self.data[key]
        if (
            not isinstance(value, _JSON_TYPES[shape])
            or (shape != "any" and isinstance(value, bool) != (shape == "bool"))
            or (shape == "norm" and isinstance(value, str) and value != "inf")
        ):
            raise ParseError(f"{self.where}: field {key!r} must be {shape}, not {value!r:.40}")
        where = f"{self.where}.{key}"
        if shape == "object":
            return _Fields(where, self.ring, value)
        if shape == "objects":
            return [_Fields(f"{where}[{i}]", self.ring, v) for i, v in enumerate(value)]
        if shape == "matrices":
            return [self._read(f"{where}[{i}]", "matrix", v) for i, v in enumerate(value)]
        if shape in _READERS:
            return self._read(where, shape, value)
        return value

    def _read(self, where: str, shape: str, value):
        """Parse value and insist that it is the exact text the emitters write
        for what it parses to; so every integer is as long as its digits."""
        parse, write = _READERS[shape]
        try:
            parsed = parse(self.ring, value)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from None
        if write(parsed) != value:
            raise ParseError(f"{where}: {value!r:.40} is not in canonical form")
        return parsed


def _expect(recorded, recomputed, message: str) -> None:
    if recorded != recomputed:
        raise VerificationFailed(message)


def _read_unit_certificate(fields: _Fields) -> tuple:
    """The certificate and its recorded epsilon generator."""
    cert = ManyUnitsCertificate(
        c=fields("c", "element"),
        v=fields("v", "element"),
        u=fields("u", "element"),
        k=fields("k", "int"),
        y=fields("y", "element"),
        check_u8=fields("check_u8", "bool"),
    )
    return cert, fields("epsilon_generator", "element")


def _check_unit_certificate(cert: ManyUnitsCertificate, epsilon_generator) -> None:
    verify_certificate(cert)
    _expect(epsilon_generator, epsilon_ideal(cert).generator, "recorded epsilon generator is wrong")


# ---------------------------------------------------------------------------
# verifiers, one per kind: each reads every field first, then recomputes


def _verify_many_units(fields: _Fields) -> None:
    _check_unit_certificate(*_read_unit_certificate(fields))


def _verify_witness(fields: _Fields) -> None:
    factors = []
    for entry in fields("factors", "objects"):
        core = entry("core", "any")
        if core not in ("A", "A^-1"):
            raise ParseError(f"{entry.where}: factor core must be 'A' or 'A^-1', not {core!r}")
        factors.append(ConjugateFactor(entry("conjugator", "word"), core == "A^-1"))
    convention = fields("sign_convention", "any")
    _expect(convention, _SIGN_CONVENTION, f"sign convention is not {_SIGN_CONVENTION!r}")
    witness = ConjugateWitness(
        matrix=fields("matrix", "matrix"),
        u=fields("u", "element"),
        z=fields("z", "element"),
        t=fields("t", "element"),
        q=fields("q", "element"),
        p=fields("p", "element"),
        Y=fields("Y", "matrix"),
        factors=tuple(factors),
        target=fields("target", "matrix"),
    )
    verify_witness(witness)


def _verify_decomposition(fields: _Fields) -> Decomposition:
    matrix = fields("matrix", "matrix")
    word = fields("word", "word")
    length = fields("length", "int")
    try:
        dec = Decomposition(matrix, word)
    except ValueError as exc:
        raise VerificationFailed(str(exc)) from None
    _expect(length, dec.length, f"recorded length {length}, actual {dec.length}")
    return dec


def _verify_h_decomposition(fields: _Fields) -> None:
    unit = fields("unit", "element")
    dec = _verify_decomposition(fields)
    _expect(dec.matrix, diag(unit), "matrix is not diag(u, 1/u) for the recorded unit")
    _expect(dec.length, 6, "the diagonal decomposition must have six factors")


def _verify_experiment(fields: _Fields) -> None:
    matrix = fields("matrix", "matrix")
    cert, epsilon_generator = _read_unit_certificate(fields("unit_certificate", "object"))
    modulus = fields("modulus", "element")
    quotient_index = fields("quotient_index", "int")
    group_order = fields("group_order", "int")
    generator_count = fields("generator_count", "int")
    requested = fields("requested", "int")
    nontrivial_count = fields("nontrivial_count", "int")
    trivial_count = fields("trivial_count", "int")
    histogram = fields("histogram", "object").data
    max_norm = fields("max_norm", "norm")
    bound = fields("bound", "int")
    within = fields("all_within_bound", "bool")
    samples = [(s("j", "element"), s("norm", "norm")) for s in fields("samples", "objects")]

    _check_unit_certificate(cert, epsilon_generator)
    _expect(cert.c, matrix.c, "unit certificate does not match the matrix corner")
    eps_ideal = PrincipalIdeal(epsilon_generator)  # checked equal to epsilon_ideal(cert)
    table = FiniteGroupTable.modulo(PrincipalIdeal(modulus))
    _expect(quotient_index, table.quotient.index, "recorded quotient index is wrong")
    _expect(group_order, len(table), "recorded group order is wrong")
    norms = closure_norm_table(table, [matrix, matrix.inverse()])
    _expect(generator_count, len(norms.generating_set), "recorded generating set size is wrong")
    recomputed = []
    for j, recorded in samples:
        if not in_ideal(j, eps_ideal):
            raise VerificationFailed(f"sampled {j} lies outside the epsilon ideal")
        image = table.transvection("12", j)
        if image == table.identity:
            raise VerificationFailed(f"sampled {j} has trivial image, not a valid sample")
        norm = norms.lengths[image]
        _expect(recorded, format_norm(norm), f"recorded norm {recorded} for {j}, recomputed {norm}")
        recomputed.append(norm)
    _expect(nontrivial_count, len(samples), "nontrivial_count does not match the sample list")
    # a strict run stops at `requested` nontrivial images, a degenerate one after as many draws
    if trivial_count < 0 or requested not in (nontrivial_count, nontrivial_count + trivial_count):
        raise VerificationFailed(f"requested {requested} matches neither count of samples")
    rebuilt_histogram, rebuilt_max, rebuilt_within = summarize_norms(recomputed, bound)
    rebuilt_histogram = {str(k): v for k, v in rebuilt_histogram.items()}
    _expect(histogram, rebuilt_histogram, "histogram does not match the sample list")
    _expect(max_norm, rebuilt_max, "recorded max norm is wrong")
    _expect(within, rebuilt_within, "all_within_bound flag does not match the samples")


def _verify_axiom_report(fields: _Fields) -> None:
    modulus = fields("modulus", "element")
    seed = fields("seed", "matrices")
    group_order = fields("group_order", "int")
    generator_count = fields("generator_count", "int")
    all_passed = fields("all_passed", "bool")
    axioms = fields("axioms", "object")
    recorded = {}
    for name in _AXIOMS:
        entry = axioms(name, "object")
        recorded[name] = (entry("passed", "bool"), entry("counterexample", "any"))

    table = FiniteGroupTable.modulo(PrincipalIdeal(modulus))
    _expect(group_order, len(table), "recorded group order is wrong")
    norms = closure_norm_table(table, seed)
    _expect(generator_count, len(norms.generating_set), "recorded generating set size is wrong")
    check_norm_axioms(norms)
    _expect(all_passed, True, "all_passed flag does not re-verify")
    for name, (passed, counterexample) in recorded.items():
        _expect(passed, True, f"axiom {name} result does not re-verify")
        _expect(counterexample, None, f"axiom {name} counterexample differs")


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
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _VERIFIERS:
        raise ParseError(f"unknown certificate kind {kind!r}")
    ring = parse_ring(doc.get("ring", ""))
    _VERIFIERS[kind](_Fields(f"{kind} payload", ring, doc.get("payload")))
    if not doc.get("verified", False):
        raise VerificationFailed("document is marked verified = false")
    return {"kind": kind, "ring": ring.name, "ok": True}
