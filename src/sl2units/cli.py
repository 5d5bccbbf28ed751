"""Command-line front end emitting and re-checking JSON certificates.

Exit codes: 0 on verified success, 1 on a domain error and 3 on an internal
error (both with an error JSON object on standard output), 2 on a usage
error.  Standard output carries JSON only; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback

from . import certs
from .elemgen import decompose, h_decomposition
from .errors import AlgebraError, GeneratorsNotClosed, NoInfiniteOrderUnit, ParseError
from .lemma import certify_unit, compute_Y, find_unit, lemma2_witness
from .norms import (
    FiniteGroupTable,
    NormTable,
    conjugation_closure,
    format_norm,
    lemma_bound_experiment,
)
from .rings import infinite_order_unit, parse_element, parse_ring
from .sl2 import parse_matrix


# ---------------------------------------------------------------------------
# handlers (each takes the parsed --ring, None for verify, and returns the
# JSON-ready dict to print)


def _cmd_ring_info(ring, args) -> dict:
    try:
        v = str(infinite_order_unit(ring))
    except NoInfiniteOrderUnit:
        v = None
    return {
        "name": ring.name,
        "kind": ring.kind,
        "param": ring.param,
        "infinite_order_unit": v,
    }


def _cmd_unit_find(ring, args) -> dict:
    cert = find_unit(parse_element(ring, args.c))
    return certs.make_document("many-units", ring, certs.many_units_payload(cert))


def _unit_certificate(ring, args, matrix):
    """The certificate for matrix's corner: of --u when given, else find_unit's."""
    if args.u is None:
        return find_unit(matrix.c)
    return certify_unit(matrix.c, parse_element(ring, args.u), 1)


def _cmd_lemma_witness(ring, args) -> dict:
    matrix, z = parse_matrix(ring, args.A), parse_element(ring, args.z)
    witness = lemma2_witness(matrix, _unit_certificate(ring, args, matrix), z, args.elementary)
    return certs.make_document("lemma2-witness", ring, certs.witness_payload(witness))


def _cmd_lemma_y(ring, args) -> dict:
    matrix = parse_matrix(ring, args.A)
    parts = compute_Y(matrix, _unit_certificate(ring, args, matrix))
    return {
        "ring": ring.name,
        "Y": str(parts.Y),
        "q": str(parts.q),
        "t": str(parts.t),
        "x": str(parts.x),
        "y": str(parts.y),
    }


def _cmd_decompose(ring, args) -> dict:
    dec = decompose(parse_matrix(ring, args.A))
    return certs.make_document("decomposition", ring, certs.decomposition_payload(dec))


def _cmd_h_decompose(ring, args) -> dict:
    u = parse_element(ring, args.u)
    dec = h_decomposition(u)
    return certs.make_document(
        "h-decomposition", ring, certs.decomposition_payload(dec, unit=u)
    )


def _cmd_norm_bfs(ring, args) -> dict:
    table = FiniteGroupTable(parse_element(ring, args.modulus))
    seed = frozenset(table.from_matrix(parse_matrix(ring, text)) for text in args.gen)
    g = table.from_matrix(parse_matrix(ring, args.element))
    gens = conjugation_closure(table, seed)
    # without --closure the user's own set must be its closure already
    missing = gens - seed
    if missing and not args.closure:
        raise GeneratorsNotClosed(f"the generating set lacks {table.format_element(min(missing))}")
    norm = NormTable(table, gens, [g]).norm(g)
    return {
        "ring": ring.name,
        "modulus": str(table.quotient.modulus),
        "group_order": len(table),
        "generator_count": len(gens),
        "element": args.element,
        "norm": format_norm(norm),
    }


def _cmd_norm_lemma_bound(ring, args) -> dict:
    matrix, modulus = parse_matrix(ring, args.A), parse_element(ring, args.modulus)
    cert = _unit_certificate(ring, args, matrix)
    report = lemma_bound_experiment(
        matrix,
        cert,
        modulus,
        args.samples,
        rng=random.Random(args.seed),
        require_nontrivial=not args.allow_degenerate,
    )
    return certs.make_document(
        "norm-experiment", ring, certs.experiment_payload(report, matrix, cert)
    )


def _cmd_norm_axioms(ring, args) -> dict:
    table = FiniteGroupTable(parse_element(ring, args.modulus))
    seed = [parse_matrix(ring, text) for text in args.gen]
    return certs.make_document("axiom-report", ring, certs.axiom_report_payload(table, seed))


def _cmd_verify(ring, args) -> dict:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        text.encode("utf-8")  # a POSIX-locale stdin reads bytes not in UTF-8 as surrogates
    except OSError as exc:
        raise ParseError(f"cannot read {args.file}: {exc}") from None
    except UnicodeError:
        raise ParseError(f"{args.file} is not UTF-8 text") from None
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    return certs.verify_document(doc)


# ---------------------------------------------------------------------------
# parser


def _count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, not {text}")
    return int(text)


def _add_ring_flag(p):
    p.add_argument("--ring", required=True, help="ring descriptor, e.g. Z, Z[1/6], Z[sqrt2]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2units",
        description="exact SL2 certificates over Z, Z[1/m], and real quadratic rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="ring utilities").add_subparsers(
        dest="subcommand", required=True
    )
    p = ring.add_parser("info", help="describe a ring and its canonical infinite-order unit")
    _add_ring_flag(p)
    p.set_defaults(handler=_cmd_ring_info)

    unit = sub.add_parser("unit", help="unit certificates").add_subparsers(
        dest="subcommand", required=True
    )
    p = unit.add_parser("find", help="certify u with c^2 | (u - 1) and u^8 != 1")
    _add_ring_flag(p)
    p.add_argument("--c", required=True, help="nonzero ring element")
    p.set_defaults(handler=_cmd_unit_find)

    lemma = sub.add_parser("lemma", help="conjugation-witness constructions").add_subparsers(
        dest="subcommand", required=True
    )
    p = lemma.add_parser(
        "witness",
        help="four-factor witness writing E12((u^4 - u^-4) z) as a product of conjugates",
    )
    _add_ring_flag(p)
    p.add_argument("--A", required=True, help="matrix [[a,b],[c,d]] with nonzero corner c")
    p.add_argument("--z", required=True, help="target multiplier, must lie in (c)")
    p.add_argument("--u", help="unit to use; derived from the corner via unit find when omitted")
    p.add_argument(
        "--elementary",
        action="store_true",
        help="expand diagonal conjugator factors into elementary ones",
    )
    p.set_defaults(handler=_cmd_lemma_witness)
    p = lemma.add_parser("y", help="the upper-triangular conjugate product and its scalars")
    _add_ring_flag(p)
    p.add_argument("--A", required=True, help="matrix [[a,b],[c,d]] with nonzero corner c")
    p.add_argument("--u", required=True, help="unit with u - 1 in (c^2) and u^8 != 1")
    p.set_defaults(handler=_cmd_lemma_y)

    p = sub.add_parser("decompose", help="write a matrix as elementary transvections")
    _add_ring_flag(p)
    p.add_argument("--A", required=True, help="matrix [[a,b],[c,d]] with determinant 1")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("h-decompose", help="six-factor elementary form of diag(u, 1/u)")
    _add_ring_flag(p)
    p.add_argument("--u", required=True, help="unit of the ring")
    p.set_defaults(handler=_cmd_h_decompose)

    norm = sub.add_parser("norm", help="word norms in finite quotients").add_subparsers(
        dest="subcommand", required=True
    )
    p = norm.add_parser("bfs", help="word norm of one element over a generating set")
    _add_ring_flag(p)
    p.add_argument("--modulus", required=True, help="generator of the reduction ideal")
    p.add_argument(
        "--gen",
        action="append",
        required=True,
        help="generator matrix; repeat for several",
    )
    p.add_argument("--element", required=True, help="matrix whose norm to compute")
    p.add_argument(
        "--closure",
        action="store_true",
        help="replace the generators by their conjugation closure first",
    )
    p.set_defaults(handler=_cmd_norm_bfs)

    p = norm.add_parser(
        "lemma-bound",
        help="sample the scaled ideal and check the 4-ball bound in a finite quotient",
    )
    _add_ring_flag(p)
    p.add_argument("--A", required=True, help="matrix [[a,b],[c,d]] with nonzero corner c")
    p.add_argument("--modulus", required=True, help="generator of the reduction ideal")
    p.add_argument("--u", help="unit to use; derived from the corner when omitted")
    p.add_argument("--samples", type=_count, default=50, help="number of samples, >= 0")
    p.add_argument("--seed", type=int, default=0, help="seed for the sampling RNG")
    p.add_argument(
        "--allow-degenerate",
        action="store_true",
        help="count trivial images as vacuous passes instead of failing",
    )
    p.set_defaults(handler=_cmd_norm_lemma_bound)

    p = norm.add_parser("axioms", help="certified norm-axiom report for a BFS word norm")
    _add_ring_flag(p)
    p.add_argument("--modulus", required=True, help="generator of the reduction ideal")
    p.add_argument(
        "--gen",
        action="append",
        required=True,
        help="seed generator matrix; the conjugation closure is taken",
    )
    p.set_defaults(handler=_cmd_norm_axioms)

    p = sub.add_parser("verify", help="re-check a certificate document")
    p.add_argument("file", help="path to a certificate JSON file, or - for stdin")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        ring = parse_ring(args.ring) if "ring" in args else None
        result = args.handler(ring, args)
    except AlgebraError as exc:
        print(json.dumps({"error": exc.name, "message": str(exc)}, sort_keys=True, indent=2))
        return 1
    except Exception as exc:  # a bug, not bad input: still JSON, with its own exit code
        traceback.print_exc()
        message = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"error": "InternalError", "message": message}, sort_keys=True, indent=2))
        return 3
    print(json.dumps(result, sort_keys=True, indent=2))
    return 0


def console_main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console_main()
