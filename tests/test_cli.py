"""Command-line interface: exit codes, JSON-only output, verify round-trips."""

import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sl2units.cli
from sl2units.cli import run
from sl2units.rings import (
    DENOMINATOR_BOUND,
    DIGIT_BOUND,
    ORDER_BOUND,
    _int_text,
    localized,
    parse_element,
)


NOT_UTF8 = b"\xff\xfe{}"


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# happy paths


def test_ring_info(capsys):
    code, doc = invoke_json(capsys, "ring", "info", "--ring", "Z[1/6]")
    assert code == 0
    assert doc == {
        "name": "Z[1/6]",
        "kind": "localized",
        "param": 6,
        "infinite_order_unit": "2",
    }


def test_ring_info_large_pell_unit(capsys):
    code, doc = invoke_json(capsys, "ring", "info", "--ring", "Z[sqrt151]")
    assert code == 0
    assert doc["infinite_order_unit"] == "1728148040+140634693*sqrt(151)"


def test_unit_find_anchor(capsys):
    code, doc = invoke_json(capsys, "unit", "find", "--ring", "Z[1/2]", "--c", "3")
    assert code == 0
    assert doc["kind"] == "many-units" and doc["verified"] is True
    assert doc["payload"]["u"] == "64" and doc["payload"]["k"] == 6


def test_lemma_witness_anchor(capsys):
    code, doc = invoke_json(
        capsys, "lemma", "witness", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]", "--z", "3"
    )
    assert code == 0
    assert doc["kind"] == "lemma2-witness"
    assert len(doc["payload"]["factors"]) == 4
    assert doc["payload"]["u"] == "64"  # derived from the corner via unit find


def test_lemma_witness_explicit_unit(capsys):
    code, doc = invoke_json(
        capsys,
        "lemma", "witness", "--ring", "Z[1/2]",
        "--A", "[[1,0],[3,1]]", "--z", "-6", "--u", "4096",
    )
    assert code == 0 and doc["payload"]["u"] == "4096"


def test_lemma_y(capsys):
    code, doc = invoke_json(
        capsys, "lemma", "y", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]", "--u", "64"
    )
    assert code == 0
    assert doc["x"] == "5592405" and doc["t"] == "5592405"


def test_decompose(capsys):
    code, doc = invoke_json(capsys, "decompose", "--ring", "Z", "--A", "[[2,1],[3,2]]")
    assert code == 0
    assert doc["kind"] == "decomposition" and doc["payload"]["length"] <= 4


def test_h_decompose(capsys):
    code, doc = invoke_json(capsys, "h-decompose", "--ring", "Z[sqrt2]", "--u", "1+sqrt(2)")
    assert code == 0
    assert doc["payload"]["length"] == 6 and doc["payload"]["unit"] == "1+sqrt(2)"


def test_norm_bfs(capsys):
    code, doc = invoke_json(
        capsys,
        "norm", "bfs", "--ring", "Z", "--modulus", "5",
        "--gen", "[[1,1],[0,1]]", "--element", "[[-1,0],[0,-1]]", "--closure",
    )
    assert code == 0 and doc["norm"] == 3 and doc["generator_count"] == 12


def test_norm_axioms(capsys):
    code, doc = invoke_json(
        capsys, "norm", "axioms", "--ring", "Z", "--modulus", "3", "--gen", "[[1,1],[0,1]]"
    )
    assert code == 0 and doc["payload"]["all_passed"] is True


def test_norm_bfs_closure_taken_once(capsys, monkeypatch):
    import hashlib

    import sl2units.cli as cli
    import sl2units.norms as norms
    from tests.test_golden_cli import CASES, GOLDEN

    calls = [0]
    real_closure = norms.conjugation_closure

    def counted(*args):
        calls[0] += 1
        return real_closure(*args)

    for module in (norms, cli):
        monkeypatch.setattr(module, "conjugation_closure", counted)
    code, out = invoke(capsys, *CASES["norm-bfs"][0])
    assert calls[0] == 1
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN["norm-bfs"]


def test_norm_axioms_mod_13_emits_and_verifies_quickly(capsys, monkeypatch):
    import io

    start = time.perf_counter()
    code, out = invoke(capsys, "norm", "axioms", "--ring", "Z", "--modulus", "13",
                       "--gen", "[[1,1],[0,1]]")
    assert time.perf_counter() - start < 3.0
    assert code == 0 and json.loads(out)["payload"]["group_order"] == 2184
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    start = time.perf_counter()
    code, doc = invoke_json(capsys, "verify", "-")
    assert time.perf_counter() - start < 3.0
    assert code == 0 and doc["ok"] is True


def test_norm_bfs_open_generating_set_exit_1(capsys):
    # {E12(1)} mod 5; and lifts of the mod-3 conjugates of E12(1), which miss
    # its inverse E12(-1) because -1 is not a square
    cases = [
        ("5", ["[[1,1],[0,1]]"], "[[0,1],[4,2]]"),
        ("3", ["[[0,1],[-1,2]]", "[[1,0],[2,1]]", "[[1,1],[0,1]]", "[[2,1],[-1,0]]"],
         "[[0,2],[1,2]]"),
    ]
    for modulus, gens, missing in cases:
        flags = [arg for g in gens for arg in ("--gen", g)]
        code, err = invoke_json(capsys, "norm", "bfs", "--ring", "Z", "--modulus", modulus,
                                *flags, "--element", "[[-1,0],[0,-1]]")
        assert code == 1
        assert err == {"error": "GeneratorsNotClosed",
                       "message": f"the generating set lacks {missing}"}


@pytest.mark.parametrize(
    "argv",
    [
        ["bfs", "--gen", "[[1,1],[0,1]]", "--element", "[[1,0],[0,1]]"],
        ["lemma-bound", "--A", "[[1,0],[3,1]]", "--u", "64"],
        ["axioms", "--gen", "[[1,1],[0,1]]"],
    ],
)
def test_table_cap_flag_is_gone(capsys, argv):
    code = run(["norm", argv[0], "--ring", "Z[1/2]", "--modulus", "3", *argv[1:],
                "--table-cap", "100"])
    assert code == 2 and capsys.readouterr().out == ""


def test_norm_lemma_bound(capsys):
    code, doc = invoke_json(
        capsys,
        "norm", "lemma-bound", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]",
        "--u", "64", "--modulus", "11", "--samples", "10", "--seed", "4",
    )
    assert code == 0
    assert doc["payload"]["all_within_bound"] is True
    assert doc["payload"]["nontrivial_count"] == 10


# ---------------------------------------------------------------------------
# verify


def test_verify_round_trip(tmp_path, capsys):
    code, out = invoke(capsys, "unit", "find", "--ring", "Z[1/2]", "--c", "3")
    assert code == 0
    path = tmp_path / "cert.json"
    path.write_text(out)
    code, doc = invoke_json(capsys, "verify", str(path))
    assert code == 0 and doc["ok"] is True


def test_verify_stdin(capsys, monkeypatch):
    code, out = invoke(capsys, "decompose", "--ring", "Z", "--A", "[[2,1],[3,2]]")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, doc = invoke_json(capsys, "verify", "-")
    assert code == 0 and doc["ok"] is True


def test_verify_tampered(tmp_path, capsys):
    code, out = invoke(capsys, "unit", "find", "--ring", "Z[1/2]", "--c", "3")
    doc = json.loads(out)
    doc["payload"]["u"] = "32"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, err = invoke_json(capsys, "verify", str(path))
    assert code == 1 and err["error"] == "VerificationFailed"


@pytest.mark.parametrize("shifts", [{"t": 3}, {"q": 3, "p": -3}], ids=["t+3", "q+3,p-3"])
def test_verify_witness_with_a_wrong_q_or_t_exit_1(capsys, monkeypatch, shifts):
    """Only the q and t check reads the recorded t, and q once p = -q - z still
    holds: the conjugator words that carry them are recorded apart, and the
    shifted values stay in (c) = (3)."""
    argv = ["lemma", "witness", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]", "--z", "3"]
    code, out = invoke(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    for key, shift in shifts.items():
        doc["payload"][key] = str(parse_element(localized(2), doc["payload"][key]) + shift)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, err = invoke_json(capsys, "verify", "-")
    assert code == 1
    assert err == {
        "error": "VerificationFailed",
        "message": "recorded q or t does not match the recomputation",
    }


def test_verify_word_letter_at_an_unknown_position_exit_1(capsys, monkeypatch):
    """Only the JSON reader checks a letter's position, so "13" is not read as "21"."""
    code, out = invoke(capsys, "decompose", "--ring", "Z", "--A", "[[2,1],[3,2]]")
    assert code == 0 and '"21"' in out
    monkeypatch.setattr("sys.stdin", io.StringIO(out.replace('"21"', '"13"')))
    code, err = invoke_json(capsys, "verify", "-")
    assert code == 1
    assert err == {
        "error": "ParseError",
        "message": "decomposition payload.word: bad elem factor: "
        "position must be '12' or '21', got '13'",
    }


@pytest.mark.parametrize(
    "argv,letter,expected",
    [(["decompose", "--ring", "Z", "--A", "[[2,1],[3,2]]"], ("word", "factors", 0),
      {"error": "VerificationFailed",
       "message": "decomposition words admit only transvection factors"}),
     (["lemma", "witness", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]", "--u", "64", "--z", "3"],
      ("factors", 1, "conjugator", "factors", 0),
      {"error": "NonUnitDiagonal", "message": "3 is not a unit of Z[1/2]"})],
    ids=["decomposition", "witness"],
)
def test_verify_diagonal_letter_of_a_non_unit_exit_1(capsys, monkeypatch, argv, letter, expected):
    """A decomposition refuses every diagonal letter before it evaluates its
    word; a witness conjugator's diag(3) is refused when it is evaluated."""
    code, out = invoke(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    parent = doc["payload"]
    for step in letter[:-1]:
        parent = parent[step]
    parent[letter[-1]] = {"kind": "diag", "unit": "3"}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, err = invoke_json(capsys, "verify", "-")
    assert code == 1 and err == expected


def test_verify_unreadable_and_invalid(tmp_path, capsys):
    code, err = invoke_json(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 1 and err["error"] == "ParseError"
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    code, err = invoke_json(capsys, "verify", str(path))
    assert code == 1 and err["error"] == "ParseError"
    path.write_bytes(NOT_UTF8)
    code, err = invoke_json(capsys, "verify", str(path))
    assert code == 1 and err == {"error": "ParseError", "message": f"{path} is not UTF-8 text"}


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
def test_verify_stdin_not_utf8_exit_1(capsys, monkeypatch, errors):
    """Bytes that are not UTF-8 are bad input whichever error handler the
    locale gives stdin (surrogateescape under the POSIX locale)."""
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors=errors)
    monkeypatch.setattr("sys.stdin", stdin)
    code, err = invoke_json(capsys, "verify", "-")
    assert code == 1 and err == {"error": "ParseError", "message": "- is not UTF-8 text"}


def test_console_main_exit_codes(tmp_path):
    """python -m sl2units.cli as a process: JSON on stdout, usage on stderr."""
    src = str(Path(sl2units.cli.__file__).resolve().parents[1])
    path = [src, os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [src]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))

    def main(*argv):
        return subprocess.run([sys.executable, "-m", "sl2units.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    done = main("unit", "find", "--ring", "Z[1/2]", "--c", "3")
    assert done.returncode == 0 and json.loads(done.stdout)["payload"]["u"] == "64"
    bad = tmp_path / "bad.json"
    bad.write_bytes(NOT_UTF8)
    done = main("verify", str(bad))
    assert done.returncode == 1 and json.loads(done.stdout)["error"] == "ParseError"
    assert "Traceback" not in done.stderr
    done = main("no-such-command")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: sl2units")


# ---------------------------------------------------------------------------
# failure modes


def test_domain_error_exit_1(capsys):
    code, err = invoke_json(capsys, "unit", "find", "--ring", "Z", "--c", "3")
    assert code == 1
    assert err["error"] == "NoInfiniteOrderUnit"
    assert "message" in err


def test_lemma_bound_zero_corner_with_u_exit_1(capsys):
    argv = ["norm", "lemma-bound", "--ring", "Z[1/2]", "--A", "[[1,1],[0,1]]",
            "--modulus", "5", "--samples", "2"]
    code, out = invoke(capsys, *argv)
    code_u, out_u = invoke(capsys, *argv, "--u", "64")
    assert code == code_u == 1
    assert out_u == out
    assert json.loads(out)["error"] == "ZeroIdeal"


def test_wrong_unit_order_exit_3(capsys, monkeypatch):
    import sl2units.lemma as lemma

    real_unit_order = lemma.unit_order
    monkeypatch.setattr(lemma, "unit_order", lambda v, q: real_unit_order(v, q) + 1)
    code, err = invoke_json(capsys, "unit", "find", "--ring", "Z[1/2]", "--c", "3")
    assert code == 3
    assert err == {
        "error": "InternalError",
        "message": "AssertionError: u - 1 is not divisible by c^2 despite the order computation",
    }


def test_degenerate_quotient_exit_1(capsys):
    code, err = invoke_json(
        capsys,
        "norm", "lemma-bound", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]",
        "--u", "64", "--modulus", "5", "--samples", "10",
    )
    assert code == 1 and err["error"] == "DegenerateQuotient"


def test_allow_degenerate_exit_0(capsys):
    code, doc = invoke_json(
        capsys,
        "norm", "lemma-bound", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]",
        "--u", "64", "--modulus", "5", "--samples", "10", "--allow-degenerate",
    )
    assert code == 0 and doc["payload"]["trivial_count"] == 10


LEMMA_BOUND = ["norm", "lemma-bound", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]", "--u", "64"]


def test_negative_samples_exit_2(capsys):
    code, out = invoke(capsys, *LEMMA_BOUND, "--modulus", "11", "--samples", "-3")
    assert code == 2 and out == ""


@pytest.mark.parametrize(
    "extra",
    [["--modulus", "11", "--samples", "0"],
     ["--modulus", "11", "--samples", "0", "--allow-degenerate"],
     ["--modulus", "5", "--samples", "4", "--allow-degenerate"]],
    ids=["zero", "zero_degenerate", "all_trivial"],
)
def test_lemma_bound_requested_count_verifies(tmp_path, capsys, extra):
    code, out = invoke(capsys, *LEMMA_BOUND, *extra)
    assert code == 0
    path = tmp_path / "experiment.json"
    path.write_text(out)
    code, summary = invoke_json(capsys, "verify", str(path))
    assert code == 0 and summary["ok"] is True


def test_parse_error_exit_1(capsys):
    code, err = invoke_json(capsys, "decompose", "--ring", "Z", "--A", "[[1,0],[0]]")
    assert code == 1 and err["error"] == "ParseError"


def test_element_over_the_digit_limit_exit_1(capsys):
    code, err = invoke_json(
        capsys, "h-decompose", "--ring", "Z[1/2]", "--u", "1" + "0" * DIGIT_BOUND
    )
    assert code == 1 and err["error"] == "ParseError"
    assert f"bound of {DIGIT_BOUND}" in err["message"]


# c = 1000003: the index of R/c^2R is about 10^12 over Z[1/2] and 10^24 over
# Z[sqrt2], and the order of v there is past ORDER_BOUND
@pytest.mark.parametrize(
    "argv",
    [
        ["unit", "find", "--ring", "Z[1/2]", "--c", "1000003"],
        ["unit", "find", "--ring", "Z[sqrt2]", "--c", "1000003"],
        ["lemma", "witness", "--ring", "Z[1/2]", "--A", "[[1,0],[1000003,1]]", "--z", "1000003"],
        ["norm", "lemma-bound", "--ring", "Z[1/2]", "--A", "[[1,0],[1000003,1]]",
         "--modulus", "5"],
    ],
    ids=["unit-Z[1/2]", "unit-Z[sqrt2]", "witness", "lemma-bound"],
)
def test_order_past_the_bound_exit_1_at_once(capsys, argv):
    start = time.perf_counter()
    code, err = invoke_json(capsys, *argv)
    assert time.perf_counter() - start < 2.0
    assert code == 1 and err["error"] == "DocumentTooLarge"
    tail = f"exceeds {ORDER_BOUND}, so its power would have more than {DIGIT_BOUND} digits"
    assert err["message"].endswith(f" modulo (1000006000009) {tail}")


def test_zero_denominator_argument_exit_1(capsys):
    code, err = invoke_json(capsys, "unit", "find", "--ring", "Z", "--c", "1/0")
    assert code == 1
    assert err == {"error": "ParseError", "message": "'1/0' has a zero denominator"}


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"kind": "many-units", "ring": "Z", "payload": 5, "verified": True},
         "many-units payload must be a JSON object"),
        ({"kind": "many-units", "ring": 5, "payload": {}, "verified": True},
         "a ring must be given as text, not int"),
        ({"kind": "decomposition", "ring": "Z", "verified": True,
          "payload": {"matrix": "[[1,0],[0,1]]", "word": {"factors": [5]}, "length": 1}},
         "decomposition payload.word: each factor must be a JSON object"),
    ],
    ids=["payload", "ring", "factor"],
)
def test_verify_field_of_the_wrong_json_type_exit_1(tmp_path, capsys, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, err = invoke_json(capsys, "verify", str(path))
    assert code == 1
    assert err == {"error": "ParseError", "message": message}


def test_decompose_upper_triangular_with_a_non_unit_pivot(tmp_path, capsys):
    """c = 0, a != 1 and b != 0: the word ends with E12(b/a) after the six
    letters of diag(a, 1/a)."""
    code, out = invoke(capsys, "decompose", "--ring", "Z[1/2]", "--A", "[[2,1],[0,1/2]]")
    assert code == 0
    doc = json.loads(out)
    factors = doc["payload"]["word"]["factors"]
    assert doc["payload"]["length"] == len(factors) == 7
    assert factors[-1] == {"kind": "elem", "position": "12", "argument": "1/2"}
    path = tmp_path / "dec.json"
    path.write_text(out)
    code, summary = invoke_json(capsys, "verify", str(path))
    assert code == 0 and summary["ok"] is True


@pytest.mark.parametrize("c", ["+3", " 3 ", "6/2", "03"])
def test_element_arguments_stay_lenient(capsys, c):
    # verify refuses such text in a document; on the command line it is read
    assert invoke(capsys, "unit", "find", "--ring", "Z[1/2]", "--c", c) == invoke(
        capsys, "unit", "find", "--ring", "Z[1/2]", "--c", "3"
    )


@pytest.mark.parametrize("ring,c", [("Z[1/3]", "49"), ("Z[1/2]", "61"), ("Z[1/2]", "101")])
def test_unit_find_past_the_str_limit_emits_and_verifies(tmp_path, capsys, ring, c):
    start = time.perf_counter()
    code, out = invoke(capsys, "unit", "find", "--ring", ring, "--c", c)
    assert code == 0 and time.perf_counter() - start < 2.0
    payload = json.loads(out)["payload"]
    assert max(len(v) for v in payload.values() if isinstance(v, str)) > 4300
    path = tmp_path / "unit.json"
    path.write_text(out)
    start = time.perf_counter()
    code, summary = invoke_json(capsys, "verify", str(path))
    assert code == 0 and summary["ok"] is True
    assert time.perf_counter() - start < 2.0


def _random_digits(rng, n: int) -> int:
    return rng.randrange(10 ** (n - 1), 10**n)


# a + b*sqrt(2) with random a, b of DIGIT_BOUND digits: its Hermite form would
# take the extended Euclid loop many seconds, its norm a^2 - 2b^2 a few ms
_RNG = random.Random(12)
_A, _B = _random_digits(_RNG, DIGIT_BOUND), _random_digits(_RNG, DIGIT_BOUND)


@pytest.mark.parametrize(
    "ring,modulus,index",
    [("Z", "7" * 4000, int("7" * 4000)),
     ("Z[sqrt2]", "7" * 4000, int("7" * 4000) ** 2),
     ("Z[sqrt2]", f"{_int_text(_A)}+{_int_text(_B)}*sqrt(2)", abs(_A * _A - 2 * _B * _B))],
    ids=["Z", "Z[sqrt2]", "Z[sqrt2]-random"],
)
def test_quotient_too_large_for_a_long_modulus_exit_1(tmp_path, capsys, ring, modulus, index):
    start = time.perf_counter()
    code, err = invoke_json(capsys, "norm", "axioms", "--ring", ring, "--modulus", modulus,
                            "--gen", "[[1,1],[0,1]]")
    assert time.perf_counter() - start < 1.0
    assert code == 1 and err["error"] == "QuotientTooLarge"
    assert f"index has {len(_int_text(index))} digits" in err["message"]
    code, out = invoke(capsys, "norm", "axioms", "--ring", "Z", "--modulus", "3",
                       "--gen", "[[1,1],[0,1]]")
    assert code == 0
    doc = json.loads(out)
    doc["ring"] = ring
    doc["payload"]["modulus"] = modulus
    path = tmp_path / "axioms.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, err = invoke_json(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and err["error"] == "QuotientTooLarge"


# a hostile document of HOSTILE_BYTES is refused or verified within HOSTILE_SECONDS
HOSTILE_BYTES = 10**6
HOSTILE_SECONDS = 20.0


def _verify_text(tmp_path, capsys, text: str):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    start = time.perf_counter()
    code, out = invoke_json(capsys, "verify", str(path))
    return code, out, time.perf_counter() - start


@pytest.mark.parametrize(
    "u,message",
    [("7" * (DIGIT_BOUND + 1), f"{DIGIT_BOUND + 1} digits exceeds the bound of {DIGIT_BOUND}"),
     ("7" * (HOSTILE_BYTES - 1000),
      f"{HOSTILE_BYTES - 1000} digits exceeds the bound of {DIGIT_BOUND}"),
     # a unit of Z[1/2] under DIGIT_BOUND: 2^332000 has 99,942 digits
     ("1/" + _int_text(2**332_000),
      f"denominator of 99942 digits exceeds the bound of {DENOMINATOR_BOUND}")],
    ids=["integer", "integer-1MB", "denominator"],
)
def test_hostile_document_with_an_integer_over_the_bound(tmp_path, capsys, u, message):
    code, out = invoke(capsys, "unit", "find", "--ring", "Z[1/2]", "--c", "3")
    assert code == 0
    doc = json.loads(out)
    doc["payload"]["u"] = u
    code, err, elapsed = _verify_text(tmp_path, capsys, json.dumps(doc))
    assert code == 1 and err["error"] == "ParseError"
    assert message in err["message"]
    assert elapsed < 1.0


def test_hostile_document_of_integers_at_the_bound(tmp_path, capsys):
    """Ten transvections whose arguments have DIGIT_BOUND digits each: their
    product has entries of about 10^6 digits, and verify finds that it is not
    the recorded matrix."""
    factors = [
        {"kind": "elem", "position": "12" if i % 2 else "21", "argument": "7" * DIGIT_BOUND}
        for i in range(HOSTILE_BYTES // DIGIT_BOUND)
    ]
    payload = {"matrix": "[[1,0],[0,1]]", "word": {"factors": factors}, "length": len(factors)}
    doc = {"kind": "decomposition", "ring": "Z", "payload": payload, "verified": True}
    text = json.dumps(doc)
    assert len(text) >= HOSTILE_BYTES
    code, err, elapsed = _verify_text(tmp_path, capsys, text)
    assert code == 1 and err["error"] == "VerificationFailed"
    assert elapsed < HOSTILE_SECONDS


@pytest.mark.parametrize("u", ["3/2^4", "1/2^100000"])
def test_power_denominator_exit_1(tmp_path, capsys, u):
    code, out = invoke(capsys, "unit", "find", "--ring", "Z[1/2]", "--c", "3")
    assert code == 0
    doc = json.loads(out)
    doc["payload"]["u"] = u
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, err = invoke_json(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and err["error"] == "ParseError"
    assert f"cannot parse {u!r}" in err["message"]


def _witness_with_conjugator(capsys, tmp_path, conjugator: str):
    """A lemma2-witness document whose first conjugator word is replaced by
    the given JSON text, spliced in as text so it may nest deeper than
    json.dumps can write."""
    code, out = invoke(capsys, "lemma", "witness", "--ring", "Z[1/2]",
                       "--A", "[[1,0],[3,1]]", "--u", "64", "--z", "3")
    assert code == 0
    doc = json.loads(out)
    doc["payload"]["factors"][0]["conjugator"] = "@"
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(doc).replace('"@"', conjugator))
    return path


@pytest.mark.parametrize("factor", [
    '{"kind": "conj", "by": {"factors": []}, "word": {"factors": []}}',
    '{"kind": "inv", "word": {"factors": []}}',
])
def test_nested_word_factor_exit_1(tmp_path, capsys, factor):
    path = _witness_with_conjugator(capsys, tmp_path, '{"factors": [%s]}' % factor)
    code, err = invoke_json(capsys, "verify", str(path))
    assert code == 1 and err["error"] == "ParseError"
    assert "unknown factor kind" in err["message"]


def test_deeply_nested_word_exit_1_at_once(tmp_path, capsys):
    depth = 10**5
    nested = '{"factors": [{"kind": "inv", "word": ' * depth + '{"factors": []}' + "}]}" * depth
    path = _witness_with_conjugator(capsys, tmp_path, nested)
    start = time.perf_counter()
    code, err = invoke_json(capsys, "verify", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 1 and err["error"] == "ParseError"


def test_usage_error_exit_2(capsys):
    assert run(["unit", "find", "--ring", "Z[1/2]"]) == 2  # missing --c
    assert run(["no-such-command"]) == 2
    assert run([]) == 2
    out = capsys.readouterr().out
    assert out == ""  # usage noise goes to stderr only


def test_internal_error_exit_3(capsys, monkeypatch):
    import sl2units.cli as cli

    def broken(ring, args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_ring_info", broken)
    code, err = invoke_json(capsys, "ring", "info", "--ring", "Z")
    assert code == 3
    assert err == {"error": "InternalError", "message": "RuntimeError: boom"}


def test_help_exit_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    ["ring info", "unit find", "lemma witness", "lemma y", "decompose", "h-decompose",
     "norm bfs", "norm lemma-bound", "norm axioms", "verify"],
)
def test_subcommand_help_exit_0(capsys, command):
    assert run([*command.split(), "--help"]) == 0
    assert "usage: sl2units " + command in capsys.readouterr().out


def test_deterministic_output(capsys):
    _, first = invoke(capsys, "lemma", "witness", "--ring", "Z[1/2]",
                      "--A", "[[1,0],[3,1]]", "--z", "3")
    _, second = invoke(capsys, "lemma", "witness", "--ring", "Z[1/2]",
                       "--A", "[[1,0],[3,1]]", "--z", "3")
    assert first == second


def test_elementary_witness_verifies(tmp_path, capsys):
    code, out = invoke(
        capsys,
        "lemma", "witness", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]",
        "--z", "3", "--elementary",
    )
    assert code == 0
    assert '"kind": "diag"' not in out
    path = tmp_path / "w.json"
    path.write_text(out)
    code, doc = invoke_json(capsys, "verify", str(path))
    assert code == 0 and doc["ok"] is True


def test_elementary_witness_computes_Y_once(capsys, monkeypatch):
    import sl2units.lemma as lemma

    calls = [0]
    real_compute_Y = lemma.compute_Y

    def counted(*args):
        calls[0] += 1
        return real_compute_Y(*args)

    monkeypatch.setattr(lemma, "compute_Y", counted)
    code, _ = invoke(capsys, "lemma", "witness", "--ring", "Z[1/2]",
                     "--A", "[[1,0],[3,1]]", "--z", "3", "--elementary")
    assert code == 0
    assert calls[0] == 1


def test_elementary_witness_with_a_wrong_word_fails(capsys, monkeypatch):
    import sl2units.cli as cli
    from sl2units.sl2 import GroupWord

    # the empty word is I, congruent to I mod c, so the product test must catch it
    monkeypatch.setattr(cli, "expand_diagonals", lambda word: GroupWord(word.ring))
    code, err = invoke_json(capsys, "lemma", "witness", "--ring", "Z[1/2]",
                            "--A", "[[1,0],[3,1]]", "--z", "3", "--elementary")
    assert code == 1
    assert err["error"] == "VerificationFailed"
    assert "misses the target" in err["message"]
