"""Command-line interface: exit codes, JSON-only output, verify round-trips."""

import io
import json
import subprocess
import sys

import pytest

from sl2units.cli import run
from sl2units.rings import DIGIT_BOUND, RingElement, _int_text, localized, parse_element, quadratic
from tests import bounded
from tests.test_hostile import EMIT, VERIFY, check, with_conjugator


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


def test_ring_info_pell_unit_of_36719_digits_at_once():
    """The search stops when the recurrence's q returns to 1, without squaring
    the convergent's a and b at every step."""
    doc = check(EMIT["ring info"]["pell-unit-of-36719-digits"])
    unit = parse_element(quadratic(10**11 + 3), doc["infinite_order_unit"])
    assert unit.field_norm() in (1, -1) and len(_int_text(int(unit.rat))) == 36719


def test_ring_info_pell_unit_at_the_digit_bound(capsys, monkeypatch):
    """The unit of Z[sqrt151] is 1728148040+140634693*sqrt(151), of ten digits:
    printed under a bound of 10 digits and refused under 9."""
    monkeypatch.setattr("sl2units.rings.DIGIT_BOUND", 10)
    code, doc = invoke_json(capsys, "ring", "info", "--ring", "Z[sqrt151]")
    assert code == 0 and doc["infinite_order_unit"] == "1728148040+140634693*sqrt(151)"
    monkeypatch.setattr("sl2units.rings.DIGIT_BOUND", 9)
    for d in (151, 337):  # 337: 1015827336+55335641*sqrt(337), whose a is 1.02 * 10^9
        assert invoke_json(capsys, "ring", "info", "--ring", f"Z[sqrt{d}]") == (1, {
            "error": "DocumentTooLarge",
            "message": f"the fundamental unit of Z[sqrt{d}] has more than 9 digits",
        })


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


def test_norm_axioms_mod_13_emits_and_verifies_quickly():
    check(EMIT["norm axioms"]["mod-13"])
    check(VERIFY["axiom-report"]["mod-13"])


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


UNIT_FIND = ("unit", "find", "--ring", "Z[1/2]", "--c", "3")
WITNESS = ("lemma", "witness", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]", "--z", "3")


@pytest.mark.parametrize(
    "argv,added,message",
    [
        (UNIT_FIND, {("payload", "note"): "unchecked", ("extra",): 1},
         "certificate: unknown field 'extra'"),
        (UNIT_FIND, {("payload", "note"): "unchecked"}, "many-units payload: unknown field 'note'"),
        (WITNESS, {("payload", "factors", 1, "note"): 0},
         "lemma2-witness payload.factors[1]: unknown field 'note'"),
    ],
    ids=["envelope-and-payload", "payload", "witness-factor"],
)
def test_verify_key_that_no_schema_lists_exit_1(capsys, monkeypatch, argv, added, message):
    code, doc = invoke_json(capsys, *argv)
    assert code == 0
    for path, value in added.items():
        node = doc
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = value
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, err = invoke_json(capsys, "verify", "-")
    assert code == 1
    assert err == {"error": "ParseError", "message": message}


def test_verify_unit_power_with_a_huge_exponent_exit_1(capsys, monkeypatch):
    """v = 1 leaves k unbounded by the height checks, so 1^(2^2000) is taken:
    the power walks the exponent's bits in a loop, not one call frame each."""
    code, doc = invoke_json(capsys, *UNIT_FIND)
    assert code == 0
    doc["payload"].update(v="1", k=2**2000, u="1", y="0")
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, err = invoke_json(capsys, "verify", "-")
    assert code == 1
    assert err == {"error": "NoInfiniteOrderUnit",
                   "message": "u^8 = 1, so u generates no usable ideal"}


@pytest.mark.parametrize("version", [{"note": "unchecked"}, 1, None, ["0.1.0"]],
                         ids=["object", "int", "null", "list"])
def test_verify_tool_version_not_a_string_exit_1(capsys, monkeypatch, version):
    code, doc = invoke_json(capsys, *UNIT_FIND)
    assert code == 0
    doc["tool_version"] = version
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, err = invoke_json(capsys, "verify", "-")
    assert code == 1
    assert err == {"error": "ParseError",
                   "message": f"field 'tool_version' must be str, not {version!r:.40}"}


@pytest.mark.parametrize("shifts", [{"t": 3}, {"q": 3, "p": -3}], ids=["t+3", "q+3,p-3"])
def test_verify_witness_with_a_wrong_q_or_t_exit_1(capsys, monkeypatch, shifts):
    """verify derives t, q and p from A, u and z and never reads the recorded
    ones, which the conjugator words do not carry: the comparator refuses the
    first shifted field, though p = -q - z still holds and all stay in (3)."""
    argv = ["lemma", "witness", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]", "--z", "3"]
    code, out = invoke(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    recorded = dict(doc["payload"])
    for key, shift in shifts.items():
        doc["payload"][key] = str(parse_element(localized(2), doc["payload"][key]) + shift)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, err = invoke_json(capsys, "verify", "-")
    assert code == 1
    key = next(iter(shifts))
    new, old = doc["payload"][key], recorded[key]
    assert err == {
        "error": "VerificationFailed",
        "message": f"lemma2-witness payload.{key}: recorded {new!r:.40}, recomputed {old!r:.40}",
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
      {"error": "VerificationFailed",
       "message": "lemma2-witness payload.factors[1].conjugator.factors[0].unit: "
       "recorded '3', recomputed '4096'"})],
    ids=["decomposition", "witness"],
)
def test_verify_diagonal_letter_of_a_non_unit_exit_1(capsys, monkeypatch, argv, letter, expected):
    """A decomposition refuses every diagonal letter before it evaluates its
    word; a witness conjugator's diag(3) is compared with the construction's
    diag(u^2) and never evaluated."""
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


def _witness_argv(A, z, *more):
    return ["lemma", "witness", "--ring", "Z[1/2]", "--A", A, "--z", z, *more]


def _lemma_bound_argv(A, *more):
    return ["norm", "lemma-bound", "--ring", "Z[1/2]", "--A", A, "--modulus", "11", *more]


I2 = "[[1,0],[0,1]]"  # its corner is zero
E21_1 = "[[1,0],[1,1]]"  # its corner is 1, so c^2 divides u - 1 for every unit u
EXPERIMENT = _lemma_bound_argv("[[1,0],[3,1]]", "--samples", "3")

# id -> (the error, the emitters refusing an input, and the documents with the
# payload edits that give verify the same input)
PARITY_CASES = {
    "non-unit-u": ("NonUnit", [_witness_argv("[[1,0],[3,1]]", "3", "--u", "3")],
                   [(WITNESS, {"u": "3"})]),
    "u-1-not-in-c2": ("UnitCongruenceViolated",
                      [_witness_argv("[[1,0],[3,1]]", "3", "--u", "2")],
                      [(WITNESS, {"u": "2"})]),
    "zero-corner": ("ZeroIdeal",
                    [_witness_argv(I2, "3", "--u", "64"), _witness_argv(I2, "3"),
                     ["lemma", "y", "--ring", "Z[1/2]", "--A", I2, "--u", "64"],
                     _lemma_bound_argv(I2, "--u", "64"), _lemma_bound_argv(I2)],
                    [(WITNESS, {"matrix": I2}), (EXPERIMENT, {"matrix": I2})]),
    "u8-is-1": ("NoInfiniteOrderUnit",
                [_witness_argv(E21_1, "1", "--u", "-1"),
                 ["lemma", "y", "--ring", "Z[1/2]", "--A", E21_1, "--u", "-1"],
                 _lemma_bound_argv(E21_1, "--u", "-1")],
                [(_witness_argv(E21_1, "1"), {"u": "-1"}),
                 (UNIT_FIND, {"c": "1", "v": "-1", "u": "-1", "k": 1}),
                 (_lemma_bound_argv(E21_1, "--samples", "3"),
                  {"unit_certificate": {"c": "1", "v": "-1", "u": "-1", "k": 1, "y": "-2",
                                        "check_u8": True, "epsilon_generator": "0"}})]),
    "z-outside-c": ("ZNotInIdeal", [_witness_argv("[[1,0],[3,1]]", "1")],
                    [(WITNESS, {"z": "1"})]),
    "c-is-zero": ("ZeroIdeal", [["unit", "find", "--ring", "Z[1/2]", "--c", "0"]],
                  [(UNIT_FIND, {"c": "0"})]),
    "non-unit-v": ("NonUnit", [_lemma_bound_argv("[[1,0],[3,1]]", "--u", "10")],
                   [(UNIT_FIND, {"v": "10", "k": 1})]),
    "unit-u-1-not-in-c2": ("UnitCongruenceViolated",
                           [_lemma_bound_argv("[[1,0],[3,1]]", "--u", "2")],
                           [(UNIT_FIND, {"v": "2", "u": "2", "k": 1})]),
}


@pytest.mark.parametrize("error,emitters,sources", PARITY_CASES.values(), ids=PARITY_CASES)
def test_verify_refuses_an_input_as_its_emitter_does(capsys, monkeypatch, error, emitters,
                                                     sources):
    """verify derives a document with the emitter's own code and passes its
    error through: one class and one message, whichever path refuses."""
    refusals = [invoke_json(capsys, *argv) for argv in emitters]
    for source, edits in sources:
        code, doc = invoke_json(capsys, *source)
        assert code == 0
        doc["payload"].update(edits)
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        refusals.append(invoke_json(capsys, "verify", "-"))
    code, refusal = refusals[0]
    assert code == 1 and refusal["error"] == error
    assert refusals == [(1, refusal)] * len(refusals)


@pytest.mark.parametrize("emitter", [UNIT_FIND, EXPERIMENT], ids=["unit-find", "lemma-bound"])
def test_u8_is_taken_once_per_certificate(capsys, monkeypatch, emitter):
    """certify_unit takes (u^8 - 1)*c once and the certificate carries it: the
    writers and the experiment read the field, on either side of verify."""
    real_pow, eighth_powers = RingElement.__pow__, []

    def counted(x, n):
        if n == 8:
            eighth_powers.append(x)
        return real_pow(x, n)

    monkeypatch.setattr(RingElement, "__pow__", counted)
    code, out = invoke(capsys, *emitter)
    assert code == 0 and len(eighth_powers) == 1
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert invoke_json(capsys, "verify", "-")[0] == 0
    assert len(eighth_powers) == 2


@pytest.mark.parametrize("command", ["ring info", "unit find"], ids=["ring-info", "unit-find"])
def test_localization_by_a_prime_past_the_trial_division_bound_exit_1(command):
    check(EMIT[command]["m-100000000000000003"])


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

    def main(*argv):
        return subprocess.run([sys.executable, "-m", "sl2units.cli", *argv],
                              capture_output=True, text=True, env=bounded.ENV, timeout=60)

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


ZERO_IDEAL = {"error": "ZeroIdeal", "message": "principal ideals require a nonzero generator"}
ZERO_MODULUS_COMMANDS = {
    "bfs": ["norm", "bfs", "--gen", "[[1,1],[0,1]]", "--element", "[[1,0],[0,1]]"],
    "axioms": ["norm", "axioms", "--gen", "[[1,1],[0,1]]"],
    "lemma-bound": ["norm", "lemma-bound", "--A", "[[1,0],[3,1]]", "--samples", "2"],
}


@pytest.mark.parametrize("ring", ["Z", "Z[1/2]", "Z[sqrt2]"])
@pytest.mark.parametrize("command", list(ZERO_MODULUS_COMMANDS))
def test_zero_modulus_exit_1(capsys, command, ring):
    argv = [*ZERO_MODULUS_COMMANDS[command], "--ring", ring, "--modulus", "0"]
    code, err = invoke_json(capsys, *argv)
    assert code == 1
    if command == "lemma-bound" and ring == "Z":
        # the unit for the corner is sought before the modulus is read, and Z has none
        assert err == {"error": "NoInfiniteOrderUnit", "message": "Z has only the units 1 and -1"}
    else:
        assert err == ZERO_IDEAL


@pytest.mark.parametrize(
    "argv",
    [["norm", "axioms", "--ring", "Z", "--modulus", "3", "--gen", "[[1,1],[0,1]]"],
     ["norm", "lemma-bound", "--ring", "Z[1/2]", "--A", "[[1,0],[3,1]]", "--u", "64",
      "--modulus", "11", "--samples", "3"]],
    ids=["axiom-report", "norm-experiment"],
)
def test_verify_zero_modulus_exit_1(tmp_path, capsys, argv):
    code, out = invoke(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    doc["payload"]["modulus"] = "0"
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(doc))
    code, err = invoke_json(capsys, "verify", str(path))
    assert code == 1 and err == ZERO_IDEAL


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


@pytest.mark.parametrize("name", ["strict", "allowed"], ids=["strict", "allow_degenerate"])
def test_degenerate_quotient_decided_without_drawing(name):
    check(EMIT["norm lemma-bound"][f"degenerate-{name}"])


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


@pytest.mark.parametrize("command,name", [("unit find", "order-past-the-bound-Z[1/2]"),
                                          ("unit find", "order-past-the-bound-Z[sqrt2]"),
                                          ("lemma witness", "order-past-the-bound"),
                                          ("norm lemma-bound", "order-past-the-bound")],
                         ids=["unit-Z[1/2]", "unit-Z[sqrt2]", "witness", "lemma-bound"])
def test_order_past_the_bound_exit_1_at_once(command, name):
    check(EMIT[command][name])


def test_small_index_modulus_with_huge_coordinates_runs_at_once():
    for row in (EMIT["norm bfs"]["modulus-a-unit-of-200KB"],
                EMIT["norm axioms"]["modulus-of-200KB-index-7"],
                VERIFY["axiom-report"]["modulus-of-200KB-index-7"],
                EMIT["unit find"]["c-a-unit-of-200KB"]):
        check(row)


def test_zero_denominator_argument_exit_1(capsys):
    code, err = invoke_json(capsys, "unit", "find", "--ring", "Z", "--c", "1/0")
    assert code == 1
    assert err == {"error": "ParseError", "message": "'1/0' has a zero denominator"}


def _lemma_bound_with_count(samples: int, count):
    """The lemma-bound document of `samples` draws, all of norm 1, with the
    count of its one histogram entry edited to count (equal to it as JSON)."""
    def build(capsys):
        code, doc = invoke_json(capsys, *LEMMA_BOUND, "--modulus", "11", "--samples", str(samples))
        assert code == 0 and doc["payload"]["histogram"] == {"1": samples}
        doc["payload"]["histogram"]["1"] = count
        return doc
    return build


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
        ({"kind": "axiom-report", "ring": "Z", "verified": True,
          "payload": {"modulus": "5", "seed": [5]}},
         "axiom-report payload.seed[0]: a matrix must be given as text, not int"),
        (_lemma_bound_with_count(3, 3.0),
         "norm-experiment payload.histogram: field '1' must be int, not 3.0"),
        (_lemma_bound_with_count(1, True),
         "norm-experiment payload.histogram: field '1' must be int, not True"),
    ],
    ids=["payload", "ring", "factor", "matrix", "count-float", "count-bool"],
)
def test_verify_field_of_the_wrong_json_type_exit_1(tmp_path, capsys, doc, message):
    if callable(doc):
        doc = doc(capsys)
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
def test_unit_find_past_the_str_limit_emits_and_verifies(ring, c):
    check(EMIT["unit find"][f"{ring}-c-{c}"])
    check(VERIFY["many-units"][f"{ring}-c-{c}"])


@pytest.mark.parametrize("name", ["modulus-7x4000-Z", "modulus-7x4000-Z[sqrt2]",
                                  "modulus-random-Z[sqrt2]"],
                         ids=["Z", "Z[sqrt2]", "Z[sqrt2]-random"])
def test_quotient_too_large_for_a_long_modulus_exit_1(name):
    check(EMIT["norm axioms"][name])
    check(VERIFY["axiom-report"][name])


@pytest.mark.parametrize("name", ["u-of-100001-digits", "u-of-999000-digits", "u-over-2^332000"],
                         ids=["integer", "integer-1MB", "denominator"])
def test_hostile_document_with_an_integer_over_the_bound(name):
    check(VERIFY["many-units"][name])


def test_hostile_document_of_integers_at_the_bound():
    check(VERIFY["decomposition"]["ten-letters-of-100000-digits"])


@pytest.mark.parametrize("u", ["3/2^4", "1/2^100000"])
def test_power_denominator_exit_1(u):
    check(VERIFY["many-units"][f"u-{u}"])


@pytest.mark.parametrize("factor", [
    '{"kind": "conj", "by": {"factors": []}, "word": {"factors": []}}',
    '{"kind": "inv", "word": {"factors": []}}',
])
def test_nested_word_factor_exit_1(capsys, monkeypatch, factor):
    monkeypatch.setattr("sys.stdin", io.StringIO(with_conjugator('{"factors": [%s]}' % factor)))
    code, err = invoke_json(capsys, "verify", "-")
    assert code == 1 and err["error"] == "ParseError"
    assert "unknown factor kind" in err["message"]


def test_deeply_nested_word_exit_1_at_once():
    check(VERIFY["lemma2-witness"]["conjugator-nested-10^5-deep"])


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

    calls = {"compute_Y": 0, "_checked_witness": 0}

    def counted(name):
        real = getattr(lemma, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(lemma, name, counted(name))
    code, _ = invoke(capsys, "lemma", "witness", "--ring", "Z[1/2]",
                     "--A", "[[1,0],[3,1]]", "--z", "3", "--elementary")
    assert code == 0
    assert calls == {"compute_Y": 1, "_checked_witness": 1}


def test_elementary_witness_with_a_wrong_word_fails(capsys, monkeypatch):
    import sl2units.lemma as lemma
    from sl2units.sl2 import GroupWord

    # the empty word is I, congruent to I mod c, so the product test must catch it
    monkeypatch.setattr(lemma, "expand_diagonals", lambda word: GroupWord(word.ring))
    code, err = invoke_json(capsys, "lemma", "witness", "--ring", "Z[1/2]",
                            "--A", "[[1,0],[3,1]]", "--z", "3", "--elementary")
    assert code == 1
    assert err["error"] == "VerificationFailed"
    assert "misses the target" in err["message"]
