"""Command-line interface: exit codes, JSON-only output, verify round-trips."""

import json
import time

import pytest

from sl2units.cli import run


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
    code, err = invoke_json(
        capsys,
        "norm", "bfs", "--ring", "Z", "--modulus", "5",
        "--gen", "[[1,1],[0,1]]", "--element", "[[-1,0],[0,-1]]",
    )
    assert code == 1 and err["error"] == "GeneratorsNotClosed"


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
    import io

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


def test_verify_unreadable_and_invalid(tmp_path, capsys):
    code, err = invoke_json(capsys, "verify", str(tmp_path / "missing.json"))
    assert code == 1 and err["error"] == "ParseError"
    path = tmp_path / "junk.json"
    path.write_text("{ not json")
    code, err = invoke_json(capsys, "verify", str(path))
    assert code == 1 and err["error"] == "ParseError"


# ---------------------------------------------------------------------------
# failure modes


def test_domain_error_exit_1(capsys):
    code, err = invoke_json(capsys, "unit", "find", "--ring", "Z", "--c", "3")
    assert code == 1
    assert err["error"] == "NoInfiniteOrderUnit"
    assert "message" in err


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
    code, err = invoke_json(capsys, "h-decompose", "--ring", "Z[1/2]", "--u", "1" + "0" * 5000)
    assert code == 1 and err["error"] == "ParseError"
    assert "limit" in err["message"]


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

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_ring_info", broken)
    code, err = invoke_json(capsys, "ring", "info", "--ring", "Z")
    assert code == 3
    assert err == {"error": "InternalError", "message": "RuntimeError: boom"}


def test_help_exit_0(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


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
