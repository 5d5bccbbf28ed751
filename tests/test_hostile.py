"""Hostile inputs that every command answers or refuses in bounded time.

A row is one `sl2units` command, run by tests/bounded.py in a child with a
memory cap and a hard timeout: its argv, the document that `verify -` reads,
the exit code (0, 1 or 2; 3 is a bug), the error class of a refusal or a fact
of the answer, the refusal's whole message, and the bound in seconds on the
`cli.run` call.  EMIT holds a table per emitting subcommand and VERIFY one per
certificate kind, and `test_row` runs every row, one at a time.  The older
test named for each finding keeps its name beside the code it concerns, and
checks the same rows, which run once.
"""

import contextlib
import functools
import io
import json
import random
from typing import Callable, NamedTuple, Optional

import pytest

from sl2units import cli
from sl2units.rings import DENOMINATOR_BOUND, DIGIT_BOUND, ORDER_BOUND, _int_text, quadratic
from tests import bounded


class Row(NamedTuple):
    argv: tuple
    code: int
    shows: object = None  # a refusal's error class, or a predicate on the answer
    message: Optional[str] = None  # a refusal's whole message, if it is stated
    bound: float = 1.0
    document: Optional[Callable[[], str]] = None  # the stdin text, built when the row runs


def emit(command: str, code: int, shows=None, message=None, bound=1.0) -> Row:
    return Row(tuple(command.split()), code, shows, message, bound)


def verify(document, code: int, shows=None, message=None, bound=1.0) -> Row:
    return Row(("verify", "-"), code, shows, message, bound, document)


@functools.cache
def outcome(row: Row) -> bounded.Outcome:
    """The row's one run: a verify row may read what an emit row printed."""
    return bounded.run(row.argv, row.document() if row.document else "",
                       timeout=row.bound + bounded.MARGIN)


def check(row: Row) -> dict:
    """Run the row and assert what it states; the answer's JSON for further checks."""
    done = outcome(row)
    assert done.code is not None, f"killed at the hard timeout of {row.bound + bounded.MARGIN} s"
    assert done.code == row.code, f"exit {done.code}: {done.stdout[:500]}"
    assert done.seconds < row.bound, f"took {done.seconds:.2f} s, bound {row.bound} s"
    doc = json.loads(done.stdout or "{}")  # a usage error (exit 2) prints nothing
    if row.code == 1:
        assert doc["error"] == row.shows and row.message in (None, doc["message"]), doc
    assert row.code == 1 or row.shows is None or row.shows(doc), done.stdout[:500]
    return doc


def has(path: str, value) -> Callable[[dict], bool]:
    """The fact that the answer holds value at the dotted path."""
    return lambda doc: functools.reduce(dict.get, path.split("."), doc) == value


@functools.cache
def emitted(command: str) -> str:
    """What an emitter prints, run in-process: a document for a verify row to edit."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(command.split()) == 0
    return out.getvalue()


def edited(command: str, ring=None, **payload) -> Callable[[], str]:
    def document():
        doc = json.loads(emitted(command))
        doc["ring"] = ring or doc["ring"]
        doc["payload"].update(payload)
        return json.dumps(doc)
    return document


def with_conjugator(text: str) -> str:
    """A witness whose first conjugator word is the JSON text given, spliced in
    as text so that it may nest deeper than json.dumps can write."""
    doc = json.loads(emitted("lemma witness --ring Z[1/2] --A [[1,0],[3,1]] --u 64 --z 3"))
    doc["payload"]["factors"][0]["conjugator"] = "@"
    return json.dumps(doc).replace('"@"', text)


def _power_too_large(v: int, u: int, k: int, bound: float) -> Row:
    """A many-units document over Z[1/3] that claims u = v^k, with c = 1."""
    payload = {"c": "1", "v": _int_text(v), "u": _int_text(u), "k": k, "y": _int_text(u - 1),
               "check_u8": True, "epsilon_generator": "1"}
    doc = {"kind": "many-units", "ring": "Z[1/3]", "payload": payload, "verified": True}
    return verify(lambda: json.dumps(doc), 1, "VerificationFailed", f"u is not {payload['v']}^{k}",
                  bound)


def _ten_letters_at_the_bound() -> str:
    """Ten transvections whose arguments have DIGIT_BOUND digits each: their
    product has entries of about 10^6 digits, and is not the recorded I."""
    factors = [{"kind": "elem", "position": "12" if i % 2 else "21", "argument": "7" * DIGIT_BOUND}
               for i in range(10)]
    payload = {"matrix": "[[1,0],[0,1]]", "word": {"factors": factors}, "length": len(factors)}
    return json.dumps({"kind": "decomposition", "ring": "Z", "payload": payload, "verified": True})


def _conjugator_of_800_letters() -> str:
    """A witness whose first conjugator is 800 alternating E21/E12 letters of
    random 1,000-digit arguments, 842 KB: evaluating it would take seconds, and
    the comparison with the construction's one-letter word refuses it at once."""
    rng = random.Random(800)
    factors = [{"kind": "elem", "position": "12" if i % 2 else "21",
                "argument": _int_text(rng.randrange(10**999, 10**1000))} for i in range(800)]
    return with_conjugator(json.dumps({"factors": factors}))


M = 10**17 + 3  # a prime: no trial division to 10^6 finds a factor
UNIT_FIND = "unit find --ring Z[1/2] --c 3"
AXIOMS = "norm axioms --gen [[1,1],[0,1]] --ring"
LEMMA_BOUND = "norm lemma-bound --ring Z[1/2] --A [[1,0],[3,1]]"
BFS_97 = "norm bfs --ring Z --modulus 97 --gen [[1,1],[0,1]] --closure --element"
# over Z[1/3], u = 9 is 1 mod 2^2 and u^8 is not 1 mod 97, and the matrix of trace
# 102 = 5 mod 97 has a closure of 9312 elements, over which each transvection has norm 3
DEEP = "norm lemma-bound --ring Z[1/3] --A [[1,50],[2,101]] --u 9 --samples 1"
PAST_THE_CAP = 4.0  # seconds: the 3 s of norms.WORK_CAP's products, plus 1
NEVER_DRAWN = f"--u 64 --modulus 5 --samples {10**8}"  # u^8 = 1 mod 5: every image trivial
DEPTH = 10**5
# (1+sqrt2)^260000, a unit with coordinates of 99,522 digits: 200 KB of text
HOSTILE = quadratic(2).from_pair(1, 1) ** 260000
# a + b*sqrt(2) with random a, b of DIGIT_BOUND digits: its Hermite form would take
# the extended Euclid loop many seconds, its norm a^2 - 2b^2 a few ms
_RNG = random.Random(12)
_A, _B = (_RNG.randrange(10 ** (DIGIT_BOUND - 1), 10**DIGIT_BOUND) for _ in "ab")


def _too_large(digits: int) -> str:
    return f"a quotient whose index has {digits} digits may exceed 1000000 elements (cap n^3)"


def _past_the_work_cap(generators: int) -> str:
    return (f"the word-length search over {generators} generators in a group of order 912576 "
            "needs more than 2500000 products")


def _order_past_the_bound(v: str) -> str:
    return (f"the order of {v} modulo (1000006000009) exceeds {ORDER_BOUND}, so its power would "
            f"have more than {DIGIT_BOUND} digits")


def _past_the_str_limit(doc) -> bool:
    return max(len(str(value)) for value in doc["payload"].values()) > 4300


STR_LIMIT = {f"{ring}-c-{c}": emit(f"unit find --ring {ring} --c {c}", 0, _past_the_str_limit,
                                   bound=2.0)
             for ring, c in [("Z[1/3]", "49"), ("Z[1/2]", "61"), ("Z[1/2]", "101")]}

EMIT = {
    "ring info": {
        # the search stops when the recurrence's q returns to 1
        "pell-unit-of-36719-digits": emit("ring info --ring Z[sqrt100000000003]", 0, bound=2.0),
        # a small-integer walk bounds log2 of the unit before any big-integer work
        "pell-unit-past-the-digit-bound": emit(
            f"ring info --ring Z[sqrt{M}]", 1, "DocumentTooLarge",
            f"the fundamental unit of Z[sqrt{M}] has more than {DIGIT_BOUND} digits"),
        # trial division to 10^6 decides every m <= 10^12, and refuses a larger m
        # with no prime factor that small at once
        **{f"m-{m}": emit(f"ring info --ring Z[1/{m}]", 0, has("infinite_order_unit", p))
           for m, p in [(999983**2, "999983"), (999999999989, "999999999989"), (2 * M, "2")]},
        **{f"m-{m}": emit(f"ring info --ring Z[1/{m}]", 1, "UnsupportedRing",
                          f"m = {m} has no prime factor up to the trial division bound 1000000")
           for m in (1000003 * 1000033, M)},
    },
    "unit find": {
        f"m-{M}": emit(f"unit find --c 3 --ring Z[1/{M}]", 1, "UnsupportedRing",
                       f"m = {M} has no prime factor up to the trial division bound 1000000", 2.0),
        # R/c^2R has index about 10^12 over Z[1/2] and 10^24 over Z[sqrt2], and
        # the order of v there is past ORDER_BOUND
        **{f"order-past-the-bound-{ring}": emit(f"unit find --ring {ring} --c 1000003", 1,
                                                "DocumentTooLarge", _order_past_the_bound(v), 2.0)
           for ring, v in [("Z[1/2]", "2"), ("Z[sqrt2]", "1+sqrt(2)")]},
        "c-a-unit-of-200KB": emit(f"unit find --ring Z[sqrt2] --c {HOSTILE}", 1,
                                  "DocumentTooLarge", bound=5.0),
        **STR_LIMIT,
        # three integers, and then three denominators, share one second, as they
        # did when one test parsed them in turn
        **{f"c-of-{name}": emit(f"unit find --ring Z[1/2] --c={c}", 1, "ParseError",
                                f"an integer of {n} digits exceeds the bound of {DIGIT_BOUND}",
                                1 / 3)
           for name, c, n in [("100001-digits", "7" * (DIGIT_BOUND + 1), DIGIT_BOUND + 1),
                              ("10^6-digits-over-1", "3" * 10**6 + "/1", 10**6),
                              ("minus-100001-digits", "-" + "1" * (DIGIT_BOUND + 1),
                               DIGIT_BOUND + 1)]},
        # a long 2-smooth denominator is refused before it is stripped
        **{f"c-over-{name}": emit(f"unit find --ring Z[1/2] --c=1/{den}", 1, "ParseError",
                                  f"a denominator of {len(den)} digits exceeds the bound of "
                                  f"{DENOMINATOR_BOUND}", 1 / 3)
           for name, den in [("2^14288", _int_text(2**14_288)),
                             ("2^332000", _int_text(2**332_000)), ("10^6-digits", "3" * 10**6)]},
        "c-over-2^100000": emit("unit find --ring Z[1/2] --c 1/2^100000", 1, "ParseError",
                                "cannot parse '1/2^100000' as an element of Z[1/2]"),
    },
    "lemma witness": {"order-past-the-bound": emit(
        "lemma witness --ring Z[1/2] --A [[1,0],[1000003,1]] --z 1000003", 1, "DocumentTooLarge",
        _order_past_the_bound("2"), 2.0)},
    "norm lemma-bound": {
        "order-past-the-bound": emit("norm lemma-bound --ring Z[1/2] --A [[1,0],[1000003,1]] "
                                     "--modulus 5", 1, "DocumentTooLarge",
                                     _order_past_the_bound("2"), 2.0),
        # decided at once, with the counts that 40 n + 200 (or n) draws would give
        "degenerate-strict": emit(f"{LEMMA_BOUND} {NEVER_DRAWN}", 1, "DegenerateQuotient",
                                  f"only 0 nontrivial images of (844424930131965) in "
                                  f"{40 * 10**8 + 200} draws; the ideal may reduce to zero "
                                  "modulo 5", 2.0),
        "degenerate-allowed": emit(f"{LEMMA_BOUND} {NEVER_DRAWN} --allow-degenerate", 0, bound=2.0,
                                   shows=lambda doc: doc["payload"]["trivial_count"] == 10**8
                                   and not doc["payload"]["samples"]),
        # the search stops at the five samples, of norm 1 or 2, in a group of 112,896
        "Z[sqrt2]-mod-7": emit("norm lemma-bound --ring Z[sqrt2] --A [[1,0],[2,1]] --samples 5 "
                               "--modulus 7", 0, has("payload.all_within_bound", True), bound=2.0),
        "mod-97-deep-sample": emit(f"{DEEP} --modulus 97", 1, "QuotientTooLarge",
                                   _past_the_work_cap(9312), PAST_THE_CAP),
    },
    # the Hermite form of cR comes from c mod |N(c)|, so a modulus of index 1 or 7
    # costs no Euclid on its digits
    "norm bfs": {
        "modulus-a-unit-of-200KB": emit(
            f"norm bfs --ring Z[sqrt2] --modulus {HOSTILE} --gen [[1,1],[0,1]] --element "
            "[[1,0],[0,1]]", 0, has("group_order", 1), bound=2.0),
        # the search stops at the element, of norm 2; -I has norm 3, past the work cap
        "mod-97-norm-2": emit(f"{BFS_97} [[1,5],[0,1]]", 0, has("norm", 2), bound=2.0),
        "mod-97-minus-I": emit(f"{BFS_97} [[-1,0],[0,-1]]", 1, "QuotientTooLarge",
                               _past_the_work_cap(4704), PAST_THE_CAP),
    },
    "norm axioms": {
        "mod-13": emit(f"{AXIOMS} Z --modulus 13", 0, has("payload.group_order", 2184)),
        # the report certifies the closure alone, of 960 and 4704 elements
        "mod-31": emit(f"{AXIOMS} Z --modulus 31", 0, has("payload.generator_count", 960)),
        "mod-97": emit(f"{AXIOMS} Z --modulus 97", 0, has("payload.generator_count", 4704)),
        "modulus-of-200KB-index-7": emit(
            f"{AXIOMS} Z[sqrt2] --modulus {HOSTILE * quadratic(2).from_pair(3, 1)}", 0,
            has("payload.group_order", 336), bound=2.0),
        "modulus-7x4000-Z": emit(f"{AXIOMS} Z --modulus {'7' * 4000}", 1, "QuotientTooLarge",
                                 _too_large(4000)),
        "modulus-7x4000-Z[sqrt2]": emit(f"{AXIOMS} Z[sqrt2] --modulus {'7' * 4000}", 1,
                                        "QuotientTooLarge", _too_large(8000)),
        "modulus-random-Z[sqrt2]": emit(
            f"{AXIOMS} Z[sqrt2] --modulus {_int_text(_A)}+{_int_text(_B)}*sqrt(2)", 1,
            "QuotientTooLarge", _too_large(len(_int_text(abs(_A**2 - 2 * _B**2))))),
    },
    "h-decompose": {  # parsing the ring factors neither m nor d
        "ring-Z[sqrt(10^17+3)]": emit(f"h-decompose --ring Z[sqrt{M}] --u 1", 0,
                                      has("ring", f"Z[sqrt{M}]")),
        "Z[1/m]-u-m^2": emit(f"h-decompose --ring Z[1/{M}] --u {M**2}", 0,
                             has("payload.unit", str(M**2))),
        "Z[1/m]-u-5/m^3": emit(f"h-decompose --ring Z[1/{M}] --u 5/{M**3}", 1, "NonUnit",
                               f"5/{M**3} is not a unit of Z[1/{M}]"),
    },
}

# 97 (97^2 - 1) + 1 is not the order of SL2(Z/97); the experiment has no samples
MOD_97 = {"modulus": "97", "group_order": 97 * (97**2 - 1) + 1}
NO_SAMPLES = {"quotient_index": 97, "requested": 0, "nontrivial_count": 0, "trivial_count": 0,
              "histogram": {}, "max_norm": 0, "all_within_bound": True, "samples": []}


def _group_order(kind: str) -> str:
    recorded = MOD_97["group_order"]
    return f"{kind} payload.group_order: recorded {recorded}, recomputed {recorded - 1}"


VERIFY = {
    "many-units": {
        **{name: verify(lambda row=row: outcome(row).stdout, 0, has("ok", True), bound=2.0)
           for name, row in STR_LIMIT.items()},
        **{f"u-{u}": verify(edited(UNIT_FIND, u=u), 1, "ParseError",
                            f"many-units payload.u: cannot parse {u!r} as an element of Z[1/2]")
           for u in ("3/2^4", "1/2^100000")},
        **{f"u-of-{n}-digits": verify(edited(UNIT_FIND, u="7" * n), 1, "ParseError",
                                      f"many-units payload.u: an integer of {n} digits exceeds "
                                      f"the bound of {DIGIT_BOUND}")
           for n in (DIGIT_BOUND + 1, 999_000)},
        # a unit of Z[1/2] under DIGIT_BOUND: 2^332000 has 99,942 digits
        "u-over-2^332000": verify(edited(UNIT_FIND, u="1/" + _int_text(2**332_000)), 1,
                                  "ParseError", "many-units payload.u: a denominator of 99942 "
                                  f"digits exceeds the bound of {DENOMINATOR_BOUND}"),
        # the height of u bounds k before v^k is taken
        **{f"k-{name}": verify(edited(UNIT_FIND, **payload), 1, "VerificationFailed",
                               f"u is not 2^{payload['k']}")
           for name, payload in [("10^11", {"k": 10**11}),
                                 ("10^30-c-3^40", {"c": str(3**40), "k": 10**30})]},
        # k is under the 2^(k-2) bound, but height(v)^k > height(u), as
        # k * (bits(height(v)) - 1) >= bits(height(u)) proves: 16 KB, where v^k
        # would have 2.5 million digits, and v and u at the parse bounds
        "v-3^200-k-26500": _power_too_large(3**200, 10**7999, 26_500, 0.1),
        "v-3^2095-k-at-the-height-bound": _power_too_large(
            3**2095, 10 ** (DIGIT_BOUND - 1), (10 ** (DIGIT_BOUND - 1)).bit_length() + 1, 1.0),
        "ring-Z[1/m]": verify(edited(UNIT_FIND, ring=f"Z[1/{M}]"), 1, "NonUnit",
                              f"2 is not a unit of Z[1/{M}]"),
        # the parser reads "+3", and the comparison with the derived text refuses it
        "non-canonical-c": verify(edited(UNIT_FIND, c="+3"), 1, "VerificationFailed",
                                  "many-units payload.c: recorded '+3', recomputed '3'"),
    },
    "lemma2-witness": {
        "conjugator-nested-10^5-deep": verify(lambda: with_conjugator(
            '{"factors": [{"kind": "inv", "word": ' * DEPTH + '{"factors": []}' + "}]}" * DEPTH),
            1, "ParseError"),
        "conjugator-of-800-letters": verify(
            _conjugator_of_800_letters, 1, "VerificationFailed",
            "lemma2-witness payload.factors[0].conjugator.factors: recorded [{'kind': 'elem', "
            "'position': '21', 'arg, recomputed [{'kind': 'elem', 'position': '12', 'arg"),
    },
    "decomposition": {"ten-letters-of-100000-digits": verify(
        _ten_letters_at_the_bound, 1, "VerificationFailed",
        "word does not evaluate to the decomposed matrix", 6.0)},
    "axiom-report": {
        **{name: verify(lambda name=name: outcome(EMIT["norm axioms"][name]).stdout, 0,
                        has("ok", True), bound=bound)
           for name, bound in [("mod-13", 1.0), ("mod-97", 1.0),
                               ("modulus-of-200KB-index-7", 2.0)]},
        **{name: verify(edited(f"{AXIOMS} Z --modulus 3", ring=row.argv[-3], modulus=row.argv[-1]),
                        1, "QuotientTooLarge", row.message)
           for name, row in EMIT["norm axioms"].items() if row.code == 1},
        # the group order is counted at once; the closure would take seconds
        "mod-97-wrong-group-order": verify(edited(f"{AXIOMS} Z --modulus 5", **MOD_97), 1,
                                           "VerificationFailed", _group_order("axiom-report")),
        # 452 bytes: a mod-5 report with the right order mod 97, refused by the closure's size
        "mod-97-right-group-order": verify(
            edited(f"{AXIOMS} Z --modulus 5", modulus="97", group_order=912576), 1,
            "VerificationFailed", "axiom-report payload.generator_count: recorded 12, "
            "recomputed 4704"),
    },
    "norm-experiment": {
        "mod-97-wrong-group-order": verify(
            edited(f"{LEMMA_BOUND} --u 64 --modulus 11 --samples 0", **MOD_97, **NO_SAMPLES), 1,
            "VerificationFailed", _group_order("norm-experiment")),
        # a mod-11 document moved to mod 97, where its one sample E12(23) has norm 3
        "mod-97-deep-sample": verify(
            edited(f"{DEEP} --modulus 11", modulus="97", quotient_index=97, group_order=912576,
                   generator_count=9312, histogram={"3": 1}, max_norm=3,
                   samples=[{"j": "86093440", "norm": 3}]), 1, "QuotientTooLarge",
            _past_the_work_cap(9312), PAST_THE_CAP),
    },
}


ROWS = {f"{kind}:{name}": row
        for table in (EMIT, VERIFY) for kind, rows in table.items() for name, row in rows.items()}


@pytest.mark.parametrize("name", ROWS)
def test_row(name):
    check(ROWS[name])


# ---------------------------------------------------------------------------
# the runner itself, with plain python -c children


def test_runner_kills_a_looping_child_with_its_process_group():
    """The child starts a grandchild and both loop.  The grandchild holds the
    child's stdout, which the runner reads to its end: the runner returns only
    once the kill of the group has closed it, at the timeout."""
    source = ("import subprocess, sys\n"
              "child = subprocess.Popen([sys.executable, '-c', 'while True: pass'])\n"
              "print(child.pid, flush=True)\n"
              "while True: pass\n")
    done = bounded.spawn(source, "", timeout=1.0)
    assert done.code is None and 1.0 <= done.seconds < 3.0 and int(done.stdout) > 0


def test_a_row_reports_the_timeout(monkeypatch):
    monkeypatch.setattr(bounded, "CLI", "while True: pass")
    with pytest.raises(AssertionError, match="killed at the hard timeout of 3.1 s"):
        check(emit("a command whose child loops", 0, bound=0.1))


def test_runner_caps_the_memory_of_a_child():
    """bytes(n) asks for n zeroed bytes at once: past the cap it fails at once."""
    done = bounded.spawn(f"bytes({4 * bounded.CAP})\nprint('allocated')", "", timeout=10.0)
    assert done.code == 1 and done.stdout == "" and done.seconds < 5.0


def test_runner_passes_an_argument_of_200KB_intact():
    """Past Linux's 128 KB per argument: the child reads its argv from stdin."""
    matrix = f"[[1,{HOSTILE}],[0,1]]"
    assert len(matrix) > 2**17
    done = bounded.run(["decompose", "--ring", "Z[sqrt2]", "--A", matrix], timeout=10.0)
    assert done.code == 0 and json.loads(done.stdout)["payload"]["matrix"] == matrix
