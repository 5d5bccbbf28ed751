"""Golden CLI outputs: fixed in-process invocations and the SHA-256 of their stdout.

Each case is one `cli.run` call.  A `verify -` case reads the stdout of
another case on stdin, optionally after a tamper step.  The hashes pin every
byte the CLI prints, so refactors of the certificate code must keep them.
To re-record after an intended output change, run
`PYTHONPATH=src python tests/test_golden_cli.py`: it prints the current table.
"""

import contextlib
import functools
import hashlib
import io
import json
import sys

import pytest

from sl2units.cli import run

A3 = "[[1,0],[3,1]]"

# id -> (argv, stdin source id or None, tamper or None)
CASES = {
    "ring-info-z6": (["ring", "info", "--ring", "Z[1/6]"], None, None),
    "ring-info-sqrt2": (["ring", "info", "--ring", "Z[sqrt2]"], None, None),
    "ring-info-z": (["ring", "info", "--ring", "Z"], None, None),
    "unit-find": (["unit", "find", "--ring", "Z[1/2]", "--c", "3"], None, None),
    "unit-find-sqrt2": (["unit", "find", "--ring", "Z[sqrt2]", "--c", "2"], None, None),
    # k = 2058: y, u and the epsilon generator are past CPython's 4300-digit str() limit
    "unit-find-z3-c49": (["unit", "find", "--ring", "Z[1/3]", "--c", "49"], None, None),
    "witness": (["lemma", "witness", "--ring", "Z[1/2]", "--A", A3, "--z", "3"], None, None),
    "witness-elementary": (
        ["lemma", "witness", "--ring", "Z[1/2]", "--A", A3, "--z", "-6", "--elementary"],
        None,
        None,
    ),
    "lemma-y": (["lemma", "y", "--ring", "Z[1/2]", "--A", A3, "--u", "64"], None, None),
    "decompose": (["decompose", "--ring", "Z", "--A", "[[2,1],[3,2]]"], None, None),
    "decompose-tie": (["decompose", "--ring", "Z", "--A", "[[2,1],[5,3]]"], None, None),
    "decompose-tie-negative": (["decompose", "--ring", "Z", "--A", "[[2,-1],[-5,3]]"], None, None),
    "decompose-sqrt2": (
        ["decompose", "--ring", "Z[sqrt2]", "--A", "[[1+sqrt(2),0],[sqrt(2),-1+sqrt(2)]]"],
        None,
        None,
    ),
    "h-decompose": (["h-decompose", "--ring", "Z[sqrt2]", "--u", "1+sqrt(2)"], None, None),
    "norm-bfs": (
        ["norm", "bfs", "--ring", "Z", "--modulus", "5", "--gen", "[[1,1],[0,1]]",
         "--element", "[[-1,0],[0,-1]]", "--closure"],
        None,
        None,
    ),
    # no --closure: -I alone is closed; E12(1) alone is not (GeneratorsNotClosed)
    "norm-bfs-closed-set": (
        ["norm", "bfs", "--ring", "Z", "--modulus", "5", "--gen", "[[-1,0],[0,-1]]",
         "--element", "[[1,1],[0,1]]"],
        None,
        None,
    ),
    "norm-bfs-open-set": (
        ["norm", "bfs", "--ring", "Z", "--modulus", "5", "--gen", "[[1,1],[0,1]]",
         "--element", "[[1,1],[0,1]]"],
        None,
        None,
    ),
    "lemma-bound": (
        ["norm", "lemma-bound", "--ring", "Z[1/3]", "--A", "[[1,0],[2,1]]", "--u", "9",
         "--modulus", "7", "--samples", "10", "--seed", "4"],
        None,
        None,
    ),
    "lemma-bound-found-unit": (
        ["norm", "lemma-bound", "--ring", "Z[1/2]", "--A", A3, "--modulus", "11",
         "--samples", "10", "--seed", "4"],
        None,
        None,
    ),
    "lemma-bound-bad-unit": (
        ["norm", "lemma-bound", "--ring", "Z[1/2]", "--A", A3, "--u", "2",
         "--modulus", "11", "--samples", "10"],
        None,
        None,
    ),
    "axioms": (
        ["norm", "axioms", "--ring", "Z", "--modulus", "3", "--gen", "[[1,1],[0,1]]"],
        None,
        None,
    ),
    "axioms-too-large": (
        ["norm", "axioms", "--ring", "Z", "--modulus", "101", "--gen", "[[1,1],[0,1]]"],
        None,
        None,
    ),
    "domain-error": (["unit", "find", "--ring", "Z", "--c", "3"], None, None),
    "unit-find-zero": (["unit", "find", "--ring", "Z", "--c", "0"], None, None),
    "verify-many-units": (["verify", "-"], "unit-find", None),
    "verify-many-units-z3-c49": (["verify", "-"], "unit-find-z3-c49", None),
    "verify-witness": (["verify", "-"], "witness", None),
    "verify-witness-elementary": (["verify", "-"], "witness-elementary", None),
    "verify-decomposition": (["verify", "-"], "decompose-sqrt2", None),
    "verify-decomposition-tie": (["verify", "-"], "decompose-tie", None),
    "verify-decomposition-tie-negative": (["verify", "-"], "decompose-tie-negative", None),
    "verify-h-decomposition": (["verify", "-"], "h-decompose", None),
    "verify-norm-experiment": (["verify", "-"], "lemma-bound", None),
    "verify-norm-experiment-found-unit": (["verify", "-"], "lemma-bound-found-unit", None),
    "verify-axiom-report": (["verify", "-"], "axioms", None),
    "verify-tampered": (["verify", "-"], "unit-find", ("u", "32")),
    "verify-bad-json": (["verify", "-"], None, None),
    "usage-error": (["unit", "find", "--ring", "Z[1/2]"], None, None),
}

# id -> (exit code, stdout SHA-256)
GOLDEN = {
    "ring-info-z6": (0, "aab5894a4c4f24386cdf8baabc2953d9c523d8cd1688d4a69b50f3f2a9aeb1e9"),
    "ring-info-sqrt2": (0, "7b4ef79656c43abc256f6abe0ed7f3c622eaee653605e8ae558d2284fcf6f4ce"),
    "ring-info-z": (0, "51cc2f1d61df9b48ee018704bc24731eb7bebe092b6ba0b2042ce7c2b255c7fc"),
    "unit-find": (0, "ae617cedcabc45b3240bdb3390148bd296f6f0a616fc14064f82dce473e28745"),
    "unit-find-sqrt2": (0, "5f9e72d702fa3b7b53a914ef0a09f0c2b2a0d05f3e18bb359936df9c3f166f24"),
    "unit-find-z3-c49": (0, "64f532e4862729246e2ca544ecf35effea2cdc41955c32647958bcb7f42a70e0"),
    "witness": (0, "654e0d7c5787a28f37e2297f216f360cf7e27e51205333c94e60bc9320cb10a4"),
    "witness-elementary": (0, "8f5676931a208872748159d5184e8417f15bb63a7828acfcd4a767fb1e031822"),
    "lemma-y": (0, "39a395a19efbafd41f4e9b3a54fb5647cd65d1d54d6ba25e07ba9fb774d5f82b"),
    "decompose": (0, "82bbaf1d07e1204641a183d342af41bb86e54941b0241c89b472f8d235e70bcf"),
    "decompose-tie": (0, "f84e685f3435395d5da2fa78fc884e1664e22d568d4bc07f3cf714859bd42280"),
    "decompose-tie-negative": (0, "f88c31162ac3b38228bdc50538260c2fd9b80253226870361547895ee3c6f249"),
    "decompose-sqrt2": (0, "ac34a4fe39a1f280029137f561a35b13cbbf2f7d213bb23832bb560a2e2a1889"),
    "h-decompose": (0, "1e0a5de18ed61989c04328efe9e5497e000c1e4890378e2f79792328cbdebea3"),
    "norm-bfs": (0, "d16af212851b6d20714799af358eb92bb9b1c034c5b88b2dc794329e4e0222b0"),
    "norm-bfs-closed-set": (0, "ab322c5c51604ca962e3b72e1fe3946417621505c221304c4f5baea421dfa12c"),
    "norm-bfs-open-set": (1, "52eaa70e91032b14bf3aecb02ae9d5453ad883bbfbf85a0c43c90f7eec619484"),
    "lemma-bound": (0, "e7749862ce8248432deb94a6ad0852511a04e5923096212b27c95672ed61d058"),
    "lemma-bound-found-unit": (0, "29e33707346dbaa1f242c373ebfb980fbdad2aafe3aa801adce96202c7de5d4f"),
    "lemma-bound-bad-unit": (1, "1c31a8210edc903d8e4e44d19b84e87c1fdd04a8dae2a91446322ca0a26f3a41"),
    "axioms": (0, "6037333bd0bdc76a689a151d029a27ec1c3a782ec9ec6f30a32c7325b64d7c4d"),
    "axioms-too-large": (1, "2f4cda414763faa7f73e1240cac24dcca4c4c59af84e094eaddc7a59023af644"),
    "domain-error": (1, "db503a776ea07a58194a0f6eb0fb7a329c4af850a4b6dc36299ab52b4665b1a4"),
    "unit-find-zero": (1, "d78ea12abd04797f6e23a3c3f0efb3514fc3d732a6098d7598dacb6044a6b464"),
    "verify-many-units": (0, "9cf7695144955a6490c19e5b6942df6ce37be65c69e6f65ee4ffe898fb6b26f2"),
    "verify-many-units-z3-c49": (0, "94b04e14dff7ad55fb95f1fa599a8c0c584c7d6ded15b0b5a41ba8f4a42a2fe9"),
    "verify-witness": (0, "d5ae3385e19bebebf388c6e0267f5ee431a4bd53d09ff92589cb478212b92f4c"),
    "verify-witness-elementary": (0, "d5ae3385e19bebebf388c6e0267f5ee431a4bd53d09ff92589cb478212b92f4c"),
    "verify-decomposition": (0, "1e0751af11174ee64d2c4f00321772fc48004914a187ecd55a1a2fc34f5b2d49"),
    "verify-decomposition-tie": (0, "f7c67dd06b0119a89ba581df1f26f15a8d26f8e76bf3e039f626b509502fd377"),
    "verify-decomposition-tie-negative": (0, "f7c67dd06b0119a89ba581df1f26f15a8d26f8e76bf3e039f626b509502fd377"),
    "verify-h-decomposition": (0, "b2031a22d77454b6eed2ba56ed7f13c849f18b1cbdf9671e5f5b64e90854f0ec"),
    "verify-norm-experiment": (0, "562b43463068b142a0dccc0972bb2738afed7d1e0fe5397463b1fc594930d36a"),
    "verify-norm-experiment-found-unit": (0, "f79a5cd0cc67d65603849d0e8ff68caffc39e916c6975ddbda2de5181bb085c4"),
    "verify-axiom-report": (0, "0f232e135753272d0a2d453fef1cc8fa25f2d7bf8c24f86b89e9d04322a615ee"),
    "verify-tampered": (1, "ac5741f140354fb13b5964de1800d54676f30b4f854cf91c8f1a9349c9d04c29"),
    "verify-bad-json": (1, "db68790f3664768737515fbc5879e06aa4948a6b384fda258cb73a79cf58265f"),
    "usage-error": (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@functools.lru_cache(maxsize=None)
def _invoke(case_id):
    argv, source, tamper = CASES[case_id]
    stdin = "{ not json" if argv == ["verify", "-"] else ""  # a verify with no source
    if source is not None:
        stdin = _invoke(source)[1]
        if tamper is not None:
            doc = json.loads(stdin)
            doc["payload"][tamper[0]] = tamper[1]
            stdin = json.dumps(doc)
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = run(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_case_has_a_golden_entry():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_golden_output(case_id):
    code, out = _invoke(case_id)
    assert (code, _digest(out)) == GOLDEN[case_id]


if __name__ == "__main__":
    for case_id in CASES:
        code, out = _invoke(case_id)
        print(f'    "{case_id}": ({code}, "{_digest(out)}"),')
