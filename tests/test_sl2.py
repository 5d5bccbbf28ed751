"""Matrix layer: Mat2, flat group words, JSON and text round-trips."""

import random
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2units.errors import DeterminantNotOne, NonUnit, ParseError
from sl2units.rings import (
    RingElement,
    infinite_order_unit,
    integers,
    localized,
    quadratic,
    quotient,
    random_element,
)
from sl2units.sl2 import (
    GroupWord,
    Mat2,
    diag,
    elem12,
    elem21,
    identity,
    parse_matrix,
    reduce_mat,
    word_diag,
    word_elem,
    word_from_json,
    word_to_json,
)
from tests import bounded
from tests.conftest import ALL_RINGS, random_sl2

Z = integers()
Zh = localized(2)
R2 = quadratic(2)


def _m(ring, text):
    return parse_matrix(ring, text)


# ---------------------------------------------------------------------------
# Mat2 basics


def test_determinant_enforced():
    with pytest.raises(DeterminantNotOne):
        Mat2(Z.from_int(2), Z.from_int(0), Z.from_int(0), Z.from_int(2))


def test_constructors():
    x = Z.from_int(4)
    assert elem12(x) == _m(Z, "[[1,4],[0,1]]")
    assert elem21(x) == _m(Z, "[[1,0],[4,1]]")
    assert diag(Zh.from_int(2)) == _m(Zh, "[[2,0],[0,1/2]]")
    with pytest.raises(NonUnit, match=r"^2 is not a unit of Z$"):
        diag(Z.from_int(2))
    assert identity(Z) == _m(Z, "[[1,0],[0,1]]")


def test_multiplication_and_inverse(rng):
    for ring in (Z, Zh, R2):
        for _ in range(25):
            a = random_sl2(ring, rng)
            b = random_sl2(ring, rng)
            assert (a * b).inverse() == b.inverse() * a.inverse()
            assert a * a.inverse() == identity(ring)


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["elem12", "elem21", "diag", "inverse"]),
        st.integers(-3, 3),
        st.integers(0, 2**32),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=120, deadline=None)
@given(ring=st.sampled_from(ALL_RINGS), ops=_OPS)
def test_closed_operations_stay_in_sl2(ring, ops):
    """Products, inverses, transvections and diagonals skip the
    determinant check; the validating constructor must accept each result."""
    v = ring.from_int(-1) if ring == Z else infinite_order_unit(ring)
    m = identity(ring)
    for op, n, seed in ops:
        if op in ("elem12", "elem21"):
            x = random_element(ring, random.Random(seed), 50)
            step = elem12(x) if op == "elem12" else elem21(x)
        elif op == "diag":
            step = diag(v**n)
        else:
            step = m.inverse()
        for result in (step, m * step):
            checked = Mat2(result.a, result.b, result.c, result.d)
            assert checked == result
            assert hash(checked) == hash(result)
        m = m * step


def _factor(ring, kind, n, seed):
    """E12(x), E21(x), E12(x)^-1 or diag(v^n), with x = 0 when seed is 0."""
    x = random_element(ring, random.Random(seed), 50) if seed else ring.zero()
    if kind == "diag":
        v = ring.from_int(-1) if ring == Z else infinite_order_unit(ring)
        return diag(v**n)
    m = elem12(x) if kind in ("elem12", "inverse") else elem21(x)
    return m.inverse() if kind == "inverse" else m


_MATRIX = st.lists(
    st.tuples(
        st.sampled_from(["elem12", "elem21", "diag", "inverse"]),
        st.integers(-3, 3),
        st.one_of(st.just(0), st.integers(0, 2**32)),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=120, deadline=None)
@given(ring=st.sampled_from(ALL_RINGS), left=_MATRIX, right=_MATRIX)
def test_product_equals_schoolbook(ring, left, right):
    """The product that leaves out zero terms equals w*x + y*z formed in full."""
    m, n = identity(ring), identity(ring)
    for step in left:
        m = m * _factor(ring, *step)
    for step in right:
        n = n * _factor(ring, *step)
    a, b, c, d = m.a, m.b, m.c, m.d
    e, f, g, h = n.a, n.b, n.c, n.d
    schoolbook = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
    p = m * n
    assert (p.a, p.b, p.c, p.d) == schoolbook
    assert str(p) == str(Mat2(*schoolbook))


def test_product_adds_no_zero_terms(monkeypatch):
    """x + 0, x * 0 and x * 1 return an operand, so a product builds one ring
    element per product of two entries other than 0 and 1, and one per sum of
    two nonzero terms: multiplying by the identity builds none."""
    built = [0]
    real_post_init = RingElement.__post_init__

    def counted(self):
        built[0] += 1
        real_post_init(self)

    x, u = Zh.from_fraction(3, 8), Zh.from_int(4)
    full = parse_matrix(Zh, "[[3,1/2],[4,1]]")
    cases = [
        (identity(Zh), full, 0),
        (full, identity(Zh), 0),
        (elem12(x), diag(u), 1),  # [[u, x/u], [0, 1/u]]: only x * (1/u) is new
        (diag(u), elem21(x), 1),  # [[u, 0], [x/u, 1/u]]
        (full, full, 9),  # five products of entries other than 0 and 1, four sums
    ]
    monkeypatch.setattr(RingElement, "__post_init__", counted)
    for left, right, expected in cases:
        built[0] = 0
        left * right
        assert built[0] == expected


def test_mul_oracle():
    assert _m(Z, "[[2,1],[3,2]]") * _m(Z, "[[1,1],[0,1]]") == _m(Z, "[[2,3],[3,5]]")


def test_scalar_and_trace(rng):
    """-I is central and conjugation keeps the trace."""
    minus_one = _m(Z, "[[-1,0],[0,-1]]")
    for ring in (Z, Zh, R2):
        for _ in range(10):
            g, m = random_sl2(ring, rng), random_sl2(ring, rng)
            gm = g * m * g.inverse()
            assert gm.a + gm.d == m.a + m.d
    g = _m(Z, "[[2,1],[3,2]]")
    assert g * minus_one * g.inverse() == minus_one


# ---------------------------------------------------------------------------
# text form


def test_parse_matrix_round_trip():
    for ring, text in [
        (Z, "[[2,1],[3,2]]"),
        (Zh, "[[1/2,0],[3,2]]"),
        (R2, "[[1+sqrt(2),0],[sqrt(2),-1+sqrt(2)]]"),
    ]:
        m = parse_matrix(ring, text)
        assert str(m) == text
        assert parse_matrix(ring, str(m)) == m
    assert parse_matrix(Z, " [[ 1 , 0 ],[ 0 , 1 ]] ") == identity(Z)


def test_parse_matrix_rejects():
    with pytest.raises(ParseError):
        parse_matrix(Z, "[[1,0],[0]]")
    with pytest.raises(ParseError):
        parse_matrix(Z, "[[1,0],[0,x]]")
    with pytest.raises(DeterminantNotOne):
        parse_matrix(Z, "[[1,1],[1,1]]")


# ---------------------------------------------------------------------------
# group words


def test_word_evaluation():
    u = Zh.from_int(2)
    w = word_elem("12", Zh.from_int(3)) * word_diag(u) * word_elem("21", Zh.from_int(-1))
    assert w.evaluate() == elem12(Zh.from_int(3)) * diag(u) * elem21(Zh.from_int(-1))
    assert len(w) == 3
    assert GroupWord(Zh).evaluate() == identity(Zh)


def test_word_json_round_trip():
    u = Zh.from_int(4)
    w = word_elem("12", Zh.from_fraction(3, 2)) * word_diag(u) * word_elem("21", Zh.from_int(-2))
    data = word_to_json(w)
    assert [f["kind"] for f in data["factors"]] == ["elem", "diag", "elem"]
    back = word_from_json(Zh, data)
    assert back == w
    assert back.evaluate() == w.evaluate()


# ---------------------------------------------------------------------------
# reduction to finite quotients


def test_reduce_mat_identity():
    q = quotient(Z.from_int(2))
    assert reduce_mat(elem12(Z.from_int(2)), q) == reduce_mat(identity(Z), q)
    assert reduce_mat(elem12(Z.from_int(1)), q) != reduce_mat(identity(Z), q)


def test_reduce_mat_respects_products(rng):
    q = quotient(Zh.from_int(9))
    table = {}
    for _ in range(20):
        a = random_sl2(Zh, rng)
        b = random_sl2(Zh, rng)
        ra, rb, rab = reduce_mat(a, q), reduce_mat(b, q), reduce_mat(a * b, q)
        # multiply the reduced tuples entrywise in the quotient
        prod = (
            q.add_enc(q.mul_enc(ra[0], rb[0]), q.mul_enc(ra[1], rb[2])),
            q.add_enc(q.mul_enc(ra[0], rb[1]), q.mul_enc(ra[1], rb[3])),
            q.add_enc(q.mul_enc(ra[2], rb[0]), q.mul_enc(ra[3], rb[2])),
            q.add_enc(q.mul_enc(ra[2], rb[1]), q.mul_enc(ra[3], rb[3])),
        )
        assert prod == rab


# ---------------------------------------------------------------------------
# module state


def test_fresh_imports_free_the_previous_copy():
    """Re-importing the package must let the old copy go: nothing kept at
    module level (typing's caches included) may hold its classes alive."""
    code = textwrap.dedent("""
        import gc, importlib, sys
        for _ in range(3):
            for name in [n for n in sys.modules if n.split(".")[0] == "sl2units"]:
                del sys.modules[name]
            importlib.import_module("sl2units.cli")
        gc.collect()
        print(sum(isinstance(o, type) and o.__name__ == "RingElement" for o in gc.get_objects()))
    """)
    done = bounded.spawn(code, "", timeout=60.0)
    assert done.code == 0 and done.stdout.strip() == "1"
