"""Elementary decomposition: the Euclid driver, its division lemma, diagonal expansion."""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2units.cli import run
from sl2units.elemgen import (
    Decomposition,
    _divide,
    decompose,
    expand_diagonals,
    h_decomposition,
)
from sl2units.errors import NonUnit, UnsupportedRing
from sl2units.rings import (
    QUADRATIC,
    euclidean_size,
    exact_quotient,
    integers,
    localized,
    quadratic,
)
from sl2units.sl2 import (
    ElemFactor,
    diag,
    elem12,
    elem21,
    identity,
    parse_matrix,
    word_diag,
    word_elem,
)
from tests.conftest import ALL_RINGS, count_calls, random_sl2, reduces_to_identity

Z = integers()
Zh = localized(2)
R2 = quadratic(2)


# ---------------------------------------------------------------------------
# h(u): six-factor diagonal decomposition


@pytest.mark.parametrize(
    "ring,unit",
    [
        (Z, "1"),
        (Z, "-1"),
        (Zh, "2"),
        (Zh, "1/8"),
        (localized(6), "-9"),
        (R2, "1+sqrt(2)"),
        (quadratic(3), "2-sqrt(3)"),
    ],
)
def test_h_decomposition_units(ring, unit):
    from sl2units.rings import parse_element

    u = parse_element(ring, unit)
    dec = h_decomposition(u)
    assert dec.length == 6
    assert dec.matrix == diag(u)
    assert dec.word.evaluate() == diag(u)


def test_h_decomposition_rejects_nonunit():
    with pytest.raises(NonUnit):
        h_decomposition(Z.from_int(2))


def test_h_decomposition_factor_pattern():
    u = Zh.from_int(2)
    args = [(f.position, str(f.argument)) for f in h_decomposition(u).word.factors]
    assert args == [
        ("12", "2"),
        ("21", "-1/2"),
        ("12", "2"),
        ("12", "-1"),
        ("21", "1"),
        ("12", "-1"),
    ]


# ---------------------------------------------------------------------------
# decompose: worked examples


def test_decompose_two_factor_example():
    m = parse_matrix(Z, "[[1,1],[1,2]]")
    dec = decompose(m)
    steps = [(f.position, str(f.argument)) for f in dec.word.factors]
    assert steps == [("21", "1"), ("12", "1")]


def test_decompose_four_factor_example():
    m = parse_matrix(Z, "[[2,1],[3,2]]")
    dec = decompose(m)
    assert dec.length <= 4
    assert dec.word.evaluate() == m


def test_decompose_trivial_cases():
    assert decompose(identity(Z)).length == 0
    x = Zh.from_fraction(5, 4)
    assert decompose(elem12(x)).length == 1
    assert decompose(elem21(x)).length == 1
    assert decompose(diag(Zh.from_int(4))).length == 6


def test_decompose_unsupported_ring():
    r5 = quadratic(5)
    m = elem21(r5.from_pair(0, 1)) * elem12(r5.one())
    with pytest.raises(UnsupportedRing):
        decompose(m)


def test_decompose_round_trip_all_rings(rng):
    for ring in ALL_RINGS:
        for _ in range(30):
            m = random_sl2(ring, rng, factors=6, arg_height=4)
            dec = decompose(m)
            assert dec.matrix == m
            assert dec.word.evaluate() == m
            assert all(isinstance(f, ElemFactor) for f in dec.word.factors)


def test_decompose_regression_length_bound():
    # frozen measurement: entries up to 100 decompose in at most 7 factors
    rng = random.Random(1234)
    worst = 0
    for _ in range(200):
        m = random_sl2(Z, rng, factors=8, arg_height=4)
        if max(abs(int(e.rat)) for e in (m.a, m.b, m.c, m.d)) > 100:
            continue
        worst = max(worst, decompose(m).length)
    assert worst <= 12


def test_decompose_deterministic(rng):
    m = random_sl2(Zh, rng, factors=6, arg_height=5)
    first = decompose(m)
    second = decompose(m)
    assert first.word == second.word


# ---------------------------------------------------------------------------
# the division lemma: every Euclid step strictly shrinks the remainder

DIVISION_RINGS = [Z, Zh, localized(6), R2, quadratic(3)]


def _element(ring, data):
    num, exp, irr = data
    if ring.kind == "quadratic":
        return ring.from_pair(num, irr)
    if ring.kind == "localized":
        return ring.from_fraction(num, ring.param**exp)
    return ring.from_int(num)


_ELEMENT_DATA = st.tuples(
    st.integers(-10**6, 10**6), st.integers(0, 6), st.integers(-10**6, 10**6)
)


# Reference divisions for _divide, one per kind of ring: each sizes its
# operands itself, and the localized one finds ux/uy through exact_quotient
# and inverse.


def _reference_divide_localized(x, y):
    ring = x.ring
    if not x:
        return ring.zero()
    nx, ny = euclidean_size(x), euclidean_size(y)
    ux = exact_quotient(x, ring.from_int(nx))
    uy = exact_quotient(y, ring.from_int(ny))
    t = round(Fraction(nx, ny))
    return ux * uy.inverse() * t


def _reference_divide_quadratic(x, y):
    n = y.field_norm()
    num = x * y.conjugate()
    return x.ring.from_pair(round(num.rat / n), round(Fraction(num.irr) / n))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DIVISION_RINGS), _ELEMENT_DATA, _ELEMENT_DATA)
def test_divide_matches_the_per_ring_reference(ring, x_data, y_data):
    x, y = _element(ring, x_data), _element(ring, y_data)
    if not (x and y):
        return
    reference = (
        _reference_divide_quadratic if ring.kind == QUADRATIC else _reference_divide_localized
    )
    q = _divide(x, y, euclidean_size(x), euclidean_size(y))
    assert q == reference(x, y)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DIVISION_RINGS), _ELEMENT_DATA, _ELEMENT_DATA)
def test_division_remainder_shrinks(ring, x_data, y_data):
    x, y = _element(ring, x_data), _element(ring, y_data)
    if not (x and y):
        return
    q = _divide(x, y, euclidean_size(x), euclidean_size(y))
    assert euclidean_size(x - q * y) < euclidean_size(y)


def test_division_over_Z_rounds_half_to_even():
    for x in range(-50, 51):
        for y in range(-50, 51):
            if x and y:
                q = _divide(Z.from_int(x), Z.from_int(y), abs(x), abs(y))
                assert q == round(Fraction(x, y)), (x, y)


def test_division_that_does_not_shrink_is_internal_error(capsys, monkeypatch):
    import sl2units.elemgen as elemgen

    monkeypatch.setattr(elemgen, "_divide", lambda x, y, nx, ny: x.ring.zero())
    assert run(["decompose", "--ring", "Z", "--A", "[[2,1],[3,2]]"]) == 3
    err = json.loads(capsys.readouterr().out)
    assert err["error"] == "InternalError"
    assert err["message"].startswith("AssertionError: division of 3 by 2")


# ---------------------------------------------------------------------------
# derived helpers


def test_expand_diagonals():
    u = Zh.from_int(4)
    w = word_elem("12", Zh.one()) * word_diag(u) * word_elem("21", Zh.one()) * word_diag(u.inverse())
    flat = expand_diagonals(w)
    assert all(isinstance(f, ElemFactor) for f in flat.factors)
    assert len(flat) == 2 + 2 * 6
    assert flat.factors[0] == w.factors[0] and flat.factors[7] == w.factors[2]
    assert flat.evaluate() == w.evaluate()


def test_decomposition_invariants_enforced():
    m = parse_matrix(Z, "[[1,1],[0,1]]")
    with pytest.raises(ValueError):
        Decomposition(m, word_elem("12", Z.from_int(2)))  # wrong evaluation
    with pytest.raises(ValueError):
        Decomposition(diag(Zh.from_int(2)), word_diag(Zh.from_int(2)))  # non-elementary


def test_reduces_to_identity():
    three = Z.from_int(3)
    assert reduces_to_identity(elem12(Z.from_int(3)), three)
    assert reduces_to_identity(elem12(Z.from_int(-6)), three)
    assert not reduces_to_identity(elem12(Z.one()), three)
    # diag(u) with u = 1 mod c^2 reduces to the identity mod c
    c = Zh.from_int(3)
    assert reduces_to_identity(diag(Zh.from_int(64)), c)
    assert not reduces_to_identity(diag(Zh.from_int(2)), c)


def test_euclid_sizes_each_corner_once_per_step(monkeypatch):
    import sl2units.elemgen as elemgen
    import sl2units.rings as rings

    calls = count_calls(monkeypatch, "euclidean_size", rings, elemgen)
    m = parse_matrix(Z, "[[233,144],[377,233]]")  # six Euclid steps over Z
    assert decompose(m).word.evaluate() == m
    assert calls[0] <= 18
