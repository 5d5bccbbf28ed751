"""Shared fixtures and samplers for the test suite."""

import functools
import math
import random
from array import array

import pytest

from sl2units.norms import check_norm_axioms
from sl2units.rings import (
    euclidean_size,
    height,
    integers,
    localized,
    quadratic,
    quotient,
    random_element,
)
from sl2units.sl2 import elem12, elem21, identity, reduce_mat

ALL_RINGS = [integers(), localized(2), localized(3), localized(6), quadratic(2), quadratic(3)]

# rings whose corner entries admit certified units (Z is excluded: units are +-1)
WITNESS_RINGS = [localized(2), localized(3), localized(6), quadratic(2)]


@pytest.fixture
def rng():
    return random.Random(0x5E7)


def random_sl2(ring, rng, factors=5, arg_height=5):
    """Random determinant-1 matrix built as a short product of transvections."""
    m = identity(ring)
    for _ in range(rng.randint(1, factors)):
        x = random_element(ring, rng, arg_height)
        m = m * (elem12(x) if rng.random() < 0.5 else elem21(x))
    return m


def random_witness_matrix(ring, rng, *, corner_cap=60, entry_cap=1000):
    """Random SL2 matrix with nonzero lower-left corner of bounded size.

    The corner size cap keeps the quotient R/(c^2) small enough that unit
    certification stays fast; the entry cap bounds the height of every entry.
    """
    while True:
        m = random_sl2(ring, rng, factors=4, arg_height=3)
        if not m.c:
            continue
        if euclidean_size(m.c) > corner_cap:
            continue
        if max(height(e) for e in (m.a, m.b, m.c, m.d)) > entry_cap:
            continue
        return m


def random_nonzero_nonunit(ring, rng, *, size_cap=40, height_bound=8):
    """Random c suitable for unit certification: c != 0, c not a unit."""
    from sl2units.rings import is_unit

    while True:
        c = random_element(ring, rng, height_bound)
        if not c or is_unit(c) is not None:
            continue
        if euclidean_size(c) > size_cap:
            continue
        return c


def count_calls(monkeypatch, name, *owners):
    """Patch the function that each owner binds to name with one counting
    wrapper; the returned list's one entry counts the calls."""
    calls = [0]
    original = getattr(owners[0], name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    for owner in owners:
        monkeypatch.setattr(owner, name, counted)
    return calls


def reduces_to_identity(matrix, c):
    """The oracle of acceptance criterion 1, a necessary condition for
    membership in the relative elementary subgroup of the ideal cR: the image
    of the matrix in SL2(R/cR) is the identity."""
    q = quotient(c)
    one = q.one_enc
    return reduce_mat(matrix, q) == (one, 0, 0, one)


@functools.lru_cache(maxsize=2)
def group_elements(table):
    """The reference listing of a FiniteGroupTable's group, by brute force:
    every (a, b, c, d) of residue codes with ad - bc = 1, in lexicographic
    order, read from the quotient's own arithmetic in n^3 steps."""
    q = table.quotient
    codes = range(q.index)
    by_product = [{} for _ in codes]  # by_product[a][v] lists the d with ad = v
    for a in codes:
        for d in codes:
            by_product[a].setdefault(q.mul_enc(a, d), []).append(d)
    plus_one = [[q.add_enc(q.one_enc, q.mul_enc(b, c)) for c in codes] for b in codes]
    return tuple(
        (a, b, c, d)
        for a in codes
        for b in codes
        for c in codes
        for d in by_product[a].get(plus_one[b][c], ())
    )


@functools.lru_cache(maxsize=2)
def _cayley_table(table):
    """Every product of a FiniteGroupTable by element index: products[i][j]
    is the index of g_i g_j, and inverses[i] that of g_i^-1."""
    G = group_elements(table)
    index = {g: i for i, g in enumerate(G)}
    products = [array("I", [index[table.mul(g, h)] for h in G]) for g in G]
    return products, [index[table.inv(g)] for g in G]


def verdicts_by_exhaustion(table, lengths):
    """The oracle for the four norm axioms: each one tested over every g, and
    every h or conjugator a in the group (|G|^2 steps); an element absent
    from lengths has length inf."""
    products, inverses = _cayley_table(table)
    G = group_elements(table)
    n = [lengths.get(g, math.inf) for g in G]
    e = G.index(table.identity)
    G = range(len(n))
    return {
        "separation": n[e] == 0 and all(n[g] != 0 for g in G if g != e),
        "symmetry": all(n[g] == n[inverses[g]] for g in G),
        "subadditivity": all(n[gh] <= n[g] + n[h] for g in G for h, gh in zip(G, products[g])),
        "conjugation_invariance": all(
            n[products[ag][inverses[a]]] == n[g] for a in G for g, ag in zip(G, products[a])
        ),
    }


def certify_word_length(norms):
    """The oracle that a NormTable's lengths, read as inf where it stores no
    length, are the word length over its generating set S, in |reached| |S|
    products instead of the |G|^2 of verdicts_by_exhaustion.

    Besides check_norm_axioms' test that S is symmetric and conjugation-
    closed, it checks that n(e) = 0, and at each stored g that n(gs) <= n(g) + 1
    for every s in S and, for g != e of finite length, n(gs) = n(g) - 1 for
    some s.  Both are vacuous at an unstored g, of length inf.  The first, an
    unstored gs read as inf, forces every element reachable from e to be
    stored and gives n <= word length; the second walks g down to e in n(g)
    steps, so word length <= n, S being symmetric.  A failure raises
    AssertionError.
    """
    group, n, gens = norms.group, norms.lengths, norms.generating_set
    ident, mul, get, inf = group.identity, group.mul, n.get, math.inf
    check_norm_axioms(group, gens)
    if n[ident] != 0:
        raise AssertionError(f"the identity has length {n[ident]}")
    for g, ng in n.items():
        steps = {get(mul(g, s), inf) for s in gens}
        if any(m > ng + 1 for m in steps) or (g != ident and ng < inf and ng - 1 not in steps):
            raise AssertionError(f"{group.format_element(g)} has length {ng}, not its word length")
