"""The engine against green mutation, an independent reference for
hereditary algebras (Keller 2011; Brüstle-Dupont-Pérotin, IMRN 2014).

Green mutation works on the 2n x n extended exchange matrix: B[s][t] is the
number of arrows s -> t minus the number t -> s, stacked over C = I.  Vertex
k is green when column k of C (its c-vector) is nonnegative; a maximal green
sequence mutates at green vertices until none is left.  The engine's
sequence of brick dimension vectors is the sequence of c-vectors as it is.
"""

from collections import Counter
from functools import cache
from math import inf

import pytest

from mgslab.algebra import AlgebraPresentation, Arrow
from mgslab.mgs import build_brick_pools, enumerate_mgs


def green_sequences(alg: AlgebraPresentation, cap: float = inf) -> list[tuple]:
    """Every maximal green sequence of alg's quiver of at most ``cap``
    mutations, whose relations are not read, as a tuple of c-vectors in the
    order of ``alg.vertices``; memoised on the extended matrix and the
    mutations left.  A green path still going at the cap is dropped.  An
    affine quiver has infinite green paths, so it needs a finite cap; a
    Dynkin quiver has none, and needs no cap."""
    n = len(alg.vertices)
    at = {v: i for i, v in enumerate(alg.vertices)}
    b = [[0] * n for _ in range(n)]
    for arrow in alg.arrows:
        b[at[arrow.source]][at[arrow.target]] += 1
        b[at[arrow.target]][at[arrow.source]] -= 1
    identity = [[int(i == j) for j in range(n)] for i in range(n)]

    @cache
    def tails(m: tuple, left: float) -> list[tuple]:
        cvectors = [tuple(row[k] for row in m[n:]) for k in range(n)]
        green = [(k, c) for k, c in enumerate(cvectors) if min(c) >= 0]
        if not green:
            return [()]
        if not left:
            return []  # still green at the cap
        out = []
        for k, c in green:
            mutated = tuple(
                tuple(-m[i][j] if k in (i, j)
                      else m[i][j] + (abs(m[i][k]) * m[k][j] + m[i][k] * abs(m[k][j])) // 2
                      for j in range(n))
                for i in range(2 * n))
            out += [(c, *tail) for tail in tails(mutated, left - 1)]
        return out

    return tails(tuple(map(tuple, b + identity)), cap)


def engine_sequences(alg: AlgebraPresentation, max_len: int | None = None) -> list[tuple]:
    """The engine's sequences as tuples of brick dimension vectors, with
    strings of at most max_len letters.  By default n - 1: a quiver of type
    A has no band, and its longest string has n - 1 letters."""
    pools = build_brick_pools(alg, len(alg.vertices) - 1 if max_len is None else max_len)
    return [tuple(tuple(w.vertices.count(v) for v in alg.vertices) for w in seq)
            for seq in enumerate_mgs(alg, pools).sequences]


def type_a(n: int, alternating: bool) -> AlgebraPresentation:
    """A_n with arrows i -> i + 1, or with every second arrow reversed."""
    arrows = []
    for i in range(1, n):
        ends = (str(i), str(i + 1))
        if alternating and i % 2 == 0:
            ends = ends[::-1]
        arrows.append(Arrow(f"a{i}", *ends))
    return AlgebraPresentation(tuple(str(i) for i in range(1, n + 1)), tuple(arrows), ())


TYPE_A = [(2, False, 2), (3, False, 9), (4, False, 98), (5, False, 2_981),
          (5, True, 19_438)]


@pytest.mark.parametrize("n, alternating, count", TYPE_A,
                         ids=[f"{'alternating' if a else 'linear'}-A{n}" for n, a, _ in TYPE_A])
def test_engine_equals_green_mutation(n, alternating, count):
    alg = type_a(n, alternating)
    reference = green_sequences(alg)
    assert len(reference) == count
    engine = engine_sequences(alg)
    assert Counter(engine) == Counter(reference)
    # each simple occurs once in a maximal green sequence
    assert min(map(len, engine)) >= n
    if not alternating:
        # the lengths of linear A_n are exactly n..n(n+1)/2
        assert {len(s) for s in engine} == set(range(n, n * (n + 1) // 2 + 1))


def _algebra(n: int, arrows: str, relations: tuple = ()) -> AlgebraPresentation:
    """Vertices 1..n, arrows written "name source target, ...", and
    relations as tuples of arrow names."""
    return AlgebraPresentation(tuple(str(i) for i in range(1, n + 1)),
                               tuple(Arrow(*a.split()) for a in arrows.split(",")), relations)


# an algebra (or its fixture's name), the engine's string length, the count
FAMILIES = [
    pytest.param("kronecker", 8, 1, id="kronecker"),
    pytest.param("a12tilde", 12, 5, id="a12tilde"),
    pytest.param(_algebra(3, "a 1 2, b 2 3, c 3 1", (("a", "b"), ("b", "c"), ("c", "a"))),
                 2, 9, id="3-cycle-rad2"),  # the Jacobian algebra of the 3-cycle
    pytest.param(_algebra(4, "a 1 2, b 3 2, c 3 4, d 1 4"), 6, 100, id="alternating-A22"),
    pytest.param(_algebra(4, "a 1 2, b 2 3, c 3 4, d 1 4"), 6, 75, id="A31"),
]


@pytest.mark.parametrize("alg, max_len, count", FAMILIES)
def test_engine_equals_capped_green_mutation(request, alg, max_len, count):
    """Affine quivers have infinite green paths, so the reference stops at
    16 mutations; every count here is the same at caps 12 and 20."""
    if isinstance(alg, str):
        alg = request.getfixturevalue(alg)
    reference = green_sequences(alg, 16)
    assert len(reference) == count
    assert Counter(engine_sequences(alg, max_len)) == Counter(reference)
