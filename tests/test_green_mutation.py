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

import pytest

from mgslab.algebra import AlgebraPresentation, Arrow
from mgslab.mgs import build_brick_pools, enumerate_mgs


def green_sequences(alg: AlgebraPresentation) -> list[tuple]:
    """Every maximal green sequence of alg's quiver, whose relations are not
    read, as a tuple of c-vectors in the order of ``alg.vertices``; memoised
    on the extended matrix.  The quiver must have finitely many green paths,
    as a Dynkin quiver does: on an affine one the recursion does not end."""
    n = len(alg.vertices)
    at = {v: i for i, v in enumerate(alg.vertices)}
    b = [[0] * n for _ in range(n)]
    for arrow in alg.arrows:
        b[at[arrow.source]][at[arrow.target]] += 1
        b[at[arrow.target]][at[arrow.source]] -= 1
    identity = [[int(i == j) for j in range(n)] for i in range(n)]

    @cache
    def tails(m: tuple) -> list[tuple]:
        out = []
        for k in range(n):
            c = tuple(row[k] for row in m[n:])
            if min(c) < 0:
                continue
            mutated = tuple(
                tuple(-m[i][j] if k in (i, j)
                      else m[i][j] + (abs(m[i][k]) * m[k][j] + m[i][k] * abs(m[k][j])) // 2
                      for j in range(n))
                for i in range(2 * n))
            out += [(c, *tail) for tail in tails(mutated)]
        return out or [()]

    return tails(tuple(map(tuple, b + identity)))


def engine_sequences(alg: AlgebraPresentation) -> list[tuple]:
    """The engine's sequences as tuples of brick dimension vectors.  A
    quiver of type A has no band, and its longest string has n - 1 letters."""
    pools = build_brick_pools(alg, len(alg.vertices) - 1)
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
