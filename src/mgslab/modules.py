"""String and band modules, tops and socles, and the substring Hom calculus.

The Hom dimension between two string modules is counted combinatorially:
located substring occurrences that are quotient-shaped in the source and
submodule-shaped in the target, matched up to inversion of the common word.
A band module M(b, lambda, 1) enters the same count through the periodic
word b^infinity, with one start position per period (Krause, *Maps between
tree and band modules*, 1991): Homs between it and a string module, and its
endomorphisms, have a basis of such pairs, so their dimensions do not
depend on lambda.  One scan counts the occurrences of either host: a
string over all its spans, a band over the spans of a power of it that
start in one period.  These counts are validated wholesale against the
linear-algebra oracle; any discrepancy is a build failure, not a tolerance.

Every count is positive, so Hom support is a set intersection: Hom(a, b)
is nonzero iff some quotient class of a is a submodule class of b.  The
search and certification masks of :mod:`mgslab.mgs` are built that way,
from the class keys of ``hom_classes`` alone.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import AlgebraPresentation
from .words import (
    Walk,
    canonical_string,
    enumerate_bands,
    enumerate_strings,
    is_band,
    is_string,
    supported_on,
)


class ModuleError(Exception):
    pass


class StringModuleRep(NamedTuple):
    """M(w): one basis vector per visited vertex position, arrows acting
    along the letters of the walk."""

    alg: AlgebraPresentation
    walk: Walk  # canonical representative
    dim_vector: tuple[tuple[str, int], ...]
    # per arrow: transitions (from_position, to_position), positions 1-based
    arrow_actions: tuple[tuple[str, tuple[tuple[int, int], ...]], ...]

    def dims(self) -> dict[str, int]:
        return dict(self.dim_vector)

    @property
    def total_dim(self) -> int:
        return sum(d for _, d in self.dim_vector)


class BandModuleRep(NamedTuple):
    """M(w, lambda, k): k copies of each visited position, identity blocks
    along the band and one Jordan block J_k(lambda^eps) on the last letter."""

    alg: AlgebraPresentation
    walk: Walk  # the band in the rotation it was given
    lam: Fraction
    k: int
    dim_vector: tuple[tuple[str, int], ...]

    def dims(self) -> dict[str, int]:
        return dict(self.dim_vector)


def string_module(alg: AlgebraPresentation, w: Walk) -> StringModuleRep:
    if not is_string(alg, w):
        raise ModuleError(f"walk {w} is not a string")
    w = canonical_string(w)
    dims = {v: 0 for v in alg.vertices}
    for v in w.vertices:
        dims[v] += 1
    actions: dict[str, list[tuple[int, int]]] = {}
    for i, letter in enumerate(w.letters, start=1):
        actions.setdefault(letter.arrow, []).append((i + 1, i) if letter.bit else (i, i + 1))
    return StringModuleRep(
        alg,
        w,
        tuple((v, dims[v]) for v in alg.vertices),
        tuple(sorted((a, tuple(sorted(ts))) for a, ts in actions.items())),
    )


def band_module(alg: AlgebraPresentation, w: Walk, lam: Fraction, k: int) -> BandModuleRep:
    from fractions import Fraction

    lam = Fraction(lam)
    if lam == 0:
        raise ModuleError("band module parameter lambda must be nonzero")
    if k < 1:
        raise ModuleError("band module parameter k must be >= 1")
    if not is_band(alg, w):
        raise ModuleError(f"walk {w} is not a band")
    visits = {v: 0 for v in alg.vertices}
    for v in w.vertices[:-1]:
        visits[v] += 1
    return BandModuleRep(
        alg, w, lam, k, tuple((v, k * visits[v]) for v in alg.vertices)
    )


def top_socle(M: StringModuleRep) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Simple tops sit at peaks of the diagram, socle simples at valleys:
    the length-0 quotient and submodule classes, each as often as it occurs."""
    return tuple(tuple(sorted(key[1][0] for key, n in counts.items() if not key[0]
                              for _ in range(n)))
                 for counts in _class_counts(M.alg, M.walk))


def band_turns(w: Walk, bit: int) -> list[int]:
    """Cyclic peak (bit 0) or valley (bit 1) positions, 0-based, of a band:
    letter p has the bit, letter p-1 the other one."""
    return [p for p in range(w.length)
            if w.letters[p - 1].bit != bit and w.letters[p].bit == bit]


def band_top_socle(w: Walk) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Top and socle of M(w, lambda, 1), read from the band's cyclic peaks
    and valleys; independent of lambda."""
    return tuple(tuple(sorted(w.vertices[p] for p in band_turns(w, bit))) for bit in (0, 1))


def _scan(letters: tuple, vertices: tuple[str, ...], spans: list) -> tuple[dict, dict]:
    """(quotient, submodule) occurrence counts per word class up to
    inversion, over the spans (i, j) of a host given by its letters and
    vertices: host letters i..j-1 (0-based), or vertex i when i = j.
    A key is read from the host letters and their inverse: host letters
    i..j-1, inverted, are letters d-j..d-i-1.

    An occurrence is quotient-shaped when its left boundary letter is
    inverse and its right one direct, submodule-shaped for the opposite
    bits; a missing boundary, past either end of the host, fits both."""
    d = len(letters)
    inverse = tuple((arrow, 1 - bit) for arrow, bit in reversed(letters))
    sides = (2, *(bit for _, bit in letters), 2)  # 2 stands for a missing letter
    quotient: dict = {}
    submodule: dict = {}
    for i, j in spans:
        left, right = sides[i], sides[j + 1]
        is_q = left != 0 and right != 1
        is_s = left != 1 and right != 0
        if is_q or is_s:
            if i == j:
                key = (0, (vertices[i],))
            else:
                key = (j - i, min(letters[i:j], inverse[d - j : d - i]))
            if is_q:
                quotient[key] = quotient.get(key, 0) + 1
            if is_s:
                submodule[key] = submodule.get(key, 0) + 1
    return quotient, submodule


def _require_string(alg: AlgebraPresentation, w: Walk) -> None:
    if not is_string(alg, w):
        raise ModuleError("hom_dim requires strings")


def _class_counts(alg: AlgebraPresentation, w: Walk) -> tuple[dict, dict]:
    """The scan of the string w over all its spans, the length-0 ones
    first, memoised on the algebra; a walk that is not a string raises."""
    counts = alg.walk_memo.get(w)
    if counts is None:
        _require_string(alg, w)
        counts = _string_counts(alg, w)
    return counts


def _string_counts(alg: AlgebraPresentation, w: Walk) -> tuple[dict, dict]:
    """The scan of :func:`_class_counts` for a walk known to be a string,
    memoised for it and its canonical form.  Both orientations share the
    counts of the canonical one: inverting the host swaps the boundary
    letters and their bits."""
    memo = alg.walk_memo
    c = canonical_string(w)
    counts = memo.get(c)
    if counts is None:
        d = c.length
        spans = [(p, p) for p in range(d + 1)]
        spans += [(i, j) for i in range(d) for j in range(i + 1, d + 1)]
        counts = memo[c] = _scan(c.letters, c.vertices, spans)
    memo[w] = counts
    return counts


def _band_counts(alg: AlgebraPresentation, band: Walk, max_len: int) -> tuple[dict, dict]:
    """The scan of band^infinity over the words of length <= max_len that
    start in one period, each with both boundary letters.  Memoised on the
    algebra, and scanned again only for a larger bound."""
    memo = alg.band_memo
    hit = memo.get(band)
    if hit is not None and hit[0] >= max_len:
        return hit[1], hit[2]
    if hit is None and not is_band(alg, band):
        raise ModuleError(f"walk {band} is not a band")
    n = band.length
    # a period of starts, the longest word and the letter on either side
    copies = max_len // n + 3
    spans = [(i, i + m) for i in range(n, 2 * n) for m in range(max_len + 1)]
    quotient, submodule = _scan(band.letters * copies, band.vertices[:-1] * copies, spans)
    memo[band] = (max_len, quotient, submodule)
    return quotient, submodule


def hom_classes(alg: AlgebraPresentation, w: Walk, band_bound: int | None = None):
    """(quotient, submodule) class keys of the string module M(w), or with
    ``band_bound`` those of the periodic word of the band w, which serve
    M(w, lambda, 1) against strings of length <= band_bound.  The band's
    keys hold every word of that length or shorter, and may hold longer
    ones, left from a scan at a larger bound, which no such string has."""
    q, s = _class_counts(alg, w) if band_bound is None else _band_counts(alg, w, band_bound)
    return q.keys(), s.keys()


def _pairs(quotient: dict, submodule: dict) -> int:
    """The pairs of a quotient occurrence in the source and a submodule
    occurrence in the target with one class: a Hom dimension.  Looks up
    the classes of the smaller side in the other."""
    if len(submodule) < len(quotient):
        quotient, submodule = submodule, quotient
    n = 0
    for key, m in quotient.items():
        if key in submodule:
            n += m * submodule[key]
    return n


def hom_dim(alg: AlgebraPresentation, w: Walk, other: Walk) -> int:
    """dim Hom(M(w), M(other)) by the substring calculus.

    Counts pairs of a quotient occurrence in w and a submodule occurrence in
    other carrying the same word up to inversion; a length-0 word matches in
    a single orientation.  Both counts are read from ``alg.walk_memo``
    here, and scanned (or the walk rejected) only on a miss.
    """
    memo = alg.walk_memo
    source, target = memo.get(w), memo.get(other)
    return _pairs((source or _class_counts(alg, w))[0],
                  (target or _class_counts(alg, other))[1])


def hom_dim_string_band(alg: AlgebraPresentation, w: Walk, band: Walk) -> int:
    """dim Hom(M(w), M(band, lambda, 1)), the same for every lambda: quotient
    occurrences in w against submodule occurrences in band^infinity."""
    return _pairs(_class_counts(alg, w)[0], _band_counts(alg, band, w.length)[1])


def hom_dim_band_string(alg: AlgebraPresentation, band: Walk, w: Walk) -> int:
    """dim Hom(M(band, lambda, 1), M(w)), the same for every lambda."""
    return _pairs(_band_counts(alg, band, w.length)[0], _class_counts(alg, w)[1])


def band_end_dim(alg: AlgebraPresentation, band: Walk) -> int:
    """dim End M(band, lambda, 1), the same for every lambda: the identity
    plus the pairs over words shorter than the band.  A band is primitive
    and no rotation of its inverse, so no longer word is both quotient- and
    submodule-shaped in band^infinity."""
    n = band.length
    q, s = _band_counts(alg, band, n - 1)
    return 1 + sum(m * s.get(key, 0) for key, m in q.items() if key[0] < n)


def _short_witness(w: Walk) -> bool:
    """Whether some word of length <= 2, shorter than the string w, has a
    quotient-shaped and a submodule-shaped occurrence in w (the shapes of
    :func:`_scan`).  A word of length 0 is its vertex, of length 1 its
    arrow, of length 2 the smaller of its letters and their inverse.
    Scans w as given: inverting the host keeps every occurrence's shape."""
    d, letters = w.length, w.letters
    sides = (2, *(bit for _, bit in letters), 2)  # 2 stands for a missing letter
    words = w.vertices
    for m in range(min(d, 3)):
        shapes = list(zip(words, sides, sides[m + 1:]))
        if not {u for u, left, right in shapes if left != 0 and right != 1}.isdisjoint(
                {u for u, left, right in shapes if left != 1 and right != 0}):
            return True
        words = ([arrow for arrow, _ in letters] if m == 0 else
                 [min((x, y), ((y[0], 1 - y[1]), (x[0], 1 - x[1])))
                  for x, y in zip(letters, letters[1:])])
    return False


def is_brick(alg: AlgebraPresentation, w: Walk) -> bool:
    """Over an algebraically closed field End is a division algebra iff it
    is one dimensional, so a string module is a brick iff hom_dim(w, w) = 1.

    A short witness settles most non-bricks first.  The whole word w is the
    one class of its length, quotient- and submodule-shaped at once, so it
    adds exactly 1 to dim End; a shorter class with a quotient-shaped and a
    submodule-shaped occurrence adds at least 1 more.  So a word of length
    <= 2 that is such a class proves dim End >= 2, and the string is
    rejected without the full class scan, leaving no ``walk_memo`` entry.
    Only the strings without one are scanned, and their counts memoised."""
    if w not in alg.walk_memo:
        _require_string(alg, w)
    return _string_is_brick(alg, w)


def _string_is_brick(alg: AlgebraPresentation, w: Walk) -> bool:
    """:func:`is_brick` for a walk known to be a string."""
    counts = alg.walk_memo.get(w)
    if counts is None:
        if _short_witness(w):
            return False
        counts = _string_counts(alg, w)
    return _pairs(*counts) == 1


class BrickInfo(NamedTuple):
    walk: Walk
    band_square_supports: tuple[Walk, ...]  # bands w with the brick supported on w^2


def enumerate_bricks(alg: AlgebraPresentation, max_len: int) -> tuple[BrickInfo, ...]:
    """All string bricks of length <= max_len in deterministic order, each
    annotated with the bands (of length <= max_len//2) whose square
    supports it; memoised on the presentation."""
    from .concurrency import pmap

    key = ("bricks", max_len)
    if key in alg.memo:
        return alg.memo[key]
    bands = enumerate_bands(alg, max_len // 2)
    strings = enumerate_strings(alg, max_len)  # strings, so left unchecked
    brickhood = pmap(lambda w: _string_is_brick(alg, w), strings)
    return alg.memo.setdefault(key, tuple(
        BrickInfo(w, tuple(b for b in bands if supported_on(w, b, 2)))
        for w, ok in zip(strings, brickhood) if ok))
