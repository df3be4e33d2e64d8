"""Walks, strings, and bands over an algebra presentation.

A walk is a composable word in arrows and inverse arrows, each letter an
(arrow, bit) pair, bit 0 direct and 1 inverse.  A string is a walk with no
immediate backtracking such that neither the walk nor its inverse contains
a relation as a directed subpath: a walk whose letters run through the
presentation's string automaton (``AlgebraPresentation.string_automaton``).
Strings grow on it a letter at a time, testing no factor.  The walks grown
for the longest length bound asked so far serve every shorter bound.  Bands
are primitive cyclic strings all of whose powers are strings; they are
identified up to rotation and inversion, and ``enumerate_bands`` gives one
canonical walk per class.  Nothing reassigns a walk; walks compare, hash
and sort by their key (``Walk.key``), and enumerations are memoised on
``alg.memo``.

A maximal w-substring carries its own shape, read off its two boundary
letters.  Whether a word sits as a quotient or a submodule of some host is
answered from the host's class sets (:func:`mgslab.modules.hom_classes`).
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from .algebra import AlgebraPresentation, Letter


class WalkError(Exception):
    """Malformed walk: unknown arrow, broken composability, or bad literal."""


class Walk:
    """A composable word together with its visited vertices.

    ``vertices`` always has one more entry than ``letters``; a length-0 walk
    is the trivial path e_i at ``vertices[0]``.  Nothing may reassign either
    field: the key, hash and rotations cached on the walk would go stale.

    ``==``, ``hash`` and ``<`` compare ``key()``, set when the walk is
    built: the length, then the letters themselves; a length-0 walk is
    keyed (0, (vertex,)).  Within one presentation the letters determine
    the vertices, so equal keys mean equal letters and vertices.  The hash
    of the key is computed once, so a memo lookup does not hash the nested
    key tuple again.
    """

    def __init__(self, letters: tuple[Letter, ...], vertices: tuple[str, ...]):
        self.letters, self.vertices = letters, vertices
        self._key = (len(letters), letters) if letters else (0, vertices[:1])
        self._hash = None  # hash(self._key), set on first use

    def __repr__(self) -> str:
        return f"Walk(letters={self.letters!r}, vertices={self.vertices!r})"

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def source(self) -> str:
        return self.vertices[0]

    @property
    def target(self) -> str:
        return self.vertices[-1]

    @property
    def is_cyclic(self) -> bool:
        return self.length >= 1 and self.source == self.target

    def inverse(self) -> "Walk":
        return Walk(
            tuple(l.inverse() for l in reversed(self.letters)),
            tuple(reversed(self.vertices)),
        )

    def sub(self, i: int, j: int) -> "Walk":
        """Letters i..j inclusive, 1-based; j = i-1 gives e at position i."""
        if j < i:
            return Walk((), (self.vertices[i - 1],))
        return Walk(self.letters[i - 1 : j], self.vertices[i - 1 : j + 1])

    def concat(self, other: "Walk") -> "Walk":
        if self.target != other.source:
            raise WalkError(f"cannot compose: ends at {self.target}, next starts at {other.source}")
        return Walk(self.letters + other.letters, self.vertices + other.vertices[1:])

    def power(self, k: int) -> "Walk":
        if k < 1:
            raise WalkError("power requires k >= 1")
        out = self
        for _ in range(k - 1):
            out = out.concat(self)
        return out

    def rotate(self, shift: int) -> "Walk":
        """Cyclic rotation starting at letter shift+1; only for cyclic walks."""
        if not self.is_cyclic:
            raise WalkError("rotation needs a cyclic walk")
        d = self.length
        shift %= d
        letters = self.letters[shift:] + self.letters[:shift]
        verts = self.vertices[shift:-1] + self.vertices[: shift + 1]
        return Walk(letters, verts)

    def key(self) -> tuple:
        return self._key

    @cached_property
    def rotations(self) -> tuple[Walk, ...]:
        """All rotations of w and then of w^-1, deduplicated, for a cyclic
        walk; built once per walk."""
        return tuple(dict.fromkeys(
            base.rotate(s) for base in (self, self.inverse()) for s in range(base.length)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Walk) and self._key == other._key

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._key)
        return h

    def __lt__(self, other: "Walk") -> bool:
        return self._key < other._key

    def __str__(self) -> str:
        if not self.letters:
            return f"e:{self.vertices[0]}"
        return " ".join(str(l) for l in self.letters)


def letter_endpoints(alg: AlgebraPresentation, letter: Letter) -> tuple[str, str]:
    a = alg.arrow_map.get(letter.arrow)
    if a is None:
        raise WalkError(f"unknown arrow {letter.arrow!r}")
    return (a.target, a.source) if letter.bit else (a.source, a.target)


def make_walk(alg: AlgebraPresentation, letters: Sequence[Letter], base_vertex: str | None = None) -> Walk:
    if not letters:
        if base_vertex is None:
            raise WalkError("length-0 walk needs a base vertex")
        if base_vertex not in alg.vertex_index:
            raise WalkError(f"unknown vertex {base_vertex!r}")
        return Walk((), (base_vertex,))
    verts = []
    prev_end: str | None = None
    for l in letters:
        s, t = letter_endpoints(alg, l)
        if prev_end is not None and s != prev_end:
            raise WalkError(f"letters do not compose at {l}")
        if prev_end is None:
            verts.append(s)
        verts.append(t)
        prev_end = t
    return Walk(tuple(letters), tuple(verts))


def parse_walk(alg: AlgebraPresentation, text: str) -> Walk:
    """Parse the walk literal syntax: ``g2 b2 a2- g2 b1-`` or ``e:<vertex>``."""
    text = text.strip()
    if not text:
        raise WalkError("empty walk literal")
    if text.startswith("e:"):
        return make_walk(alg, (), base_vertex=text[2:].strip())
    letters = []
    for tok in text.split():
        if tok.endswith("-"):
            letters.append(Letter(tok[:-1], 1))
        else:
            letters.append(Letter(tok, 0))
    return make_walk(alg, letters)


def is_string(alg: AlgebraPresentation, w: Walk) -> bool:
    """Conditions (1) and (2): the walk's letters run through the string
    automaton, so no forbidden factor (backtrack, or relation in a
    direct or inverse run) occurs in them.  Walks of length 0 and 1 have no
    factor long enough and are always strings."""
    for l in w.letters:
        if l.arrow not in alg.arrow_map:
            raise WalkError(f"unknown arrow {l.arrow!r}")
    return w.length < 2 or alg.string_automaton.spells_string(w.letters)


def canonical_string(w: Walk) -> Walk:
    """Representative of the class {w, w^-1}: the smaller in walk order.
    Both have the same length, so the letters decide, and w^-1 is built
    only when it is the representative."""
    if not w.letters:
        return w
    return w.inverse() if _inverse_is_smaller(w.letters) else w


def _inverse_is_smaller(letters: tuple[Letter, ...]) -> bool:
    """Whether the inverse walk's letters are smaller.  Its first
    letter, the last one inverted, mostly decides."""
    arrow, bit = letters[-1]
    first = (arrow, 1 - bit)
    if first != letters[0]:
        return first < letters[0]
    return tuple((arrow, 1 - bit) for arrow, bit in reversed(letters)) < letters


class _StringWalks:
    """String walks grown a level at a time on the string automaton.
    ``walks`` holds every level grown so far in key order (by length, then
    letters), ``ends[n]`` counts those of length <= n, and ``frontier``
    pairs each walk of the last level with its state.  No child tests a
    factor."""

    def __init__(self, alg: AlgebraPresentation):
        self.automaton = automaton = alg.string_automaton
        self.walks: list[Walk] = sorted(Walk((), (v,)) for v in alg.vertices)
        self.ends = [len(self.walks)]
        first = [(Walk((letter,), (v, target)), state)
                 for v in alg.vertices for letter, target, state in automaton[v]]
        self.frontier = sorted(first, key=lambda pair: pair[0])
        self._close_level()

    def _close_level(self) -> None:
        self.walks.extend(w for w, _ in self.frontier)
        self.ends.append(len(self.walks))

    def upto(self, max_len: int) -> tuple[Walk, ...]:
        """The walks of length <= max_len, growing further levels first."""
        automaton = self.automaton
        # a level's children come in key order, as the level shares a length
        while len(self.ends) <= max_len and self.frontier:
            self.frontier = [(Walk(w.letters + (letter,), w.vertices + (target,)), to)
                             for w, state in self.frontier
                             for letter, target, to in automaton[state]]
            self._close_level()
        if max_len < 0:
            return ()
        return tuple(self.walks[:self.ends[min(max_len, len(self.ends) - 1)]])


def _all_string_walks(alg: AlgebraPresentation, max_len: int) -> tuple[Walk, ...]:
    """Every string walk (both orientations) of length <= max_len, in key
    order; the walks grown for the longest bound asked serve every shorter
    one."""
    growth = alg.memo.get("string_walks")
    if growth is None:
        growth = alg.memo.setdefault("string_walks", _StringWalks(alg))
    return growth.upto(max_len)


def enumerate_strings(alg: AlgebraPresentation, max_len: int) -> tuple[Walk, ...]:
    """All strings of length <= max_len, one canonical representative per
    {w, w^-1} class, ordered by length then canonical word: the string
    walks whose letters are no greater than their inverse's, kept in
    the walks' key order.  No string equals its inverse, which would need
    a backtrack in its middle."""
    key = ("strings", max_len)
    if key in alg.memo:
        return alg.memo[key]
    return alg.memo.setdefault(key, tuple(
        w for w in _all_string_walks(alg, max_len)
        if not w.letters or not _inverse_is_smaller(w.letters)))


def primitive_root(w: Walk) -> Walk:
    """The shortest prefix u of w with w = u^k; w itself if primitive."""
    d = w.length
    for p in range(1, d):
        if d % p == 0 and w.letters == w.letters[:p] * (d // p):
            return w.sub(1, p)
    return w


def is_primitive(w: Walk) -> bool:
    return primitive_root(w) is w


def is_band(alg: AlgebraPresentation, w: Walk) -> bool:
    """Cyclic, primitive, and w^K is a string for K large enough that any
    relation window of w^infinity fits inside K consecutive copies."""
    if w.length < 1 or not is_string(alg, w):
        return False
    if not w.is_cyclic:
        return False
    if not is_primitive(w):
        return False
    K = max(2, -(-alg.max_relation_length // w.length) + 1)
    return is_string(alg, w.power(K))


def canonical_rotation(w: Walk) -> Walk:
    """The smallest walk, in walk order, over all rotations of w and w^-1."""
    return min(w.rotations)


def band_equivalent(w: Walk, other: Walk) -> bool:
    """w ~ w': equal up to cyclic permutation and inversion."""
    if w.length != other.length:
        return False
    return canonical_rotation(w) == canonical_rotation(other)


def is_minimal_band(alg: AlgebraPresentation, w: Walk) -> bool:
    """No rotation/inversion of w contains v^k, k >= 2, for a shorter band v.

    A power v^k with k >= 2 contains v^2, so v is at most half as long as
    w, and any factor of a rotation of w shows up in the doubled word w w.
    """
    doubled = w.power(2)
    return not any(supported_on(doubled, v, 2) for v in enumerate_bands(alg, w.length // 2))


def enumerate_bands(alg: AlgebraPresentation, max_len: int) -> tuple[Walk, ...]:
    """All bands of length <= max_len, one canonical walk per
    rotation/inversion class, in walk order."""
    key = ("bands", max_len)
    if key in alg.memo:
        return alg.memo[key]
    # a class's rotations are string walks too: the first met builds them once
    canonical: dict[Walk, Walk] = {}
    for w in _all_string_walks(alg, max_len):
        if w.is_cyclic and w not in canonical and is_band(alg, w):
            canonical.update(dict.fromkeys(w.rotations, canonical_rotation(w)))
    return alg.memo.setdefault(key, tuple(sorted(set(canonical.values()))))


def _run(letters: Sequence[Letter], i: int, u: Walk) -> int:
    """How many letters from index i on follow u periodically."""
    period, n, r = u.letters, u.length, i
    while r < len(letters) and letters[r] == period[(r - i) % n]:
        r += 1
    return r - i


def supported_on(gamma: Walk, w: Walk, k: int) -> bool:
    """True iff u^k is a contiguous substring of gamma for some u ~ w."""
    if k < 1:
        raise ValueError("support power must be >= 1")
    need = k * w.length
    return any(_run(gamma.letters, i, u) >= need
               for i in range(gamma.length - need + 1) for u in w.rotations)


def periodic_factor(word: Sequence[Letter], w: Walk) -> Walk | None:
    """If word is a factor of u^N for some rotation u of w or w^-1, return
    that rotation (phase aligned with the first letter of word)."""
    return next((u for u in w.rotations if _run(word, 0, u) == len(word)), None)


class MaximalWSubstring(NamedTuple):
    """Letters start..end (1-based, inclusive) of the host, the word they
    spell as u^k v, and its shape: a quotient when the host letter just
    left of it is inverse and the one just right direct, a submodule for
    the opposite bits, a missing letter fitting either."""

    word: Walk
    start: int
    end: int
    band: Walk  # the rotation u ~ w aligned with the word
    power: int  # k in epsilon = u^k v
    remainder: Walk  # v, a proper prefix of u
    quotient: bool
    submodule: bool


def maximal_w_substrings(gamma: Walk, w: Walk) -> list[MaximalWSubstring]:
    """Factors of w^N inside gamma that are supported on w and inextensible
    within gamma, each with its u^k v factorization.  A factor at least as
    long as w follows the one rotation u its first len(w) letters spell, so
    from each start it runs as far as u does, and it extends to the left
    iff the letter before it is the last letter of u."""
    out = []
    letters, d, lw = gamma.letters, gamma.length, w.length
    for p in range(d - lw + 1):
        u = next((u for u in w.rotations if letters[p : p + lw] == u.letters), None)
        if u is None or (p and letters[p - 1] == u.letters[-1]):
            continue
        run = _run(letters, p, u)
        # 2 stands for a missing letter, as in modules._scan
        left = letters[p - 1].bit if p else 2
        right = letters[p + run].bit if p + run < d else 2
        sub = gamma.sub(p + 1, p + run)
        k = run // lw
        out.append(MaximalWSubstring(sub, p + 1, p + run, u, k, sub.sub(k * lw + 1, run),
                                     left != 0 and right != 1,
                                     left != 1 and right != 0))
    return out


def is_directed(w: Walk) -> bool:
    """All letters share one bit; undefined (rejected) for length 0."""
    if w.length == 0:
        raise ValueError("directedness is undefined for length-0 walks")
    return len({l.bit for l in w.letters}) == 1
