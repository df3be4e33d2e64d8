"""Presentations of finite dimensional monomial algebras KQ/I.

A presentation is a quiver (vertices plus named arrows) together with a
finite list of monomial relations, each a composable path of arrows.
`relation a b` means the path traversing a then b is zero, so relations
compose left to right with t(a) = s(b).  The string and gentle axioms are
decided directly from this data by :func:`validate_axioms`.

Which letter may follow a walk is decided in one place, the presentation's
string automaton (:class:`StringAutomaton`), which string growth,
``is_string``, :meth:`path_contains_relation` and the FinDim check all read.
It expands a state when first read, so the FinDim check, which reads direct
states only, builds none that holds an inverse letter.
"""

from __future__ import annotations

import sys
from functools import cached_property
from typing import NamedTuple, Sequence


class AlgebraError(Exception):
    """Problem with an algebra presentation."""


class AlgebraParseError(AlgebraError):
    """Raised on malformed algebra files; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class Arrow(NamedTuple):
    name: str
    source: str
    target: str


class Letter(NamedTuple):
    arrow: str
    bit: int  # 0 direct, 1 inverse

    def inverse(self) -> "Letter":
        return Letter(self.arrow, 1 - self.bit)

    def __str__(self) -> str:
        return self.arrow + ("-" if self.bit else "")


class StringAutomaton(dict):
    """Maps each state to its steps, computed when the state is first read.

    A walk is a string iff no forbidden factor occurs in its letters: a
    backtrack, a minimal relation in direct letters, or one read backwards
    in inverse letters.  A string walk's state is its last min(n, r - 1)
    letters, r being the longest factor, or its vertex if it has no letter.
    A state's steps are (letter, target, next state), one per letter that
    may follow, in letter order; every factor that ends in the new letter
    lies within the state and that letter.  The automaton holds no
    reference to the presentation, so it forms no reference cycle."""

    def __init__(self, alg: AlgebraPresentation):
        super().__init__()
        self.window = alg.max_relation_length - 1
        # the forbidden factors by their last letter
        self.ending: dict[Letter, list[tuple[Letter, ...]]] = {}
        for a in alg.arrows:
            for bit in (0, 1):
                letter = Letter(a.name, bit)
                self.ending[letter] = [(letter.inverse(), letter)]
        for r in alg.minimal_relations:
            self.ending[r[-1], 0].append(tuple(Letter(a, 0) for a in r))
            self.ending[r[0], 1].append(tuple(Letter(a, 1) for a in reversed(r)))
        # (letter, target) per letter leaving a vertex, in letter order;
        # after a letter, those of the vertex it ends at
        leaving: dict = {v: [] for v in alg.vertices}
        for a in alg.arrows:
            leaving[a.source].append((Letter(a.name, 0), a.target))
            leaving[a.target].append((Letter(a.name, 1), a.source))
        for options in leaving.values():
            options.sort()
        for a in alg.arrows:
            leaving[Letter(a.name, 0)] = leaving[a.target]
            leaving[Letter(a.name, 1)] = leaving[a.source]
        self.leaving = leaving

    def __missing__(self, state) -> tuple:
        prefix, last = ((), state) if isinstance(state, str) else (state, state[-1])
        steps = []
        for letter, target in self.leaving[last]:
            grown = prefix + (letter,)
            if not any(grown[-len(f):] == f for f in self.ending[letter]):
                steps.append((letter, target, grown[-self.window:]))
        self[state] = steps = tuple(steps)
        return steps

    def spells_string(self, letters: tuple[Letter, ...]) -> bool:
        """Whether the letters compose and contain no forbidden factor."""
        state = letters[:1]
        for letter in letters[1:]:
            # move to the next state of the step that reads letter, if there is one
            for step, _, state in self[state]:
                if step == letter:
                    break
            else:
                return False
        return True


def _unspellable(name: str) -> bool:
    """Walk literals are split on whitespace, read a trailing ``-`` as an
    inverse letter and a leading ``e:`` as a trivial walk, so no arrow name
    may be empty, hold whitespace, or have either."""
    return (not name or any(c.isspace() for c in name)
            or name.endswith("-") or name.startswith("e:"))


_NAME_RULE = "must be nonempty, hold no whitespace, and neither end in '-' nor start with 'e:'"


def _admit(kind: str, item, vertices: set[str], arrows: dict[str, Arrow]) -> None:
    """Add a vertex, arrow or relation to the vertices and arrows (by name)
    admitted so far, or raise AlgebraError saying which rule it breaks."""
    if kind == "vertex":
        if item in vertices:
            raise AlgebraError(f"duplicate vertex {item!r}")
        vertices.add(item)
    elif kind == "arrow":
        if item.name in arrows:
            raise AlgebraError(f"duplicate arrow name {item.name!r}")
        if _unspellable(item.name):
            raise AlgebraError(f"arrow name {item.name!r} {_NAME_RULE}")
        for v in (item.source, item.target):
            if v not in vertices:
                raise AlgebraError(f"arrow {item.name!r} uses unknown vertex {v!r}")
        arrows[item.name] = item
    else:
        if len(item) < 2:
            raise AlgebraError(f"relation {' '.join(item)!r} has length < 2")
        for name in item:
            if name not in arrows:
                raise AlgebraError(f"unknown arrow {name!r} in relation")
        for left, right in zip(item, item[1:]):
            if arrows[left].target != arrows[right].source:
                raise AlgebraError(
                    f"relation {' '.join(item)!r} is not composable at {left!r} {right!r}")


class AlgebraPresentation:
    """Quiver with monomial relations.  Nothing may reassign its fields once
    built: its memos, and every memo keyed on it, would silently go stale.

    Vertices and arrows keep their file order.  The presentation owns all
    that is derived from it: its lookup tables, the
    :attr:`string_automaton`, the substring calculus memos
    (:attr:`walk_memo` for strings, :attr:`band_memo` for bands) and the
    enumerations (:attr:`memo`).  None of these take part in equality or
    hashing, none refers back to the presentation, and all are freed with it.
    """

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...],
                 relations: tuple[tuple[str, ...], ...]):
        self.vertices, self.arrows, self.relations = vertices, arrows, relations
        vset: set[str] = set()
        amap: dict[str, Arrow] = {}
        for kind, items in (("vertex", vertices), ("arrow", arrows), ("relation", relations)):
            for item in items:
                _admit(kind, item, vset, amap)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.vertices, self.arrows, self.relations)
                == (other.vertices, other.arrows, other.relations))

    def __hash__(self) -> int:
        return hash((self.vertices, self.arrows, self.relations))

    def __repr__(self) -> str:
        return (f"AlgebraPresentation(vertices={self.vertices!r}, "
                f"arrows={self.arrows!r}, relations={self.relations!r})")

    @cached_property
    def arrow_map(self) -> dict[str, Arrow]:
        return {a.name: a for a in self.arrows}

    @cached_property
    def vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def max_relation_length(self) -> int:
        # redundant generators (containing a shorter relation) do not change
        # membership in the monomial ideal, so windows come from minimal ones
        return max((len(r) for r in self.minimal_relations), default=2)

    @cached_property
    def outgoing(self) -> dict[str, tuple[Arrow, ...]]:
        table: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            table[a.source].append(a)
        return {v: tuple(lst) for v, lst in table.items()}

    @cached_property
    def incoming(self) -> dict[str, tuple[Arrow, ...]]:
        table: dict[str, list[Arrow]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            table[a.target].append(a)
        return {v: tuple(lst) for v, lst in table.items()}

    def path_contains_relation(self, path: Sequence[str]) -> bool:
        """True iff the path is zero in KQ/I: some relation occurs in it as
        a contiguous subpath (for a monomial ideal, membership in I), or it
        does not compose."""
        return not self.string_automaton.spells_string(tuple(Letter(a, 0) for a in path))

    @cached_property
    def string_automaton(self) -> StringAutomaton:
        return StringAutomaton(self)

    @cached_property
    def minimal_relations(self) -> tuple[tuple[str, ...], ...]:
        """Relations that do not properly contain another relation."""
        out = []
        for r in self.relations:
            redundant = False
            for other in self.relations:
                if other == r or len(other) >= len(r):
                    continue
                if any(
                    tuple(r[i : i + len(other)]) == other
                    for i in range(len(r) - len(other) + 1)
                ):
                    redundant = True
                    break
            if not redundant:
                out.append(r)
        return tuple(out)

    @cached_property
    def normalized_text(self) -> str:
        lines = [f"vertex {v}" for v in self.vertices]
        lines += [f"arrow {a.name} {a.source} {a.target}" for a in self.arrows]
        lines += [f"relation {' '.join(r)}" for r in self.relations]
        return "\n".join(lines) + "\n"

    @cached_property
    def walk_memo(self) -> dict:
        """Per-walk occurrence class counts of the substring Hom calculus
        (:mod:`mgslab.modules`), keyed by walk and owned by the presentation."""
        return {}

    @cached_property
    def band_memo(self) -> dict:
        """Per-band occurrence class counts in the periodic word of the band
        (:mod:`mgslab.modules`), keyed by band walk: (length bound,
        quotient counts, submodule counts)."""
        return {}

    @cached_property
    def memo(self) -> dict:
        """Results derived from this presentation, keyed by a tag and the
        arguments: the string walks grown on :attr:`string_automaton`
        (which serve every length bound), and the string, band and brick
        enumerations per length bound."""
        return {}

    @cached_property
    def fingerprint(self) -> str:
        return sha256(self.normalized_text.encode()).hexdigest()


def sha256(data: bytes):
    """``hashlib.sha256(data)`` without loading OpenSSL: CPython's built-in
    SHA-256 (``_sha2`` from 3.12, ``_sha256`` before), as its own ``random``
    module takes SHA-512, or hashlib's on a build without it.  The import
    runs when called, so importing mgslab loads no hash module."""
    try:
        if sys.version_info >= (3, 12):
            from _sha2 import sha256 as new
        else:
            from _sha256 import sha256 as new
    except ImportError:
        from hashlib import sha256 as new
    return new(data)


_KINDS = ("vertex", "arrow", "relation")


def parse_algebra(text: str) -> AlgebraPresentation:
    """Parse the line-oriented algebra file format.

    Grammar: ``vertex <id>`` | ``arrow <name> <src> <dst>`` |
    ``relation <name1> <name2> ...``; ``#`` starts a comment.  A line may
    refer only to what earlier lines declare; a line that the presentation
    would refuse raises its message with the line number.  The presentation
    admits each item once.  The lines are admitted again, in file order,
    only to name the line of an error, or when a vertex line follows an
    arrow line or an arrow line follows a relation line.
    """
    items: dict[str, list] = {kind: [] for kind in _KINDS}
    lines: list[tuple[int, str, object]] = []  # (line number, kind, item)
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            kind, *args = line.split()
            if kind not in items:
                raise AlgebraParseError(f"unknown directive {kind!r}", lineno)
            if kind == "vertex" and len(args) != 1:
                raise AlgebraParseError("vertex takes exactly one identifier", lineno)
            if kind == "arrow" and len(args) != 3:
                raise AlgebraParseError("arrow takes name, source, target", lineno)
            item = args[0] if kind == "vertex" else Arrow(*args) if kind == "arrow" else tuple(args)
            items[kind].append(item)
            lines.append((lineno, kind, item))
        if not items["vertex"]:
            raise AlgebraParseError("presentation has no vertices")
        alg = AlgebraPresentation(*(tuple(v) for v in items.values()))
    except AlgebraError:
        _admit_lines(lines)  # reports an earlier line the presentation refuses
        raise
    kinds = [kind for _, kind, _ in lines]
    if kinds != sorted(kinds, key=_KINDS.index):
        _admit_lines(lines)  # refuses a line that refers to a later one
    return alg


def _admit_lines(lines: list[tuple[int, str, object]]) -> None:
    """Admit parsed (line number, kind, item) triples in file order and
    raise AlgebraParseError at the first line refused."""
    vset: set[str] = set()
    amap: dict[str, Arrow] = {}
    for lineno, kind, item in lines:
        try:
            _admit(kind, item, vset, amap)
        except AlgebraError as exc:
            raise AlgebraParseError(str(exc), lineno) from None


def load_algebra(path) -> AlgebraPresentation:
    with open(path, encoding="utf-8") as fh:
        return parse_algebra(fh.read())


class AxiomReport(NamedTuple):
    is_string_algebra: bool
    is_gentle: bool
    violations: tuple[tuple[str, str], ...]

    def tags(self) -> set[str]:
        return {tag for tag, _ in self.violations}


def _unbounded_path_witness(alg: AlgebraPresentation) -> str | None:
    """Find a relation-free directed cycle, the obstruction to finite dimension.

    Windows are the string automaton's states of R-1 direct letters, the
    relation-free paths that long, R being the longest relation.  Any
    unbounded relation-free path must revisit a window, so the algebra is
    infinite dimensional iff the windows' direct steps form a cycle.
    Windows with no live successor are pruned until none is left; then the
    first live successor is followed from the first live window until a
    window repeats, and that window is the witness.  Windows and successors
    come in arrow file order.
    """
    automaton = alg.string_automaton
    order = {a.name: i for i, a in enumerate(alg.arrows)}

    def direct(s):  # the next states of s's direct steps, in arrow order
        return sorted((to for letter, _, to in automaton[s] if not letter.bit),
                      key=lambda to: order[to[-1].arrow])

    # a state shorter than R-1 steps to itself grown by the letter
    states = [(Letter(a.name, 0),) for a in alg.arrows]
    for _ in range(alg.max_relation_length - 2):
        states = [t for s in states for t in direct(s)]
    succ = {s: direct(s) for s in states}
    live = set(states)
    while dead := {s for s in live if live.isdisjoint(succ[s])}:
        live -= dead
    seen: set[tuple] = set()
    s = next((s for s in states if s in live), None)
    while s is not None and s not in seen:
        seen.add(s)
        s = next(t for t in succ[s] if t in live)
    return None if s is None else " ".join(arrow for arrow, _ in s)


def validate_axioms(alg: AlgebraPresentation) -> AxiomReport:
    """Evaluate the string axioms S1 and S2, the gentle axioms G1 and G2,
    and finite-dimensionality, collecting violation witnesses.

    A length-2 path is "in I" when it contains some relation as a contiguous
    subpath; with length-2 relations this is literal membership.  Each arrow
    tests each neighbour once: S2 reads the nonzero compositions, G1 the
    zero ones.
    """
    violations: list[tuple[str, str]] = []

    for v in alg.vertices:
        if len(alg.incoming[v]) > 2:
            violations.append(("S1", f"vertex {v} has {len(alg.incoming[v])} incoming arrows"))
        if len(alg.outgoing[v]) > 2:
            violations.append(("S1", f"vertex {v} has {len(alg.outgoing[v])} outgoing arrows"))

    for a in alg.arrows:
        after = [(b.name, alg.path_contains_relation((a.name, b.name)))
                 for b in alg.outgoing[a.target]]
        before = [(g.name, alg.path_contains_relation((g.name, a.name)))
                  for g in alg.incoming[a.source]]
        for tag, zero, how in (("S2", False, "nonzero"), ("G1", True, "to zero")):
            succ = [name for name, z in after if z == zero]
            if len(succ) > 1:
                violations.append((tag, f"arrow {a.name} composes {how} with {succ}"))
            pred = [name for name, z in before if z == zero]
            if len(pred) > 1:
                violations.append((tag, f"arrows {pred} compose {how} onto {a.name}"))

    for r in alg.minimal_relations:
        if len(r) != 2:
            violations.append(("G2", f"relation {' '.join(r)} has length {len(r)}"))

    cycle = _unbounded_path_witness(alg)
    if cycle is not None:
        violations.append(("FinDim", f"relation-free cycle through {cycle}"))

    tags = {t for t, _ in violations}
    is_string = not ({"S1", "S2", "FinDim"} & tags)
    is_gentle = is_string and not ({"G1", "G2"} & tags)
    return AxiomReport(is_string, is_gentle, tuple(violations))


def vertex_arrow_count(alg: AlgebraPresentation) -> dict[str, int]:
    """Arrows incident to each vertex, loops counting twice."""
    counts = {v: 0 for v in alg.vertices}
    for a in alg.arrows:
        counts[a.source] += 1
        counts[a.target] += 1
    return counts
