"""Presentations of finite dimensional monomial algebras KQ/I.

A presentation is a quiver (vertices plus named arrows) together with a
finite list of monomial relations, each a composable path of arrows.
`relation a b` means the path traversing a then b is zero, so relations
compose left to right with t(a) = s(b).  The string and gentle axioms are
decided directly from this data by :func:`validate_axioms`.
"""

from __future__ import annotations

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


class AlgebraPresentation:
    """Quiver with monomial relations.  Nothing may reassign its fields once
    built: its memos, and every memo keyed on it, would silently go stale.

    Vertices and arrows keep their file order.  The presentation owns all
    that is derived from it: its lookup tables, the substring calculus memo
    (:attr:`walk_memo`) and the enumerations, explicit representations and
    oracle Homs (:attr:`memo`).  None of these take part in equality or
    hashing, none refers back to the presentation, and all are freed with it.
    """

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[Arrow, ...],
                 relations: tuple[tuple[str, ...], ...]):
        self.vertices, self.arrows, self.relations = vertices, arrows, relations
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise AlgebraError(f"duplicate vertex {v!r}")
            seen.add(v)
        names = set()
        for a in self.arrows:
            if a.name in names:
                raise AlgebraError(f"duplicate arrow name {a.name!r}")
            names.add(a.name)
            for v in (a.source, a.target):
                if v not in seen:
                    raise AlgebraError(f"arrow {a.name!r} uses unknown vertex {v!r}")
        amap = {a.name: a for a in self.arrows}
        for rel in self.relations:
            if len(rel) < 2:
                raise AlgebraError(f"relation {' '.join(rel)!r} has length < 2")
            for name in rel:
                if name not in amap:
                    raise AlgebraError(f"unknown arrow {name!r} in relation")
            for left, right in zip(rel, rel[1:]):
                if amap[left].target != amap[right].source:
                    raise AlgebraError(
                        f"relation {' '.join(rel)!r} is not composable at {left!r} {right!r}"
                    )

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
    def _relations_by_length(self) -> dict[int, frozenset[tuple[str, ...]]]:
        table: dict[int, set[tuple[str, ...]]] = {}
        for r in self.relations:
            table.setdefault(len(r), set()).add(r)
        return {k: frozenset(v) for k, v in table.items()}

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
        """True iff some relation occurs as a contiguous subpath.

        For a monomial ideal this is exactly membership of the path in I.
        """
        n = len(path)
        for length, rels in self._relations_by_length.items():
            if length > n:
                continue
            for i in range(n - length + 1):
                if tuple(path[i : i + length]) in rels:
                    return True
        return False

    def path_suffix_hits_relation(self, path: Sequence[str]) -> bool:
        """True iff some relation occurs as a suffix of the path.

        Used during incremental extension: growing a relation-free path by one
        arrow can only create a violation ending at the new arrow.
        """
        n = len(path)
        for length, rels in self._relations_by_length.items():
            if length <= n and tuple(path[n - length :]) in rels:
                return True
        return False

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
    def memo(self) -> dict:
        """Results derived from this presentation, keyed by a tag and the
        arguments: the string, band and brick enumerations per length bound,
        and the oracle's explicit representations and band-module Homs
        (:mod:`mgslab.mgs`)."""
        return {}

    @cached_property
    def fingerprint(self) -> str:
        import hashlib

        return hashlib.sha256(self.normalized_text.encode()).hexdigest()


def parse_algebra(text: str) -> AlgebraPresentation:
    """Parse the line-oriented algebra file format.

    Grammar: ``vertex <id>`` | ``arrow <name> <src> <dst>`` |
    ``relation <name1> <name2> ...``; ``#`` starts a comment.
    """
    vertices: list[str] = []
    arrows: list[Arrow] = []
    relations: list[tuple[str, ...]] = []
    vset: set[str] = set()
    anames: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "vertex":
            if len(args) != 1:
                raise AlgebraParseError("vertex takes exactly one identifier", lineno)
            if args[0] in vset:
                raise AlgebraParseError(f"duplicate vertex {args[0]!r}", lineno)
            vset.add(args[0])
            vertices.append(args[0])
        elif kind == "arrow":
            if len(args) != 3:
                raise AlgebraParseError("arrow takes name, source, target", lineno)
            name, src, dst = args
            if name in anames:
                raise AlgebraParseError(f"duplicate arrow name {name!r}", lineno)
            if src not in vset:
                raise AlgebraParseError(f"unknown vertex {src!r}", lineno)
            if dst not in vset:
                raise AlgebraParseError(f"unknown vertex {dst!r}", lineno)
            anames.add(name)
            arrows.append(Arrow(name, src, dst))
        elif kind == "relation":
            if len(args) < 2:
                raise AlgebraParseError("relation needs at least two arrows", lineno)
            amap = {a.name: a for a in arrows}
            for name in args:
                if name not in amap:
                    raise AlgebraParseError(f"unknown arrow {name!r} in relation", lineno)
            for left, right in zip(args, args[1:]):
                if amap[left].target != amap[right].source:
                    raise AlgebraParseError(
                        f"relation is not composable: t({left}) != s({right})", lineno
                    )
            relations.append(tuple(args))
        else:
            raise AlgebraParseError(f"unknown directive {kind!r}", lineno)

    if not vertices:
        raise AlgebraParseError("presentation has no vertices")
    return AlgebraPresentation(tuple(vertices), tuple(arrows), tuple(relations))


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

    States are relation-avoiding paths of length R-1 where R is the longest
    relation; any unbounded relation-free path must revisit such a window, so
    the algebra is infinite dimensional iff the window transition graph has a
    cycle.
    """
    window = max(alg.max_relation_length - 1, 1)

    states: list[tuple[str, ...]] = []

    def grow(path: list[str]):
        if len(path) == window:
            states.append(tuple(path))
            return
        tail = alg.arrow_map[path[-1]].target if path else None
        for a in alg.arrows:
            if tail is not None and a.source != tail:
                continue
            path.append(a.name)
            if not alg.path_suffix_hits_relation(path):
                grow(path)
            path.pop()

    grow([])
    state_set = set(states)
    succ: dict[tuple[str, ...], list[tuple[str, ...]]] = {s: [] for s in states}
    for s in states:
        end = alg.arrow_map[s[-1]].target
        for a in alg.outgoing[end]:
            extended = s + (a.name,)
            if alg.path_suffix_hits_relation(extended):
                continue
            nxt = extended[1:]
            if nxt in state_set:
                succ[s].append(nxt)

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {s: WHITE for s in states}
    for start in states:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(succ[start]))]
        color[start] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    return " ".join(nxt)
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def validate_axioms(alg: AlgebraPresentation) -> AxiomReport:
    """Evaluate the string axioms S1 and S2, the gentle axioms G1 and G2,
    and finite-dimensionality, collecting violation witnesses.

    A length-2 path is "in I" when it contains some relation as a contiguous
    subpath; with length-2 relations this is literal membership.
    """
    violations: list[tuple[str, str]] = []

    for v in alg.vertices:
        if len(alg.incoming[v]) > 2:
            violations.append(("S1", f"vertex {v} has {len(alg.incoming[v])} incoming arrows"))
        if len(alg.outgoing[v]) > 2:
            violations.append(("S1", f"vertex {v} has {len(alg.outgoing[v])} outgoing arrows"))

    for a in alg.arrows:
        succ_alive = [b.name for b in alg.outgoing[a.target]
                      if not alg.path_contains_relation((a.name, b.name))]
        if len(succ_alive) > 1:
            violations.append(("S2", f"arrow {a.name} composes nonzero with {succ_alive}"))
        pred_alive = [g.name for g in alg.incoming[a.source]
                      if not alg.path_contains_relation((g.name, a.name))]
        if len(pred_alive) > 1:
            violations.append(("S2", f"arrows {pred_alive} compose nonzero onto {a.name}"))

        succ_dead = [b.name for b in alg.outgoing[a.target]
                     if alg.path_contains_relation((a.name, b.name))]
        if len(succ_dead) > 1:
            violations.append(("G1", f"arrow {a.name} composes to zero with {succ_dead}"))
        pred_dead = [g.name for g in alg.incoming[a.source]
                     if alg.path_contains_relation((g.name, a.name))]
        if len(pred_dead) > 1:
            violations.append(("G1", f"arrows {pred_dead} compose to zero onto {a.name}"))

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
