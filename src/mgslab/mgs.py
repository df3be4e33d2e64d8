"""Maximal green sequences as complete forward hom-orthogonal brick sequences.

The engine enumerates weakly FHO sequences over a brick pool by appending
at the right end, and certifies leaves complete *relative to the pool
bounds*: band modules never enter (they cannot lie on a maximal green
sequence) and string bricks supported on the square of a band are kept out
of the member pool (they cannot either), but both remain available as
refinement witnesses in the insertion pool, alongside the band bricks
M(w, lambda, 1).  A band brick is one candidate, not one per lambda: its
brickhood and its Homs against string modules come from the substring
calculus and do not depend on lambda.

Dead-prefix pruning.  A candidate c of the insertion pool is insertable
into a prefix when some gap has every entry before it with Hom(e, c) = 0
and every entry after it with Hom(c, e) = 0.  Let R be the members that
could still be appended: the members outside ``blocked``, the candidates
some entry maps onto (the entries among them, as Hom(e, e) != 0).  R only
shrinks down the tree, and every later append comes from it.  Appending e
leaves c insertable at the same gap unless Hom(c, e) != 0.  So if c is
insertable now and Hom(c, e) = 0 for every e in R (which also keeps c
itself out of R, as Hom(c, c) != 0), c stays insertable in every
extension: every leaf below fails certification and the subtree is cut.
R does not depend on a required subsequence, which only narrows the
appends further, so the search emits exactly the sequences of the
unpruned search, in the same depth-first order.

Few candidates ever witness a cut (22 on ``mgs5`` and 27 on ``gentle5``
at length 8, against some 160,000 cuts each), so the search tries the
earlier witnesses first: with ``hosts[c]`` the members e with
Hom(c, e) != 0, a live c with no host in R proves the cut in two big-int
tests.  Only a prefix that none of them cuts is scanned member by member
over R, and its lowest witness joins the list.  This is the same rule,
tried on a sufficient witness first, so the cuts, and with them the
nodes, the order and the output, do not change.

The search is a depth-first walk over an explicit stack of prefixes, so
its depth is bounded by the member count, not by the interpreter's
recursion limit.  A node budget of b stops it on visiting node b + 1:
``BudgetExhausted`` then reports ``nodes == b + 1`` and the sequences
found so far.  Every emitted sequence, partial output included, is checked
to hold every simple.

The masks are built from Hom support, read off class sets (see
:mod:`mgslab.modules`), not from Hom dimensions: no pairwise Hom is
computed.

Certification reads the same masks, built on the entries e_1..e_n of the
sequence.  Candidate c is insertable exactly at the gaps j <= p < f, where
j is the last entry with Hom(c, e_j) != 0 (0 if none) and f the first with
Hom(e_f, c) != 0 (n + 1 if none); c is live iff j < f, and its first gap is
j.  An entry is never insertable again: Hom(c, c) contains the identity, so
c = e_k gives f <= k <= j.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import AlgebraPresentation
from .modules import (
    band_end_dim,
    band_top_socle,
    band_turns,
    enumerate_bricks,
    hom_classes,
    hom_dim,
    hom_dim_band_string,
    hom_dim_string_band,
    is_brick,
)
from .words import Walk, canonical_string, enumerate_bands


class BudgetExhausted(Exception):
    """Search ran out of node budget; carries whatever was found."""

    def __init__(self, partial, nodes, pruned=0):
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.partial = partial
        self.nodes = nodes
        self.pruned = pruned


class TheoremCounterexample(Exception):
    """A constructive step the theory guarantees failed on this input."""


class BrickPools(NamedTuple):
    member: tuple[Walk, ...]
    insertion_strings: tuple[Walk, ...]
    insertion_bands: tuple[Walk, ...]  # band bricks M(w, lambda, 1), canonical w
    excluded: tuple[tuple[Walk, Walk], ...]  # (brick, witnessing band)
    max_string_len: int
    band_bound: int

    def descriptor(self) -> dict:
        return {"max_string_len": self.max_string_len, "band_bound": self.band_bound}


class HomTable:
    """Hom support and Hom dimensions for certification and search, all by
    the substring calculus.  Its memos live on the presentation, so a table
    holds only ``alg``.  The masks read only ``classes`` (Hom support, see
    :mod:`mgslab.modules`); ``hom``, ``hom_string_band`` and
    ``hom_band_string`` give dimensions.  Tests subclass the table to
    substitute classes; such a fake must not write the memos."""

    def __init__(self, alg: AlgebraPresentation):
        self.alg = alg

    def classes(self, w: Walk, band_bound: int | None = None):
        return hom_classes(self.alg, w, band_bound)

    def hom(self, a: Walk, b: Walk) -> int:
        return hom_dim(self.alg, a, b)

    def hom_string_band(self, a: Walk, band: Walk) -> int:
        return hom_dim_string_band(self.alg, a, band)

    def hom_band_string(self, band: Walk, b: Walk) -> int:
        return hom_dim_band_string(self.alg, band, b)


def is_weakly_fho(alg: AlgebraPresentation, entries, table: HomTable | None = None) -> bool:
    """Hom(M_i, M_j) = 0 for all i < j; raises on a non-brick entry."""
    for w in entries:
        if not is_brick(alg, w):
            raise ValueError(f"entry {w} is not a brick")
    blocks, _ = _candidate_masks(entries, entries, (), table or HomTable(alg))
    return not any(mask >> i for i, mask in enumerate(blocks, start=1))


def insertable(alg: AlgebraPresentation, entries, p: int, brick: Walk,
               table: HomTable | None = None) -> bool:
    """Whether inserting the brick after the first p entries keeps the
    sequence weakly FHO; an existing entry is never insertable again."""
    blocks, needs = _candidate_masks(entries, (brick,), (), table or HomTable(alg))
    j, f = _gap_interval(blocks, needs, 1)
    return j <= p < f


def _candidate_masks(walks, strings, bands, table: HomTable):
    """One bit per insertion candidate, the string bricks first, then the
    band bricks.  blocks[i] / needs[i] hold the candidates c with
    Hom(w_i, c) != 0, resp. Hom(c, w_i) != 0: the OR over the quotient,
    resp. submodule, classes of w_i of the candidates with that class on
    the other side.  Band classes are read up to the longest walk's
    length; a longer word is no class of any w_i."""
    bound = max((w.length for w in walks), default=0)
    into: dict = {}  # class -> the candidates with it as a submodule class
    onto: dict = {}  # class -> the candidates with it as a quotient class
    bit = 1
    for c, band_bound in [(c, None) for c in strings] + [(b, bound) for b in bands]:
        quotient, submodule = table.classes(c, band_bound)
        for key in submodule:
            into[key] = into.get(key, 0) | bit
        for key in quotient:
            onto[key] = onto.get(key, 0) | bit
        bit <<= 1
    blocks, needs = [], []
    for w in walks:
        quotient, submodule = table.classes(w)
        blocks.append(_union(into, quotient))
        needs.append(_union(onto, submodule))
    return blocks, needs


def _union(bits: dict, keys) -> int:
    mask = 0
    for key in keys:
        mask |= bits.get(key, 0)
    return mask


def _gap_interval(blocks, needs, bit: int) -> tuple[int, int]:
    """(j, f) of the candidate on this bit, read from the masks of a
    sequence: its open gaps are j <= p < f (see Certification above)."""
    n = len(blocks)
    f = next((i for i, mask in enumerate(blocks, start=1) if mask & bit), n + 1)
    j = next((i for i in range(n, 0, -1) if needs[i - 1] & bit), 0)
    return j, f


def build_brick_pools(alg: AlgebraPresentation, max_string_len: int,
                      lambdas=None, band_bound: int | None = None) -> BrickPools:
    """Member pool: string bricks minus everything supported on the square
    of a band.  Insertion pool: all string bricks plus the band bricks
    M(w, lambda, 1) over the enumerated bands up to ``band_bound``, which
    defaults to ``max_string_len``.  A shorter bound can leave out a band
    brick that refines a chain, which then passes as complete: alternating
    A~_{2,2} at length 6 gives 120,276 sequences under band bound 3 against
    100 under 6.  That no needed band brick is longer than the longest
    member is a hypothesis that the tests check, not a theorem.

    ``lambdas`` is accepted and ignored: no band parameter is sampled, as
    the calculus gives every lambda at once.  The benchmark's verifier
    (``perfbench/check.py``) still passes it."""
    if band_bound is None:
        band_bound = max_string_len
    infos = enumerate_bricks(alg, max_string_len)
    member, excluded = [], []
    for info in infos:
        if info.band_square_supports:
            excluded.append((info.walk, info.band_square_supports[0]))
        else:
            member.append(info.walk)
    bands = tuple(b for b in enumerate_bands(alg, band_bound) if band_end_dim(alg, b) == 1)
    return BrickPools(
        member=tuple(member),
        insertion_strings=tuple(info.walk for info in infos),
        insertion_bands=bands,
        excluded=tuple(excluded),
        max_string_len=max_string_len,
        band_bound=band_bound,
    )


class Verdict(NamedTuple):
    kind: str  # "complete" | "refinable" | "refinable-or-bug"
    witness_brick: Walk | None = None
    witness_is_band: bool = False
    witness_position: int | None = None
    missing_simples: tuple[str, ...] = ()
    banned_entries: tuple[tuple[Walk, Walk], ...] = ()
    band_square_blockers: tuple[tuple[Walk, Walk, int], ...] = ()
    pool_descriptor: dict = {}  # one shared default: nothing mutates a record

    @property
    def band_square_obstructed(self) -> bool:
        return bool(self.banned_entries) or bool(self.band_square_blockers)


def is_complete_relative(alg: AlgebraPresentation, entries, pools: BrickPools,
                         table: HomTable | None = None) -> Verdict:
    """Scan the insertion pool for a refinement witness; if none exists the
    sequence is complete relative to the pool bounds.

    A complete verdict with a missing simple module is impossible for a true
    maximal green sequence, so that case is downgraded to refinable-or-bug.
    Entries or insertable bricks known to be supported on a band square are
    reported: such sequences cannot extend to a maximal green sequence.
    """
    table = table or HomTable(alg)
    entries = tuple(entries)
    excluded_map = dict(pools.excluded)
    banned_entries = tuple(
        (e, excluded_map[k]) for e in entries
        if (k := canonical_string(e)) in excluded_map
    )
    strings, bands = pools.insertion_strings, pools.insertion_bands
    blocks, needs = _candidate_masks(entries, strings, bands, table)
    blocked = dead = 0
    for block, need in zip(blocks, needs):
        blocked |= block
        dead |= need & blocked

    # excluded bricks are insertion strings, so they own string bits too
    string_bit = {w: 1 << k for k, w in enumerate(strings)}
    blockers = tuple(
        (w, band, _gap_interval(blocks, needs, string_bit[w])[0])
        for w, band in pools.excluded if string_bit[w] & ~dead
    )

    # the first live candidate: a string brick if any, else a band brick
    witness = None
    live = ((1 << (len(strings) + len(bands))) - 1) & ~dead
    if live:
        low = live & -live
        k = low.bit_length() - 1
        witness = ((strings + bands)[k], k >= len(strings),
                   _gap_interval(blocks, needs, low)[0])

    present = {e.source for e in entries if e.length == 0}
    missing = tuple(v for v in alg.vertices if v not in present)
    if witness is not None:
        kind = "refinable"
    else:
        kind = "complete" if not missing else "refinable-or-bug"
    brick, is_band, position = witness or (None, False, None)
    return Verdict(
        kind,
        witness_brick=brick,
        witness_is_band=is_band,
        witness_position=position,
        missing_simples=missing,
        banned_entries=banned_entries,
        band_square_blockers=blockers,
        pool_descriptor=pools.descriptor(),
    )


class MgsSearchResult(NamedTuple):
    sequences: tuple[tuple[Walk, ...], ...]
    nodes: int
    pruned: int = 0


class _Searcher:
    """Append-only depth-first search over the member pool, on an explicit
    stack, with hom data baked into bitmasks: appending a brick rules out
    every brick it maps onto, and a prefix dies as soon as a simple it still
    owes is ruled out or an insertion candidate stays insertable in every
    extension.

    The candidate bits are those of ``_candidate_masks``, with the members
    first, so that candidate bit i is member i.  Along a prefix, ``blocked``
    holds the candidates some entry maps onto, and ``dead`` those with no
    insertion gap left: a candidate dies once an entry it maps onto follows
    (or is) the first entry that maps onto it.  As Hom(w, w) != 0,
    ``blocked`` holds the used members too, so the members outside it are
    exactly the appendable ones.  Appending member i costs two big-int
    steps, ``blocked |= blocks[i]`` and ``dead |= needs[i] & blocked``.

    A prefix is cut when a candidate outside ``dead`` has a zero Hom to
    every open member: ``spares[i]`` holds the candidates with a zero Hom
    to member i, and ``hosts[c]``, its transpose, the members that
    candidate c maps onto.  ``run`` keeps the candidates that have cut a
    prefix as a list, most recently used first, each with its ``hosts``
    mask, read off ``needs`` when it first cuts, and tries them before the
    scan: a listed c that is live, with ``not hosts[c] & open_ids``, cuts
    the prefix and moves to the front.  Only a prefix none of them cuts ANDs
    ``spares`` over the open members, and its lowest surviving candidate
    joins the front.  Either way a prefix is cut iff some live candidate
    has no open host, so the cuts are those of the scan alone.  A listed
    candidate that survived the scan would have cut the prefix first, so
    the list never repeats one and holds at most one entry per candidate.

    A stack frame is ``(prefix, used, blocked, dead)``.  Of the required
    entries, only the next one is ever opened, so those in ``used`` were
    placed in order, and their count, ``(used & required_mask).bit_count()``,
    names the next.  A node is counted when it is popped; its children are
    pushed highest bit first, so the lowest bit is tried first and the
    sequences come out in walk order.  No entry repeats, so a prefix, and
    the stack, is at most m deep, with at most m frames per depth.  A budget
    of b nodes raises ``BudgetExhausted`` on popping node b + 1.
    """

    # the dead-prefix rule; the tests' unpruned reference switches it off
    prune = True

    def __init__(self, pools: BrickPools, table: HomTable):
        # in walk order: the search tries the lowest bit first, so it meets
        # its sequences already sorted
        member = sorted(pools.member)
        self.member = member
        self.vertices = frozenset(table.alg.vertices)
        self.m = len(member)
        self.index = {w: i for i, w in enumerate(member)}
        self.simples_mask = sum(1 << i for i, w in enumerate(member) if w.length == 0)
        # members first, so that candidate bit i is member i
        candidates = member + [s for s in pools.insertion_strings if s not in self.index]
        bands = pools.insertion_bands
        self.blocks, self.needs = _candidate_masks(member, candidates, bands, table)
        self.all_cands = (1 << (len(candidates) + len(bands))) - 1
        # spares[i]: the candidates with a zero Hom to w_i
        self.spares = [self.all_cands & ~n for n in self.needs]

    def run(self, *, budget=None, require_subsequence=None,
            stop_at_first=False) -> MgsSearchResult:
        required: list[int] = []
        required_mask = 0
        for w in require_subsequence or ():
            c = canonical_string(w)
            if c not in self.index:
                raise ValueError(f"required entry {w} is not in the member pool")
            bit = 1 << self.index[c]
            if required_mask & bit:
                raise ValueError(f"required entry {w} is listed twice")
            required.append(self.index[c])
            required_mask |= bit
        found: list[tuple[int, ...]] = []
        all_mask = (1 << self.m) - 1
        # a still-owed simple or required entry must stay appendable
        owed_mask = self.simples_mask | required_mask
        blocks = self.blocks
        needs = self.needs
        spares = self.spares
        prune = self.prune
        # (bit, hosts) of the candidates that cut a prefix, most recent first
        witnesses: list[tuple[int, int]] = []
        all_cands = self.all_cands
        nodes = pruned = 0
        budget_cap = budget if budget is not None else float("inf")
        stack = [((), 0, 0, 0)]
        while stack:
            prefix, used, blocked, dead = stack.pop()
            nodes += 1
            if nodes > budget_cap:
                raise BudgetExhausted(self._sequences(found), nodes, pruned)
            if owed_mask & blocked & ~used:
                continue
            open_ids = all_mask & ~blocked
            # dead prefix: a live candidate has a zero Hom to every brick
            # that could still be appended; earlier witnesses go first
            if prune:
                for k, (bit, host) in enumerate(witnesses):
                    if not (bit & dead or host & open_ids):
                        witness = witnesses.pop(k)
                        break
                else:
                    closed = all_cands & ~dead
                    rest = open_ids
                    while closed and rest:
                        low = rest & -rest
                        rest ^= low
                        closed &= spares[low.bit_length() - 1]
                    witness = None
                    if closed:
                        c = (closed & -closed).bit_length() - 1
                        witness = (1 << c, sum(1 << i for i, n in enumerate(needs)
                                               if n >> c & 1))
                if witness:
                    witnesses.insert(0, witness)
                    pruned += 1
                    continue
            top = len(stack)
            rest = open_ids
            if required_mask:
                # of the required entries, open only the next one
                need = (used & required_mask).bit_count()
                rest &= ~required_mask | (1 << required[need] if need < len(required) else 0)
            while rest:
                i = rest.bit_length() - 1
                high = 1 << i
                rest ^= high
                now_blocked = blocked | blocks[i]
                stack.append((prefix + (i,), used | high, now_blocked,
                              dead | (needs[i] & now_blocked)))
            # a leaf: every simple is used, as an unused one is blocked, and
            # cut above, or open, and appended.  So the leaf is complete iff
            # no candidate is live; with the dead-prefix rule on, a leaf
            # with a live candidate was cut already
            if (len(stack) == top and prefix and used & required_mask == required_mask
                    and not all_cands & ~dead):
                found.append(prefix)
                if stop_at_first:
                    break
        return MgsSearchResult(self._sequences(found), nodes, pruned)

    def _sequences(self, found):
        """The member walks of the found id sequences, each checked to hold
        every simple."""
        sequences = tuple(tuple(self.member[i] for i in ids) for ids in found)
        for seq in sequences:
            if self.vertices - {e.source for e in seq if e.length == 0}:
                raise AssertionError(
                    f"emitted sequence {[str(w) for w in seq]} misses simples"
                )
        return sequences


def enumerate_mgs(alg: AlgebraPresentation, pools: BrickPools, *,
                  budget: int | None = None, require_subsequence=None,
                  table: HomTable | None = None) -> MgsSearchResult:
    """Maximal green sequences whose bricks lie in the member pool, each
    certified complete relative to the pools; deterministic order.

    Limits: a node budget (exceeding it raises BudgetExhausted carrying the
    partial output, with ``nodes == budget + 1``), and optionally a
    required subsequence, restricting the search to complete sequences
    containing the given entries in the given relative order.  An entry
    outside the member pool, or listed twice, raises ValueError.
    """
    return _Searcher(pools, table or HomTable(alg)).run(
        budget=budget, require_subsequence=require_subsequence)


def complete_from_prefix(alg: AlgebraPresentation, pools: BrickPools,
                         simple_order, *, budget: int | None = None,
                         table: HomTable | None = None):
    """First complete sequence, in search order, that places the simples
    S(v) of the listed vertices in the given relative order; unlisted
    simples are unconstrained.  Returns None when the search finishes
    without one, and raises BudgetExhausted when the budget runs out first,
    or ValueError for an unknown or repeated vertex.  The search's leaf
    check certifies the sequence on the masks of ``is_complete_relative``,
    so it is complete relative to the pools."""
    simples = tuple(Walk((), (v,)) for v in simple_order)
    result = _Searcher(pools, table or HomTable(alg)).run(
        budget=budget, require_subsequence=simples, stop_at_first=True)
    return result.sequences[0] if result.sequences else None


class SocleFirstResult(NamedTuple):
    hypothesis_holds: bool
    witnesses: tuple[tuple[str, str, str], ...]  # (simple, band with it on top, band with it in socle)
    order: tuple[str, ...]


def simple_order_socle_first(alg: AlgebraPresentation,
                             bands: tuple[Walk, ...]) -> SocleFirstResult:
    """Check that no simple sits in the top of one band module and the socle
    of another, and order the simples socle-appearing first.

    Band modules at different lambda are distinct modules, so a simple lying
    in the top of some band and the socle of any band violates the
    hypothesis.
    """
    tops: dict[str, Walk] = {}
    socles: dict[str, Walk] = {}
    for w in bands:
        t, s = band_top_socle(w)
        for v in t:
            tops.setdefault(v, w)
        for v in s:
            socles.setdefault(v, w)
    witnesses = tuple(
        (v, str(tops[v]), str(socles[v])) for v in alg.vertices
        if v in tops and v in socles
    )
    socle_simples = [v for v in alg.vertices if v in socles]
    rest = [v for v in alg.vertices if v not in socles]
    return SocleFirstResult(not witnesses, witnesses, tuple(socle_simples + rest))


def _run(w: Walk, i: int, step: int, bit: int):
    """The arrows of the band's letters from letter i on, read cyclically
    in steps of step while their bit holds, and the vertex the run stops at."""
    d = w.length
    arrows = []
    while w.letters[i].bit == bit:
        arrows.append(w.letters[i].arrow)
        i = (i + step) % d
    return arrows, w.vertices[(i + (step < 0)) % d]


def _pick_run(alg: AlgebraPresentation, band: Walk, vertex: str,
              arrow: str | None, bit: int):
    """The least relation-free path of the band from a peak (bit 0) or
    into a valley (bit 1) at vertex, as (arrows in composition order,
    other end): a descent composed after arrow, or an ascent before it."""
    options = []
    for p in band_turns(band, bit):
        if band.vertices[p] != vertex:
            continue
        for arrows, end in (_run(band, p, +1, bit), _run(band, p - 1, -1, 1 - bit)):
            path = tuple(reversed(arrows) if bit else arrows)  # never empty
            if arrow is None or not alg.path_contains_relation(
                    (path[-1], arrow) if bit else (arrow, path[0])):
                options.append((path, end))
    if not options:
        way = "ascent into" if bit else "descent from"
        raise TheoremCounterexample(f"no relation-free {way} {vertex} in band {band}")
    return min(options)


class GentleOrderResult(NamedTuple):
    chunks: tuple[tuple[str, ...], ...]
    order: tuple[str, ...]


def domestic_gentle_order(alg: AlgebraPresentation,
                          bands: tuple[Walk, ...]) -> GentleOrderResult:
    """The constructive simple ordering for domestic gentle algebras.

    Over the bands with no simple in both top and socle, in the given order: a
    chain starts at the least top simple of the first band left and follows
    relation-free descents, each from a simple on top of a band to a socle
    simple, with a nonzero junction, until no band has its simple on top.
    Dually it grows backwards by ascents.  Reversed, the chain is one
    chunk, and the bands touching it drop out.  The simples met along one
    chain are guaranteed distinct; a repeat is reported as a theorem-check
    counterexample.
    """
    from .algebra import validate_axioms

    report = validate_axioms(alg)
    if not report.is_gentle:
        raise ValueError("construction requires a gentle algebra")

    top_socle = {w: band_top_socle(w) for w in bands}
    remaining = [w for w in bands if not set(top_socle[w][0]) & set(top_socle[w][1])]

    def walk(chain: list, vertex: str, arrow: str | None, bit: int):
        """Grow the chain by descents at its end (bit 0) or by ascents at
        its start (bit 1); returns the first path taken."""
        first = None
        while cands := [w for w in remaining if vertex in top_socle[w][bit]]:
            path, vertex = _pick_run(alg, cands[0], vertex, arrow, bit)
            if vertex in chain:
                raise TheoremCounterexample(f"simple {vertex} repeats along the chain {chain}")
            chain.insert(0 if bit else len(chain), vertex)
            arrow = path[0] if bit else path[-1]
            first = first or path
        return first

    chunks: list[tuple[str, ...]] = []
    used_simples: set[str] = set()
    while remaining:
        a1 = min(top_socle[remaining[0]][0], key=lambda v: alg.vertex_index[v])
        chain = [a1]
        # a1 is on top of the first band left; the ascents compose before
        # the chain's first descent
        first = walk(chain, a1, None, 0)
        walk(chain, a1, first[0], 1)
        ordered_chunk = tuple(reversed(chain))
        if set(ordered_chunk) & used_simples:
            raise TheoremCounterexample(
                f"chains overlap on {set(ordered_chunk) & used_simples}"
            )
        chunks.append(ordered_chunk)
        used_simples.update(ordered_chunk)
        remaining = [w for w in remaining if used_simples.isdisjoint(
            v for side in top_socle[w] for v in side)]

    rest = tuple(v for v in alg.vertices if v not in used_simples)
    order = tuple(v for chunk in chunks for v in chunk) + rest
    return GentleOrderResult(tuple(chunks), order)
