"""Maximal green sequences as complete forward hom-orthogonal brick sequences.

The engine enumerates weakly FHO sequences over a brick pool by appending
at the right end, and certifies leaves complete *relative to the pool
bounds*: band modules never enter (they cannot lie on a maximal green
sequence) and string bricks supported on the square of a band are kept out
of the member pool (they cannot either), but both remain available as
refinement witnesses in the insertion pool, alongside band bricks
M(w, lambda, 1) probed at sampled lambda values.

Dead-prefix pruning.  A candidate c of the insertion pool is insertable
into a prefix when some gap has every entry before it with Hom(e, c) = 0
and every entry after it with Hom(c, e) = 0.  Let R be the members that
could still be appended: neither used nor the target of a nonzero Hom
from an entry.  R only shrinks down the tree, and every later append
comes from it.  Appending e leaves c insertable at the same gap unless
Hom(c, e) != 0.  So if c is insertable now and Hom(c, e) = 0 for every e
in R (which also keeps c itself out of R, as Hom(c, c) != 0), c stays
insertable in every extension: every leaf below fails certification and
the subtree is cut.  R does not depend on a required subsequence, which
only narrows the appends further, so the search emits exactly the
sequences of the unpruned search, in the same depth-first order.  A band
brick takes part only while no band's Hom masks differ across the sampled
lambdas; otherwise band bricks never prune, and a disagreement surfaces at
a leaf as before.

Certification reads the same masks, built on the entries e_1..e_n of the
sequence.  Candidate c is insertable exactly at the gaps j <= p < f, where
j is the last entry with Hom(c, e_j) != 0 (0 if none) and f the first with
Hom(e_f, c) != 0 (n + 1 if none); c is live iff j < f, and its first gap is
j.  An entry is never insertable again: Hom(c, c) contains the identity, so
c = e_k gives f <= k <= j.  A band brick has one interval per sampled
lambda; its first gap open at some lambda must be open at all of them, or
the lambdas disagree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraPresentation
from .concurrency import pmap
from .modules import (
    band_module,
    band_peaks_valleys,
    band_top_socle,
    enumerate_bricks,
    hom_dim,
    is_brick,
    string_module,
)
from .oracle import hom_dim_linalg, to_explicit
from .words import (
    BandPool,
    Walk,
    canonical_string,
    enumerate_bands,
)


class BudgetExhausted(Exception):
    """Search ran out of node budget; carries whatever was found."""

    def __init__(self, partial, nodes, pruned=0, diagnostics=()):
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.partial = partial
        self.nodes = nodes
        self.pruned = pruned
        self.diagnostics = diagnostics


class OracleDisagreement(Exception):
    """Band-brick Hom probes disagreed across lambda samples."""


class TheoremCounterexample(Exception):
    """A constructive step the theory guarantees failed on this input."""


class BandBrick(NamedTuple):
    walk: Walk  # canonical band rotation
    lambdas: tuple[Fraction, ...]


class BrickPools(NamedTuple):
    member: tuple[Walk, ...]
    insertion_strings: tuple[Walk, ...]
    insertion_bands: tuple[BandBrick, ...]
    excluded: tuple[tuple[Walk, Walk], ...]  # (brick, witnessing band)
    max_string_len: int
    band_bound: int
    lambdas: tuple[Fraction, ...]

    def descriptor(self) -> dict:
        return {
            "max_string_len": self.max_string_len,
            "band_bound": self.band_bound,
            "lambdas": [str(l) for l in self.lambdas],
        }


def _explicit(alg: AlgebraPresentation, w: Walk, lam: Fraction | None):
    """The oracle's representation of M(w), or of M(w, lam, 1) for a band,
    built once per presentation."""
    key = ("rep", w, lam)
    if key not in alg.memo:
        module = string_module(alg, w) if lam is None else band_module(alg, w, lam, 1)
        alg.memo[key] = to_explicit(module)
    return alg.memo[key]


def _oracle_hom(alg: AlgebraPresentation, a: Walk, lam_a, b: Walk, lam_b) -> int:
    """dim Hom between two modules of ``_explicit``, by the oracle, memoised
    on the presentation."""
    key = ("hom", a, lam_a, b, lam_b)
    if key not in alg.memo:
        alg.memo[key] = hom_dim_linalg(_explicit(alg, a, lam_a), _explicit(alg, b, lam_b))
    return alg.memo[key]


class HomTable:
    """Hom dimensions for certification and search.  String Homs go to the
    calculus, band-module Homs (per lambda) to the oracle; the memos behind
    both live on the presentation, so a table holds only ``alg``.  Tests
    subclass it to substitute Homs; such a fake must not write the memos."""

    def __init__(self, alg: AlgebraPresentation):
        self.alg = alg

    def hom(self, a: Walk, b: Walk) -> int:
        return hom_dim(self.alg, a, b)

    def hom_string_band(self, a: Walk, band: Walk, lam: Fraction) -> int:
        return _oracle_hom(self.alg, a, None, band, lam)

    def hom_band_string(self, band: Walk, lam: Fraction, b: Walk) -> int:
        return _oracle_hom(self.alg, band, lam, b, None)


def is_weakly_fho(alg: AlgebraPresentation, entries, table: HomTable | None = None) -> bool:
    """Hom(M_i, M_j) = 0 for all i < j; raises on a non-brick entry."""
    table = table or HomTable(alg)
    for w in entries:
        if not is_brick(alg, w):
            raise ValueError(f"entry {w} is not a brick")
    n = len(entries)
    for i in range(n):
        for j in range(i + 1, n):
            if table.hom(entries[i], entries[j]) != 0:
                return False
    return True


def insertable(alg: AlgebraPresentation, entries, p: int, brick: Walk,
               table: HomTable | None = None) -> bool:
    """Whether inserting the brick after the first p entries keeps the
    sequence weakly FHO; an existing entry is never insertable again."""
    blocks, needs, _, _, _ = _candidate_masks(entries, (brick,), (),
                                              table or HomTable(alg))
    j, f = _gap_interval(blocks, needs, 1)
    return j <= p < f


def _candidate_masks(walks, strings, bands, table: HomTable):
    """One bit per insertion candidate, the string bricks first, then each
    band brick once per lambda.  blocks[i] / needs[i] hold the candidates c
    with Hom(w_i, c) != 0, resp. Hom(c, w_i) != 0.  Also returns the mask of
    the string bits, each band brick's walk with its per-lambda bits, and
    whether no band's masks depend on lambda."""
    blocks = [0] * len(walks)
    needs = [0] * len(walks)
    bit = 1
    for c in strings:
        for i, w in enumerate(walks):
            if table.hom(w, c) != 0:
                blocks[i] |= bit
            if table.hom(c, w) != 0:
                needs[i] |= bit
        bit <<= 1
    string_bits = bit - 1
    band_bits = []
    lambda_free = True
    for bb in bands:
        bits, per_lambda = [], set()
        for lam in bb.lambdas:
            fmask = tmask = 0
            for i, w in enumerate(walks):
                if table.hom_string_band(w, bb.walk, lam) != 0:
                    blocks[i] |= bit
                    fmask |= 1 << i
                if table.hom_band_string(bb.walk, lam, w) != 0:
                    needs[i] |= bit
                    tmask |= 1 << i
            bits.append(bit)
            per_lambda.add((fmask, tmask))
            bit <<= 1
        lambda_free = lambda_free and len(per_lambda) == 1
        band_bits.append((bb.walk, tuple(bits)))
    return blocks, needs, string_bits, band_bits, lambda_free


def _gap_interval(blocks, needs, bit: int) -> tuple[int, int]:
    """(j, f) of the candidate on this bit, read from the masks of a
    sequence: its open gaps are j <= p < f (see Certification above)."""
    n = len(blocks)
    f = next((i for i, mask in enumerate(blocks, start=1) if mask & bit), n + 1)
    j = next((i for i in range(n, 0, -1) if needs[i - 1] & bit), 0)
    return j, f


def _band_brick_lambdas(alg, w: Walk, lambdas) -> bool:
    """M(w, lambda, 1) is a brick; sampled lambdas must agree."""
    dims = [_oracle_hom(alg, w, lam, w, lam) for lam in lambdas]
    if len(set(dims)) > 1:
        raise OracleDisagreement(
            f"End M({w}, lambda, 1) differs across lambda samples: {dims}"
        )
    return dims[0] == 1


def build_brick_pools(alg: AlgebraPresentation, max_string_len: int,
                      lambdas=(Fraction(1), Fraction(2)),
                      band_bound: int | None = None) -> BrickPools:
    """Member pool: string bricks minus everything supported on the square
    of a band.  Insertion pool: all string bricks plus the band bricks
    M(w, lambda, 1) over the enumerated bands."""
    lambdas = tuple(Fraction(l) for l in lambdas)
    if band_bound is None:
        band_bound = max_string_len // 2
    infos = enumerate_bricks(alg, max_string_len)
    member, excluded = [], []
    for info in infos:
        if info.band_square_supports:
            excluded.append((info.walk, info.band_square_supports[0]))
        else:
            member.append(info.walk)
    records = enumerate_bands(alg, band_bound)
    brickhood = pmap(
        lambda rec: _band_brick_lambdas(alg, rec.canonical, lambdas), records
    )
    bands = [
        BandBrick(rec.canonical, lambdas)
        for rec, ok in zip(records, brickhood)
        if ok
    ]
    return BrickPools(
        member=tuple(member),
        insertion_strings=tuple(info.walk for info in infos),
        insertion_bands=tuple(bands),
        excluded=tuple(excluded),
        max_string_len=max_string_len,
        band_bound=band_bound,
        lambdas=lambdas,
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
    blocks, needs, string_bits, band_bits, _ = _candidate_masks(
        entries, pools.insertion_strings, pools.insertion_bands, table)
    blocked = dead = 0
    for block, need in zip(blocks, needs):
        blocked |= block
        dead |= need & blocked

    # excluded bricks are insertion strings, so they own string bits too
    string_bit = {w: 1 << k for k, w in enumerate(pools.insertion_strings)}
    blockers = tuple(
        (w, band, _gap_interval(blocks, needs, string_bit[w])[0])
        for w, band in pools.excluded if string_bit[w] & ~dead
    )

    witness = None
    live = string_bits & ~dead
    if live:
        low = live & -live
        witness = (pools.insertion_strings[low.bit_length() - 1], False,
                   _gap_interval(blocks, needs, low)[0])
    else:
        for walk, bits in band_bits:
            # the first gap open at some lambda must be open at every lambda
            gaps = [_gap_interval(blocks, needs, b) for b in bits]
            starts = [j for j, f in gaps if j < f]
            if starts:
                p = min(starts)
                if not all(j <= p < f for j, f in gaps):
                    raise OracleDisagreement(
                        f"insertability of band brick {walk} at {p} differs across lambdas"
                    )
                witness = (walk, True, p)
                break

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
    diagnostics: tuple[str, ...] = ()
    pruned: int = 0


class _Searcher:
    """Append-only DFS over the member pool with hom data baked into
    bitmasks: appending a brick forbids every brick it maps onto, and a
    prefix dies as soon as a simple it still owes becomes forbidden or an
    insertion candidate stays insertable in every extension.

    The candidate bits are those of ``_candidate_masks``.  Along a prefix,
    ``blocked`` holds the candidates some entry maps onto, and ``dead`` those
    with no insertion gap left: a candidate dies once an entry it maps onto
    follows (or is) the first entry that maps onto it.  Appending member i
    costs two big-int steps, ``blocked |= blocks[i]`` and
    ``dead |= needs[i] & blocked``.
    """

    def __init__(self, alg, pools: BrickPools, table: HomTable):
        member = list(pools.member)
        self.member = member
        self.m = len(member)
        self.index = {w: i for i, w in enumerate(member)}
        # hom(w_i, w_j) != 0 puts j in forbid[i]
        self.forbid = []
        for a in member:
            mask = 0
            for j, b in enumerate(member):
                if table.hom(a, b) != 0:
                    mask |= 1 << j
            self.forbid.append(mask)
        self.simples_mask = 0
        for i, w in enumerate(member):
            if w.length == 0:
                self.simples_mask |= 1 << i
        (self.blocks, self.needs, self.string_bits, self.band_bits,
         lambda_free) = _candidate_masks(member, pools.insertion_strings,
                                         pools.insertion_bands, table)
        all_cands = self.string_bits + sum(sum(bits) for _, bits in self.band_bits)
        # spares[i]: the candidates with a zero Hom to w_i
        self.spares = [all_cands & ~n for n in self.needs]
        # band bricks prune only if no band's masks depend on lambda, so
        # that a disagreement still surfaces at a leaf
        self.prunable = all_cands if lambda_free else self.string_bits

    def run(self, *, budget=None, require_subsequence=None,
            stop_at_first=False) -> MgsSearchResult:
        import sys

        required: list[int] = []
        required_mask = 0
        for w in require_subsequence or ():
            c = canonical_string(w)
            if c not in self.index:
                raise ValueError(f"required entry {w} is not in the member pool")
            required.append(self.index[c])
            required_mask |= 1 << self.index[c]
        n_required = len(required)
        found: list[tuple[int, ...]] = []
        diagnostics: list[str] = []
        all_mask = (1 << self.m) - 1
        simples_mask = self.simples_mask
        # a still-owed simple or required entry must stay appendable
        owed_mask = simples_mask | required_mask
        forbid = self.forbid
        blocks = self.blocks
        needs = self.needs
        spares = self.spares
        prunable = self.prunable
        string_bits = self.string_bits
        band_bits = self.band_bits
        nodes = pruned = 0
        budget_cap = budget if budget is not None else float("inf")
        seq: list[int] = []

        class _Done(Exception):
            pass

        def leaf_complete(dead: int) -> bool:
            if string_bits & ~dead:
                return False
            for walk, bits in band_bits:
                live = [dead & b == 0 for b in bits]
                if len(set(live)) > 1:
                    raise OracleDisagreement(
                        "band-brick insertability differs across lambdas"
                    )
                if live[0]:
                    # no string brick refines this leaf but a band brick does;
                    # worth surfacing, the theory does not settle the case
                    diagnostics.append(
                        "band brick "
                        + str(walk)
                        + " is the sole refinement witness for "
                        + str([str(self.member[i]) for i in seq])
                    )
                    return False
            return True

        def rec(used: int, forbidden: int, need: int, blocked: int, dead: int):
            nonlocal nodes, pruned
            nodes += 1
            if nodes > budget_cap:
                raise _Done
            if owed_mask & forbidden & ~used:
                return
            open_ids = all_mask & ~(used | forbidden)
            # dead prefix: a live candidate has a zero Hom to every brick
            # that could still be appended
            closed = prunable & ~dead
            rest = open_ids
            while closed and rest:
                low = rest & -rest
                rest ^= low
                closed &= spares[low.bit_length() - 1]
            if closed:
                pruned += 1
                return
            appended = False
            rest = open_ids
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                next_need = need
                if low & required_mask:
                    if need >= n_required or required[need] != i:
                        continue
                    next_need = need + 1
                appended = True
                seq.append(i)
                now_blocked = blocked | blocks[i]
                rec(used | low, forbidden | forbid[i], next_need,
                    now_blocked, dead | (needs[i] & now_blocked))
                seq.pop()
                if stop_at_first and found:
                    return
            if not appended and seq:
                if need < n_required:
                    return
                if (simples_mask & ~used) == 0:
                    if leaf_complete(dead):
                        found.append(tuple(seq))
                        if stop_at_first:
                            raise _Done
                elif not required:
                    # cannot happen: an unforbidden missing simple is appendable
                    diagnostics.append(
                        "leaf missing simples despite no appendable brick: "
                        + str([str(self.member[i]) for i in seq])
                    )

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, self.m * 50 + 1000))
        budget_hit = False
        try:
            rec(0, 0, 0, 0, 0)
        except _Done:
            budget_hit = nodes > budget_cap
        finally:
            sys.setrecursionlimit(old_limit)

        # order by the members' walk order, compared through their ranks
        rank = [0] * self.m
        for r, i in enumerate(sorted(range(self.m), key=self.member.__getitem__)):
            rank[i] = r
        found.sort(key=lambda ids: [rank[i] for i in ids])
        sequences = tuple(tuple(self.member[i] for i in ids) for ids in found)
        if budget_hit:
            raise BudgetExhausted(sequences, nodes, pruned, tuple(diagnostics))
        return MgsSearchResult(sequences, nodes, tuple(diagnostics), pruned)


def enumerate_mgs(alg: AlgebraPresentation, pools: BrickPools, *,
                  budget: int | None = None, require_subsequence=None,
                  table: HomTable | None = None) -> MgsSearchResult:
    """Maximal green sequences whose bricks lie in the member pool, each
    certified complete relative to the pools; deterministic order.

    Limits: a node budget (exceeding it raises BudgetExhausted carrying the
    partial output), and optionally a required subsequence, restricting the
    search to complete sequences containing the given entries in the given
    relative order.
    """
    table = table or HomTable(alg)
    result = _Searcher(alg, pools, table).run(
        budget=budget, require_subsequence=require_subsequence)
    for seq in result.sequences:
        present = {e.source for e in seq if e.length == 0}
        if set(alg.vertices) - present:
            raise AssertionError(
                f"emitted sequence {[str(w) for w in seq]} misses simples"
            )
    return result


def complete_from_prefix(alg: AlgebraPresentation, pools: BrickPools,
                         simple_order, *, budget: int | None = None,
                         table: HomTable | None = None):
    """First complete sequence, in search order, that places the simples
    S(v) of the listed vertices in the given relative order; unlisted
    simples are unconstrained.  Returns None when the search finishes
    without one, and raises BudgetExhausted when the budget runs out first,
    or ValueError for an unknown vertex.  The search's leaf check certifies
    the sequence on the masks of ``is_complete_relative``, so it is complete
    relative to the pools."""
    simples = tuple(Walk((), (v,)) for v in simple_order)
    result = _Searcher(alg, pools, table or HomTable(alg)).run(
        budget=budget, require_subsequence=simples, stop_at_first=True)
    return result.sequences[0] if result.sequences else None


class SocleFirstResult(NamedTuple):
    hypothesis_holds: bool
    witnesses: tuple[tuple[str, str, str], ...]  # (simple, band with it on top, band with it in socle)
    order: tuple[str, ...]


def simple_order_socle_first(alg: AlgebraPresentation, pool: BandPool) -> SocleFirstResult:
    """Check that no simple sits in the top of one band module and the socle
    of another, and order the simples socle-appearing first.

    Band modules at different lambda are distinct modules, so a simple lying
    in the top of some band and the socle of any band violates the
    hypothesis.
    """
    tops: dict[str, Walk] = {}
    socles: dict[str, Walk] = {}
    for w in pool.bands:
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


def _descents_from_peak(w: Walk, p: int):
    """The two directed paths from a peak down to its adjacent valleys,
    as (arrow list in composition order, valley vertex)."""
    d = w.length
    right, i = [], p
    while w.letters[i].sign == +1:
        right.append(w.letters[i].arrow)
        i = (i + 1) % d
    right_end = w.vertices[i]
    left, i = [], (p - 1) % d
    while w.letters[i].sign == -1:
        left.append(w.letters[i].arrow)
        i = (i - 1) % d
    left_end = w.vertices[(i + 1) % d]
    return [(tuple(right), right_end), (tuple(left), left_end)]


def _ascents_to_valley(w: Walk, q: int):
    """The two directed paths from the adjacent peaks down into a valley,
    as (arrow list in composition order, peak vertex)."""
    d = w.length
    left_arrows, i = [], (q - 1) % d
    while w.letters[i].sign == +1:
        left_arrows.append(w.letters[i].arrow)
        i = (i - 1) % d
    left_arrows.reverse()
    left_peak = w.vertices[(i + 1) % d]
    right_arrows, i = [], q
    while w.letters[i].sign == -1:
        right_arrows.append(w.letters[i].arrow)
        i = (i + 1) % d
    right_arrows.reverse()
    right_peak = w.vertices[i]
    return [(tuple(left_arrows), left_peak), (tuple(right_arrows), right_peak)]


class GentleOrderResult(NamedTuple):
    chunks: tuple[tuple[str, ...], ...]
    order: tuple[str, ...]


def domestic_gentle_order(alg: AlgebraPresentation, pool: BandPool) -> GentleOrderResult:
    """The constructive simple ordering for domestic gentle algebras.

    Starting from a simple in the top of a band module, repeatedly follow the
    unique relation-free composition down to the next socle simple; extend
    dually backwards; repeat over the remaining bands and concatenate.  The
    simples met along one chain are guaranteed distinct; a repeat is reported
    as a theorem-check counterexample.
    """
    from .algebra import validate_axioms

    report = validate_axioms(alg)
    if not report.is_gentle:
        raise ValueError("construction requires a gentle algebra")

    W = [w for w in pool.bands
         if not (set(band_top_socle(w)[0]) & set(band_top_socle(w)[1]))]

    def junction_alive(prev_arrow: str | None, path: tuple[str, ...]) -> bool:
        if prev_arrow is None or not path:
            return True
        return not alg.path_contains_relation((prev_arrow, path[0]))

    def pick_descent(band: Walk, vertex: str, incoming_arrow: str | None):
        peaks, _ = band_peaks_valleys(band)
        options = []
        for p in peaks:
            if band.vertices[p] != vertex:
                continue
            for path, end in _descents_from_peak(band, p):
                if junction_alive(incoming_arrow, path):
                    options.append((path, end))
        if not options:
            raise TheoremCounterexample(
                f"no relation-free descent from {vertex} in band {band}"
            )
        return sorted(options)[0]

    def pick_ascent(band: Walk, vertex: str, outgoing_arrow: str | None):
        _, valleys = band_peaks_valleys(band)
        options = []
        for q in valleys:
            if band.vertices[q] != vertex:
                continue
            for path, peak in _ascents_to_valley(band, q):
                ok = (outgoing_arrow is None or not path
                      or not alg.path_contains_relation((path[-1], outgoing_arrow)))
                if ok:
                    options.append((path, peak))
        if not options:
            raise TheoremCounterexample(
                f"no relation-free ascent into {vertex} in band {band}"
            )
        return sorted(options)[0]

    chunks: list[tuple[str, ...]] = []
    used_simples: set[str] = set()
    remaining = list(W)
    while remaining:
        w1 = remaining[0]
        tops = band_top_socle(w1)[0]
        a1 = min(tops, key=lambda v: alg.vertex_index[v])
        chain = [a1]
        # forward: follow relation-free descents toward successive socles.
        # Bands in W never repeat a simple in top and socle, so the band
        # just used is excluded automatically.
        path, nxt = pick_descent(w1, a1, None)
        onward_first = path[0] if path else None
        last_arrow = path[-1] if path else None
        while True:
            if nxt in chain:
                raise TheoremCounterexample(
                    f"simple {nxt} repeats along the chain {chain}"
                )
            chain.append(nxt)
            cands = [w for w in remaining if nxt in band_top_socle(w)[0]]
            if not cands:
                break
            path, nxt = pick_descent(cands[0], nxt, last_arrow)
            last_arrow = path[-1] if path else None
        # backward: while the chain's first simple sits in the socle of a
        # band, ascend to that band's top with a relation-free junction.
        entry = chain[0]
        while True:
            cands = [w for w in remaining if entry in band_top_socle(w)[1]]
            if not cands:
                break
            path, peak = pick_ascent(cands[0], entry, onward_first)
            if peak in chain:
                raise TheoremCounterexample(
                    f"simple {peak} repeats along the chain {chain}"
                )
            chain.insert(0, peak)
            entry = peak
            onward_first = path[0] if path else None
        ordered_chunk = tuple(reversed(chain))
        if set(ordered_chunk) & used_simples:
            raise TheoremCounterexample(
                f"chains overlap on {set(ordered_chunk) & used_simples}"
            )
        chunks.append(ordered_chunk)
        used_simples.update(ordered_chunk)
        remaining = [w for w in remaining if used_simples.isdisjoint(
            v for side in band_top_socle(w) for v in side)]

    rest = tuple(v for v in alg.vertices if v not in used_simples)
    order = tuple(v for chunk in chunks for v in chunk) + rest
    return GentleOrderResult(tuple(chunks), order)
