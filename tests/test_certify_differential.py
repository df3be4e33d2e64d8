"""Certification on the candidate masks against the walk-level gap scan it
replaced, kept here as a slow reference: equal Verdicts and equal
`insertable` at every gap.  The masks themselves, read from class sets,
against one Hom dimension per pair."""

from fractions import Fraction

import pytest

from mgslab import (
    band_module,
    enumerate_bands,
    enumerate_strings,
    hom_dim,
    hom_dim_band_string,
    hom_dim_linalg,
    hom_dim_string_band,
    load_algebra,
    parse_walk,
    string_module,
    to_explicit,
)
from mgslab.mgs import (
    HomTable,
    Verdict,
    _candidate_masks,
    build_brick_pools,
    enumerate_mgs,
    insertable,
    is_complete_relative,
)
from mgslab.words import canonical_string

from conftest import ALGEBRAS, DATA, random_presentation


def _ref_gap_open(entries, p, brick, table):
    """Hom(e, brick) = 0 for the first p entries, Hom(brick, e) = 0 after."""
    return (all(table.hom(e, brick) == 0 for e in entries[:p])
            and all(table.hom(brick, e) == 0 for e in entries[p:]))


def _ref_first_gap(entries, keys, brick, table):
    """The first position at which the brick is insertable, or None; keys
    holds the canonical keys of the entries."""
    if canonical_string(brick).key() in keys:
        return None
    return next((p for p in range(len(entries) + 1)
                 if _ref_gap_open(entries, p, brick, table)), None)


def _ref_insertable(entries, p, brick, table):
    keys = {canonical_string(e).key() for e in entries}
    return canonical_string(brick).key() not in keys and _ref_gap_open(entries, p, brick, table)


def _ref_band_insertable(entries, p, band, table):
    """Hom(e, M(band, lambda, 1)) = 0 for the first p entries and
    Hom(M(band, lambda, 1), e) = 0 after: one decision for every lambda."""
    return (all(table.hom_string_band(e, band) == 0 for e in entries[:p])
            and all(table.hom_band_string(band, e) == 0 for e in entries[p:]))


def _ref_is_complete_relative(alg, entries, pools, table):
    entries = tuple(entries)
    entry_keys = [canonical_string(e).key() for e in entries]
    keys = set(entry_keys)
    excluded_map = {canonical_string(w).key(): band for w, band in pools.excluded}
    banned_entries = tuple(
        (e, excluded_map[k]) for e, k in zip(entries, entry_keys) if k in excluded_map
    )
    blockers = []
    for w, band in pools.excluded:
        p = _ref_first_gap(entries, keys, w, table)
        if p is not None:
            blockers.append((w, band, p))

    witness = None
    for w in pools.insertion_strings:
        p = _ref_first_gap(entries, keys, w, table)
        if p is not None:
            witness = (w, False, p)
            break
    if witness is None:
        witness = next(((band, True, p) for band in pools.insertion_bands
                        for p in range(len(entries) + 1)
                        if _ref_band_insertable(entries, p, band, table)), None)

    present = {e.source for e in entries if e.length == 0}
    missing = tuple(v for v in alg.vertices if v not in present)
    common = dict(missing_simples=missing, banned_entries=banned_entries,
                  band_square_blockers=tuple(blockers),
                  pool_descriptor=pools.descriptor())
    if witness is not None:
        return Verdict("refinable", witness_brick=witness[0],
                       witness_is_band=witness[1], witness_position=witness[2],
                       **common)
    return Verdict("complete" if not missing else "refinable-or-bug", **common)


class _StringMemo:
    """The reference's view of a table: string Homs memoized by walk
    identity (the walks outlive the test), which keeps the reference's
    O(n^2) gap scan fast; band Homs pass through."""

    def __init__(self, table):
        self.table = table
        self.string = {}

    def hom(self, a, b):
        key = (id(a), id(b))
        if key not in self.string:
            self.string[key] = (a, b, self.table.hom(a, b))
        return self.string[key][2]

    def hom_string_band(self, a, band):
        return self.table.hom_string_band(a, band)

    def hom_band_string(self, band, b):
        return self.table.hom_band_string(band, b)


def assert_same_certification(alg, sequences, pools, table, bricks=None):
    """Equal Verdicts on every sequence; equal `insertable` at every gap
    for each brick in `bricks`."""
    ref_table = _StringMemo(table)
    for seq in sequences:
        got = is_complete_relative(alg, seq, pools, table)
        want = _ref_is_complete_relative(alg, seq, pools, ref_table)
        assert got == want, [str(w) for w in seq]
        for brick in bricks or ():
            for p in range(len(seq) + 1):
                assert (insertable(alg, seq, p, brick, table)
                        == _ref_insertable(seq, p, brick, ref_table)), (str(brick), p)


def weakly_fho_sequences(pools, table):
    """Every nonempty weakly FHO sequence over the insertion strings."""
    out = []

    def dfs(seq):
        if seq:
            out.append(tuple(seq))
        for c in pools.insertion_strings:
            if all(table.hom(e, c) == 0 for e in seq):
                dfs(seq + [c])

    dfs([])
    return out


def bundled_variants(alg, data_dir):
    """The bundled mgs5 sequence, each one-entry drop and each swap of two
    entries (106 sequences)."""
    lines = (data_dir / "mgs5_sequence.txt").read_text().splitlines()
    seq = [parse_walk(alg, l) for l in lines if l.strip()]
    drops = [seq[:i] + seq[i + 1:] for i in range(len(seq))]
    swaps = []
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            v = list(seq)
            v[i], v[j] = v[j], v[i]
            swaps.append(v)
    return [seq] + drops, swaps


def test_kronecker_band_witness(kronecker, data_dir):
    pools = build_brick_pools(kronecker, 4)
    lines = (data_dir / "kronecker_band_witness.txt").read_text().splitlines()
    seq = tuple(parse_walk(kronecker, l) for l in lines)
    assert [str(w) for w in seq] == ["e:1", "a b-", "a b- a b-", "a", "b",
                                     "a- b a- b", "a- b", "e:2"]
    verdict = is_complete_relative(kronecker, seq, pools)
    assert verdict.kind == "refinable"
    assert verdict.witness_is_band
    assert str(verdict.witness_brick) == "a b-"
    assert verdict.witness_position == 3
    assert verdict == _ref_is_complete_relative(kronecker, seq, pools,
                                                _StringMemo(HomTable(kronecker)))


def test_kronecker_every_weakly_fho_sequence(kronecker):
    pools = build_brick_pools(kronecker, 4)
    table = HomTable(kronecker)
    sequences = weakly_fho_sequences(pools, table)
    assert len(sequences) == 320
    band_witnesses = [s for s in sequences
                      if is_complete_relative(kronecker, s, pools, table).witness_is_band]
    assert len(band_witnesses) == 2
    assert_same_certification(kronecker, sequences, pools, table,
                              bricks=pools.insertion_strings)


@pytest.mark.parametrize("max_len", [12, 16])
def test_bundled_mgs5_variants(mgs5, data_dir, max_len):
    pools = build_brick_pools(mgs5, max_len)
    table = HomTable(mgs5)
    drops, swaps = bundled_variants(mgs5, data_dir)
    assert len(drops) + len(swaps) == 106
    # insertable at every gap of every insertion string on the drops at 12;
    # the Verdicts already cover the first gaps at 16
    bricks = pools.insertion_strings if max_len == 12 else None
    assert_same_certification(mgs5, drops, pools, table, bricks=bricks)
    assert_same_certification(mgs5, swaps, pools, table)


@pytest.mark.parametrize("name, max_len, count", [("a12tilde", 12, 5), ("two_loops", 10, 1)])
def test_emitted_sequences(request, name, max_len, count):
    alg = request.getfixturevalue(name)
    pools = build_brick_pools(alg, max_len)
    table = HomTable(alg)
    sequences = enumerate_mgs(alg, pools, table=table).sequences
    assert len(sequences) == count
    assert_same_certification(alg, sequences, pools, table, bricks=pools.insertion_strings)


class _NoBandToString(HomTable):
    """A fake that substitutes Homs: every band brick maps to no string, as
    it has no quotient classes."""

    def classes(self, w, band_bound=None):
        quotient, submodule = super().classes(w, band_bound)
        return (quotient if band_bound is None else ()), submodule


def test_fake_homs_leave_the_presentation_memos_clean(kronecker):
    """The band-count memo is shared by every table on the presentation, so a
    fake table that substitutes Homs must not write it."""
    pools = build_brick_pools(kronecker, 4)
    table, fake = HomTable(kronecker), _NoBandToString(kronecker)
    sequences = weakly_fho_sequences(pools, table)
    faked = [is_complete_relative(kronecker, seq, pools, fake) for seq in sequences]
    assert faked != [is_complete_relative(kronecker, seq, pools, table) for seq in sequences]
    assert pools.insertion_bands
    for band in pools.insertion_bands:
        for lam in (Fraction(1), Fraction(2)):
            rep_band = to_explicit(band_module(kronecker, band, lam, 1))
            for w in pools.insertion_strings:
                rep = to_explicit(string_module(kronecker, w))
                assert table.hom_band_string(band, w) == hom_dim_linalg(rep_band, rep)
                assert table.hom_string_band(w, band) == hom_dim_linalg(rep, rep_band)


def _pairwise_masks(alg, walks, strings, bands):
    """The candidate masks from one Hom dimension per (walk, candidate) pair
    and direction: the candidates are the strings, then the bands."""
    blocks, needs = [], []
    for w in walks:
        into = ([hom_dim(alg, w, c) for c in strings]
                + [hom_dim_string_band(alg, w, b) for b in bands])
        onto = ([hom_dim(alg, c, w) for c in strings]
                + [hom_dim_band_string(alg, b, w) for b in bands])
        blocks.append(sum(1 << k for k, dim in enumerate(into) if dim))
        needs.append(sum(1 << k for k, dim in enumerate(onto) if dim))
    return blocks, needs


@pytest.mark.parametrize("name", ALGEBRAS)
def test_class_masks_match_pairwise_homs_on_bundled_algebras(name):
    """Every string of length <= 8 in both orientations against every string
    and every band of length <= 4, a superset of the insertion bands at
    string length 8.  Each side reads its own presentation, so neither
    warms the other's memos."""
    alg = load_algebra(DATA / f"{name}.alg")
    strings = enumerate_strings(alg, 8)
    bands = enumerate_bands(alg, 4)
    assert set(build_brick_pools(alg, 8).insertion_bands) <= set(bands)
    walks = list(strings) + [w.inverse() for w in strings if w.length]
    got = _candidate_masks(walks, strings, bands, HomTable(alg))
    assert got == _pairwise_masks(load_algebra(DATA / f"{name}.alg"), walks, strings, bands)


def test_class_masks_match_pairwise_homs_on_random_presentations():
    """The presentations of the string-ness reference test, with relations
    of length 2-4: strings of length <= 4 against themselves and the bands
    of length <= 4.  Presentations with more than 150 such strings are
    skipped to keep the quadratic reference short."""
    longest, compared = set(), 0
    for seed in range(150):
        alg = random_presentation(seed)
        strings = enumerate_strings(alg, 4)
        if len(strings) > 150:
            continue
        bands = enumerate_bands(alg, 4)
        got = _candidate_masks(strings, strings, bands, HomTable(alg))
        want = _pairwise_masks(random_presentation(seed), strings, strings, bands)
        assert got == want, alg.normalized_text
        longest.add(alg.max_relation_length)
        compared += 1
    assert {2, 3, 4} <= longest and compared > 100
