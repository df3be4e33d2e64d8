import random
from fractions import Fraction

import pytest

from mgslab import (
    ModuleError,
    band_end_dim,
    band_module,
    band_top_socle,
    canonical_string,
    enumerate_bands,
    enumerate_bricks,
    enumerate_strings,
    hom_classes,
    hom_dim,
    hom_dim_linalg,
    is_brick,
    is_string,
    load_algebra,
    parse_algebra,
    parse_walk,
    string_module,
    supported_on,
    to_explicit,
    top_socle,
)
from mgslab.mgs import build_brick_pools
from mgslab.modules import _band_counts, _class_counts, _short_witness
from mgslab.words import _all_string_walks

from conftest import ALGEBRAS, composable_extensions, string_algebra_sample


def test_string_module_dims_pinned(gentle5):
    M = string_module(gentle5, parse_walk(gentle5, "g2 b2 a2- g2 b1-"))
    assert M.dims() == {"1": 1, "2": 2, "3": 1, "4": 0, "5": 2}
    assert M.total_dim == 6


def test_string_module_simple(gentle5):
    M = string_module(gentle5, parse_walk(gentle5, "e:3"))
    assert M.dims() == {"1": 0, "2": 0, "3": 1, "4": 0, "5": 0}


def test_string_module_sec4_entry(mgs5):
    M = string_module(mgs5, parse_walk(mgs5, "a1 b2 d b1- a2-"))
    assert M.dims() == {"1": 2, "2": 1, "3": 1, "4": 1, "5": 1}
    assert M.total_dim == 6


def test_string_module_inverse_invariant(gentle5):
    w = parse_walk(gentle5, "g2 b2 a2- g2 b1-")
    assert string_module(gentle5, w) == string_module(gentle5, w.inverse())


def test_string_module_rejects_non_string(two_loops):
    with pytest.raises(ModuleError):
        string_module(two_loops, parse_walk(two_loops, "a a"))


def test_string_module_dim_sum_is_length_plus_one(gentle5):
    for w in enumerate_strings(gentle5, 6):
        assert string_module(gentle5, w).total_dim == w.length + 1


def test_band_module_dims(gentle5):
    B = band_module(gentle5, parse_walk(gentle5, "b2 a2- g2"), Fraction(2), 2)
    assert B.dims() == {"1": 0, "2": 2, "3": 2, "4": 0, "5": 2}


def test_band_module_repeated_vertex_dims(two_loops):
    B = band_module(two_loops, parse_walk(two_loops, "a b g- b-"), Fraction(1), 1)
    assert B.dims() == {"1": 2, "2": 2}


def test_band_module_argument_errors(gentle5):
    w2 = parse_walk(gentle5, "b2 a2- g2")
    with pytest.raises(ModuleError):
        band_module(gentle5, w2, Fraction(0), 1)
    with pytest.raises(ModuleError):
        band_module(gentle5, w2, Fraction(1), 0)
    with pytest.raises(ModuleError):
        band_module(gentle5, parse_walk(gentle5, "b1"), Fraction(1), 1)


def test_occurrences_with_flags_single_arrow(a12tilde):
    w = parse_walk(a12tilde, "b1")
    quotient, submodule = hom_classes(a12tilde, w)
    e1, e3 = parse_walk(a12tilde, "e:1").key(), parse_walk(a12tilde, "e:3").key()
    assert set(quotient) == {e1, w.key()}
    assert set(submodule) == {e3, w.key()}


def test_occurrences_with_flags_trivial(gentle5):
    e2 = parse_walk(gentle5, "e:2")
    assert [set(side) for side in hom_classes(gentle5, e2)] == [{e2.key()}, {e2.key()}]


def test_top_socle_examples(a12tilde, double_arrows, gentle5):
    M = string_module(a12tilde, parse_walk(a12tilde, "b1"))
    assert top_socle(M) == (("1",), ("3",))
    S = string_module(a12tilde, parse_walk(a12tilde, "e:2"))
    assert top_socle(S) == (("2",), ("2",))
    peak = string_module(double_arrows, parse_walk(double_arrows, "a1- a2"))
    assert top_socle(peak) == (("1",), ("2", "2"))
    big = string_module(gentle5, parse_walk(gentle5, "g2 b2 a2- g2 b1-"))
    assert top_socle(big) == (("1", "5", "5"), ("2", "3"))


def test_band_top_socle(a12tilde, kronecker, double_arrows):
    assert band_top_socle(parse_walk(a12tilde, "b1 b2 a-")) == (("1",), ("2",))
    assert band_top_socle(parse_walk(kronecker, "b- a")) == (("1",), ("2",))
    assert band_top_socle(parse_walk(double_arrows, "a1 a2-")) == (("1",), ("2",))
    assert band_top_socle(parse_walk(double_arrows, "b1 b2-")) == (("2",), ("1",))


def test_hom_dim_simples(a12tilde):
    e1, e2 = parse_walk(a12tilde, "e:1"), parse_walk(a12tilde, "e:2")
    assert hom_dim(a12tilde, e1, e1) == 1
    assert hom_dim(a12tilde, e1, e2) == 0


def test_hom_dim_top_socle(a12tilde):
    b1 = parse_walk(a12tilde, "b1")
    assert hom_dim(a12tilde, b1, parse_walk(a12tilde, "e:3")) == 0
    assert hom_dim(a12tilde, b1, parse_walk(a12tilde, "e:1")) == 1
    assert hom_dim(a12tilde, parse_walk(a12tilde, "e:3"), b1) == 1


def test_hom_dim_brick_example(gentle5):
    gamma = parse_walk(gentle5, "g2 b2 a2- g2 b1-")
    assert hom_dim(gentle5, gamma, gamma) == 1
    assert is_brick(gentle5, gamma)


def test_hom_dim_inverse_invariant(gentle5):
    ws = enumerate_strings(gentle5, 4)
    for a in ws[:8]:
        for b in ws[:8]:
            base = hom_dim(gentle5, a, b)
            assert hom_dim(gentle5, a.inverse(), b) == base
            assert hom_dim(gentle5, a, b.inverse()) == base


def test_non_brick_kronecker_regular(kronecker):
    # walk 1-2-1-2 carries a nontrivial endomorphism shifting the strands
    w = parse_walk(kronecker, "a b- a")
    assert hom_dim(kronecker, w, w) == 2
    assert not is_brick(kronecker, w)


def test_non_brick_from_non_minimal_band_shape(gentle5):
    # w2^2 v with v a proper prefix: square of a band is never a brick
    w2 = parse_walk(gentle5, "b2 a2- g2")
    assert not is_brick(gentle5, w2.power(2))


def test_all_simples_are_bricks(mgs5):
    for v in mgs5.vertices:
        assert is_brick(mgs5, parse_walk(mgs5, f"e:{v}"))


def test_sec4_sequence_entry_is_brick(mgs5):
    assert is_brick(mgs5, parse_walk(mgs5, "a1 b2 d b1- a2-"))


def test_enumerate_bricks_a2(a2):
    infos = enumerate_bricks(a2, 5)
    assert [str(i.walk) for i in infos] == ["e:1", "e:2", "a"]
    assert all(i.band_square_supports == () for i in infos)


def test_enumerate_bricks_band_square_annotation(a12tilde):
    infos = enumerate_bricks(a12tilde, 8)
    flagged = {str(i.walk): i.band_square_supports for i in infos}
    w2brick = "a b2- b1- a b2- b1-"  # canonical form of the doubled band
    assert w2brick in flagged
    assert [str(b) for b in flagged[w2brick]] == ["a b2- b1-"]
    assert flagged["e:1"] == ()


def test_enumerate_bricks_two_loops_short(two_loops):
    infos = enumerate_bricks(two_loops, 1)
    names = [str(i.walk) for i in infos]
    assert names[:2] == ["e:1", "e:2"]
    for i in infos:
        assert hom_dim(two_loops, i.walk, i.walk) == 1


def test_hom_dim_memo_filled_from_inverse(data_dir):
    # fresh presentations: one memo is filled from w^-1 first, the other
    # from the canonical walks
    inverse_first = load_algebra(data_dir / "gentle5.alg")
    canonical_first = load_algebra(data_dir / "gentle5.alg")
    ws = enumerate_strings(inverse_first, 4)
    for w in ws:
        for x in ws:
            assert hom_dim(inverse_first, w.inverse(), x.inverse()) == hom_dim(canonical_first, w, x)
    for w in ws:
        for x in ws:
            assert hom_dim(inverse_first, w, x) == hom_dim(canonical_first, w.inverse(), x)


def test_hom_dim_non_string_raises_every_call(two_loops):
    bad = parse_walk(two_loops, "a a")
    e1 = parse_walk(two_loops, "e:1")
    for _ in range(2):
        with pytest.raises(ModuleError):
            hom_dim(two_loops, bad, e1)
        with pytest.raises(ModuleError):
            hom_dim(two_loops, e1, bad)
    assert bad not in two_loops.walk_memo


def test_hom_dim_equal_presentations_agree(data_dir):
    one, two = (load_algebra(data_dir / "mgs5.alg") for _ in range(2))
    assert one == two and one is not two
    ws = enumerate_strings(one, 4)
    for w in ws[::2]:  # the two memos start from different contents
        hom_dim(one, w, w)
    for w in ws:
        for x in ws:
            assert hom_dim(one, w, x) == hom_dim(two, w, x)
    assert one.walk_memo is not two.walk_memo
    for enumerate_ in (_all_string_walks, enumerate_strings, enumerate_bands,
                       enumerate_bricks):
        assert enumerate_(one, 6) == enumerate_(two, 6)


def test_hom_dim_matches_oracle_gentle5_sample(gentle5):
    ws = enumerate_strings(gentle5, 7)
    rng = random.Random(7)
    reps = {}
    for _ in range(400):
        a, b = rng.choice(ws), rng.choice(ws)
        for w in (a, b):
            if w not in reps:
                reps[w] = to_explicit(string_module(gentle5, w))
        assert hom_dim(gentle5, a, b) == hom_dim_linalg(reps[a], reps[b])


def _reference_class_counts(w, bound=None):
    """Occurrence class counts built per located occurrence, letters i..j
    of the host (1-based; j = i-1 for the length-0 one at i): a sub-walk,
    its boundary letters' bits (2 for a missing one) and its canonical key
    each time; the reference for the key slices.  A quotient has no direct
    letter on its left and no inverse one on its right, a submodule the
    opposite.

    The host of a string is its canonical form, every sub-walk counted.
    With a bound, w is a band and the host a power of it long enough that
    every sub-walk starting in its second period with at most bound
    letters has a letter on either side; those are counted."""
    if bound is None:
        host = canonical_string(w)
        d = host.length
        spans = [(p, p - 1) for p in range(1, d + 2)]
        spans += [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
    else:
        n = w.length
        host = w.power(bound + 3)
        d = host.length
        spans = [(i, i + m - 1) for i in range(n + 1, 2 * n + 1) for m in range(bound + 1)]
    quotient, submodule = {}, {}
    for i, j in spans:
        left = host.letters[i - 2].bit if i >= 2 else 2
        right = host.letters[j].bit if j < d else 2
        key = canonical_string(host.sub(i, j)).key()
        if left != 0 and right != 1:
            quotient[key] = quotient.get(key, 0) + 1
        if left != 1 and right != 0:
            submodule[key] = submodule.get(key, 0) + 1
    return quotient, submodule


@pytest.mark.parametrize("name", ALGEBRAS)
def test_class_counts_match_per_occurrence_reference(data_dir, name):
    alg = load_algebra(data_dir / f"{name}.alg")
    walks = _all_string_walks(alg, 7)  # both orientations
    assert {w.inverse() for w in walks} == set(walks)
    for w in walks:
        # equal counts, inserted in the same order
        assert ([list(counts.items()) for counts in _class_counts(alg, w)]
                == [list(counts.items()) for counts in _reference_class_counts(w)])
    for bound in range(13):
        # a fresh presentation: a band memo filled at a larger bound also
        # serves the longer words
        alg = load_algebra(data_dir / f"{name}.alg")
        bands = [u for b in enumerate_bands(alg, 8) for u in b.rotations]
        for b in bands:  # every rotation of either orientation
            assert ([list(counts.items()) for counts in _band_counts(alg, b, bound)]
                    == [list(counts.items()) for counts in _reference_class_counts(b, bound)])


SAMPLE = string_algebra_sample()


def test_is_brick_matches_end_dim_on_sample():
    """is_brick against dim End = 1 from the full scan on a fresh
    presentation, for every string of length <= 8 in both orientations.
    The short witness is a class of length <= 2, shorter than the string,
    among both the quotient and the submodule classes of the full scan;
    a string rejected at one leaves no ``walk_memo`` entry."""
    rejected = scanned_non_bricks = 0
    for label, text in SAMPLE:
        alg, fresh = parse_algebra(text), parse_algebra(text)
        walks = _all_string_walks(alg, 8)
        for w in walks:
            assert is_brick(alg, w) == (hom_dim(fresh, w, w) == 1), (label, str(w))
            quotient, submodule = _class_counts(fresh, w)
            assert _short_witness(w) == any(
                key in submodule for key in quotient if key[0] < min(w.length, 3))
        for w in walks:
            if _short_witness(w):
                rejected += 1
                assert w not in alg.walk_memo, (label, str(w))
            elif hom_dim(fresh, w, w) > 1:
                scanned_non_bricks += 1
    # most non-bricks fall at a short witness, and some need the full scan
    assert rejected > 20 * scanned_non_bricks > 0


@pytest.mark.parametrize("name", ALGEBRAS)
def test_is_brick_rejects_non_strings(data_dir, name):
    alg = load_algebra(data_dir / f"{name}.alg")
    bad = [x for w in _all_string_walks(alg, 4) for x in composable_extensions(alg, w)
           if not is_string(alg, x)]
    assert bad or name == "a2"
    for w in bad:
        for _ in range(2):
            with pytest.raises(ModuleError, match="hom_dim requires strings"):
                is_brick(alg, w)
        assert w not in alg.walk_memo


def _reference_pools(alg, max_len: int) -> tuple:
    """build_brick_pools with the default band bound, from dim End = 1 and
    ``supported_on``: member strings, insertion strings, band bricks and
    excluded (brick, first band whose square supports it)."""
    bands = enumerate_bands(alg, max_len)
    bricks = tuple(w for w in enumerate_strings(alg, max_len) if hom_dim(alg, w, w) == 1)
    squares = {w: next((b for b in bands if supported_on(w, b, 2)), None) for w in bricks}
    return (tuple(w for w in bricks if squares[w] is None), bricks,
            tuple(b for b in bands if band_end_dim(alg, b) == 1),
            tuple((w, squares[w]) for w in bricks if squares[w] is not None))


@pytest.mark.parametrize("max_len", [8, 12])
def test_brick_pools_match_reference_on_sample(max_len):
    sizes = set()
    for label, text in SAMPLE:
        pools = build_brick_pools(parse_algebra(text), max_len)
        got = (pools.member, pools.insertion_strings, pools.insertion_bands, pools.excluded)
        assert got == _reference_pools(parse_algebra(text), max_len), label
        sizes.add(tuple(map(bool, got)))
    assert sizes >= {(True, True, True, True), (True, True, False, False)}
