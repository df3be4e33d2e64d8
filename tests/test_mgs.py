import gc
import weakref

import pytest

from mgslab import (
    band_pool,
    enumerate_bands,
    enumerate_bricks,
    enumerate_strings,
    load_algebra,
    parse_walk,
)
from mgslab.lemmas import run_lemma_suite
from mgslab.mgs import (
    BudgetExhausted,
    HomTable,
    _Searcher,
    build_brick_pools,
    complete_from_prefix,
    domestic_gentle_order,
    enumerate_mgs,
    insertable,
    is_complete_relative,
    is_weakly_fho,
    simple_order_socle_first,
)


def walks(alg, *literals):
    return tuple(parse_walk(alg, lit) for lit in literals)


def simples(alg, order):
    """The simples S(v) of the given vertices, as walks in that order."""
    return walks(alg, *(f"e:{v}" for v in order))


def bundled_sequence(mgs5, data_dir):
    lines = (data_dir / "mgs5_sequence.txt").read_text().splitlines()
    return tuple(parse_walk(mgs5, l) for l in lines if l.strip())


def test_is_weakly_fho_singleton(a2):
    assert is_weakly_fho(a2, walks(a2, "e:1"))


def test_is_weakly_fho_a2_orders(a2):
    assert is_weakly_fho(a2, walks(a2, "e:2", "e:1"))
    assert is_weakly_fho(a2, walks(a2, "e:1", "e:2"))
    # the projective [1;2] surjects onto S(2): wrong order breaks FHO
    assert not is_weakly_fho(a2, walks(a2, "a", "e:1"))
    assert is_weakly_fho(a2, walks(a2, "e:1", "a"))


def test_is_weakly_fho_rejects_non_brick(kronecker):
    with pytest.raises(ValueError, match="not a brick"):
        is_weakly_fho(kronecker, walks(kronecker, "a b- a"))


def test_bundled_sequence_weakly_fho(mgs5, data_dir):
    assert is_weakly_fho(mgs5, bundled_sequence(mgs5, data_dir))


def test_insertable_basic(a2):
    seq = walks(a2, "e:1", "e:2")
    mid = parse_walk(a2, "a")
    assert insertable(a2, seq, 1, mid)
    assert not insertable(a2, seq, 0, mid)
    assert not insertable(a2, seq, 2, mid)
    # an existing entry is never insertable again
    assert not insertable(a2, seq, 1, parse_walk(a2, "e:1"))


def test_insertable_w2_brick_after_prefix(a12tilde):
    seq = walks(a12tilde, "e:1", "b1")
    brick = parse_walk(a12tilde, "b1 b2 a- b1 b2 a-")
    assert insertable(a12tilde, seq, 2, brick)
    assert not insertable(a12tilde, seq, 1, brick)


def test_complete_sequence_rejects_all_insertions(mgs5, data_dir):
    seq = bundled_sequence(mgs5, data_dir)
    pools = build_brick_pools(mgs5, 12)
    for b in pools.insertion_strings:
        for p in range(len(seq) + 1):
            assert not insertable(mgs5, seq, p, b)


def test_build_brick_pools_a2(a2):
    pools = build_brick_pools(a2, 5)
    assert [str(w) for w in pools.member] == ["e:1", "e:2", "a"]
    assert pools.member == pools.insertion_strings
    assert pools.insertion_bands == ()
    assert pools.excluded == ()


def test_build_brick_pools_a12(a12tilde):
    pools = build_brick_pools(a12tilde, 8)
    excluded = {str(b) for b, _ in pools.excluded}
    assert "a b2- b1- a b2- b1-" in excluded
    member = {str(w) for w in pools.member}
    assert "a b2- b1- a b2- b1-" not in member
    insertion = {str(w) for w in pools.insertion_strings}
    assert "a b2- b1- a b2- b1-" in insertion
    assert [str(b.walk) for b in pools.insertion_bands] == ["a b2- b1-"]


def test_build_brick_pools_gentle5_band_bricks(gentle5):
    pools = build_brick_pools(gentle5, 9, band_bound=4)
    names = [str(b.walk) for b in pools.insertion_bands]
    assert "a1 g1- b1-" in names and "a2 b2- g2-" in names


def test_is_complete_relative_bundled_sequence(mgs5, data_dir):
    seq = bundled_sequence(mgs5, data_dir)
    pools = build_brick_pools(mgs5, 12)
    verdict = is_complete_relative(mgs5, seq, pools)
    assert verdict.kind == "complete"
    assert verdict.missing_simples == ()
    assert verdict.banned_entries == ()
    assert not verdict.band_square_obstructed


def test_is_complete_relative_refinable(a2):
    pools = build_brick_pools(a2, 5)
    verdict = is_complete_relative(a2, walks(a2, "e:1", "e:2"), pools)
    assert verdict.kind == "refinable"
    assert str(verdict.witness_brick) == "a"
    assert verdict.witness_position == 1


def test_is_complete_relative_empty_sequence(a2):
    pools = build_brick_pools(a2, 5)
    verdict = is_complete_relative(a2, (), pools)
    assert verdict.kind == "refinable"


def test_doomed_sequence_flagged(a12tilde):
    pools = build_brick_pools(a12tilde, 8)
    doomed = walks(a12tilde, "e:1", "b1", "b1 b2 a- b1 b2 a-", "e:2", "e:3")
    assert is_weakly_fho(a12tilde, doomed)
    verdict = is_complete_relative(a12tilde, doomed, pools)
    assert verdict.banned_entries
    assert str(verdict.banned_entries[0][1]) == "a b2- b1-"
    assert verdict.band_square_obstructed


def test_prefix_blockers_reported(a12tilde):
    pools = build_brick_pools(a12tilde, 8)
    verdict = is_complete_relative(a12tilde, walks(a12tilde, "e:1", "b1"), pools)
    blocked = {str(b) for b, _, _ in verdict.band_square_blockers}
    assert "a b2- b1- a b2- b1-" in blocked
    assert verdict.band_square_obstructed


def test_enumerate_mgs_a2(a2):
    pools = build_brick_pools(a2, 5)
    result = enumerate_mgs(a2, pools)
    got = [[str(w) for w in s] for s in result.sequences]
    assert got == [["e:1", "a", "e:2"], ["e:2", "e:1"]]


def test_enumerate_mgs_kronecker_unique(kronecker):
    result = enumerate_mgs(kronecker, build_brick_pools(kronecker, 6))
    assert [[str(w) for w in s] for s in result.sequences] == [["e:2", "e:1"]]


def test_enumerate_mgs_double_arrows_empty(double_arrows):
    result = enumerate_mgs(double_arrows, build_brick_pools(double_arrows, 10), budget=2_000_000)
    assert result.sequences == ()


def test_enumerate_mgs_contains_bundled_sequence(mgs5, data_dir):
    seq = bundled_sequence(mgs5, data_dir)
    pools = build_brick_pools(mgs5, 12)
    result = enumerate_mgs(mgs5, pools, require_subsequence=seq)
    assert seq in result.sequences


def test_enumerate_mgs_emitted_recheck_complete(a12tilde):
    pools = build_brick_pools(a12tilde, 8)
    result = enumerate_mgs(a12tilde, pools)
    assert result.sequences
    table = HomTable(a12tilde)
    for seq in result.sequences:
        assert is_weakly_fho(a12tilde, seq, table)
        assert is_complete_relative(a12tilde, seq, pools, table).kind == "complete"
        simples = [w.source for w in seq if w.length == 0]
        assert sorted(simples) == sorted(a12tilde.vertices)
        assert len(simples) == len(set(simples))


def test_enumerate_mgs_no_band_square_entries(a12tilde):
    pools = build_brick_pools(a12tilde, 8)
    excluded = {str(b) for b, _ in pools.excluded}
    for seq in enumerate_mgs(a12tilde, pools).sequences:
        assert not ({str(w) for w in seq} & excluded)


def test_enumerate_mgs_budget(mgs5):
    pools = build_brick_pools(mgs5, 12)
    with pytest.raises(BudgetExhausted) as err:
        enumerate_mgs(mgs5, pools, budget=1000)
    assert err.value.nodes > 1000
    assert err.value.pruned > 0
    assert err.value.diagnostics == ()


def test_enumerate_mgs_deterministic(a12tilde):
    pools = build_brick_pools(a12tilde, 8)
    a = enumerate_mgs(a12tilde, pools).sequences
    b = enumerate_mgs(a12tilde, pools).sequences
    assert a == b


def test_simple_order_socle_first_a12(a12tilde):
    res = simple_order_socle_first(a12tilde, band_pool(a12tilde, 4))
    assert res.hypothesis_holds
    assert res.order == ("2", "1", "3")


def test_simple_order_socle_first_double_arrows(double_arrows):
    res = simple_order_socle_first(double_arrows, band_pool(double_arrows, 5))
    assert not res.hypothesis_holds
    by_simple = {s: (t, so) for s, t, so in res.witnesses}
    assert by_simple["1"] == ("a1 a2-", "b1 b2-")


def test_simple_order_socle_first_no_bands(a2):
    res = simple_order_socle_first(a2, band_pool(a2, 3))
    assert res.hypothesis_holds
    assert res.witnesses == ()
    assert res.order == ("1", "2")


def test_domestic_gentle_order_kronecker(kronecker):
    res = domestic_gentle_order(kronecker, band_pool(kronecker, 3))
    assert res.chunks == (("2", "1"),)
    assert res.order == ("2", "1")


def test_domestic_gentle_order_a12(a12tilde):
    res = domestic_gentle_order(a12tilde, band_pool(a12tilde, 4))
    assert res.chunks == (("2", "1"),)
    assert res.order == ("2", "1", "3")


def test_domestic_gentle_order_a2(a2):
    res = domestic_gentle_order(a2, band_pool(a2, 3))
    assert res.chunks == ()
    assert res.order == ("1", "2")


def test_domestic_gentle_order_rejects_non_gentle(double_arrows):
    with pytest.raises(ValueError, match="gentle"):
        domestic_gentle_order(double_arrows, band_pool(double_arrows, 5))


def test_complete_from_prefix_a12(a12tilde):
    pools = build_brick_pools(a12tilde, 8)
    order = simple_order_socle_first(a12tilde, band_pool(a12tilde, 4)).order
    seq = complete_from_prefix(a12tilde, pools, order)
    assert seq is not None
    assert is_complete_relative(a12tilde, seq, pools).kind == "complete"
    placed = [w.source for w in seq if w.length == 0]
    assert placed == list(order)


def test_complete_from_prefix_mgs5(mgs5):
    pools = build_brick_pools(mgs5, 3)
    seq = complete_from_prefix(mgs5, pools, ("4", "5", "1", "2", "3"), budget=3_000_000)
    assert seq is not None
    placed = [w.source for w in seq if w.length == 0]
    assert placed == ["4", "5", "1", "2", "3"]
    assert is_complete_relative(mgs5, seq, pools).kind == "complete"


def test_complete_from_prefix_ex43_fails_both_orders(double_arrows):
    pools = build_brick_pools(double_arrows, 10)
    assert complete_from_prefix(double_arrows, pools, ("1", "2"), budget=2_000_000) is None
    assert complete_from_prefix(double_arrows, pools, ("2", "1"), budget=2_000_000) is None


# The first completion of each `mgs exists` order, with the search's nodes and
# pruned subtrees, recorded while the search still placed simples by a
# separate simple-order rule.  Every case gives the same at bounds 8 and 10.
FIRST_COMPLETIONS = [
    ("gentle5", "simples", ("e:3", "e:4", "e:1", "b1", "e:2", "e:5"), 8, 1),
    ("gentle5", "gentle", ("e:4", "e:1", "e:3", "e:5", "b1 g2-", "b1", "g2", "e:2"), 14, 5),
    ("mgs5", "simples", ("e:2", "e:1", "b2", "e:3", "e:4", "e:5"), 8, 1),
    ("mgs5", "gentle", ("e:2", "e:1", "b2", "e:3", "e:4", "e:5"), 8, 1),
    ("a12tilde", "simples", ("e:2", "e:1", "b1", "e:3"), 6, 1),
    ("a12tilde", "gentle", ("e:2", "e:1", "b1", "e:3"), 6, 1),
    ("two_loops", "simples", ("e:2", "e:1"), 3, 0),
    ("two_loops", "gentle", ("e:2", "e:1"), 3, 0),
    ("kronecker", "simples", ("e:2", "e:1"), 3, 0),
    ("kronecker", "gentle", ("e:2", "e:1"), 3, 0),
    ("double_arrows", "simples", None, 15, 5),
]


@pytest.mark.parametrize("bound", [8, 10])
@pytest.mark.parametrize("name, method, expected, nodes, pruned", FIRST_COMPLETIONS)
def test_complete_from_prefix_pinned(request, name, method, expected, nodes, pruned, bound):
    alg = request.getfixturevalue(name)
    pool = band_pool(alg, bound // 2)
    construction = simple_order_socle_first if method == "simples" else domestic_gentle_order
    order = construction(alg, pool).order
    pools = build_brick_pools(alg, bound)
    seq = complete_from_prefix(alg, pools, order)
    assert (seq if seq is None else tuple(map(str, seq))) == expected
    result = _Searcher(alg, pools, HomTable(alg)).run(
        require_subsequence=simples(alg, order), stop_at_first=True)
    assert (result.nodes, result.pruned, result.diagnostics) == (nodes, pruned, ())


def test_complete_from_prefix_partial_order(mgs5):
    """Only the listed simples are ordered; the others may go anywhere."""
    pools = build_brick_pools(mgs5, 8)
    seq = complete_from_prefix(mgs5, pools, ("4", "5"))
    assert seq is not None
    placed = [w.source for w in seq if w.length == 0]
    assert sorted(placed) == ["1", "2", "3", "4", "5"]
    assert placed.index("4") < placed.index("5")
    assert is_complete_relative(mgs5, seq, pools).kind == "complete"


def test_complete_from_prefix_unknown_vertex(mgs5):
    with pytest.raises(ValueError, match="not in the member pool"):
        complete_from_prefix(mgs5, build_brick_pools(mgs5, 3), ("4", "9"))


def test_complete_from_prefix_budget(mgs5):
    with pytest.raises(BudgetExhausted):
        complete_from_prefix(mgs5, build_brick_pools(mgs5, 8), ("4", "5"), budget=3)


def test_corollary_4_4_stability(kronecker, a12tilde):
    for alg, lo, hi in ((kronecker, 6, 8), (a12tilde, 8, 10)):
        low = set(enumerate_mgs(alg, build_brick_pools(alg, lo)).sequences)
        high = set(enumerate_mgs(alg, build_brick_pools(alg, hi)).sequences)
        assert low == high


class _Unpruned(_Searcher):
    """Reference search: the same DFS with the dead-prefix rule switched
    off, so every prefix runs to a leaf and is certified there."""

    def __init__(self, *args):
        super().__init__(*args)
        self.prunable = 0


def pruned_and_reference(alg, pools, **kwargs):
    table = HomTable(alg)
    return (_Searcher(alg, pools, table).run(**kwargs),
            _Unpruned(alg, pools, table).run(**kwargs))


@pytest.mark.parametrize("name, max_len, nodes, reference_nodes", [
    ("a12tilde", 12, 114, 7758),
    ("two_loops", 10, 36, 651),
    ("kronecker", 8, 13, 47),
    ("double_arrows", 8, 21, 89),
])
def test_pruning_keeps_emitted_sequences(request, name, max_len, nodes, reference_nodes):
    alg = request.getfixturevalue(name)
    pruned, reference = pruned_and_reference(alg, build_brick_pools(alg, max_len))
    assert pruned.sequences == reference.sequences
    assert pruned.diagnostics == reference.diagnostics == ()
    assert (pruned.nodes, reference.nodes) == (nodes, reference_nodes)
    assert pruned.pruned > 0 and reference.pruned == 0


@pytest.mark.parametrize("name, max_len, method", [
    ("a12tilde", 8, "simples"),
    ("a12tilde", 8, "gentle"),
    ("kronecker", 6, "gentle"),
    ("gentle5", 8, "simples"),
    ("gentle5", 8, "gentle"),
    ("double_arrows", 10, "simples"),
])
def test_pruning_keeps_first_prefix_completion(request, name, max_len, method):
    alg = request.getfixturevalue(name)
    pool = band_pool(alg, max_len // 2)
    if method == "simples":
        order = simple_order_socle_first(alg, pool).order
    else:
        order = domestic_gentle_order(alg, pool).order
    pruned, reference = pruned_and_reference(
        alg, build_brick_pools(alg, max_len), require_subsequence=simples(alg, order),
        stop_at_first=True)
    assert pruned.sequences == reference.sequences


def test_pruning_keeps_first_completion_of_fixed_order(mgs5):
    pruned, reference = pruned_and_reference(
        mgs5, build_brick_pools(mgs5, 3),
        require_subsequence=simples(mgs5, ("4", "5", "1", "2", "3")),
        stop_at_first=True)
    assert pruned.sequences == reference.sequences and len(pruned.sequences) == 1
    assert pruned.nodes < reference.nodes


def test_pruning_keeps_required_subsequence_matches(mgs5, data_dir):
    seq = bundled_sequence(mgs5, data_dir)
    pruned, reference = pruned_and_reference(
        mgs5, build_brick_pools(mgs5, 12), require_subsequence=seq)
    assert pruned.sequences == reference.sequences
    assert seq in pruned.sequences


@pytest.mark.parametrize("name, count", [("mgs5", 2691), ("gentle5", 1416)])
def test_headline_enumeration_certified(request, name, count):
    alg = request.getfixturevalue(name)
    pools = build_brick_pools(alg, 8)
    table = HomTable(alg)
    result = enumerate_mgs(alg, pools, budget=500_000, table=table)
    assert len(result.sequences) == count
    for seq in result.sequences[::97]:
        assert is_weakly_fho(alg, seq, table)
        assert is_complete_relative(alg, seq, pools, table).kind == "complete"


def test_dropped_presentation_is_freed(data_dir):
    """Every memo lives on the presentation, so nothing outlives it."""
    alg = load_algebra(data_dir / "a12tilde.alg")
    enumerate_strings(alg, 6)
    enumerate_bands(alg, 6)
    enumerate_bricks(alg, 6)
    pools = build_brick_pools(alg, 6)
    assert enumerate_mgs(alg, pools).sequences
    assert run_lemma_suite(alg, 6, mgs_budget=50_000).total_counterexamples == 0
    ref = weakref.ref(alg)
    del alg
    gc.collect()
    assert ref() is None


def test_dropped_presentation_is_freed_without_the_cycle_collector(data_dir):
    """Nothing memoised on the presentation refers back to it, so reference
    counting alone frees it."""
    gc.disable()
    try:
        alg = load_algebra(data_dir / "a12tilde.alg")
        pools = build_brick_pools(alg, 6)
        assert enumerate_mgs(alg, pools).sequences
        assert run_lemma_suite(alg, 6, mgs_budget=50_000).total_counterexamples == 0
        assert any(key[0] == "rep" for key in alg.memo)
        ref = weakref.ref(alg)
        del alg
        assert ref() is None
    finally:
        gc.enable()
