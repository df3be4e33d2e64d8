import gc
import inspect
import json
import random
import sys
import weakref

import pytest

from mgslab import (
    enumerate_bands,
    enumerate_bricks,
    enumerate_strings,
    load_algebra,
    parse_algebra,
    parse_walk,
    validate_axioms,
)
from mgslab.algebra import AlgebraPresentation, Arrow
from mgslab.lemmas import run_lemma_suite
from mgslab.mgs import (
    BudgetExhausted,
    HomTable,
    TheoremCounterexample,
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

from conftest import NON_DOMESTIC_GENTLE, random_gentle_presentation


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
    assert [str(b) for b in pools.insertion_bands] == ["a b2- b1-"]


def test_build_brick_pools_gentle5_band_bricks(gentle5):
    pools = build_brick_pools(gentle5, 9, band_bound=4)
    names = [str(b) for b in pools.insertion_bands]
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


@pytest.mark.parametrize("budget, pruned, partial", [
    (0, 0, 0), (1, 0, 0), (50, 32, 1), (113, 56, 5),
])
def test_enumerate_mgs_budget_boundary(a12tilde, budget, pruned, partial):
    """The full search takes 114 nodes: a budget of b < 114 stops on popping
    node b + 1, with the sequences found so far, in search order."""
    pools = build_brick_pools(a12tilde, 12)
    full = enumerate_mgs(a12tilde, pools, budget=114)
    assert (full.nodes, full.pruned, len(full.sequences)) == (114, 56, 5)
    with pytest.raises(BudgetExhausted) as err:
        enumerate_mgs(a12tilde, pools, budget=budget)
    assert (err.value.nodes, err.value.pruned) == (budget + 1, pruned)
    assert err.value.partial == full.sequences[:partial]


def test_search_depth_needs_no_recursion_limit(monkeypatch):
    """Linear A_40 with rad^2 = 0: a complete sequence holds all 79 members,
    yet the search runs within 40 frames of its caller and leaves the
    interpreter's recursion limit alone."""
    n = 40
    alg = AlgebraPresentation(
        tuple(str(v) for v in range(1, n + 1)),
        tuple(Arrow(f"a{v}", str(v), str(v + 1)) for v in range(1, n)),
        tuple((f"a{v}", f"a{v + 1}") for v in range(1, n - 1)))
    pools = build_brick_pools(alg, 1)
    assert len(pools.member) == 2 * n - 1

    def refuse(limit):
        raise AssertionError(f"the search set the recursion limit to {limit}")

    set_limit, old = sys.setrecursionlimit, sys.getrecursionlimit()
    low = len(inspect.stack()) + 40
    set_limit(low)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(sys, "setrecursionlimit", refuse)
            seq = complete_from_prefix(alg, pools, alg.vertices)
        limit = sys.getrecursionlimit()
    finally:
        set_limit(old)
    assert limit == low
    assert len(seq) == 2 * n - 1
    assert is_complete_relative(alg, seq, pools).kind == "complete"


def test_enumerate_mgs_deterministic(a12tilde):
    pools = build_brick_pools(a12tilde, 8)
    a = enumerate_mgs(a12tilde, pools).sequences
    b = enumerate_mgs(a12tilde, pools).sequences
    assert a == b


def test_simple_order_socle_first_a12(a12tilde):
    res = simple_order_socle_first(a12tilde, enumerate_bands(a12tilde, 4))
    assert res.hypothesis_holds
    assert res.order == ("2", "1", "3")


def test_simple_order_socle_first_double_arrows(double_arrows):
    res = simple_order_socle_first(double_arrows, enumerate_bands(double_arrows, 5))
    assert not res.hypothesis_holds
    by_simple = {s: (t, so) for s, t, so in res.witnesses}
    assert by_simple["1"] == ("a1 a2-", "b1 b2-")


def test_simple_order_socle_first_no_bands(a2):
    res = simple_order_socle_first(a2, enumerate_bands(a2, 3))
    assert res.hypothesis_holds
    assert res.witnesses == ()
    assert res.order == ("1", "2")


def test_domestic_gentle_order_kronecker(kronecker):
    res = domestic_gentle_order(kronecker, enumerate_bands(kronecker, 3))
    assert res.chunks == (("2", "1"),)
    assert res.order == ("2", "1")


def test_domestic_gentle_order_a12(a12tilde):
    res = domestic_gentle_order(a12tilde, enumerate_bands(a12tilde, 4))
    assert res.chunks == (("2", "1"),)
    assert res.order == ("2", "1", "3")


def test_domestic_gentle_order_a2(a2):
    res = domestic_gentle_order(a2, enumerate_bands(a2, 3))
    assert res.chunks == ()
    assert res.order == ("1", "2")


def test_domestic_gentle_order_rejects_non_gentle(double_arrows):
    with pytest.raises(ValueError, match="gentle"):
        domestic_gentle_order(double_arrows, enumerate_bands(double_arrows, 5))


def test_domestic_gentle_order_counterexample_path():
    alg = parse_algebra(NON_DOMESTIC_GENTLE)
    assert validate_axioms(alg).is_gentle
    assert [len(enumerate_bands(alg, n)) for n in (4, 8, 12)] == [2, 10, 47]
    with pytest.raises(TheoremCounterexample) as exc:
        domestic_gentle_order(alg, enumerate_bands(alg, 4))
    assert str(exc.value) == "simple 1 repeats along the chain ['1', '4']"


def _construction_results(alg, bound):
    """Both constructions on the bands up to this bound: each a result
    record, or a counterexample's type and message."""
    bands = enumerate_bands(alg, bound)
    out = {}
    try:
        res = domestic_gentle_order(alg, bands)
        out["gentle"] = {"chunks": [list(c) for c in res.chunks], "order": list(res.order)}
    except TheoremCounterexample as exc:
        out["gentle"] = {"error": type(exc).__name__, "message": str(exc)}
    res = simple_order_socle_first(alg, bands)
    out["simples"] = {"hypothesis_holds": res.hypothesis_holds,
                      "witnesses": [list(w) for w in res.witnesses],
                      "order": list(res.order)}
    return out


def construction_sweep(seed=1, count=300, bounds=(4, 6, 8)):
    """The sweep of ``tests/data/construction_sweep.json``: the first
    ``count`` gentle algebras of ``random_gentle_presentation`` on this
    seed, each with both constructions at every bound."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        alg = random_gentle_presentation(rng)
        records.append({"algebra": alg.normalized_text,
                        "results": {str(b): _construction_results(alg, b) for b in bounds}})
    return {"seed": seed, "bounds": list(bounds), "algebras": records}


def test_constructions_match_recorded_sweep(data_dir):
    # recorded before the constructions were rewritten on one run walker
    recorded = json.loads((data_dir / "construction_sweep.json").read_text())
    swept = construction_sweep(recorded["seed"], len(recorded["algebras"]),
                               tuple(recorded["bounds"]))
    for got, want in zip(swept["algebras"], recorded["algebras"]):
        assert got == want
    # the sweep reaches every kind of outcome
    outcomes = {r["gentle"]["error"] if "error" in r["gentle"] else bool(r["gentle"]["chunks"])
                for a in recorded["algebras"] for r in a["results"].values()}
    assert outcomes == {True, False, "TheoremCounterexample"}


def test_complete_from_prefix_a12(a12tilde):
    pools = build_brick_pools(a12tilde, 8)
    order = simple_order_socle_first(a12tilde, enumerate_bands(a12tilde, 4)).order
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
# pruned subtrees, the orders built from the bands up to the pools' band
# bound as `mgs exists` builds them.  Every case gives the same at bounds 8
# and 10; the gentle5 simples row is the `completed` that `mgs exists
# --method simples` prints there.  Each row's id is written out, frozen at
# the values first recorded, so re-recording `nodes` or `pruned` does not
# rename the test.
FIRST_COMPLETIONS = [
    pytest.param("gentle5", "simples", ("e:2", "b2", "e:3", "g1", "e:4", "e:1", "e:5"), 13, 2,
                 id="gentle5-simples-expected0-13-2"),
    pytest.param("gentle5", "gentle", ("e:4", "e:1", "e:3", "e:5", "b1 g2-", "b1", "g2", "e:2"), 14, 5,
                 id="gentle5-gentle-expected1-14-5"),
    pytest.param("mgs5", "simples", ("e:2", "e:1", "b2", "e:3", "e:4", "e:5"), 8, 1,
                 id="mgs5-simples-expected2-8-1"),
    pytest.param("mgs5", "gentle", ("e:2", "e:1", "b2", "e:3", "e:4", "e:5"), 8, 1,
                 id="mgs5-gentle-expected3-8-1"),
    pytest.param("a12tilde", "simples", ("e:2", "e:1", "b1", "e:3"), 6, 1,
                 id="a12tilde-simples-expected4-6-1"),
    pytest.param("a12tilde", "gentle", ("e:2", "e:1", "b1", "e:3"), 6, 1,
                 id="a12tilde-gentle-expected5-6-1"),
    pytest.param("two_loops", "simples", ("e:2", "e:1"), 3, 0,
                 id="two_loops-simples-expected6-3-0"),
    pytest.param("two_loops", "gentle", ("e:2", "e:1"), 3, 0,
                 id="two_loops-gentle-expected7-3-0"),
    pytest.param("kronecker", "simples", ("e:2", "e:1"), 3, 0,
                 id="kronecker-simples-expected8-3-0"),
    pytest.param("kronecker", "gentle", ("e:2", "e:1"), 3, 0,
                 id="kronecker-gentle-expected9-3-0"),
    pytest.param("double_arrows", "simples", None, 15, 5,
                 id="double_arrows-simples-None-15-5"),
]


@pytest.mark.parametrize("bound", [8, 10])
@pytest.mark.parametrize("name, method, expected, nodes, pruned", FIRST_COMPLETIONS)
def test_complete_from_prefix_pinned(request, name, method, expected, nodes, pruned, bound):
    alg = request.getfixturevalue(name)
    pools = build_brick_pools(alg, bound)
    construction = simple_order_socle_first if method == "simples" else domestic_gentle_order
    order = construction(alg, enumerate_bands(alg, pools.band_bound)).order
    seq = complete_from_prefix(alg, pools, order)
    assert (seq if seq is None else tuple(map(str, seq))) == expected
    result = _Searcher(pools, HomTable(alg)).run(
        require_subsequence=simples(alg, order), stop_at_first=True)
    assert (result.nodes, result.pruned) == (nodes, pruned)


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


def test_repeated_required_entry_is_refused(mgs5, data_dir):
    """A required entry listed twice can never be met, as no sequence repeats
    an entry; it is refused before the search instead of yielding nothing."""
    pools = build_brick_pools(mgs5, 8)
    with pytest.raises(ValueError, match="listed twice"):
        complete_from_prefix(mgs5, pools, ["1", "1"])
    seq = bundled_sequence(mgs5, data_dir)
    with pytest.raises(ValueError, match="listed twice"):
        enumerate_mgs(mgs5, pools, require_subsequence=seq + (seq[3].inverse(),))


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

    prune = False


def pruned_and_reference(alg, pools, **kwargs):
    table = HomTable(alg)
    return (_Searcher(pools, table).run(**kwargs),
            _Unpruned(pools, table).run(**kwargs))


@pytest.mark.parametrize("name, max_len, nodes, cuts, reference_nodes", [
    pytest.param("a12tilde", 12, 114, 56, 7758, id="a12tilde-12-114-7758"),
    pytest.param("two_loops", 10, 36, 22, 651, id="two_loops-10-36-651"),
    pytest.param("kronecker", 8, 13, 5, 47, id="kronecker-8-13-47"),
    pytest.param("double_arrows", 8, 21, 10, 89, id="double_arrows-8-21-89"),
])
def test_pruning_keeps_emitted_sequences(request, name, max_len, nodes, cuts, reference_nodes):
    alg = request.getfixturevalue(name)
    pruned, reference = pruned_and_reference(alg, build_brick_pools(alg, max_len))
    assert pruned.sequences == reference.sequences
    assert (pruned.nodes, pruned.pruned) == (nodes, cuts)
    assert (reference.nodes, reference.pruned) == (reference_nodes, 0)


def test_pruning_keeps_random_gentle_sequences():
    """The pruned search against the unpruned one on 40 random gentle
    algebras (seed 1), pools at length 6.  A draw that either side cannot
    finish within the budget is skipped, but at least 25 must be compared."""
    rng = random.Random(1)
    compared = cut = 0
    for _ in range(40):
        alg = random_gentle_presentation(rng)
        pools = build_brick_pools(alg, 6, band_bound=6)
        try:
            pruned, reference = pruned_and_reference(alg, pools, budget=20_000)
        except BudgetExhausted:
            continue
        assert pruned.sequences == reference.sequences, alg.normalized_text
        compared += 1
        cut += pruned.pruned > 0
    assert compared >= 25, f"only {compared} of 40 draws compared"
    assert cut > 0


def test_band_brick_refines_and_prunes(a12tilde):
    # strings up to length 4 leave 48 chains that only the band brick
    # M(a b2- b1-, lambda, 1) refines: one candidate, for every lambda
    pools = build_brick_pools(a12tilde, 4, band_bound=3)
    assert [str(b) for b in pools.insertion_bands] == ["a b2- b1-"]
    pruned, reference = pruned_and_reference(a12tilde, pools)
    assert pruned.sequences == reference.sequences
    assert (pruned.nodes, pruned.pruned) == (114, 56)
    assert pruned.sequences == enumerate_mgs(a12tilde, build_brick_pools(a12tilde, 12)).sequences
    without = enumerate_mgs(a12tilde, pools._replace(insertion_bands=()))
    assert len(without.sequences) == 53


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
    pools = build_brick_pools(alg, max_len)
    bands = enumerate_bands(alg, pools.band_bound)
    if method == "simples":
        order = simple_order_socle_first(alg, bands).order
    else:
        order = domestic_gentle_order(alg, bands).order
    pruned, reference = pruned_and_reference(
        alg, pools, require_subsequence=simples(alg, order), stop_at_first=True)
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


@pytest.mark.parametrize("name, count, nodes, pruned", [
    pytest.param("mgs5", 2691, 229_566, 162_278, id="mgs5-2691"),
    pytest.param("gentle5", 1416, 270_281, 155_231, id="gentle5-1416")])
def test_headline_enumeration_certified(request, name, count, nodes, pruned):
    alg = request.getfixturevalue(name)
    pools = build_brick_pools(alg, 8)
    table = HomTable(alg)
    result = enumerate_mgs(alg, pools, budget=500_000, table=table)
    assert len(result.sequences) == count
    assert (result.nodes, result.pruned) == (nodes, pruned)
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
        assert validate_axioms(alg).is_string_algebra
        pools = build_brick_pools(alg, 6)
        assert enumerate_mgs(alg, pools).sequences
        assert run_lemma_suite(alg, 6, mgs_budget=50_000).total_counterexamples == 0
        assert alg.memo and alg.walk_memo and alg.band_memo
        ref = weakref.ref(alg)
        del alg
        assert ref() is None
    finally:
        gc.enable()
