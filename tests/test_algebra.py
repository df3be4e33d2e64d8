import json
import random

import pytest

from mgslab import (
    AlgebraError,
    AlgebraParseError,
    AlgebraPresentation,
    Arrow,
    algebra,
    parse_algebra,
    validate_axioms,
    vertex_arrow_count,
)

from conftest import random_alg_text, random_presentation


def test_parse_two_loops(two_loops):
    assert two_loops.vertices == ("1", "2")
    assert len(two_loops.arrows) == 3
    assert two_loops.relations == (("a", "a"), ("g", "g"))
    assert two_loops.max_relation_length == 2


def test_parse_zero_relations_acyclic():
    alg = parse_algebra("vertex 1\nvertex 2\narrow a 1 2\n")
    assert alg.relations == ()
    assert validate_axioms(alg).is_string_algebra


def test_parse_comments_and_blanks():
    alg = parse_algebra("# header\n\nvertex 1  # trailing\narrow a 1 1\nrelation a a\n")
    assert alg.vertices == ("1",)


def test_parse_non_composable_relation():
    text = "vertex 1\nvertex 2\narrow b 1 2\narrow g 2 2\nrelation b b\n"
    with pytest.raises(AlgebraParseError, match="not composable"):
        parse_algebra(text)


def test_parse_unknown_arrow_in_relation():
    with pytest.raises(AlgebraParseError, match="unknown arrow"):
        parse_algebra("vertex 1\narrow a 1 1\nrelation a c\n")


def test_parse_duplicate_arrow():
    with pytest.raises(AlgebraParseError, match="duplicate arrow"):
        parse_algebra("vertex 1\narrow a 1 1\narrow a 1 1\n")


@pytest.mark.parametrize("name", ["a-", "e:1"])
def test_parse_rejects_arrow_names_walk_literals_cannot_spell(name):
    # `a-` would read back as the inverse of an arrow `a`, `e:1` as the
    # trivial walk at vertex 1
    with pytest.raises(AlgebraParseError, match="arrow name") as exc:
        parse_algebra(f"vertex 1\nvertex 2\narrow {name} 1 2\n")
    assert exc.value.line == 3


@pytest.mark.parametrize("name", ["a-", "e:1", "", "a b", "a\tb"])
def test_presentation_rejects_arrow_names_walk_literals_cannot_spell(name):
    # the file parser splits on whitespace, so only library callers can
    # pass an empty name or one holding whitespace
    with pytest.raises(AlgebraError, match="arrow name .* must be nonempty, hold no "
                                           "whitespace, and neither end in '-' nor start with 'e:'"):
        AlgebraPresentation(("1", "2"), (Arrow(name, "1", "2"),), ())
    # a '-' or 'e:' elsewhere in the name is spelled unambiguously
    AlgebraPresentation(("1", "2"), (Arrow("a-b", "1", "2"), Arrow("ce:", "1", "2")), ())


def test_parse_duplicate_vertex():
    with pytest.raises(AlgebraParseError, match="duplicate vertex"):
        parse_algebra("vertex 1\nvertex 1\n")


def test_parse_short_relation_rejected():
    with pytest.raises(AlgebraParseError):
        parse_algebra("vertex 1\narrow a 1 1\nrelation a\n")


def test_parse_syntax_error_carries_line_number():
    with pytest.raises(AlgebraParseError) as err:
        parse_algebra("vertex 1\nfrobnicate x\n")
    assert err.value.line == 2


def test_axioms_gentle5(gentle5):
    report = validate_axioms(gentle5)
    assert report.is_string_algebra and report.is_gentle
    assert report.violations == ()


def test_axioms_kronecker(kronecker):
    report = validate_axioms(kronecker)
    assert report.is_gentle


def test_axioms_double_arrows_string_not_gentle(double_arrows):
    report = validate_axioms(double_arrows)
    assert report.is_string_algebra
    assert not report.is_gentle
    assert "G1" in report.tags()
    assert not ({"S1", "S2", "FinDim"} & report.tags())


def test_axioms_two_loops_string(two_loops):
    assert validate_axioms(two_loops).is_string_algebra


def test_s1_violation_three_outgoing():
    text = "vertex 1\nvertex 2\n" + "".join(
        f"arrow x{i} 1 2\n" for i in range(3)
    )
    report = validate_axioms(parse_algebra(text))
    assert "S1" in report.tags()
    assert not report.is_string_algebra


def test_s2_violation_two_live_compositions():
    # b and g both extend a nonzero: S2 fails, G1 holds vacuously
    text = (
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow g 2 4\n"
    )
    report = validate_axioms(parse_algebra(text))
    assert "S2" in report.tags()


def test_findim_relation_free_cycle_detected():
    report = validate_axioms(parse_algebra("vertex 1\narrow a 1 1\n"))
    assert "FinDim" in report.tags()
    assert not report.is_string_algebra


def test_findim_cycle_killed_by_relation(two_loops):
    assert "FinDim" not in validate_axioms(two_loops).tags()


def test_findim_two_loop_alternation_unbounded():
    # a^2 and b^2 vanish but abab... survives every window
    text = "vertex 1\narrow a 1 1\narrow b 1 1\nrelation a a\nrelation b b\n"
    report = validate_axioms(parse_algebra(text))
    assert "FinDim" in report.tags()


@pytest.mark.parametrize("loops, relation, witness", [
    ("a b c", "a a a a a a a", "a a a a a a"),
    ("a b", "a a a a a a a a a a", "a a a a a a a a a"),
], ids=("3-loops-r7", "2-loops-r10"))
def test_findim_on_wide_algebras_expands_direct_states_only(loops, relation, witness):
    """One vertex with k loops and one relation of length r: the witness is
    the one found before the FinDim check read the string automaton, and
    the check expands exactly the direct paths of 1 to r - 1 letters, and
    no automaton state that holds an inverse letter."""
    text = "vertex 1\n" + "".join(f"arrow {x} 1 1\n" for x in loops.split())
    alg = parse_algebra(text + f"relation {relation}\n")
    report = validate_axioms(alg)
    assert report.violations[-1] == ("FinDim", f"relation-free cycle through {witness}")
    k, r = len(loops.split()), len(relation.split())
    states = list(alg.string_automaton)
    assert len(states) == sum(k ** n for n in range(1, r))
    assert all(bit == 0 for s in states for _, bit in s)


@pytest.mark.parametrize("text, witness", [
    ("vertex 1\narrow d 1 1\narrow b 1 1\nrelation d d d d\nrelation d d d b\n", "d d b"),
    ("vertex 1\narrow c 1 1\narrow d 1 1\narrow a 1 1\nrelation a c a\n", "c c"),
    ("vertex 1\nvertex 2\narrow c 1 1\narrow d 2 1\narrow a 1 1\nrelation c c\n", "c"),
], ids=("two-loops", "three-loops", "two-vertices"))
def test_findim_visits_windows_in_arrow_file_order(text, witness):
    """Arrows named out of alphabetical order: visiting windows or
    successors in key order instead gives another witness."""
    report = validate_axioms(parse_algebra(text))
    assert report.violations[-1] == ("FinDim", f"relation-free cycle through {witness}")


def test_path_contains_relation_matches_substring_scan():
    """Every composable path of length <= 5 on random presentations
    (relations of length 2-4) holds a relation iff a minimal relation
    occurs in it as a contiguous subpath."""
    longest, outcomes = set(), set()
    for seed in range(150):
        alg = random_presentation(seed)
        longest.add(alg.max_relation_length)
        level = [(a.name,) for a in alg.arrows]
        for _ in range(4):
            level = [p + (b.name,) for p in level for b in alg.outgoing[alg.arrow_map[p[-1]].target]]
            for p in level:
                expected = any(p[i:i + len(r)] == r for r in alg.minimal_relations
                               for i in range(len(p) - len(r) + 1))
                assert alg.path_contains_relation(p) == expected, (alg.normalized_text, p)
                outcomes.add(expected)
    assert {2, 3, 4} <= longest and outcomes == {False, True}


def test_g2_with_redundant_long_relation():
    # the length-3 generator contains the length-2 one, so the ideal is
    # still generated in length 2 and the long window collapses
    text = (
        "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
        "arrow a 1 2\narrow b 2 3\narrow g 3 4\n"
        "relation a b\nrelation a b g\n"
    )
    alg = parse_algebra(text)
    assert alg.minimal_relations == (("a", "b"),)
    assert alg.max_relation_length == 2
    assert "G2" not in validate_axioms(alg).tags()


def test_axioms_order_independent(gentle5):
    from mgslab import AlgebraPresentation

    scrambled = AlgebraPresentation(
        gentle5.vertices,
        tuple(reversed(gentle5.arrows)),
        tuple(reversed(gentle5.relations)),
    )
    a, b = validate_axioms(gentle5), validate_axioms(scrambled)
    assert (a.is_string_algebra, a.is_gentle) == (b.is_string_algebra, b.is_gentle)


def test_unique_extension_consequence_of_s2(gentle5, two_loops):
    # every live length-2 directed path extends by at most one arrow
    for alg in (gentle5, two_loops):
        for a in alg.arrows:
            for b in alg.outgoing[a.target]:
                if alg.path_contains_relation((a.name, b.name)):
                    continue
                ext = [
                    c.name
                    for c in alg.outgoing[b.target]
                    if not alg.path_contains_relation((a.name, b.name, c.name))
                ]
                assert len(ext) <= 1


def test_vertex_arrow_count_loops_twice(two_loops):
    assert vertex_arrow_count(two_loops) == {"1": 3, "2": 3}


def test_vertex_arrow_count_a12(a12tilde):
    counts = vertex_arrow_count(a12tilde)
    assert counts == {"1": 2, "2": 2, "3": 2}
    assert max(counts.values()) <= 3


def test_vertex_arrow_count_isolated_vertex():
    assert vertex_arrow_count(parse_algebra("vertex v\n")) == {"v": 0}


def test_fingerprint_stable(gentle5):
    assert len(gentle5.fingerprint) == 64
    again = parse_algebra(gentle5.normalized_text)
    assert again.fingerprint == gentle5.fingerprint


def test_presentation_rejects_unknown_vertex():
    with pytest.raises(AlgebraParseError, match="unknown vertex"):
        parse_algebra("vertex 1\narrow a 1 9\n")


def _parse_line_by_line(text: str):
    """Reference reading of a file: each line admitted as it is read, so a
    line may refer only to earlier lines.  The outcome is the presentation's
    items, or the line number and message of the first line refused."""
    items = {"vertex": [], "arrow": [], "relation": []}
    vset, amap = set(), {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        kind, *args = words
        if kind not in items or (kind == "vertex" and len(args) != 1) or (
                kind == "arrow" and len(args) != 3):
            return ("syntax", lineno)
        item = args[0] if kind == "vertex" else Arrow(*args) if kind == "arrow" else tuple(args)
        try:
            algebra._admit(kind, item, vset, amap)
        except AlgebraError as exc:
            return (f"line {lineno}: {exc}", lineno)
        items[kind].append(item)
    if not vset:
        return ("syntax", None)
    return tuple(tuple(v) for v in items.values())


def _parse_outcome(text: str):
    try:
        alg = parse_algebra(text)
    except AlgebraParseError as exc:
        message = str(exc)
        syntax = any(m in message for m in ("directive", "takes", "no vertices"))
        return ("syntax" if syntax else message, exc.line)
    return (alg.vertices, alg.arrows, alg.relations)


def test_parse_matches_line_by_line_admission():
    # the presentation admits the items; file order only decides which line
    # is reported, and whether a line refers to a later one.  Shuffled and
    # doubly broken files reach both.
    rng = random.Random(5)
    for _ in range(400):
        lines = random_alg_text(rng).splitlines()
        variants = [lines, rng.sample(lines, len(lines))]
        broken = list(lines)
        broken.insert(rng.randrange(len(lines) + 1), rng.choice(("frobnicate", "vertex")))
        variants.append(broken)
        for variant in variants:
            text = "\n".join(variant) + "\n"
            assert _parse_outcome(text) == _parse_line_by_line(text), text


def test_parse_admits_each_item_once(monkeypatch, data_dir):
    calls = []
    admit = algebra._admit
    monkeypatch.setattr(algebra, "_admit", lambda *args: calls.append(args) or admit(*args))
    for path in sorted(data_dir.glob("*.alg")):
        calls.clear()
        alg = parse_algebra(path.read_text())
        assert len(calls) == len(alg.vertices) + len(alg.arrows) + len(alg.relations)


def test_parse_refuses_a_line_that_refers_to_a_later_one():
    with pytest.raises(AlgebraParseError, match="unknown vertex '2'") as exc:
        parse_algebra("vertex 1\narrow a 1 2\nvertex 2\n")
    assert exc.value.line == 2
    with pytest.raises(AlgebraParseError, match="unknown arrow 'b'") as exc:
        parse_algebra("vertex 1\narrow a 1 1\nrelation a b\narrow b 1 1\n")
    assert exc.value.line == 3
    # a later line of an earlier kind is read when nothing refers ahead
    alg = parse_algebra("vertex 1\narrow a 1 1\nvertex 2\nrelation a a\narrow b 1 2\n")
    assert (alg.vertices, [a.name for a in alg.arrows]) == (("1", "2"), ["a", "b"])


def axiom_sweep(seed=1, count=300):
    """The sweep of ``tests/data/axiom_sweep.json``: the first ``count``
    texts of ``random_alg_text`` on this seed, each with its axiom
    violations or, for a file the parser refuses, the line it names."""
    rng = random.Random(seed)
    records = []
    for _ in range(count):
        text = random_alg_text(rng)
        try:
            report = validate_axioms(parse_algebra(text))
        except AlgebraParseError as exc:
            records.append({"algebra": text, "error_line": exc.line})
        else:
            records.append({"algebra": text,
                            "violations": [list(v) for v in report.violations]})
    return {"seed": seed, "cases": records}


def test_axioms_match_recorded_sweep(data_dir):
    # recorded before the admission rules and the axiom scans were merged
    recorded = json.loads((data_dir / "axiom_sweep.json").read_text())
    swept = axiom_sweep(recorded["seed"], len(recorded["cases"]))
    for got, want in zip(swept["cases"], recorded["cases"]):
        assert got == want
    # the sweep reaches refused files and every axiom
    tags = {v[0] for c in recorded["cases"] for v in c.get("violations", ())}
    assert tags == {"S1", "S2", "G1", "G2", "FinDim"}
    assert sum("error_line" in c for c in recorded["cases"]) >= 30
