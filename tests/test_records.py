"""Record semantics: reprs, equality and hashing, immutability of the named
tuple records, and the presentation's validation messages.  The expected
reprs and messages were recorded from the dataclass records these types
replaced, so the switch changes none of them."""

import pytest

from mgslab import (
    AlgebraError,
    AlgebraParseError,
    AlgebraPresentation,
    Arrow,
    enumerate_bricks,
    load_algebra,
    parse_algebra,
    parse_walk,
    string_module,
    to_explicit,
)
from mgslab.mgs import build_brick_pools, enumerate_mgs, is_complete_relative

from conftest import DATA


def _walk(letters, vertices):
    return f"Walk(letters=({letters}), vertices={vertices})"


E1, E2, E3 = (_walk("", f"('{v}',)") for v in "123")
A = _walk("Letter(arrow='a', bit=0),", "('1', '2')")
B1 = _walk("Letter(arrow='b1', bit=0),", "('1', '3')")
B2 = _walk("Letter(arrow='b2', bit=0),", "('3', '2')")
A_B2 = _walk("Letter(arrow='a', bit=0), Letter(arrow='b2', bit=1)", "('1', '2', '3')")
A_B1 = _walk("Letter(arrow='a', bit=1), Letter(arrow='b1', bit=0)", "('2', '1', '3')")
B1_B2 = _walk("Letter(arrow='b1', bit=0), Letter(arrow='b2', bit=0)", "('1', '3', '2')")
STRINGS = f"({E1}, {E2}, {E3}, {A}, {B1}, {B2}, {A_B2}, {A_B1}, {B1_B2})"
BAND = ("Walk(letters=(Letter(arrow='a', bit=0), Letter(arrow='b2', bit=1),"
        " Letter(arrow='b1', bit=1)), vertices=('1', '2', '3', '1'))")


def test_reprs(a12tilde):
    w = parse_walk(a12tilde, "b1 b2 a-")
    assert repr(w) == ("Walk(letters=(Letter(arrow='b1', bit=0), Letter(arrow='b2', bit=0),"
                       " Letter(arrow='a', bit=1)), vertices=('1', '3', '2', '1'))")
    assert repr(w.letters[2]) == "Letter(arrow='a', bit=1)"
    pools = build_brick_pools(a12tilde, 2, band_bound=3)
    assert repr(pools) == (
        f"BrickPools(member={STRINGS}, insertion_strings={STRINGS},"
        f" insertion_bands=({BAND},), excluded=(), max_string_len=2, band_bound=3)")
    verdict = is_complete_relative(
        a12tilde, (parse_walk(a12tilde, "e:1"), parse_walk(a12tilde, "b1")),
        build_brick_pools(a12tilde, 3))
    assert repr(verdict) == (
        f"Verdict(kind='refinable', witness_brick={E2}, witness_is_band=False,"
        " witness_position=0, missing_simples=('2', '3'), banned_entries=(),"
        " band_square_blockers=(), pool_descriptor={'max_string_len': 3,"
        " 'band_bound': 3})")


def test_equal_presentations_stay_equal_after_memos_fill():
    one, two = (load_algebra(DATA / "a12tilde.alg") for _ in range(2))
    assert one is not two
    assert one == two and hash(one) == hash(two)
    pools = build_brick_pools(one, 6)
    enumerate_mgs(one, pools)
    assert one.memo and one.walk_memo and not two.memo
    assert one == two and hash(one) == hash(two)
    assert len({one, two}) == 1
    assert one != load_algebra(DATA / "a2.alg")


def test_explicit_reps_compare_by_value_across_equal_presentations():
    one, two = (load_algebra(DATA / "gentle5.alg") for _ in range(2))
    a, b = (to_explicit(string_module(alg, parse_walk(alg, "g2 b2 a2- g2 b1-")))
            for alg in (one, two))
    assert a == b and hash(a) == hash(b)
    assert a.vertices == one.vertices and a.arrows == one.arrows
    assert a.relations == one.relations


def test_named_tuple_records_are_immutable(a12tilde):
    w = parse_walk(a12tilde, "b1 b2 a-")
    pools = build_brick_pools(a12tilde, 6)
    verdict = is_complete_relative(a12tilde, (w,), pools)
    records = [
        (w.letters[0], "bit"),
        (a12tilde.arrows[0], "name"),
        (pools, "member"),
        (verdict, "kind"),
        (enumerate_bricks(a12tilde, 3)[0], "walk"),
        (enumerate_mgs(a12tilde, pools), "nodes"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    letter = w.letters[0]
    arrow, bit = letter
    assert (arrow, bit) == ("b1", 0) and letter == ("b1", 0)


VALIDATION_CASES = [
    ((("1", "1"), (), ()), "duplicate vertex '1'"),
    ((("1", "2"), (Arrow("a", "1", "2"), Arrow("a", "2", "1")), ()),
     "duplicate arrow name 'a'"),
    ((("1",), (Arrow("a", "1", "2"),), ()), "arrow 'a' uses unknown vertex '2'"),
    ((("1", "2"), (Arrow("a", "1", "2"),), (("a",),)), "relation 'a' has length < 2"),
    ((("1", "2"), (Arrow("a", "1", "2"),), (("a", "b"),)), "unknown arrow 'b' in relation"),
    ((("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "1", "2")), (("a", "b"),)),
     "relation 'a b' is not composable at 'a' 'b'"),
]


@pytest.mark.parametrize("parts, message", VALIDATION_CASES)
def test_presentation_validation_messages(parts, message):
    with pytest.raises(AlgebraError) as info:
        AlgebraPresentation(*parts)
    assert str(info.value) == message


@pytest.mark.parametrize("parts, message", VALIDATION_CASES)
def test_parser_speaks_the_presentation_messages(parts, message):
    # each case breaks a rule at its last item, which is the file's last line
    vertices, arrows, relations = parts
    lines = ([f"vertex {v}" for v in vertices] + [f"arrow {' '.join(a)}" for a in arrows]
             + [f"relation {' '.join(r)}" for r in relations])
    with pytest.raises(AlgebraParseError) as info:
        parse_algebra("\n".join(lines) + "\n")
    assert info.value.line == len(lines)
    assert str(info.value) == f"line {len(lines)}: {message}"
