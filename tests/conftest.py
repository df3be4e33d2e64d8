import random
from itertools import groupby
from pathlib import Path

import pytest

from mgslab import (
    AlgebraParseError,
    AlgebraPresentation,
    Arrow,
    Letter,
    load_algebra,
    make_walk,
    parse_algebra,
    validate_axioms,
)

DATA = Path(__file__).parent / "data"
ALGEBRAS = tuple(sorted(p.stem for p in DATA.glob("*.alg")))  # the seven bundled

# A gentle algebra with 2, 10 and 47 bands up to lengths 4, 8 and 12, on
# which the domestic gentle construction meets a repeated simple.
NON_DOMESTIC_GENTLE = (
    "vertex 1\nvertex 2\nvertex 3\nvertex 4\n"
    "arrow x1 3 2\narrow x2 3 1\narrow x3 4 1\n"
    "arrow x4 4 2\narrow x5 1 4\narrow x6 1 4\n"
    "relation x2 x6\nrelation x3 x5\nrelation x5 x4\nrelation x6 x3\n")


def random_presentation(seed: int) -> AlgebraPresentation:
    """1-3 vertices, 1-3 arrows, up to three relations of length 2-4."""
    rng = random.Random(seed)
    vertices = tuple(str(i) for i in range(1, rng.randint(1, 3) + 1))
    arrows = tuple(Arrow(f"a{i}", rng.choice(vertices), rng.choice(vertices))
                   for i in range(rng.randint(1, 3)))
    relations = set()
    for _ in range(rng.randint(1, 3)):
        path = [rng.choice(arrows)]
        for _ in range(rng.randint(2, 4) - 1):
            nxt = [a for a in arrows if a.source == path[-1].target]
            if not nxt:
                break
            path.append(rng.choice(nxt))
        if len(path) >= 2:
            relations.add(tuple(a.name for a in path))
    return AlgebraPresentation(vertices, arrows, tuple(sorted(relations)))


def random_alg_text(rng: random.Random) -> str:
    """``.alg`` text drawn from rng: a quiver on 1-4 vertices with 0-6
    arrows, loops allowed, and 0-5 relations of length 2-4 along composable
    paths; with probability 0.3 one line is replaced by a malformed one."""
    vertices = [f"v{i}" for i in range(1, rng.randint(1, 4) + 1)]
    arrows = [Arrow(f"a{i}", rng.choice(vertices), rng.choice(vertices))
              for i in range(1, rng.randint(0, 6) + 1)]
    relations = []
    for _ in range(rng.randint(0, 5) if arrows else 0):
        path = [rng.choice(arrows)]
        for _ in range(rng.randint(2, 4) - 1):
            after = [a for a in arrows if a.source == path[-1].target]
            if not after:
                break
            path.append(rng.choice(after))
        if len(path) >= 2:
            relations.append(" ".join(a.name for a in path))
    lines = ([f"vertex {v}" for v in vertices] + [f"arrow {' '.join(a)}" for a in arrows]
             + [f"relation {r}" for r in relations])
    if rng.random() < 0.3:
        a = rng.choice(arrows or [Arrow("a1", "v1", "v1")])
        b = rng.choice([b for b in arrows if b.source != a.target] or [a])
        malformed = [
            "edge v1 v2", "vertex", "vertex v1 v2", "arrow b v1", "relation",
            f"vertex {rng.choice(vertices)}", f"arrow {a.name} v1 v1",
            f"arrow {rng.choice(('b-', 'e:v1'))} v1 v1",
            f"arrow b v1 {rng.choice(('v1', 'v9'))}", f"arrow b v9 {a.target}",
            f"relation {a.name}", f"relation {a.name} zz",
            f"relation {a.name} {b.name}",
        ]
        lines[rng.randrange(len(lines))] = rng.choice(malformed)
    return "\n".join(lines) + "\n"


def random_gentle_presentation(rng: random.Random) -> AlgebraPresentation:
    """A gentle algebra on 2-4 vertices, drawn from rng until one passes
    ``validate_axioms``: up to 2n arrows x1, x2, ..., each kept while
    in- and out-degrees stay <= 2, and each arrow starting, with
    probability 3/4, a length-2 relation with one of its successors.
    About 1 in 9 candidates passes."""
    while True:
        vertices = tuple(str(i) for i in range(1, rng.randint(2, 4) + 1))
        out_degree = dict.fromkeys(vertices, 0)
        in_degree = dict.fromkeys(vertices, 0)
        arrows = []
        for _ in range(2 * len(vertices)):
            source, target = rng.choice(vertices), rng.choice(vertices)
            if out_degree[source] < 2 and in_degree[target] < 2:
                out_degree[source] += 1
                in_degree[target] += 1
                arrows.append(Arrow(f"x{len(arrows) + 1}", source, target))
        relations = []
        for a in arrows:
            after = [b for b in arrows if b.source == a.target]
            if after and rng.random() < 0.75:
                relations.append((a.name, rng.choice(after).name))
        alg = AlgebraPresentation(vertices, tuple(arrows), tuple(relations))
        if validate_axioms(alg).is_gentle:
            return alg


def composable_extensions(alg: AlgebraPresentation, w):
    """w grown by each letter, direct or inverse, of the arrow list that
    composes with it, built by ``make_walk``."""
    for a in alg.arrows:
        for bit, source in ((0, a.source), (1, a.target)):
            if source == w.target:
                yield make_walk(alg, w.letters + (Letter(a.name, bit),))


def ref_is_string(alg: AlgebraPresentation, w) -> bool:
    """The string test without the string automaton: no backtrack, and no
    relation in a direct run or in an inverse run read backwards."""
    if any(b == a.inverse() for a, b in zip(w.letters, w.letters[1:])):
        return False
    for bit, run in groupby(w.letters, key=lambda l: l.bit):
        path = [l.arrow for l in run][::-1 if bit else 1]
        for r in alg.relations:
            if any(tuple(path[i:i + len(r)]) == r for i in range(len(path) - len(r) + 1)):
                return False
    return True


def brute_force_string_walks(alg: AlgebraPresentation, max_len: int) -> list:
    """Every composable letter word of length <= max_len that
    :func:`ref_is_string` keeps, both orientations.  A prefix of a string
    is a string, so only strings are grown."""
    level = [make_walk(alg, (), base_vertex=v) for v in alg.vertices]
    out = list(level)
    for _ in range(max_len):
        level = [x for w in level for x in composable_extensions(alg, w)
                 if ref_is_string(alg, x)]
        out += level
    return out


def string_algebra_sample() -> tuple[tuple[str, str], ...]:
    """(label, ``.alg`` text) of the algebras the string-growth and brick
    tests run on: the seven bundled ones, 100 ``random_gentle_presentation``
    draws (seed 1), and the first 600 ``random_alg_text`` draws (seed 1)
    that parse and pass ``validate_axioms`` as string algebras (187 of them,
    21 with a minimal relation of length 3 or 4).  Texts, so that each test
    parses presentations with empty memos."""
    out = [(name, (DATA / f"{name}.alg").read_text()) for name in ALGEBRAS]
    rng = random.Random(1)
    out += [(f"gentle-{i}", random_gentle_presentation(rng).normalized_text)
            for i in range(100)]
    rng = random.Random(1)
    for i in range(600):
        text = random_alg_text(rng)
        try:
            alg = parse_algebra(text)
        except AlgebraParseError:
            continue
        if validate_axioms(alg).is_string_algebra:
            out.append((f"text-{i}", text))
    return tuple(out)


@pytest.fixture(scope="session")
def data_dir():
    return DATA


@pytest.fixture(scope="session")
def two_loops():
    """Two loops with square-zero relations and a connecting arrow."""
    return load_algebra(DATA / "two_loops.alg")


@pytest.fixture(scope="session")
def gentle5():
    """Five-vertex gentle algebra with two 3-cycles through a shared vertex."""
    return load_algebra(DATA / "gentle5.alg")


@pytest.fixture(scope="session")
def kronecker():
    return load_algebra(DATA / "kronecker.alg")


@pytest.fixture(scope="session")
def mgs5():
    """Five-vertex algebra carrying the bundled 14-term sequence."""
    return load_algebra(DATA / "mgs5.alg")


@pytest.fixture(scope="session")
def double_arrows():
    """Double arrows both ways, every length-2 path zero: string, not gentle."""
    return load_algebra(DATA / "double_arrows.alg")


@pytest.fixture(scope="session")
def a12tilde():
    """Affine path algebra with the single band b1 b2 a-."""
    return load_algebra(DATA / "a12tilde.alg")


@pytest.fixture(scope="session")
def a2():
    return load_algebra(DATA / "a2.alg")
