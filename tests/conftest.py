import random
from pathlib import Path

import pytest

from mgslab import AlgebraPresentation, Arrow, load_algebra

DATA = Path(__file__).parent / "data"
ALGEBRAS = tuple(sorted(p.stem for p in DATA.glob("*.alg")))  # the seven bundled


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
