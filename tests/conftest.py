from pathlib import Path

import pytest

from mgslab import load_algebra

DATA = Path(__file__).parent / "data"
ALGEBRAS = tuple(sorted(p.stem for p in DATA.glob("*.alg")))  # the seven bundled


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
