"""Property tests: random strings are built by seeded extension walks, so
every case is reproducible and shrinks well."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from mgslab import (
    band_end_dim,
    band_module,
    canonical_string,
    enumerate_bands,
    enumerate_strings,
    hom_dim,
    hom_dim_band_string,
    hom_dim_linalg,
    hom_dim_string_band,
    is_directed,
    is_string,
    load_algebra,
    string_module,
    to_explicit,
)
from mgslab.modules import band_top_socle
from mgslab.words import Letter, Walk, make_walk

from conftest import DATA

ALGEBRAS = {
    name: load_algebra(DATA / f"{name}.alg")
    for name in ("two_loops", "gentle5", "kronecker", "mgs5", "double_arrows", "a12tilde")
}


def random_string(alg, seed: int, max_len: int = 8) -> Walk:
    rng = random.Random(seed)
    start = rng.choice(alg.vertices)
    w = make_walk(alg, (), base_vertex=start)
    target = rng.randrange(max_len + 1)
    while w.length < target:
        # the letters that compose with w on the right, kept when w grows to a string
        options = [grown for grown in (
            w.concat(make_walk(alg, (letter,))) for letter in
            [Letter(a.name, 0) for a in alg.outgoing[w.target]]
            + [Letter(a.name, 1) for a in alg.incoming[w.target]])
            if is_string(alg, grown)]
        if not options:
            break
        w = rng.choice(options)
    return w


algebra_names = st.sampled_from(sorted(ALGEBRAS))
seeds = st.integers(min_value=0, max_value=10**9)
nonzero_lambdas = st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool)


@given(algebra_names, seeds)
@settings(max_examples=120, deadline=None)
def test_random_walks_are_strings(name, seed):
    alg = ALGEBRAS[name]
    w = random_string(alg, seed)
    assert is_string(alg, w)
    assert is_string(alg, w.inverse())


@given(algebra_names, seeds)
@settings(max_examples=120, deadline=None)
def test_canonical_string_is_inverse_invariant(name, seed):
    alg = ALGEBRAS[name]
    w = random_string(alg, seed)
    assert canonical_string(w) == canonical_string(w.inverse())
    assert canonical_string(canonical_string(w)) == canonical_string(w)


@given(algebra_names, seeds)
@settings(max_examples=120, deadline=None)
def test_directedness_survives_inversion(name, seed):
    alg = ALGEBRAS[name]
    w = random_string(alg, seed)
    if w.length == 0:
        return
    assert is_directed(w) == is_directed(w.inverse())


@given(algebra_names, seeds)
@settings(max_examples=60, deadline=None)
def test_dim_vector_counts_visits(name, seed):
    alg = ALGEBRAS[name]
    w = random_string(alg, seed)
    M = string_module(alg, w)
    assert M.total_dim == w.length + 1
    dims = M.dims()
    for v in alg.vertices:
        assert dims[v] == sum(1 for x in w.vertices if x == v)


@given(algebra_names, seeds, seeds)
@settings(max_examples=50, deadline=None)
def test_hom_dim_matches_oracle_on_random_pairs(name, s1, s2):
    alg = ALGEBRAS[name]
    a, b = random_string(alg, s1, 6), random_string(alg, s2, 6)
    lhs = hom_dim(alg, a, b)
    rhs = hom_dim_linalg(
        to_explicit(string_module(alg, a)), to_explicit(string_module(alg, b))
    )
    assert lhs == rhs


@given(algebra_names, seeds, seeds)
@settings(max_examples=50, deadline=None)
def test_hom_dim_invariant_under_inversion(name, s1, s2):
    alg = ALGEBRAS[name]
    a, b = random_string(alg, s1, 6), random_string(alg, s2, 6)
    base = hom_dim(alg, a, b)
    assert hom_dim(alg, a.inverse(), b) == base
    assert hom_dim(alg, a, b.inverse()) == base


@given(algebra_names, seeds, seeds, nonzero_lambdas)
@settings(max_examples=80, deadline=None)
def test_band_calculus_matches_oracle_at_random_lambda(name, s1, s2, lam):
    # the calculus reads no lambda; the oracle builds M(b, lambda, 1) at a
    # random nonzero rational, for a band in a random rotation and direction
    alg = ALGEBRAS[name]
    rng = random.Random(s2)
    band = rng.choice(rng.choice(enumerate_bands(alg, 6)).rotations)
    w = random_string(alg, s1, 6)
    B = to_explicit(band_module(alg, band, lam, 1))
    S = to_explicit(string_module(alg, w))
    assert hom_dim_string_band(alg, w, band) == hom_dim_linalg(S, B)
    assert hom_dim_band_string(alg, band, w) == hom_dim_linalg(B, S)
    assert band_end_dim(alg, band) == hom_dim_linalg(B, B)


def test_square_strings_are_band_powers():
    # undirected strings with string squares are exactly the band powers
    for name in ("gentle5", "a12tilde", "kronecker", "double_arrows"):
        alg = ALGEBRAS[name]
        bands = {b.key() for b in enumerate_bands(alg, 8)}
        for u in enumerate_strings(alg, 8):
            if u.length == 0 or not u.is_cyclic or is_directed(u):
                continue
            if not is_string(alg, u.power(2)):
                continue
            d = u.length
            root = None
            for p in range(1, d + 1):
                if d % p == 0 and u.letters == u.letters[:p] * (d // p):
                    root = u.sub(1, p)
                    break
            from mgslab import canonical_rotation, is_band

            assert root is not None and is_band(alg, root)
            assert canonical_rotation(root).key() in bands


def test_at_most_one_band_per_socle_simple_domestic():
    # the domestic ingredient used for the finiteness corollary
    for name in ("kronecker", "a12tilde", "double_arrows"):
        alg = ALGEBRAS[name]
        socle_owner = {}
        for b in enumerate_bands(alg, 8):
            _, socle = band_top_socle(b)
            for v in set(socle):
                assert v not in socle_owner, f"{name}: simple {v} in two band socles"
                socle_owner[v] = b


def test_fingerprint_insensitive_to_comments():
    import mgslab

    base = (DATA / "gentle5.alg").read_text()
    doctored = "# a new comment\n" + base + "\n# trailing\n"
    assert mgslab.parse_algebra(doctored).fingerprint == ALGEBRAS["gentle5"].fingerprint
