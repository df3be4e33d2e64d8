from fractions import Fraction

import pytest

from mgslab import (
    OracleError,
    band_module,
    end_dim,
    enumerate_bands,
    enumerate_strings,
    exists_full_rank_hom,
    hom_dim,
    hom_dim_linalg,
    hom_solution_basis,
    load_algebra,
    parse_walk,
    string_module,
    to_explicit,
)
from mgslab.oracle import matrix_rank, probe_seed


def F(x):
    return Fraction(x)


def test_string_explicit_matrices(gentle5):
    # canonical orientation of the displayed walk is b1 g2- a2 b2- g2-;
    # matrices pinned by hand with per-vertex bases ordered by visit
    # position
    rep = to_explicit(string_module(gentle5, parse_walk(gentle5, "g2 b2 a2- g2 b1-")))
    mats = dict(rep.mats)
    assert mats["b1"] == ((F(1),), (F(0),))
    assert mats["b2"] == ((F(0), F(1)),)
    assert mats["a2"] == ((F(1), F(0)),)
    assert mats["g2"] == ((F(1), F(0)), (F(0), F(1)))
    assert mats["g1"] == ()
    assert mats["a1"] == ()


def test_string_explicit_isomorphic_to_alternative_basis(gentle5):
    # ordering the V2 and V5 bases by the opposite walk orientation gives
    # an isomorphic representation
    from mgslab.oracle import ExplicitRep

    rep = to_explicit(string_module(gentle5, parse_walk(gentle5, "g2 b2 a2- g2 b1-")))
    alt = ExplicitRep(
        gentle5,
        rep.dims,
        tuple(sorted({
            "b1": ((F(0),), (F(1),)),
            "b2": ((F(1), F(0)),),
            "a2": ((F(0), F(1)),),
            "g2": ((F(1), F(0)), (F(0), F(1))),
            "g1": (),
            "a1": (),
        }.items())),
    )
    assert hom_dim_linalg(rep, alt) == 1
    assert hom_dim_linalg(alt, rep) == 1
    seed = probe_seed(gentle5, "iso-test")
    assert exists_full_rank_hom(rep, alt, "inj", seed)


def test_band_explicit_jordan_block(gentle5):
    rep = to_explicit(band_module(gentle5, parse_walk(gentle5, "b2 a2- g2"), F(2), 2))
    mats = dict(rep.mats)
    assert mats["g2"] == ((F(2), F(0)), (F(1), F(2)))
    assert mats["b2"] == ((F(1), F(0)), (F(0), F(1)))
    assert mats["a2"] == ((F(1), F(0)), (F(0), F(1)))


def test_band_explicit_inverse_last_letter(kronecker):
    # canonical Kronecker band a b-: the identity sits on a, the Jordan
    # block with inverted eigenvalue on b
    rep = to_explicit(band_module(kronecker, parse_walk(kronecker, "a b-"), F(2), 1))
    mats = dict(rep.mats)
    assert mats["a"] == ((F(1),),)
    assert mats["b"] == ((Fraction(1, 2),),)


def test_simple_explicit(gentle5):
    rep = to_explicit(string_module(gentle5, parse_walk(gentle5, "e:3")))
    assert dict(rep.dims)["3"] == 1
    assert all(not any(any(row) for row in m) for _, m in rep.mats)


def test_band_k1_lambda1_is_zero_one(gentle5):
    rep = to_explicit(band_module(gentle5, parse_walk(gentle5, "b2 a2- g2"), F(1), 1))
    entries = {x for _, m in rep.mats for row in m for x in row}
    assert entries <= {F(0), F(1)}


def test_band_module_rotation_and_inversion_isos(gentle5):
    # M(w, l, 1) is isomorphic to M(rotation, l, 1) and to M(w^-1, 1/l, 1)
    w2 = parse_walk(gentle5, "b2 a2- g2")
    base = to_explicit(band_module(gentle5, w2, F(3), 1))
    rot = to_explicit(band_module(gentle5, w2.rotate(1), F(3), 1))
    inv = to_explicit(band_module(gentle5, w2.inverse(), Fraction(1, 3), 1))
    seed = probe_seed(gentle5, "band-iso")
    for other in (rot, inv):
        assert dict(base.dims) == dict(other.dims)
        assert hom_dim_linalg(base, other) == 1
        assert exists_full_rank_hom(base, other, "inj", seed)


@pytest.mark.parametrize("dims, mats, message", [
    # a: 1 -> 2 needs dims[2] rows of dims[1] entries
    ((("1", 1), ("2", 1)), (("a", ((F(1), F(0)),)), ("b", ((F(1),),))), "arrow a needs a 1 x 1"),
    ((("1", 1), ("2", 1)), (("a", ((F(1),), (F(0),))), ("b", ((F(1),),))), "arrow a needs a 1 x 1"),
    ((("1", 1), ("2", 1)), (("a", ((F(1),),)),), "arrow b needs a 1 x 1"),
    ((("1", 2), ("2", 1)), (("a", ((F(1),),)), ("b", ((F(1), F(0)),))), "arrow a needs a 1 x 2"),
    # a matrix named for no arrow, or a second matrix for one, must not be ignored
    ((("1", 1), ("2", 1)), (("a", ((F(1),),)), ("b", ((F(0),),)), ("c", ((F(5),),))),
     "matrix names differ"),
    ((("1", 1), ("2", 1)), (("a", ((F(1),),)), ("a", ((F(0),),)), ("b", ((F(0),),))),
     "matrix names differ"),
], ids=["1x2", "2x1", "missing", "short-row", "extra", "twice"])
def test_malformed_matrices_rejected(kronecker, dims, mats, message):
    from mgslab.oracle import ExplicitRep

    rep = ExplicitRep(kronecker, dims, mats)
    good = to_explicit(string_module(kronecker, parse_walk(kronecker, "a")))
    for A, B in ((rep, rep), (rep, good), (good, rep)):
        with pytest.raises(OracleError, match=message):
            hom_dim_linalg(A, B)
        with pytest.raises(OracleError, match=message):
            hom_solution_basis(A, B)


def test_relation_violation_detected(two_loops):
    from mgslab.oracle import ExplicitRep

    bad = ExplicitRep(
        two_loops,
        (("1", 1), ("2", 0)),
        (("a", ((F(1),),)), ("b", ()), ("g", ())),
    )
    with pytest.raises(OracleError, match="acts nonzero"):
        from mgslab.oracle import _check_relations

        _check_relations(bad)


def test_hom_dim_linalg_simples(a12tilde):
    S1 = to_explicit(string_module(a12tilde, parse_walk(a12tilde, "e:1")))
    S2 = to_explicit(string_module(a12tilde, parse_walk(a12tilde, "e:2")))
    assert hom_dim_linalg(S1, S1) == 1
    assert hom_dim_linalg(S1, S2) == 0


def test_band_end_dims(gentle5):
    w2 = parse_walk(gentle5, "b2 a2- g2")
    B1 = to_explicit(band_module(gentle5, w2, F(1), 1))
    B2 = to_explicit(band_module(gentle5, w2, F(1), 2))
    assert end_dim(B1) == 1
    assert end_dim(B2) == 2


def test_band_k2_never_brick(gentle5, a12tilde, kronecker, double_arrows):
    for alg in (gentle5, a12tilde, kronecker, double_arrows):
        for b in enumerate_bands(alg, 6):
            B = to_explicit(band_module(alg, b, F(2), 2))
            assert end_dim(B) >= 2


def test_oracle_matches_calculus_sample(gentle5):
    ws = enumerate_strings(gentle5, 4)
    reps = {w: to_explicit(string_module(gentle5, w)) for w in ws}
    for a in ws:
        for b in ws:
            assert hom_dim(gentle5, a, b) == hom_dim_linalg(reps[a], reps[b])


def test_oracle_symmetric_under_simultaneous_inversion(gentle5):
    ws = enumerate_strings(gentle5, 4)[:10]
    for a in ws:
        for b in ws:
            d1 = hom_dim_linalg(
                to_explicit(string_module(gentle5, a)),
                to_explicit(string_module(gentle5, b)),
            )
            d2 = hom_dim_linalg(
                to_explicit(string_module(gentle5, a.inverse())),
                to_explicit(string_module(gentle5, b.inverse())),
            )
            assert d1 == d2


def test_hom_solution_basis_shapes(a12tilde):
    A = to_explicit(string_module(a12tilde, parse_walk(a12tilde, "e:3")))
    B = to_explicit(string_module(a12tilde, parse_walk(a12tilde, "b1")))
    basis = hom_solution_basis(A, B)
    assert len(basis) == 1
    f3 = basis[0]["3"]
    assert len(f3) == 1 and len(f3[0]) == 1 and f3[0][0] != 0


def test_exists_injective_and_surjective(a12tilde):
    seed = probe_seed(a12tilde, "test")
    S3 = to_explicit(string_module(a12tilde, parse_walk(a12tilde, "e:3")))
    S1 = to_explicit(string_module(a12tilde, parse_walk(a12tilde, "e:1")))
    M = to_explicit(string_module(a12tilde, parse_walk(a12tilde, "b1")))
    assert exists_full_rank_hom(S3, M, "inj", seed)          # socle embeds
    assert not exists_full_rank_hom(S1, M, "inj", seed)      # top does not
    assert exists_full_rank_hom(M, S1, "surj", seed)         # onto the top
    assert not exists_full_rank_hom(M, S3, "surj", seed)


def _generic_full_rank(A, B, kind):
    """The verdict of exists_full_rank_hom read exactly: the per-vertex
    ranks of the symbolic generic intertwiner sum c_k X_k over the solution
    basis reach dim A_v (inj) or dim B_v (surj) at every vertex."""
    import sympy

    basis = hom_solution_basis(A, B)
    coeffs = sympy.symbols(f"c0:{len(basis)}")
    adims, bdims = dict(A.dims), dict(B.dims)
    for v in A.vertices:
        point = sympy.Matrix(bdims[v], adims[v], lambda r, c: sum(
            (k * sympy.Rational(x[v][r][c].numerator, x[v][r][c].denominator)
             for k, x in zip(coeffs, basis)), sympy.Integer(0)))
        if point.rank() < (adims[v] if kind == "inj" else bdims[v]):
            return False
    return True


def test_exists_full_rank_certified_agrees(a12tilde):
    seed = probe_seed(a12tilde, "certified")
    M = to_explicit(string_module(a12tilde, parse_walk(a12tilde, "b1")))
    B = to_explicit(band_module(a12tilde, parse_walk(a12tilde, "b1 b2 a-"), F(1), 2))
    # B maps onto M, so the pairs hold a true verdict as well as false ones
    for A, C in ((M, B), (B, M)):
        for kind in ("inj", "surj"):
            assert exists_full_rank_hom(A, C, kind, seed) == _generic_full_rank(A, C, kind)


def test_matrix_rank():
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert matrix_rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert matrix_rank([]) == 0


def test_probe_seed_deterministic(gentle5):
    assert probe_seed(gentle5, "x") == probe_seed(gentle5, "x")
    assert probe_seed(gentle5, "x") != probe_seed(gentle5, "y")


def test_vertex_set_mismatch(gentle5, a2):
    A = to_explicit(string_module(gentle5, parse_walk(gentle5, "e:1")))
    B = to_explicit(string_module(a2, parse_walk(a2, "e:1")))
    with pytest.raises(OracleError):
        hom_dim_linalg(A, B)


def test_same_vertices_other_arrows_rejected(a2, kronecker):
    # a2 and kronecker share the vertices 1 and 2 but not their arrows
    A = to_explicit(string_module(a2, parse_walk(a2, "e:1")))
    B = to_explicit(string_module(kronecker, parse_walk(kronecker, "e:1")))
    assert A.vertices == B.vertices and A.dims == B.dims and A.arrows != B.arrows
    for X, Y in ((A, B), (B, A)):
        with pytest.raises(OracleError, match="different algebras"):
            hom_dim_linalg(X, Y)
        with pytest.raises(OracleError, match="different algebras"):
            hom_solution_basis(X, Y)


def test_separate_loads_are_one_algebra(data_dir):
    # reps over equal presentations that share no tuple give the same
    # Hom dimensions as reps over one presentation
    one = load_algebra(data_dir / "gentle5.alg")
    other = load_algebra(data_dir / "gentle5.alg")
    assert one == other and one.arrows is not other.arrows
    strings = enumerate_strings(one, 3)
    reps = [to_explicit(string_module(one, w)) for w in strings]
    others = [to_explicit(string_module(other, w)) for w in strings]
    assert len(reps) > 20
    for A, A2 in zip(reps, others):
        for B, B2 in zip(reps, others):
            dim = hom_dim_linalg(A, B)
            assert hom_dim_linalg(A2, B) == hom_dim_linalg(A, B2) == dim
            assert len(hom_solution_basis(A2, B)) == dim
