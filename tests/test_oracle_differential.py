"""The integer oracle against the rational elimination it replaced, kept
here as a slow reference: equal Hom dimensions (union-find, then fraction
free elimination), ranks, null-space bases (the same Fraction vectors, and
integer back substitution giving positive multiples of them) and sampled
full-rank verdicts, on string and band modules and on random hand-built
representations.  And the substring calculus for band modules against the
oracle at sampled band parameters."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgslab import (
    OracleError,
    band_end_dim,
    band_module,
    enumerate_bands,
    enumerate_strings,
    exists_full_rank_hom,
    hom_dim_band_string,
    hom_dim_linalg,
    hom_dim_string_band,
    hom_solution_basis,
    load_algebra,
    parse_walk,
    string_module,
    to_explicit,
)
from mgslab import lemmas, oracle
from mgslab.modules import BandModuleRep
from mgslab.oracle import ExplicitRep, matrix_rank, probe_seed

from conftest import random_gentle_presentation

ALGEBRAS = ("a12tilde", "a2", "double_arrows", "gentle5", "kronecker", "mgs5", "two_loops")
LAMBDAS = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3), Fraction(-1), Fraction(1, 3))

_ZERO = Fraction(0)


def _ref_echelon_insert(pivots, row):
    """Reduce a sparse rational row; install it normalized if it survives."""
    while row:
        p = min(row)
        if p not in pivots:
            inv = 1 / row[p]
            pivots[p] = {c: v * inv for c, v in row.items()}
            return True
        factor = row.pop(p)
        for c, v in pivots[p].items():
            if c == p:
                continue
            nv = row.get(c, _ZERO) - factor * v
            if nv:
                row[c] = nv
            else:
                row.pop(c, None)
    return False


def _ref_system(A, B):
    """Dense loops over every equation (r, c) of every arrow, in Fractions."""
    adims, bdims = dict(A.dims), dict(B.dims)
    offsets, total = {}, 0
    for v in A.vertices:
        offsets[v] = total
        total += bdims[v] * adims[v]

    def idx(v, r, c):
        return offsets[v] + r * adims[v] + c

    rows = []
    amats, bmats = dict(A.mats), dict(B.mats)
    for arr in A.arrows:
        s, t = arr.source, arr.target
        Aa, Ba = amats[arr.name], bmats[arr.name]
        for r in range(bdims[t]):
            for c in range(adims[s]):
                row = {}
                for m in range(adims[t]):
                    if Aa[m][c]:
                        key = idx(t, r, m)
                        row[key] = row.get(key, _ZERO) + Fraction(Aa[m][c])
                for m in range(bdims[s]):
                    if Ba[r][m]:
                        key = idx(s, m, c)
                        row[key] = row.get(key, _ZERO) - Fraction(Ba[r][m])
                row = {k: v for k, v in row.items() if v}
                if row:
                    rows.append(row)
    return rows, total, offsets, adims, bdims


def ref_hom_dim(A, B):
    rows, total, *_ = _ref_system(A, B)
    pivots = {}
    return total - sum(_ref_echelon_insert(pivots, row) for row in rows)


def ref_matrix_rank(mat):
    pivots = {}
    return sum(_ref_echelon_insert(pivots, {j: Fraction(v) for j, v in enumerate(raw) if v})
               for raw in mat)


def ref_hom_solution_basis(A, B):
    rows, total, offsets, adims, bdims = _ref_system(A, B)
    pivots = {}
    for row in rows:
        _ref_echelon_insert(pivots, row)
    out = []
    for f in (c for c in range(total) if c not in pivots):
        x = {f: Fraction(1)}
        for p in sorted(pivots, reverse=True):
            acc = sum((v * x[c] for c, v in pivots[p].items() if c != p and c in x), _ZERO)
            if acc:
                x[p] = -acc
        out.append({
            v: tuple(tuple(x.get(offsets[v] + r * adims[v] + c, _ZERO)
                           for c in range(adims[v])) for r in range(bdims[v]))
            for v in A.vertices
        })
    return out


def ref_exists_full_rank_hom(A, B, kind, seed):
    """Sampled mode over the rationals: the points sum c_k x_k of the
    reference basis, with the same draws, ranked in Fractions."""
    adims, bdims = dict(A.dims), dict(B.dims)
    goals, bigger = (adims, bdims) if kind == "inj" else (bdims, adims)
    if any(goals[v] > bigger[v] for v in goals):
        return False
    basis = ref_hom_solution_basis(A, B)
    if not basis:
        return all(g == 0 for g in goals.values())
    rng = random.Random(seed)
    for _ in range(8):
        coeffs = [Fraction(rng.randint(-999, 999)) for _ in basis]
        if all(ref_matrix_rank([[sum(k * vec[v][r][c] for k, vec in zip(coeffs, basis))
                                 for c in range(adims[v])] for r in range(bdims[v])]) >= g
               for v, g in goals.items() if g):
            return True
    return False


def _assert_same(A, B):
    dim = hom_dim_linalg(A, B)
    assert dim == ref_hom_dim(A, B)
    basis, ref = hom_solution_basis(A, B), ref_hom_solution_basis(A, B)
    assert basis == ref
    assert len(basis) == dim
    # the kernel's integer points: m x for each reference vector x, m > 0
    free, offs, point = oracle._null_space(A, B)
    adims, bdims = A.view[0], B.view[0]
    assert len(free) == len(ref)
    for (m, x), want in zip((point({f: 1}) for f in free), ref):
        assert type(m) is int and m > 0
        assert all(type(e) is int and e for e in x.values())
        assert x == {
            o + r * da + c: m * want[v][r][c]
            for v, da, db, o in zip(A.vertices, adims, bdims, offs)
            for r in range(db) for c in range(da) if want[v][r][c]}
    for got, want in zip(basis, ref):
        for v in got:
            assert all(type(x) is Fraction for row in got[v] for x in row)
            for raw in got[v]:
                assert matrix_rank([raw]) == ref_matrix_rank([raw])
            assert matrix_rank(got[v]) == ref_matrix_rank(want[v])


@pytest.mark.parametrize("name", ALGEBRAS)
def test_string_pairs_match_reference(name, data_dir):
    alg = load_algebra(data_dir / f"{name}.alg")
    reps = [to_explicit(string_module(alg, w)) for w in enumerate_strings(alg, 5)]
    for A, B in product(reps, repeat=2):
        _assert_same(A, B)


def test_loop_strings_at_crosscheck_bound(data_dir):
    # every ordered pair of two_loops strings of length <= 7, the bound of
    # the crosscheck benchmark: loop arrows put both sides of an equation at
    # one vertex, so the union-find meets cancelling and disagreeing ratios
    alg = load_algebra(data_dir / "two_loops.alg")
    reps = [to_explicit(string_module(alg, w)) for w in enumerate_strings(alg, 7)]
    assert len(reps) == 75
    for A, B in product(reps, repeat=2):
        assert hom_dim_linalg(A, B) == len(hom_solution_basis(A, B))


@pytest.mark.parametrize("name", [n for n in ALGEBRAS if n != "a2"])  # a2 has no bands
def test_band_modules_match_reference(name, data_dir, monkeypatch):
    alg = load_algebra(data_dir / f"{name}.alg")
    bands = [to_explicit(band_module(alg, b, lam, k))
             for b in enumerate_bands(alg, 4) for lam in LAMBDAS for k in (1, 2, 3)]
    strings = [to_explicit(string_module(alg, w)) for w in enumerate_strings(alg, 2)]
    assert bands
    for B in bands:
        for S in strings:
            _assert_same(B, S)
            _assert_same(S, B)
        for other in bands:
            _assert_same(B, other)
    # the rows left to elimination (a Jordan block with k >= 2 puts two
    # nonzeros in a column) occur among these inputs, so the comparison
    # above covered that stage of hom_dim_linalg too
    stage2 = []
    echelon_insert = oracle._echelon_insert
    monkeypatch.setattr(oracle, "_echelon_insert",
                        lambda pivots, row: stage2.append(row) or echelon_insert(pivots, row))
    for B in bands:
        for other in bands:
            hom_dim_linalg(B, other)
    assert stage2


@pytest.mark.parametrize("name", [n for n in ALGEBRAS if n != "a2"])
def test_band_calculus_matches_the_oracle_at_every_sampled_lambda(name, data_dir):
    # Homs between string modules and M(b, lambda, 1), and End M(b, lambda, 1),
    # do not depend on lambda: the calculus reads no lambda and must equal
    # the oracle at each sampled value, brick or not
    alg = load_algebra(data_dir / f"{name}.alg")
    bands = enumerate_bands(alg, 8)
    strings = [(w, to_explicit(string_module(alg, w))) for w in enumerate_strings(alg, 8)]
    assert bands
    for b in bands:
        for lam in (Fraction(1), Fraction(2), Fraction(-1, 2)):
            B = to_explicit(band_module(alg, b, lam, 1))
            assert band_end_dim(alg, b) == hom_dim_linalg(B, B), (str(b), lam)
            for w, S in strings:
                assert hom_dim_string_band(alg, w, b) == hom_dim_linalg(S, B), (str(w), str(b), lam)
                assert hom_dim_band_string(alg, b, w) == hom_dim_linalg(B, S), (str(b), str(w), lam)


def _F(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def test_hand_built_non_unit_pivots(kronecker):
    assert matrix_rank([[2, 3], [4, 7]]) == ref_matrix_rank([[2, 3], [4, 7]]) == 2
    assert matrix_rank([[2, 4], [3, 6]]) == ref_matrix_rank([[2, 4], [3, 6]]) == 1
    # pivot 2 reduces 4 by gcd 2: the row must lose 2 x the pivot's tail
    assert matrix_rank([[2, 3], [4, 6]]) == ref_matrix_rank([[2, 3], [4, 6]]) == 1
    wide = [[2, 3, 1], [4, 6, 5], [6, 9, 3]]
    assert matrix_rank(wide) == ref_matrix_rank(wide) == 2
    thirds = [[Fraction(2, 3), Fraction(1, 2)], [Fraction(4, 9), Fraction(1, 3)]]
    assert matrix_rank(thirds) == ref_matrix_rank(thirds) == 1
    dims = (("1", 2), ("2", 2))
    reps = [
        ExplicitRep(kronecker, dims, (("a", _F([[2, 3], [4, 7]])), ("b", _F([[2, 4], [3, 6]])))),
        ExplicitRep(kronecker, dims, (("a", _F([[2, 4], [3, 6]])), ("b", _F([[2, 3], [4, 7]])))),
        ExplicitRep(kronecker, dims, (("a", _F([[3, 0], [0, 3]])), ("b", _F([[6, 2], [0, 6]])))),
        ExplicitRep(kronecker, dims, (("a", _F([[2, 0], [0, 5]])), ("b", thirds))),
        ExplicitRep(kronecker, dims, (("a", _F([[2, 3], [4, 6]])), ("b", _F([[4, 6], [2, 3]])))),
    ]
    for A, B in product(reps, repeat=2):
        _assert_same(A, B)
    assert hom_dim_linalg(reps[2], reps[2]) == 2  # End of M(a b-, 2, 2)


def test_hand_built_loops_cancel(two_loops):
    # loops with diagonal entries: f_v[r][r] meets itself in the equation of
    # a loop and cancels where A_a[r][r] = B_a[r][r] (the relations are not
    # imposed here; this exercises the linear algebra only)
    dims = (("1", 2), ("2", 1))
    b = _F([[1, 1]])
    reps = [
        ExplicitRep(two_loops, dims, (("a", _F([[1, 0], [0, 2]])), ("b", b), ("g", _F([[2]])))),
        ExplicitRep(two_loops, dims, (("a", _F([[2, 0], [3, 1]])), ("b", b), ("g", _F([[1]])))),
        ExplicitRep(two_loops, dims, (("a", _F([[1, 0], [0, 1]])), ("b", _F([[0, 3]])), ("g", _F([[1]])))),
    ]
    for A, B in product(reps, repeat=2):
        _assert_same(A, B)


@pytest.mark.parametrize("name", ["a12tilde", "two_loops", "kronecker"])
def test_sampled_full_rank_matches_rational_sampling_on_lemma_probes(name, data_dir, monkeypatch):
    # every probe the lemma suite makes at length 10 (the `crosscheck` lemma ops)
    alg = load_algebra(data_dir / f"{name}.alg")
    probes = []

    def probe(A, B, kind, seed):
        got = exists_full_rank_hom(A, B, kind, seed)
        probes.append((got, ref_exists_full_rank_hom(A, B, kind, seed)))
        return got

    monkeypatch.setattr(lemmas, "exists_full_rank_hom", probe)
    lemmas.run_lemma_suite(alg, 10)
    assert probes
    assert all(got == want for got, want in probes)


@pytest.mark.parametrize("name", [n for n in ALGEBRAS if n != "a2"])
def test_sampled_full_rank_matches_rational_sampling_on_string_band_pairs(name, data_dir):
    alg = load_algebra(data_dir / f"{name}.alg")
    strings = [(w, to_explicit(string_module(alg, w))) for w in enumerate_strings(alg, 3)]
    verdicts = set()
    for b in enumerate_bands(alg, 4):
        for lam, k in product((Fraction(2), Fraction(-1, 3)), (1, 2, 3)):
            B = to_explicit(band_module(alg, b, lam, k))
            for w, S in strings:
                for X, Y in ((S, B), (B, S)):
                    for kind in ("inj", "surj"):
                        seed = probe_seed(alg, str(w), str(b), str(lam), str(k), kind)
                        got = exists_full_rank_hom(X, Y, kind, seed)
                        assert got == ref_exists_full_rank_hom(X, Y, kind, seed), (
                            str(w), str(b), lam, k, kind)
                        verdicts.add((kind, got))
    assert verdicts == {(kind, v) for kind in ("inj", "surj") for v in (True, False)}


# zero four times over, so that empty, single-entry and multi-entry lines
# all occur in matrices of up to 3 x 3
_ENTRIES = (0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3))


@st.composite
def _random_rep(draw, alg):
    """A representation of alg's quiver (relations not imposed) with vertex
    dims 0-3, so that arrows with a zero-dimensional end occur too."""
    dims = {v: draw(st.integers(0, 3)) for v in alg.vertices}
    entry = st.sampled_from(_ENTRIES).map(Fraction)
    mats = tuple(sorted(
        (a.name, tuple(tuple(draw(entry) for _ in range(dims[a.source]))
                       for _ in range(dims[a.target])))
        for a in alg.arrows))
    return ExplicitRep(alg, tuple(dims.items()), mats)


@pytest.mark.parametrize("name", ["kronecker", "two_loops"])  # two_loops has loops
def test_random_hand_built_reps_match_reference(name, data_dir):
    alg = load_algebra(data_dir / f"{name}.alg")

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(_random_rep(alg), _random_rep(alg))
    def check(A, B):
        _assert_same(A, B)
        for kind, seed in product(("inj", "surj"), (1, 2, 3)):
            assert exists_full_rank_hom(A, B, kind, seed) == ref_exists_full_rank_hom(A, B, kind, seed)

    check()


def _rep(alg, dims, mats):
    return ExplicitRep(alg, tuple(dims.items()),
                       tuple((name, _F(rows)) for name, rows in sorted(mats.items())))


def test_hand_built_zero_classes_merge_and_mixed_lines(kronecker, two_loops):
    third = Fraction(-1, 3)
    # the loops a and g force x = f_1 and y = f_2 to zero (one term each),
    # then b ties -y = -1/3 x: a union of two zero classes, which frees nothing
    A = _rep(two_loops, {"1": 1, "2": 1}, {"a": [[2]], "b": [[-1]], "g": [[1]]})
    B = _rep(two_loops, {"1": 1, "2": 1}, {"a": [[0]], "b": [[third]], "g": [[0]]})
    assert hom_dim_linalg(A, B) == ref_hom_dim(A, B) == 0
    _assert_same(A, B)
    # the row of B_b with two entries meets the column of A_b with one:
    # a stage-2 equation beside the stage-1 ones of a
    A = _rep(kronecker, {"1": 1, "2": 1}, {"a": [[third]], "b": [[2]]})
    B = _rep(kronecker, {"1": 2, "2": 1}, {"a": [[0, 0]], "b": [[Fraction(1, 2), third]]})
    _assert_same(A, B)
    _assert_same(B, A)


def _dense_mats(M):
    """The dense Fraction matrices of a string or band module, built entry
    by entry into zero matrices, sorted by arrow name."""
    if isinstance(M, BandModuleRep):
        entries = oracle._band_entries(M)
    else:
        slot = oracle._slots(M.walk.vertices, 1)
        entries = [(a, slot[t - 1], slot[f - 1], 1) for a, ts in M.arrow_actions for f, t in ts]
    dims = M.dims()
    mats = {a.name: [[_ZERO] * dims[a.source] for _ in range(dims[a.target])]
            for a in M.alg.arrows}
    for name, r, c, v in entries:
        mats[name][r][c] += v
    return tuple(sorted((name, tuple(map(tuple, m))) for name, m in mats.items()))


@pytest.mark.parametrize("name", ALGEBRAS)
def test_module_reps_equal_reps_built_from_their_matrices(name, data_dir):
    # to_explicit builds the view from the nonzero entries and the dense
    # matrices only when read; ExplicitRep(alg, dims, mats) builds the view
    # from the matrices: both give one rep
    alg = load_algebra(data_dir / f"{name}.alg")
    modules = [string_module(alg, w) for w in enumerate_strings(alg, 6)]
    modules += [band_module(alg, b, lam, k) for b in enumerate_bands(alg, 6)
                for lam in (Fraction(1), Fraction(2), Fraction(-1, 2)) for k in (1, 2, 3)]
    assert modules
    for M in modules:
        rep = to_explicit(M)
        view = rep.view
        assert "mats" not in rep.__dict__
        assert repr(rep.mats) == repr(_dense_mats(M))
        hand = ExplicitRep(alg, rep.dims, rep.mats)
        assert hand.view == view
        assert rep == hand and hash(rep) == hash(hand) and repr(rep) == repr(hand)


def test_separate_loads_solve_without_dense_matrices(data_dir, kronecker, a2):
    one, other = (load_algebra(data_dir / "gentle5.alg") for _ in range(2))
    assert one.arrows is not other.arrows
    ws = enumerate_strings(one, 3)
    reps = [to_explicit(string_module(alg, w)) for alg in (one, other) for w in ws]
    for A, B in zip(reps[:len(ws)], reps[len(ws):]):
        assert hom_dim_linalg(A, B) == len(hom_solution_basis(B, A))
        exists_full_rank_hom(A, B, "inj", 1)
    assert not any("mats" in rep.__dict__ for rep in reps)
    A = to_explicit(string_module(kronecker, parse_walk(kronecker, "e:1")))
    B = to_explicit(string_module(a2, parse_walk(a2, "e:1")))
    with pytest.raises(OracleError, match="different algebras"):
        hom_dim_linalg(A, B)
    assert "mats" not in A.__dict__ and "mats" not in B.__dict__


def _combined_points(A, B, seed):
    """The 8 probe points sum c_k x_k over the reference basis, in
    Fractions, with the draws of exists_full_rank_hom, as {index: value}
    over the unknowns."""
    _, _, offsets, adims, bdims = _ref_system(A, B)
    basis = ref_hom_solution_basis(A, B)
    rng = random.Random(seed)
    points = []
    for _ in range(8):
        point = {}
        for coeff, vec in zip([rng.randint(-999, 999) for _ in basis], basis):
            for v, mat in vec.items():
                for r, row in enumerate(mat):
                    for c, x in enumerate(row):
                        i = offsets[v] + r * adims[v] + c
                        point[i] = point.get(i, 0) + coeff * x
        points.append(point)
    return points


def _positive_multiple(new, old) -> bool:
    new = {i: v for i, v in new.items() if v}
    old = {i: v for i, v in old.items() if v}
    if new.keys() != old.keys():
        return False
    t = Fraction(new[min(old)], old[min(old)]) if old else Fraction(1)
    return t > 0 and all(new[i] == t * v for i, v in old.items())


def _assert_probes_agree(cases, monkeypatch):
    """The basis equals the reference basis, each point exists_full_rank_hom
    ranks is a positive multiple of the combined reference-basis point with
    the same draws, and both give one verdict."""
    meets, drawn = oracle._meets, []
    monkeypatch.setattr(oracle, "_meets", lambda point, blocks: (
        drawn.append((point, blocks)) or meets(point, blocks)))
    verdicts = set()
    for A, B, kind, seed in cases:
        assert hom_solution_basis(A, B) == ref_hom_solution_basis(A, B)
        drawn.clear()
        got = exists_full_rank_hom(A, B, kind, seed)
        verdicts.add(got)
        if not drawn:  # decided by the dimensions alone
            continue
        ref = _combined_points(A, B, seed)
        blocks = drawn[0][1]
        assert all(_positive_multiple(point, r) for (point, _), r in zip(drawn, ref))
        hits = [meets(r, blocks) for r in ref]
        assert got == any(hits)
        assert len(drawn) == (hits.index(True) + 1 if got else 8)
    assert verdicts == {True, False}


def test_probe_points_are_multiples_of_combined_basis_points_on_lemma_probes(data_dir, monkeypatch):
    # every probe the lemma suite makes at length 10 (the `crosscheck` lemma ops)
    cases = []
    probe = lemmas.exists_full_rank_hom
    monkeypatch.setattr(lemmas, "exists_full_rank_hom",
                        lambda A, B, kind, seed: cases.append((A, B, kind, seed)) or probe(A, B, kind, seed))
    for name in ("a12tilde", "two_loops", "kronecker"):
        lemmas.run_lemma_suite(load_algebra(data_dir / f"{name}.alg"), 10)
    assert len(cases) == 90
    monkeypatch.undo()
    _assert_probes_agree(cases, monkeypatch)


def test_probe_points_are_multiples_of_combined_basis_points_on_random_gentle(monkeypatch):
    rng = random.Random(5)
    cases = []
    while len(cases) < 100:
        alg = random_gentle_presentation(rng)
        bands = enumerate_bands(alg, 6)
        if not bands:
            continue
        w = rng.choice(enumerate_strings(alg, 4))
        lam, k = rng.choice((Fraction(1), Fraction(2), Fraction(-1, 2))), rng.randint(1, 3)
        S = to_explicit(string_module(alg, w))
        B = to_explicit(band_module(alg, rng.choice(bands), lam, k))
        cases += [(S, B, "inj", rng.randrange(2 ** 32)), (B, S, "surj", rng.randrange(2 ** 32))]
    _assert_probes_agree(cases, monkeypatch)


def test_probe_points_are_multiples_of_combined_basis_points_on_band_pairs(data_dir, monkeypatch):
    # band against band, a band against itself at another lambda among them:
    # the probe points lift over non-unit ratios, past classes forced to
    # zero and through stage-2 rows (k = 2)
    rng = random.Random(7)
    cases, stage2, ratios, zeros = [], 0, 0, 0
    for name in [n for n in ALGEBRAS if n != "a2"]:
        alg = load_algebra(data_dir / f"{name}.alg")
        bands = [to_explicit(band_module(alg, b, lam, k))
                 for b in enumerate_bands(alg, 4)
                 for lam in (Fraction(1), Fraction(2), Fraction(-1, 2)) for k in (1, 2)]
        for A, B in product(bands, repeat=2):
            _, pivots, parent, ratio, zero, _ = oracle._solve(A, B)
            stage2 += bool(pivots)
            ratios += any(f != 1 for f in ratio)
            zeros += any(zero)
            cases += [(A, B, kind, rng.randrange(2 ** 32)) for kind in ("inj", "surj")]
    assert stage2 and ratios and zeros
    _assert_probes_agree(cases, monkeypatch)


def test_matrix_rank_of_int_rows_equals_fraction_rows():
    rng = random.Random(3)
    deficient = 0
    for _ in range(400):
        n, m = rng.randint(0, 6), rng.randint(0, 6)
        mat = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 6)) for _ in range(m)] for _ in range(n)]
        rank = ref_matrix_rank(mat)
        assert matrix_rank(mat) == matrix_rank([[Fraction(x) for x in row] for row in mat]) == rank
        deficient += rank < min(n, m)
    assert deficient
