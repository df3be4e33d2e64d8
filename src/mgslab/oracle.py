"""Brute-force Hom computation between explicit quiver representations.

Independent of the substring calculus: representations are plain matrices
over exact rationals and Hom dimensions come from solving the intertwiner
equations f_t phi_a(A) = phi_a(B) f_s by sparse Gaussian elimination.

The elimination is exact and fraction free: each equation is scaled by the
LCM of the denominators in its arrow's two matrices into a dict of Python
ints, and reducing a row against a pivot replaces it by b * row - a * pivot
(a, b the two leading coefficients over their gcd), divided by its content
gcd.  Nonzero scalings keep the row space, hence the rank and the pivot
columns, and a null-space vector is fixed by its free coordinates, so back
substitution over the integer pivots returns the same rational basis as
rational elimination.

Injectivity/surjectivity of some intertwiner is decided by maximizing
matrix ranks at pseudo-random rational points of the solution space, or
exactly at a symbolic generic point in certified mode.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .algebra import AlgebraPresentation
from .modules import BandModuleRep, StringModuleRep

Matrix = tuple[tuple[Fraction, ...], ...]

_ZERO = Fraction(0)


class OracleError(Exception):
    pass


class ExplicitRep:
    """Matrices per arrow, of shape (n_target, n_source), over the quiver's
    defining tuples: no ``alg``, so a memoised rep does not refer back to it."""

    def __init__(self, alg: AlgebraPresentation, dims: tuple[tuple[str, int], ...],
                 mats: tuple[tuple[str, Matrix], ...]):
        self.vertices, self.arrows, self.relations = alg.vertices, alg.arrows, alg.relations
        self.dims, self.mats = dims, mats

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.vertices, self.arrows, self.relations, self.dims, self.mats)
                == (other.vertices, other.arrows, other.relations, other.dims, other.mats))

    def __hash__(self) -> int:
        return hash((self.vertices, self.arrows, self.relations, self.dims, self.mats))

    def __repr__(self) -> str:
        alg = AlgebraPresentation(self.vertices, self.arrows, self.relations)
        return f"ExplicitRep(alg={alg!r}, dims={self.dims!r}, mats={self.mats!r})"

    @cached_property
    def sparse(self) -> dict[str, tuple[int, dict, dict]]:
        """Per arrow: the LCM of its matrix's denominators, and the matrix
        times that LCM by column and by row, as index -> ((position, int
        value), ...) over the columns and rows holding a nonzero."""
        out = {}
        for name, m in self.mats:
            den, flat = _scaled(x for row in m for x in row)
            ncols = len(m[0]) if m else 0
            cols, rows = {}, {}
            for j, v in flat.items():
                r, c = divmod(j, ncols)
                rows[r] = rows.get(r, ()) + ((c, v),)
                cols[c] = cols.get(c, ()) + ((r, v),)
            out[name] = (den, dict(sorted(cols.items())), rows)
        return out


def _zero_matrix(rows: int, cols: int) -> list[list[Fraction]]:
    return [[_ZERO] * cols for _ in range(rows)]


def _freeze(m: list[list[Fraction]]) -> Matrix:
    return tuple(tuple(row) for row in m)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = _zero_matrix(rows, cols)
    for i in range(rows):
        for kk in range(inner):
            if a[i][kk]:
                aik = a[i][kk]
                for j in range(cols):
                    if b[kk][j]:
                        out[i][j] += aik * b[kk][j]
    return _freeze(out)


def _scaled(values) -> tuple[int, dict[int, int]]:
    """A row of rationals as (the LCM of its denominators, its nonzeros
    times that LCM as a sparse dict of ints)."""
    nz = [(j, Fraction(v)) for j, v in enumerate(values) if v]
    den = lcm(*(v.denominator for _, v in nz))
    return den, {j: v.numerator * (den // v.denominator) for j, v in nz}


def matrix_rank(mat) -> int:
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    return sum(_echelon_insert(pivots, _scaled(raw)[1]) for raw in mat)


def _echelon_insert(pivots: dict[int, tuple[int, dict[int, int]]], row: dict[int, int]) -> bool:
    """Reduce an integer sparse row (consumed) against the echelon pivots,
    fraction free; install what survives as a new pivot, stored as its
    leading coefficient (positive) and the rest of the row, with content 1.
    Returns True when the rank grows."""
    while row:
        p = min(row)
        if p not in pivots:
            lead = row.pop(p)
            g = gcd(lead, *row.values()) * (1 if lead > 0 else -1)
            pivots[p] = (lead // g, {c: v // g for c, v in row.items()})
            return True
        lead, tail = pivots[p]
        b = row.pop(p)
        g = gcd(lead, b)
        scale, b = lead // g, b // g
        if scale != 1:
            row = {c: scale * v for c, v in row.items()}
        for c, v in tail.items():
            nv = row.get(c, 0) - b * v
            if nv:
                row[c] = nv
            else:
                del row[c]
        if scale != 1:
            g = gcd(*row.values())
            if g > 1:
                row = {c: v // g for c, v in row.items()}
    return False


def _basis_from_pivots(pivots: dict[int, tuple[int, dict[int, int]]], ncols: int) -> list[dict[int, Fraction]]:
    """Sparse nullspace basis, one vector per free column, by back
    substitution in exact rationals."""
    pivot_cols = sorted(pivots)
    free_cols = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free_cols:
        x: dict[int, Fraction] = {f: Fraction(1)}
        for p in reversed(pivot_cols):
            lead, tail = pivots[p]
            acc = sum(v * x[c] for c, v in tail.items() if c in x)
            if acc:
                x[p] = -acc / lead
        basis.append(x)
    return basis


def to_explicit(M: StringModuleRep | BandModuleRep) -> ExplicitRep:
    """Expand a string or band module into honest matrices and verify that
    every relation path acts by zero (a nonzero product is a bug upstream)."""
    if isinstance(M, StringModuleRep):
        rep = _string_to_explicit(M)
    elif isinstance(M, BandModuleRep):
        rep = _band_to_explicit(M)
    else:
        raise OracleError(f"cannot expand {type(M).__name__}")
    _check_relations(rep)
    return rep


def _slots(vertices, k: int) -> dict[int, int]:
    """Per visited position (0-based), the first of its k basis slots at its
    vertex, positions in walk order."""
    slot, seen = {}, {}
    for p, v in enumerate(vertices):
        slot[p] = seen.get(v, 0)
        seen[v] = slot[p] + k
    return slot


def _string_to_explicit(M: StringModuleRep) -> ExplicitRep:
    alg = M.alg
    dims = dict(M.dim_vector)
    slot = _slots(M.walk.vertices, 1)
    arrow_actions = dict(M.arrow_actions)
    mats = {}
    for a in alg.arrows:
        m = _zero_matrix(dims[a.target], dims[a.source])
        for p_from, p_to in arrow_actions.get(a.name, ()):
            m[slot[p_to - 1]][slot[p_from - 1]] = Fraction(1)
        mats[a.name] = _freeze(m)
    return ExplicitRep(alg, M.dim_vector, tuple(sorted(mats.items())))


def _band_to_explicit(M: BandModuleRep) -> ExplicitRep:
    """Identity blocks along the band, and on the last letter the lower
    triangular Jordan block J_k(lambda) (J_k(1/lambda) if it is inverse)."""
    alg = M.alg
    w, lam, k = M.walk, M.lam, M.k
    d = w.length
    dims = dict(M.dim_vector)
    slot = _slots(w.vertices[:-1], k)
    mats = {a.name: _zero_matrix(dims[a.target], dims[a.source]) for a in alg.arrows}
    for i, letter in enumerate(w.letters):
        src, dst = i, (i + 1) % d
        if letter.sign < 0:
            src, dst = dst, src
        last = i == d - 1
        diag = (lam if letter.sign > 0 else 1 / lam) if last else Fraction(1)
        target = mats[letter.arrow]
        r0, c0 = slot[dst], slot[src]
        for j in range(k):
            target[r0 + j][c0 + j] += diag
            if last and j + 1 < k:
                target[r0 + j + 1][c0 + j] += 1
    return ExplicitRep(
        alg,
        M.dim_vector,
        tuple(sorted((name, _freeze(m)) for name, m in mats.items())),
    )


def _check_relations(rep: ExplicitRep) -> None:
    mats = dict(rep.mats)
    for r in rep.relations:
        prod = mats[r[0]]
        for name in r[1:]:
            prod = mat_mul(mats[name], prod)
        if any(any(x for x in row) for row in prod):
            raise OracleError(f"relation {' '.join(r)} acts nonzero")


def _hom_system(A: ExplicitRep, B: ExplicitRep):
    """Sparse integer rows of the system for {f_v} with f_t A_a = B_a f_s
    per arrow a, one per nonempty equation, the equations of an arrow
    scaled by the LCM of the denominators in A_a and B_a.

    Unknown (v, r, c) is entry f_v[r][c] of the (B-dim x A-dim) matrix at v.
    Equation (r, c) of arrow a reads column c of A_a and row r of B_a, so
    only the pairs where one of the two holds a nonzero are visited.
    """
    if (A.vertices, A.arrows, A.relations) != (B.vertices, B.arrows, B.relations):
        raise OracleError("representations live over different algebras")
    adims, bdims = dict(A.dims), dict(B.dims)
    if set(adims) != set(bdims):
        raise OracleError("vertex sets differ")
    offsets: dict[str, int] = {}
    total = 0
    for v in A.vertices:
        offsets[v] = total
        total += bdims[v] * adims[v]

    rows = []
    for arr in A.arrows:
        s, t = arr.source, arr.target
        aden, acols, _ = A.sparse[arr.name]
        bden, _, brows = B.sparse[arr.name]
        den = lcm(aden, bden)
        fa, fb = den // aden, den // bden
        ns, base_s = adims[s], offsets[s]
        for r in range(bdims[t]):
            bnz = brows.get(r, ())
            base_t = offsets[t] + r * adims[t]
            for c in range(ns) if bnz else acols:
                row = {base_t + m: fa * v for m, v in acols.get(c, ())}
                for m, v in bnz:
                    key = base_s + m * ns + c
                    nv = row.get(key, 0) - fb * v
                    if nv:
                        row[key] = nv
                    else:  # a loop: f_v[r][c] on both sides cancels
                        del row[key]
                if row:
                    rows.append(row)
    return rows, total, offsets, adims, bdims


def hom_dim_linalg(A: ExplicitRep, B: ExplicitRep) -> int:
    """Dimension of Hom(A, B): unknowns minus the rank of the intertwiner
    system, by exact elimination."""
    rows, total, *_ = _hom_system(A, B)
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    return total - sum(_echelon_insert(pivots, row) for row in rows)


def hom_solution_basis(A: ExplicitRep, B: ExplicitRep):
    """Basis of the intertwiner space as per-vertex matrices."""
    rows, total, offsets, adims, bdims = _hom_system(A, B)
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for row in rows:
        _echelon_insert(pivots, row)
    return [
        {v: tuple(tuple(vec.get(offsets[v] + r * adims[v] + c, _ZERO)
                        for c in range(adims[v])) for r in range(bdims[v]))
         for v in A.vertices}
        for vec in _basis_from_pivots(pivots, total)
    ]


def probe_seed(alg: AlgebraPresentation, *context: str) -> int:
    """Deterministic seed for rank probes, derived from the algebra
    fingerprint so reruns cannot change results."""
    import hashlib

    h = hashlib.sha256(("|".join((alg.fingerprint,) + context)).encode())
    return int.from_bytes(h.digest()[:8], "big")


def _combine(basis, coeffs, vertices):
    out = {}
    for v in vertices:
        rows = len(basis[0][v])
        cols = len(basis[0][v][0]) if rows else 0
        m = _zero_matrix(rows, cols)
        for coeff, vec in zip(coeffs, basis):
            if not coeff:
                continue
            mv = vec[v]
            for r in range(rows):
                for c in range(cols):
                    if mv[r][c]:
                        m[r][c] += coeff * mv[r][c]
        out[v] = _freeze(m)
    return out


def _rank_goal_met(fmap, goals) -> bool:
    return all(matrix_rank(fmap[v]) >= g for v, g in goals.items() if g)


def exists_full_rank_hom(
    A: ExplicitRep,
    B: ExplicitRep,
    kind: str,
    seed: int,
    certified: bool = False,
) -> bool:
    """Whether some intertwiner is injective (kind='inj') or surjective
    (kind='surj') at every vertex.

    Sampled mode evaluates ranks at 8 pseudo-random rational points; max
    rank is generic, so repetition bounds false negatives.  Certified mode checks
    the rank at a symbolic generic point instead.
    """
    adims, bdims = dict(A.dims), dict(B.dims)
    goals = adims if kind == "inj" else bdims
    if kind not in ("inj", "surj"):
        raise ValueError("kind must be 'inj' or 'surj'")
    if kind == "inj" and any(adims[v] > bdims[v] for v in adims):
        return False
    if kind == "surj" and any(bdims[v] > adims[v] for v in bdims):
        return False
    basis = hom_solution_basis(A, B)
    if not basis:
        return all(g == 0 for g in goals.values())
    if certified:
        return _generic_full_rank(basis, goals, A.vertices)
    import random

    rng = random.Random(seed)
    for _ in range(8):
        coeffs = [Fraction(rng.randint(-999, 999)) for _ in basis]
        fmap = _combine(basis, coeffs, A.vertices)
        if _rank_goal_met(fmap, goals):
            return True
    return False


def _generic_full_rank(basis, goals, vertices) -> bool:
    import sympy

    syms = sympy.symbols(f"c0:{len(basis)}")
    for v in vertices:
        goal = goals.get(v, 0)
        if not goal:
            continue
        rows = len(basis[0][v])
        cols = len(basis[0][v][0]) if rows else 0
        m = sympy.zeros(rows, cols)
        for s, vec in zip(syms, basis):
            for r in range(rows):
                for c in range(cols):
                    if vec[v][r][c]:
                        m[r, c] += s * sympy.Rational(vec[v][r][c])
        if m.rank() < goal:
            return False
    return True


def end_dim(M: ExplicitRep) -> int:
    return hom_dim_linalg(M, M)
