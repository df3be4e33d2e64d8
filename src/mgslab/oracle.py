"""Brute-force Hom computation between explicit quiver representations.

Independent of the substring calculus: representations are plain matrices
over exact rationals and Hom dimensions come from solving the intertwiner
equations f_t phi_a(A) = phi_a(B) f_s in exact arithmetic.  Each rep holds,
per arrow, the LCM of its matrix's denominators and the columns and the
rows of its matrix times that LCM (``ExplicitRep.view``) as three lists:
the single-entry lines as (line, position, value), the empty lines, and
the multi-entry lines with their entries.  ``to_explicit`` builds the view
in one pass over the module's nonzero entries and derives the dense
Fraction matrices (``ExplicitRep.mats``) only when they are read; a rep
built from matrices reaches the same builder through their nonzeros.
Equation (r, c) of an arrow pairs column c of A_a with row r of B_a; it
is scaled by the product of the two LCMs, so its coefficients are Python
ints.  The solvers walk pairs of these lists and never visit an equation
whose two lines are empty.

One setup serves every solver (``_frame``): the same-algebra check, which
tries identity before comparing the quiver tuples, and the offsets of the
unknowns.  One kernel (``_solve``) then solves the pair in one walk over
the arrows, skipping an arrow s -> t when dim A(s) or dim B(t) is 0 (it
has no equations).  At each arrow it takes its equations in two stages.

1. Union-find.  An equation between a column and a row with at most one
   nonzero each reads ``u x_p = w x_q`` or ``u x_p = 0``; every equation
   of a string module, and of a band module M(w, lambda, 1), has this
   form.  A weighted union-find keeps, in lists indexed by unknown p, its
   parent, a rational rho_p != 0 with x_p = rho_p x_parent (1 at a root,
   and written only when not 1), and whether its class (read at the root)
   is forced to zero.  A one-term equation (a single-entry line against
   an empty one) forces the class of its unknown to zero.  A single-entry
   column against a single-entry row merges the two classes with the
   ratio it fixes, under the larger root (so a root is the largest
   unknown of its class), or, if they are already one class whose ratios
   disagree (a loop arrow, or a band against itself at another lambda),
   forces that class to zero.  A zero class stays zero through later
   merges, since every ratio is nonzero, so the order of the equations
   does not matter.  The solutions of these equations are exactly the
   vectors with one free parameter x_root per class not forced to zero:
   each such class contributes one dimension.
2. Elimination.  The equations with a multi-entry line (a Jordan block
   of size k >= 2 puts two nonzeros in a column) are kept until the walk
   ends, then rewritten over the class roots, x_p = rho_p x_root, with the
   zero classes dropped; they only constrain the free roots.  They are
   scaled to ints and eliminated, and dim Hom (``hom_dim_linalg``) is the
   number of free classes minus their rank.

The elimination, also behind ``matrix_rank``, is fraction free: reducing
a row against a pivot replaces it by b * row - a * pivot (a, b the two
leading coefficients over their gcd), divided by its content gcd.  That
keeps the row space, so back substitution over the integer pivots from
int free coordinates gives the rational null vector with those
coordinates times some int m > 0.

``hom_solution_basis`` and ``exists_full_rank_hom`` lift int values at
the free roots (the roots of free classes that are not stage-2 pivots)
to a solution (``_null_space``): back substitution gives the other
roots, x_p = rho_p x_root the rest, and the LCM of the ratios'
denominators makes it ints.  A solution's values at the unknowns >= j
are fixed by those at the roots >= j, so the free roots are the free
columns of the whole system's echelon form (pivot = least column), and
the basis vector with a 1 at one of them is the one its elimination
gives.  Full rank is decided by maximizing matrix ranks at 8 points from
random int values c_k: m times sum c_k x_k (x_k the basis vector of the
k-th free root), so with the ranks and verdicts of rational sampling.

``to_explicit`` checks that every relation path acts by zero by carrying
basis vectors along the sparse columns of the view.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .algebra import AlgebraPresentation, sha256
from .modules import BandModuleRep, StringModuleRep

Matrix = tuple[tuple[Fraction, ...], ...]
Pivots = dict[int, tuple[int, dict[int, int]]]  # see _echelon_insert

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

    def _fields(self) -> tuple:
        return self.vertices, self.arrows, self.relations, self.dims, self.mats

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        alg = AlgebraPresentation(self.vertices, self.arrows, self.relations)
        return f"ExplicitRep(alg={alg!r}, dims={self.dims!r}, mats={self.mats!r})"

    @cached_property
    def mats(self) -> tuple[tuple[str, Matrix], ...]:
        """The dense matrices, sorted by arrow name: read off the view for a
        rep that ``to_explicit`` built."""
        dims, mats = self.view[0], []
        for a, (s, t, den, _, (singles, _, multis)) in zip(self.arrows, self.view[1]):
            m = [[_ZERO] * dims[s] for _ in range(dims[t])]
            for r, line in _full(singles, multis):
                for c, v in line:
                    m[r][c] = Fraction(v, den)
            mats.append((a.name, tuple(map(tuple, m))))
        return tuple(sorted(mats))

    @cached_property
    def view(self):
        """The dims in vertex order and, per arrow in ``arrows`` order, its
        source and target index, the LCM of its matrix's denominators and
        the lines of that matrix times the LCM, by column and by row (see
        ``_view``).  Raises OracleError unless each arrow has a matrix of
        dims[target] rows of dims[source] entries, and the matrices are named
        for the arrows, each once."""
        dims = dict(self.dims)
        if set(dims) != set(self.vertices):
            raise OracleError("vertex sets differ")
        mats, cells = dict(self.mats), {}
        for a in self.arrows:
            ncols, nrows = dims[a.source], dims[a.target]
            m = mats.get(a.name)
            if m is None or [len(row) for row in m] != [ncols] * nrows:
                raise OracleError(f"arrow {a.name} needs a {nrows} x {ncols} matrix")
            cells[a.name] = {(r, c): Fraction(x) for r, row in enumerate(m)
                             for c, x in enumerate(row) if x}
        if len(self.mats) != len(self.arrows):  # every arrow's matrix was found
            raise OracleError("matrix names differ from the arrow names")
        return _view(self.vertices, self.arrows, dims, cells)


def _view(vertices, arrows, dims, cells):
    """``ExplicitRep.view`` from the dims by vertex and, per arrow name, the
    entries {(row, column): value} of its matrix that may be nonzero (ints
    or Fractions; an arrow with none may be missing)."""
    out = []
    for a in arrows:
        ncols, nrows = dims[a.source], dims[a.target]
        den, flat = _scaled(sorted((k, v) for k, v in cells.get(a.name, {}).items() if v))
        cols, rows = [[] for _ in range(ncols)], [[] for _ in range(nrows)]
        for (r, c), v in flat.items():
            rows[r].append((c, v))
            cols[c].append((r, v))
        out.append((vertices.index(a.source), vertices.index(a.target), den,
                    _lines(cols), _lines(rows)))
    return tuple(dims[v] for v in vertices), tuple(out)


def _lines(lines):
    """Columns (or rows) as (singles, empties, multis): the (line,
    position, value) of each line with one nonzero, the lines with none,
    and the (line, ((position, value), ...)) of each line with several."""
    singles, empties, multis = [], [], []
    for i, e in enumerate(lines):
        if not e:
            empties.append(i)
        elif len(e) == 1:
            singles.append((i, *e[0]))
        else:
            multis.append((i, tuple(e)))
    return tuple(singles), tuple(empties), tuple(multis)


def _full(singles, multis):
    """The (line, ((position, value), ...)) of every nonempty line (see
    ``_lines``)."""
    return [(i, ((p, v),)) for i, p, v in singles] + list(multis)


def _scaled(nonzeros) -> tuple[int, dict]:
    """Pairs (key, value) of nonzero ints or Fractions as (the LCM of the
    denominators, {key: value times that LCM}, all ints)."""
    den = lcm(*(v.denominator for _, v in nonzeros))
    return den, {j: v.numerator * (den // v.denominator) for j, v in nonzeros}


def matrix_rank(mat) -> int:
    """The rank of a matrix of ints or rationals; a row of ints is
    eliminated as it is, any other row is first scaled to ints."""
    pivots: Pivots = {}
    rank = 0
    for raw in mat:
        row = {j: x for j, x in enumerate(raw) if x}
        if any(type(x) is not int for x in row.values()):
            row = _scaled([(j, Fraction(x)) for j, x in row.items()])[1]
        rank += _echelon_insert(pivots, row)
    return rank


def _echelon_insert(pivots: Pivots, row: dict[int, int]) -> bool:
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


def to_explicit(M: StringModuleRep | BandModuleRep) -> ExplicitRep:
    """Expand a string or band module into honest matrices and verify that
    every relation path acts by zero (a nonzero product is a bug upstream).
    The view is built from the module's nonzero entries; the dense matrices
    wait until ``mats`` is read."""
    if not isinstance(M, (StringModuleRep, BandModuleRep)):
        raise OracleError(f"cannot expand {type(M).__name__}")
    cells = {a.name: {} for a in M.alg.arrows}
    for name, r, c, v in _entries(M):
        cell = cells[name]
        cell[r, c] = cell.get((r, c), 0) + v
    rep = ExplicitRep.__new__(ExplicitRep)
    rep.vertices, rep.arrows, rep.relations = M.alg.vertices, M.alg.arrows, M.alg.relations
    rep.dims = M.dim_vector
    rep.view = _view(rep.vertices, rep.arrows, M.dims(), cells)
    _check_relations(rep)
    return rep


def _entries(M: StringModuleRep | BandModuleRep):
    """The (arrow, row, column, value) entries of M(w) or M(w, lambda, k).
    Each visited position of w has k basis slots at its vertex (k = 1 for
    a string; a band's last vertex is its first position), numbered at
    each vertex in walk order.  Each letter is an identity block from its
    source position's slots to its target's; a band's last letter, which
    closes the walk, carries the lower triangular Jordan block J_k(lambda)
    instead (J_k(1/lambda) if the letter is inverse)."""
    band = isinstance(M, BandModuleRep)
    w, k = M.walk, M.k if band else 1
    n = w.length if band else w.length + 1  # visited positions
    slot, seen = [], {}
    for v in w.vertices[:n]:
        slot.append(seen.get(v, 0))
        seen[v] = slot[-1] + k
    entries = []
    for i, (arrow, bit) in enumerate(w.letters):
        src, dst = i, (i + 1) % n
        if bit:
            src, dst = dst, src
        jordan = i == n - 1  # only a band's last letter closes the walk
        diag = (1 / M.lam if bit else M.lam) if jordan else 1
        for j in range(k):
            entries.append((arrow, slot[dst] + j, slot[src] + j, diag))
            if jordan and j + 1 < k:
                entries.append((arrow, slot[dst] + j + 1, slot[src] + j, 1))
    return entries


def _check_relations(rep: ExplicitRep) -> None:
    """Raise OracleError unless every relation path acts by zero: the image
    of each basis vector at the path's start is carried along the sparse
    columns of the view (scaled matrices, so the same zeros) until it
    vanishes or the path ends."""
    cols = {a.name: dict(_full(sing, multi))
            for a, (_, _, _, (sing, _, multi), _) in zip(rep.arrows, rep.view[1])}
    for r in rep.relations:
        images = cols[r[0]].values()
        for name in r[1:]:
            col, out = cols[name], []
            for image in images:
                acc = {}
                for p, v in image:
                    for q, w in col.get(p, ()):
                        acc[q] = acc.get(q, 0) + v * w
                if any(acc.values()):
                    out.append(acc.items())
            images = out
        if images:
            raise OracleError(f"relation {' '.join(r)} acts nonzero")


def _frame(A, B):
    """The setup of one pair: the dims of A and B, per vertex index v the
    offset of the unknowns (entry f_v[r][c] of the (B-dim x A-dim) matrix
    at v has index offs[v] + r * adims[v] + c, of ``total``) and the
    arrows of the two views side by side.  Raises OracleError unless A and
    B live over one algebra."""
    if not (A.vertices is B.vertices and A.arrows is B.arrows and A.relations is B.relations
            or (A.vertices, A.arrows, A.relations) == (B.vertices, B.arrows, B.relations)):
        raise OracleError("representations live over different algebras")
    (adims, aview), (bdims, bview) = A.view, B.view
    offs, total = [], 0
    for da, db in zip(adims, bdims):
        offs.append(total)
        total += da * db
    return adims, bdims, offs, total, zip(aview, bview)


def _rows(ot, os_, ns, nt, fa, fb, acols, brows):
    """The integer row {index: coefficient} of each equation (r, c) of an
    arrow s -> t with a line of several nonzeros: the index of f_t[r][0]
    joins the nonzeros of column c of A_a (times fa) and the index of
    f_s[0][c] those of row r of B_a (times fb).  Here ot and os_ are
    offs[t] and offs[s], ns and nt are dim A(s) and dim A(t) (see
    ``_frame``), acols and brows the lines of A_a and B_a in the views,
    and fa * aden = fb * bden (``_solve`` passes fa = bden, fb = aden)."""
    (asing, aempty, amulti), (bsing, bempty, bmulti) = acols, brows
    brows = _full(bsing, bmulti) + [(r, ()) for r in bempty]
    for c, aline in _full(asing, amulti) + [(c, ()) for c in aempty]:
        for r, bline in brows if len(aline) > 1 else bmulti:
            row = {ot + r * nt + m: fa * v for m, v in aline}
            for m, v in bline:
                key = os_ + m * ns + c
                nv = row.get(key, 0) - fb * v
                if nv:
                    row[key] = nv
                else:  # a loop: f_v[r][c] on both sides cancels
                    del row[key]
            yield row


def _find(parent, ratio, p):
    """The root of p and x_p / x_root, compressing the path."""
    path = []
    while parent[p] != p:
        path.append(p)
        p = parent[p]
    f = 1
    for q in reversed(path):
        f *= ratio[q]
        parent[q], ratio[q] = p, f
    return p, f


def _solve(A: ExplicitRep, B: ExplicitRep):
    """Both stages for the pair (see the module docstring): dim Hom, the
    echelon pivots of the stage-2 rows over the class roots, the lists
    parent, ratio and zero, and the offsets of the unknowns (``_frame``)."""
    adims, bdims, offs, total, arrows = _frame(A, B)
    parent = list(range(total))
    ratio = [1] * total  # x_p / x_parent[p], written only when not 1
    zero = [False] * total  # per root: its class is forced to zero
    free = total  # the classes not forced to zero
    later = []  # stage 2: the equations with a multi-entry line
    for (s, t, aden, acols, _), (_, _, bden, _, brows) in arrows:
        ns = adims[s]
        if not (ns and bdims[t]):
            continue
        ot, os_, nt = offs[t], offs[s], adims[t]
        (asing, aempty, amulti), (bsing, bempty, bmulti) = acols, brows
        if bempty:  # one term: the class of x_p is zero
            for _, p0, _ in asing:
                for r in bempty:
                    p = parent[ot + r * nt + p0]
                    if parent[p] != p:
                        p = _find(parent, ratio, p)[0]
                    if not zero[p]:
                        zero[p] = True
                        free -= 1
        if aempty:
            for _, q0, _ in bsing:
                for c in aempty:
                    p = parent[os_ + q0 * ns + c]
                    if parent[p] != p:
                        p = _find(parent, ratio, p)[0]
                    if not zero[p]:
                        zero[p] = True
                        free -= 1
        if amulti or bmulti:
            later += _rows(ot, os_, ns, nt, bden, aden, acols, brows)
        for r, q0, bv in bsing:
            base_t, base_s, rhs0 = ot + r * nt, os_ + q0 * ns, aden * bv
            for c, p0, av in asing:
                p, q = base_t + p0, base_s + c
                rp, fp = parent[p], ratio[p]  # a root has ratio 1
                if parent[rp] != rp:
                    rp, fp = _find(parent, ratio, p)
                rq, fq = parent[q], ratio[q]
                if parent[rq] != rq:
                    rq, fq = _find(parent, ratio, q)
                lhs, rhs = bden * av * fp, rhs0 * fq  # lhs x_rp = rhs x_rq
                if rp != rq:
                    if rq > rp:  # the larger unknown stays a root
                        rp, rq = rq, rp
                        lhs, rhs = rhs, lhs
                    parent[rq] = rp
                    if lhs != rhs:
                        ratio[rq] = Fraction(lhs, rhs)
                    if not zero[rq]:
                        free -= 1
                    elif not zero[rp]:
                        zero[rp] = True
                        free -= 1
                elif lhs != rhs and not zero[rp]:
                    zero[rp] = True
                    free -= 1
    pivots: Pivots = {}
    for raw in later:
        row = {}
        for p, v in raw.items():
            root, f = _find(parent, ratio, p)
            if not zero[root]:
                row[root] = row.get(root, 0) + v * f
        den = lcm(*(v.denominator for v in row.values()))
        free -= _echelon_insert(pivots, {p: int(v * den) for p, v in row.items() if v})
    return free, pivots, parent, ratio, zero, offs


def hom_dim_linalg(A: ExplicitRep, B: ExplicitRep) -> int:
    """Dimension of Hom(A, B): the free stage-1 classes minus the rank of
    the stage-2 rows (see the module docstring)."""
    return _solve(A, B)[0]


def _null_space(A: ExplicitRep, B: ExplicitRep):
    """The free roots of the pair, ascending, the offsets of the unknowns,
    and ``point``: int values x at the free roots to a pair (m, X) of an
    int m > 0 and the int vector X = m y, y the solution equal to x there,
    by back substitution and the lift (see the module docstring)."""
    _, pivots, parent, ratio, zero, offs = _solve(A, B)
    # (p, root, rho_p); x never holds a zero class's root, so the class lifts to 0
    lifts = [(p, *_find(parent, ratio, p)) for p in range(len(parent))]
    den = lcm(*(f.denominator for _, _, f in lifts))
    lifts = [(p, root, int(f * den)) for p, root, f in lifts]
    order = sorted(pivots, reverse=True)

    def point(x):
        m = 1
        for p in order:
            lead, tail = pivots[p]
            acc = sum(v * x[c] for c, v in tail.items() if c in x)
            if acc:
                g = gcd(acc, lead)
                if g != lead:
                    m *= lead // g
                    x = {c: lead // g * v for c, v in x.items()}
                x[p] = -acc // g
        return m * den, {p: v for p, root, f in lifts if (v := f * x.get(root, 0))}

    free = [p for p, root, _ in lifts if p == root and not zero[p] and p not in pivots]
    return free, offs, point


def hom_solution_basis(A: ExplicitRep, B: ExplicitRep):
    """Basis of the intertwiner space as per-vertex matrices: per free
    root, ascending, the solution with a 1 there and 0 at the others."""
    free, offs, point = _null_space(A, B)
    adims, bdims = A.view[0], B.view[0]
    return [
        {v: tuple(tuple(Fraction(x.get(o + r * da + c, 0), m) for c in range(da))
                  for r in range(db))
         for v, da, db, o in zip(A.vertices, adims, bdims, offs)}
        for m, x in (point({f: 1}) for f in free)
    ]


def probe_seed(alg: AlgebraPresentation, *context: str) -> int:
    """Deterministic seed for rank probes, derived from the algebra
    fingerprint so reruns cannot change results."""
    h = sha256(("|".join((alg.fingerprint,) + context)).encode())
    return int.from_bytes(h.digest()[:8], "big")


def exists_full_rank_hom(A: ExplicitRep, B: ExplicitRep, kind: str, seed: int) -> bool:
    """Whether some intertwiner is injective (kind='inj') or surjective
    (kind='surj') at every vertex: ranks at 8 pseudo-random points of the
    solution space (see the module docstring); max rank is generic, so
    repetition bounds false negatives."""
    if kind not in ("inj", "surj"):
        raise ValueError("kind must be 'inj' or 'surj'")
    adims, bdims = A.view[0], B.view[0]
    goals, bigger = (adims, bdims) if kind == "inj" else (bdims, adims)
    if any(g > d for g, d in zip(goals, bigger)):
        return False
    free, offs, point = _null_space(A, B)
    if not free:
        return not any(goals)
    blocks = [(o, da, db, g) for o, da, db, g in zip(offs, adims, bdims, goals) if g]
    import random

    rng = random.Random(seed)
    return any(_meets(point({f: rng.randint(-999, 999) for f in free})[1], blocks)
               for _ in range(8))


def _meets(point, blocks) -> bool:
    """Whether the point's matrix at each block (o, da, db, g) of unknowns,
    entry [r][c] at index o + r * da + c, has rank >= g."""
    return all(matrix_rank([[point.get(o + r * da + c, 0) for c in range(da)]
                            for r in range(db)]) >= g
               for o, da, db, g in blocks)


def end_dim(M: ExplicitRep) -> int:
    return hom_dim_linalg(M, M)
