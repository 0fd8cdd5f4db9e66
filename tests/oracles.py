"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's simplex path so that agreement is
meaningful: Fourier-Motzkin elimination for feasibility, a rational grid
sweep for relative-interior membership in the plane, and a minor-by-minor
cofactor matrix.  The cofactors check integer_adjugate, the row-swapping
fraction-free inverse the library ran before, and integer_adjugate checks
the library's integer_inverse, one Bareiss _rref of [m | I].
The feasibility engine is checked against the earlier simplex that kept
every column of the tableau and its objective row in Fractions (in the same
shift-column layout), the
row-generated coface intersection against one solve of its whole strict
system and against the row generation that solved every round from the
first pivot (reference_relint_of_simplices).  The integer kernel_basis is
checked against reference_kernel_basis, a Fraction row reduction over a
QMatrix; the diagram that shephard_diagram takes from it against
reference_kernel_with_ones, the greedy rank loop that once built the
diagram; and the positive relation that prepare reads off the facet table
against reference_positive_relation, the LP over all m weights with one
equality row per coordinate, on the golden and sweep classes, where the two
agree, and against its contract, check_positive_relation, everywhere.  Each
facet tableau W / den of the facet table, reached by wall pivots, is checked by
A_sigma . W = den * A, against one integer_det of its minor A_sigma and
against reference_facet_inverses, the integer_inverse of every facet that
the table took before the walk, and its walls against reference_walls, the
scan of every facet pair that the support oracle ran before; and the
coface functionals it gives by
Gale duality against one barycentric inverse per coface, the route s_sigma
took through relint_intersection before.  The
puzzle classes are checked against a canonical key that tries every
copy permutation, an enumeration over every ordered offset tuple, and the
offset-multiset enumeration that checked every square of G(J) of every
candidate for realizability, where the library checks no square.
Edges are checked by is_edge, which solves for the shift between two fans
where the library shifts by the known difference of two offsets, and
AssignedPuzzle holds a fan at every vertex of G(J), so that tests can give
the library assignments that no base and offsets produce.

relint_intersection, integer_det, integer_adjugate with NotSquare,
verify_result, QMatrix with its helpers (matmul, transpose, is_zero, rank)
and matrix_from_fan live here because the library no longer calls them:
relint_intersection sends full simplices to the library's row generation
and any other family to an encoding with explicit barycentric variables,
the one the library used for them, the library inverts only square
matrices, through integer_inverse, and its kernels take and return integer
lists rather than a QMatrix.  projection, project_to_vertex and
fan_from_matrix, with their NotWedged and InvalidPuzzle, and is_realizable,
the projection round trip that enumeration once ran on every class, live
here because the docstring of assemble_matrix proves realizability and
enumerate_puzzles_keyed checks its one precondition instead.

The library's LP interface takes integer weak and strict rows only, and
returns integer numerators over one denominator.  Tests write rational
systems, with equality rows, as a RationalSystem: integer_system scales each
row to integers and turns each equality into two weak rows, solve_rational
solves that and maps the result back to Fractions in the caller's units, and
check_rational compares both with reference_strict_feasible.  Rational
simplices go to the library through rational_simplex_functionals, and
clear_denominators, which the library no longer calls, serves them all.
"""

from dataclasses import dataclass, replace
from functools import lru_cache
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd
from operator import mul
from typing import NamedTuple, Optional, Sequence

from toricwedge.exactmath import (
    DimensionMismatch,
    FeasibilityResult,
    InvariantViolation,
    StrictLinearSystem,
    _rref,
    _relint_of_simplices,
    _simplex_functionals,
    integer_inverse,
    make_primitive,
    strict_feasible,
)
from toricwedge.planefan import NoOppositeRay, PlaneFan, det2, enumerate_fans, opposite_position
from toricwedge.shephard import (
    NotComplete,
    PolytopalityCertificate,
    _coface_functionals,
    coface_indices,
    prepare,
    s_sigma,
    shephard_diagram,
)
from toricwedge.wedgepuzzle import (
    LabelMismatch,
    CharMatrix,
    WedgeSignature,
    _dihedral_maps,
    _transform_fan,
    assemble_matrix,
    build_complex,
    facet_table,
    gj_edges,
    gj_vertices,
    puzzle_canonical_key,
    shift,
)

Q = Fraction


def _qvec(v) -> tuple[Fraction, ...]:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in v)


@dataclass(frozen=True)
class QMatrix:
    """Immutable rational matrix, row-major.  0x0 and 0xN matrices are legal."""

    entries: tuple[tuple[Fraction, ...], ...]
    cols: int

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: Optional[int] = None) -> "QMatrix":
        rows = tuple(_qvec(r) for r in rows)
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise DimensionMismatch("ragged rows")
        elif cols is None:
            cols = 0
        return cls(rows, cols)

    @property
    def rows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.entries)


class NotSquare(ValueError):
    pass


def integer_det(m):
    """Exact determinant of an integer matrix via fraction-free (Bareiss)
    elimination, the minor check of the library before its facet table."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise NotSquare("matrix is not square")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def clear_denominators(values) -> tuple[list[int], int]:
    """(ints, scale): the smallest positive scale making every value
    integral, for ints and Fractions."""
    scale = 1
    for v in values:
        d = v.denominator
        if d != 1:
            scale = scale * d // gcd(scale, d)
    return [v.numerator * (scale // v.denominator) for v in values], scale


@dataclass(frozen=True)
class RationalSystem:
    """A linear system a.x = b / a.x <= b / a.x < b with exact rational
    entries: the general form that tests write, which the library's integer
    StrictLinearSystem does not take.  integer_system converts it and
    solve_rational solves it; verify_result, fourier_motzkin_feasible and
    reference_strict_feasible read it as it is."""

    dimension: int
    equalities: tuple = ()
    weak: tuple = ()
    strict: tuple = ()

    @classmethod
    def build(cls, dimension, equalities=(), weak=(), strict=()) -> "RationalSystem":
        def conv(cons):
            out = []
            for a, b in cons:
                a = _qvec(a)
                if len(a) != dimension:
                    raise DimensionMismatch(
                        f"constraint length {len(a)} != dimension {dimension}")
                out.append((a, Q(b)))
            return tuple(out)

        return cls(dimension, conv(equalities), conv(weak), conv(strict))


def integer_system(sys) -> StrictLinearSystem:
    """The integer StrictLinearSystem of a RationalSystem: each row scaled
    by the least positive integer that clears its denominators, and each
    equality a.x = b as the two weak rows a.x <= b and -a.x <= -b, ahead of
    the weak rows."""
    def scaled(a, b):
        ints, _ = clear_denominators([*a, b])
        return ints[:-1], ints[-1]

    weak = []
    for a, b in sys.equalities:
        a, b = scaled(a, b)
        weak += [(a, b), ([-v for v in a], -b)]
    weak += [scaled(a, b) for a, b in sys.weak]
    return StrictLinearSystem.build(sys.dimension, weak, [scaled(a, b) for a, b in sys.strict])


def fractions_of(pair) -> tuple[Fraction, ...]:
    """The Fractions of a library (numerators, den) pair."""
    nums, den = pair
    return tuple(Q(v, den) for v in nums)


def as_fractions(res):
    """A library FeasibilityResult with its witness, slack and barycentric
    (numerators, den) pairs as Fractions."""
    if not res.feasible:
        return res
    bary = res.barycentric
    return FeasibilityResult(True, fractions_of(res.witness), Q(*res.slack),
                             None if bary is None else tuple(map(fractions_of, bary)))


def as_pairs(values) -> tuple[tuple[int, ...], int]:
    """Rationals as the library's (numerators, den) pair in lowest terms."""
    ints, den = clear_denominators(values)
    return tuple(ints), den


def solve_rational(sys):
    """strict_feasible of a RationalSystem through integer_system, with the
    result in Fractions and in the caller's units: the slack is the least
    margin b - a.x over sys's own strict rows, or the optimal t when there
    is none."""
    res = as_fractions(strict_feasible(integer_system(sys)))
    if res.feasible and sys.strict:
        res = replace(res, slack=min(margins(sys, res.witness)))
    return res


def check_rational(sys):
    """solve_rational(sys) against the references: strict_feasible equals
    reference_strict_feasible on integer_system(sys), whole results
    compared; the verdict equals the reference's on sys itself, which
    differs from the converted system where it has equalities or rational
    rows; and the witness re-substitutes into sys.  Returns the result."""
    conv = integer_system(sys)
    assert as_fractions(strict_feasible(conv)) == reference_strict_feasible(conv)
    res = solve_rational(sys)
    assert res.feasible == reference_strict_feasible(sys).feasible
    assert verify_result(sys, res)
    return res


def verify_result(sys, res) -> bool:
    """Re-substitute a feasibility witness into every row of the system."""
    if not res.feasible:
        return res.witness is None
    x = res.witness
    dot = lambda a: sum((ai * xi for ai, xi in zip(a, x)), Q(0))
    # a StrictLinearSystem has no equality rows
    if any(dot(a) != b for a, b in getattr(sys, "equalities", ())):
        return False
    if any(dot(a) > b for a, b in sys.weak):
        return False
    return all(b - dot(a) >= res.slack > 0 for a, b in sys.strict)


class EmptyFamily(ValueError):
    pass


def relint_intersection(families, dimension=None):
    """Decide whether the relative interiors of the convex hulls intersect.

    Uses x in relint conv(S) iff x is a strictly positive convex combination
    of S.  When every family is a nonsingular full simplex (dim + 1
    affinely independent points) its barycentric functionals go to the
    library's row generation (_relint_of_simplices); otherwise the weights
    are explicit variables next to x (explicit_relint_intersection).
    Returns the witness x and one barycentric tuple per family, in input
    order.
    """
    fams = [tuple(_qvec(p) for p in fam) for fam in families]
    for fam in fams:
        if not fam:
            raise EmptyFamily("every family must contain at least one point")
    dim = len(fams[0][0]) if dimension is None else dimension
    for fam in fams:
        if any(len(p) != dim for p in fam):
            raise DimensionMismatch("families live in different ambient dimensions")
    if all(len(fam) == dim + 1 for fam in fams):
        simplices = [rational_simplex_functionals(fam) for fam in fams]
        if None not in simplices:
            return as_fractions(_relint_of_simplices(simplices, dim))
    return explicit_relint_intersection(fams, dim)


def rational_simplex_functionals(fam):
    """_simplex_functionals of a full simplex of rational points, as (rows,
    k) with lambda_j(x) = (rows[j] . (x, 1)) / k: the library takes the
    points scaled by the least s that clears their denominators, and
    scaling x by s scales the first dim entries of each row by s."""
    dim = len(fam[0])
    ints, s = clear_denominators([v for p in fam for v in p])
    simplex = _simplex_functionals([ints[i * dim:(i + 1) * dim] for i in range(len(fam))])
    if simplex is None:
        return None
    rows, k = simplex
    return [[s * v for v in r[:dim]] + [r[dim]] for r in rows], k


def explicit_relint_intersection(fams, dim):
    """The relint intersection with variables (x, every lambda): per family,
    x = sum lambda_j p_j, sum lambda_j = 1 and lambda_j > 0."""
    sizes = [len(fam) for fam in fams]
    offsets = []
    total = dim
    for s in sizes:
        offsets.append(total)
        total += s
    equalities = []
    strict = []
    for fi, fam in enumerate(fams):
        off = offsets[fi]
        for c in range(dim):
            row = [Q(0)] * total
            row[c] = Q(-1)
            for j, p in enumerate(fam):
                row[off + j] = p[c]
            equalities.append((row, Q(0)))
        row = [Q(0)] * total
        for j in range(len(fam)):
            row[off + j] = Q(1)
        equalities.append((row, Q(1)))
        for j in range(len(fam)):
            row = [Q(0)] * total
            row[off + j] = Q(-1)
            strict.append((row, Q(0)))
    res = solve_rational(RationalSystem.build(total, equalities, (), strict))
    if not res.feasible:
        return res
    w = res.witness
    bary = tuple(tuple(w[offsets[fi] + j] for j in range(sizes[fi])) for fi in range(len(fams)))
    return FeasibilityResult(True, w[:dim], res.slack, bary)


def integer_adjugate(m: Sequence[Sequence[int]]) -> Optional[tuple[list[list[int]], int]]:
    """(adj(m), det(m)) of a nonsingular integer matrix, or None if singular,
    the library's inverse before integer_inverse.

    One fraction-free Gauss-Jordan elimination of [m | I]: every entry stays
    an integer minor, the left block ends as d*I and the right block as
    d*m^-1 = +-adj(m), where d is the determinant of the row-swapped matrix.
    """
    n = len(m)
    if any(len(r) != n for r in m):
        raise NotSquare("matrix is not square")
    a = [list(map(int, r)) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    sign = 1
    prev = 1
    for k in range(n):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return None
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pk = a[k]
        pv = pk[k]
        for i in range(n):
            if i != k:
                ri = a[i]
                f = ri[k]
                if f:
                    a[i] = [(pv * x - f * y) // prev for x, y in zip(ri, pk)]
                elif pv != prev:
                    a[i] = [pv * x // prev for x in ri]
        prev = pv
    return [[sign * x for x in r[n:]] for r in a], sign * prev


def cofactor_matrix(m):
    """Cofactor matrix of a square integer matrix, one minor per entry.

    cof[r][c] = (-1)^(r+c) det(m without row r and column c), so
    adj(m)[c][r] == cof[r][c].
    """
    n = len(m)
    cof = [[0] * n for _ in range(n)]
    for r in range(n):
        rows = [row for i, row in enumerate(m) if i != r]
        for c in range(n):
            minor = [row[:c] + row[c + 1:] for row in rows]
            cof[r][c] = (-1) ** (r + c) * integer_det(minor)
    return cof


def _reference_rref(rows):
    """Reduced row echelon form over Fractions; returns (rows, pivot columns)."""
    rows = [[Q(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_rank(m):
    return len(_reference_rref(m.entries)[1])


def rank(m):
    """Rank of a QMatrix by the library's fraction-free row reduction, each
    row scaled to integers first."""
    return len(_rref([clear_denominators(r)[0] for r in m.entries])[1])


def matmul(a, b):
    """The product a.b of two QMatrix values."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.rows}x{a.cols} times {b.rows}x{b.cols}")
    return QMatrix.from_rows(
        [[sum((r[k] * b.entries[k][j] for k in range(a.cols)), Q(0)) for j in range(b.cols)]
         for r in a.entries],
        cols=b.cols)


def transpose(m):
    return QMatrix.from_rows([list(m.column(j)) for j in range(m.cols)], cols=m.rows)


def is_zero(m):
    return all(x == 0 for r in m.entries for x in r)


def matrix_from_fan(fan):
    """The 2 x m characteristic matrix of a plane fan, one column (i, 1) per ray."""
    labels = tuple((i, 1) for i in range(1, fan.m + 1))
    return CharMatrix(labels, (tuple(x for x, _ in fan.rays), tuple(y for _, y in fan.rays)))


def reference_kernel_basis(m):
    """Kernel basis from the Fraction RREF, one column per free coordinate."""
    rows, pivots = _reference_rref(m.entries)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * m.cols
        v[f] = Q(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return QMatrix.from_rows(
        [[basis[j][i] for j in range(len(basis))] for i in range(m.cols)],
        cols=len(basis),
    )


def reference_kernel_with_ones(m):
    """A kernel basis of m with the all-ones vector as its last column, by
    greedy extension of {ones} with independent kernel columns, one rank
    computation per candidate column."""
    if m.cols == 0:
        return QMatrix.from_rows([], cols=0)
    ones = [Q(1)] * m.cols
    if any(sum(r, Q(0)) != 0 for r in m.entries):
        raise ValueError("row sums of the input are not all zero")
    kern = reference_kernel_basis(m)
    selected = [ones]
    picked = QMatrix.from_rows([ones], cols=m.cols)
    for j in range(kern.cols):
        if len(selected) == kern.cols:
            break
        cand = list(kern.column(j))
        trial = QMatrix.from_rows(list(picked.entries) + [cand], cols=m.cols)
        if reference_rank(trial) == len(selected) + 1:
            selected.append(cand)
            picked = trial
    order = selected[1:] + [selected[0]]  # ones column last
    return QMatrix.from_rows(
        [[order[j][i] for j in range(len(order))] for i in range(m.cols)],
        cols=len(order),
    )


def reference_positive_relation(generators):
    """A positive relation by the LP over all m weights: {c_i >= 1,
    sum c_i u_i = 0}, with one equality row per coordinate.  It follows
    Bland's path, so on some fans it is another relation than the one
    positive_relation reads off the facet table."""
    gens = list(generators)
    m = len(gens)
    dim = len(gens[0]) if gens else 0
    equalities = [([g[c] for g in gens], 0) for c in range(dim)]
    weak = [([-int(j == i) for j in range(m)], -1) for i in range(m)]
    res = solve_rational(RationalSystem.build(m, equalities, weak, ()))
    if not res.feasible:
        raise NotComplete("generators admit no positive zero-sum relation")
    return tuple(make_primitive(clear_denominators(res.witness)[0]))


def check_positive_relation(prep):
    """Assert the contract of prep.weights: one weight per label, every
    weight >= 1, gcd 1 and sum c_i u_i = 0."""
    c = prep.weights
    gens = [prep.generators[lab] for lab in prep.labels]
    assert len(c) == len(gens) and min(c) >= 1 and gcd(*c) == 1, c
    assert not any(sum(w * g[r] for w, g in zip(c, gens)) for r in range(len(gens[0]))), c


def _reference_clear_denominators(values):
    scale = 1
    for v in values:
        scale = scale * Q(v).denominator // gcd(scale, Q(v).denominator)
    return [int(Q(v) * scale) for v in values], scale


class _ReferenceSimplex:
    """Integer-row simplex with Bland's rule whose objective row is a list of
    Fractions; every row operation updates the tableau entry by entry."""

    def __init__(self, rows, basis, ncols):
        self.t = rows
        self.basis = basis
        self.ncols = ncols

    def set_objective(self, objective):
        obj = list(objective) + [Q(0)]
        for i, b in enumerate(self.basis):
            if obj[b]:
                f = obj[b] / self.t[i][b]
                for j, v in enumerate(self.t[i]):
                    if v:
                        obj[j] -= f * v
        self.obj = obj

    def maximize(self):
        t, basis, obj = self.t, self.basis, self.obj
        while True:
            entering = next((j for j in range(self.ncols) if obj[j] > 0), -1)
            if entering < 0:
                return -obj[-1]
            leaving = -1
            bnum = bden = 0
            for i in range(len(t)):
                piv = t[i][entering]
                if piv > 0:
                    rhs = t[i][-1]
                    if leaving < 0:
                        leaving, bnum, bden = i, rhs, piv
                    else:
                        cmp = rhs * bden - bnum * piv
                        if cmp < 0 or (cmp == 0 and basis[i] < basis[leaving]):
                            leaving, bnum, bden = i, rhs, piv
            if leaving < 0:
                raise ArithmeticError("unbounded objective in simplex phase")
            self.pivot(leaving, entering)

    def pivot(self, row, col):
        t = self.t
        prow = t[row]
        if prow[col] < 0:
            if prow[-1] != 0:
                raise InvariantViolation("negative pivot on a row with nonzero rhs")
            prow = [-x for x in prow]
            t[row] = prow
        pv = prow[col]
        for i in range(len(t)):
            ri = t[i]
            f = ri[col]
            if i == row or not f:
                continue
            for j in range(len(ri)):
                ri[j] = pv * ri[j] - f * prow[j]
            g = 0
            for v in ri:
                g = gcd(g, v)
            if g > 1:
                for j in range(len(ri)):
                    ri[j] //= g
        f = self.obj[col]
        if f:
            fq = f / pv
            for j, v in enumerate(prow):
                self.obj[j] -= fq * v
        self.basis[row] = col

    def solution(self):
        out = [Q(0)] * self.ncols
        for i, b in enumerate(self.basis):
            out[b] = Q(self.t[i][-1], self.t[i][b])
        return out


def reference_strict_feasible(sys):
    """strict_feasible as a two-phase simplex over _ReferenceSimplex, with the
    same tableau layout (x = x' - mu*1, one shift column) and pivot rule, and
    the slack summed in Fractions."""
    dim = sys.dimension
    nx = dim + 2
    t_col = dim + 1
    raw = []
    for a, b in getattr(sys, "equalities", ()):  # none in a StrictLinearSystem
        raw.append(([*a, -sum(a, Q(0)), Q(0)], b, "eq"))
    for a, b in sys.weak:
        raw.append(([*a, -sum(a, Q(0)), Q(0)], b, "le"))
    for a, b in sys.strict:
        raw.append(([*a, -sum(a, Q(0)), Q(1)], b, "le"))
    raw.append(([Q(0)] * (dim + 1) + [Q(1)], Q(1), "le"))

    nslack = sum(1 for r in raw if r[2] == "le")
    need_art = [kind == "eq" or rhs < 0 for _, rhs, kind in raw]
    nart = sum(need_art)
    ncols = nx + nslack + nart
    rows = []
    basis = []
    si = ai = 0
    for idx, (coef, rhs, kind) in enumerate(raw):
        line, scale = _reference_clear_denominators(coef + [rhs])
        rhs_i = line.pop()
        line += [0] * (nslack + nart)
        slack_col = None
        if kind == "le":
            line[nx + si] = scale
            slack_col = nx + si
            si += 1
        if rhs_i < 0:
            line = [-x for x in line]
            rhs_i = -rhs_i
        if need_art[idx]:
            art_col = nx + nslack + ai
            line[art_col] = 1
            basis.append(art_col)
            ai += 1
        else:
            basis.append(slack_col)
        rows.append(line + [rhs_i])
    tab = _ReferenceSimplex(rows, basis, ncols)

    if nart:
        phase1 = [Q(0)] * ncols
        for j in range(nx + nslack, ncols):
            phase1[j] = Q(-1)
        tab.set_objective(phase1)
        if tab.maximize() != 0:
            return FeasibilityResult(False)
        for i in range(len(tab.t)):
            if tab.basis[i] >= nx + nslack:
                col = next((j for j in range(nx + nslack) if tab.t[i][j] != 0), None)
                if col is not None:
                    tab.pivot(i, col)
        live = [i for i in range(len(tab.t)) if tab.basis[i] < nx + nslack]
        tab.t = [tab.t[i][: nx + nslack] + [tab.t[i][-1]] for i in live]
        tab.basis = [tab.basis[i] for i in live]
        tab.ncols = nx + nslack

    phase2 = [Q(0)] * tab.ncols
    phase2[t_col] = Q(1)
    tab.set_objective(phase2)
    topt = tab.maximize()
    if topt <= 0:
        return FeasibilityResult(False)
    sol = tab.solution()
    witness = tuple(sol[j] - sol[dim] for j in range(dim))
    margins = [b - sum((ai_ * xi for ai_, xi in zip(a, witness)), Q(0))
               for a, b in sys.strict]
    slack = min(margins) if margins else topt
    return FeasibilityResult(True, witness, slack)


def simplex_strict_system(families, dim):
    """The whole strict system of relint_intersection's full-simplex
    encoding, with the functionals it came from: (system, simplices), where
    the system has one primitive row per distinct barycentric functional of
    every family, in family order.  None when some family is not a
    nonsingular full simplex."""
    if any(len(fam) != dim + 1 for fam in families):
        return None
    simplices = [rational_simplex_functionals(fam) for fam in families]
    if None in simplices:
        return None
    strict = []
    seen = set()
    for rows, _ in simplices:
        for row in rows:
            # lambda_j(x) > 0  <=>  -row[:dim] . x < row[dim]
            key = tuple(make_primitive([-v for v in row[:dim]] + [row[dim]]))
            if key not in seen:
                seen.add(key)
                strict.append((key[:dim], key[dim]))
    return StrictLinearSystem.build(dim, (), strict), simplices


def reference_relint_intersection(families, dimension=None):
    """relint_intersection's full-simplex encoding as one solve of the whole
    strict system, where the library generates rows as they are violated.
    Families that are not all full simplices go to the explicit-variable
    encoding, which row generation does not touch."""
    dim = len(families[0][0]) if dimension is None else dimension
    full = simplex_strict_system(families, dim)
    if full is None:
        return relint_intersection(families, dimension)
    return solve_strict_system(*full, dim)


def reference_relint_of_simplices(simplices, dim):
    """_relint_of_simplices as it was before the warm start: the same row
    generation, with every round solved from the first pivot by
    strict_feasible on the rows generated so far."""
    rows = []  # (a, b) with lambda_j(x) > 0  <=>  a . x < b
    index = {}
    members = []  # per family, the indices of its rows
    for fam_rows, _ in simplices:
        own = []
        for row in fam_rows:
            key = tuple(make_primitive([-v for v in row[:dim]] + [row[dim]]))
            if key not in index:
                index[key] = len(rows)
                rows.append((key[:dim], key[dim]))
            own.append(index[key])
        members.append(own)
    active = {own[0] for own in members}
    while True:
        res = strict_feasible(StrictLinearSystem.build(
            dim, (), [rows[i] for i in sorted(active)]))
        if not res.feasible:
            return res
        xs, scale = res.witness
        margins = [b * scale - sum(map(mul, a, xs)) for a, b in rows]
        worst = {min(own, key=lambda i: (margins[i], i)) for own in members}
        violated = {i for i in worst if margins[i] <= 0}
        if not violated:
            break
        active |= violated
    # lambda_j = (r . (xs, scale)) / (k * scale), one Fraction each
    bary = tuple(tuple(Q(sum(map(mul, r, xs)) + r[dim] * scale, k * scale) for r in fam_rows)
                 for fam_rows, k in simplices)
    slack = Q(min(margins), scale) if rows else Q(*res.slack)
    return FeasibilityResult(True, fractions_of(res.witness), slack, bary)


def solve_strict_system(sys, simplices, dim):
    """One solve of a whole strict system from simplex_strict_system, with
    each family's barycentric tuple from its functionals at the witness."""
    res = strict_feasible(sys)
    if not res.feasible:
        return res
    xs, scale = res.witness
    bary = tuple(tuple(Q(sum(r[c] * xs[c] for c in range(dim)) + r[dim] * scale, k * scale)
                       for r in rows)
                 for rows, k in simplices)
    return FeasibilityResult(True, fractions_of(res.witness), Q(*res.slack), bary)


def margins(sys, x):
    """b - a.x for every strict row (a, b) of sys."""
    xs, scale = clear_denominators(x)
    return [Q(b * scale - sum(ai * xi for ai, xi in zip(a, xs)), scale) for a, b in sys.strict]


def assert_relint_certificate(families, dim, res, sys=None):
    """A feasible relint_intersection result re-verified by substitution: the
    witness satisfies every row of the whole strict system (sys, built from
    the families when not given), the slack is the least margin over all
    rows, and each barycentric tuple is positive, sums to 1 and reproduces
    the witness."""
    if sys is None:
        sys, _ = simplex_strict_system(families, dim)
    assert verify_result(sys, res), "witness fails the whole strict system"
    assert res.slack == min(margins(sys, res.witness)), "slack is not the least margin"
    assert len(res.barycentric) == len(families)
    xs, xscale = clear_denominators(res.witness)
    for fam, lam in zip(families, res.barycentric):
        assert all(v > 0 for v in lam) and sum(lam) == 1
        # sum_p p * lam_p == x, over the common denominators of p, lam and x
        ps, pscale = clear_denominators([v for p in fam for v in p])
        ls, lscale = clear_denominators(lam)
        assert all(sum(ps[k * dim + c] * lv for k, lv in enumerate(ls)) * xscale
                   == xs[c] * pscale * lscale for c in range(dim))


def coface_families(diagram, facets):
    """The diagram points of each facet's coface, in label order."""
    return [[diagram.points[lab] for lab in sorted(coface_indices(diagram, f))]
            for f in facets]


def reference_facets(obj):
    """The maximal cones of an input as label sets, read from its shape:
    consecutive rays of a plane fan, the complex of a matrix's signature."""
    if isinstance(obj, PlaneFan):
        return [frozenset({i, i % obj.m + 1}) for i in range(1, obj.m + 1)]
    return list(build_complex(obj.signature_of()).facets)


@lru_cache(maxsize=1)
def library_shephard(obj):
    """(prepared, diagram, certificate): the prepared input, Shephard
    diagram and s_sigma certificate the library gives a valid input.  One
    entry is cached, so the references below, run one after the other on
    the same object, share them."""
    prep = prepare(obj)
    diagram = shephard_diagram(prep)
    return prep, diagram, s_sigma(diagram, prep.table)


@lru_cache(maxsize=1)
def reference_cofaces(obj):
    """(facets, families, system): the facets of a valid input, the points
    of each facet's coface in library_shephard's diagram, and
    simplex_strict_system of those families, None when some coface is not a
    nonsingular full simplex.  One entry is cached, like library_shephard's."""
    _, diagram, _ = library_shephard(obj)
    facets = reference_facets(obj)
    families = coface_families(diagram, facets)
    return facets, families, simplex_strict_system(families, diagram.ambient_dim)


def check_shephard_against_reference(obj):
    """Shephard verdict of obj from the library's s_sigma, asserted equal to
    the one-shot reference's, with a feasible certificate re-verified by
    substitution into the whole strict system."""
    facets, families, full = reference_cofaces(obj)
    _, diagram, cert = library_shephard(obj)
    ok = cert.kind == "interior-point"
    dim = diagram.ambient_dim
    ref = relint_intersection(families, dim) if full is None else \
        solve_strict_system(*full, dim)
    assert ok == ref.feasible, f"Shephard verdict {ok} differs from the reference's"
    if ok:
        bary = tuple(cert.barycentric[tuple(sorted(f))] for f in facets)
        assert_relint_certificate(
            families, dim, as_fractions(FeasibilityResult(True, cert.point, cert.slack, bary)),
            None if full is None else full[0])
    return ok


def check_nonsingular(mat, cx) -> bool:
    """True iff every facet minor of the matrix is +-1, read from the
    library's facet table over the facets of cx."""
    if set(mat.labels) != set(cx.labels):
        raise LabelMismatch("matrix labels do not match the complex")
    return facet_table({lab: mat.column(lab) for lab in mat.labels}, cx.facets).unimodular


def reference_facet_inverses(generators: dict, facets) -> tuple:
    """The facet table before the wall walk: for each facet, the
    integer_inverse (N, den) of its generator matrix, the columns of the
    facet's generators in label order, one elimination per facet.  None
    when the matrix is singular or not square."""
    n = len(next(iter(generators.values())))
    return tuple(
        integer_inverse([[generators[lab][c] for lab in sorted(f)] for c in range(n)])
        if len(f) == n else None for f in facets)


def reference_walls(facets) -> tuple:
    """The walls as the support oracle found them before the wall graph: a
    scan of every pair fi < fj of facets for those that share all labels
    but one, giving (fi, the label of fj outside fi)."""
    sets = [frozenset(f) for f in facets]
    return tuple((fi, next(iter(sets[fj] - sets[fi])))
                 for fi in range(len(sets)) for fj in range(fi + 1, len(sets))
                 if len(sets[fi]) == len(sets[fj]) == len(sets[fi] & sets[fj]) + 1)


def check_tableaux_against_inverses(generators: dict, facets) -> int:
    """The library's facet table against reference_facet_inverses and
    reference_walls: the same sorted facets and walls, a tableau exactly
    where the facet matrix A_sigma is nonsingular, and then den =
    |integer_det(A_sigma)|, A_sigma . W = den * A and W = N . A for the
    reference (N, den), with A the generator matrix in the table's column
    order.  Returns the number of tableaux compared."""
    table = facet_table(generators, facets)
    assert list(table) == [tuple(sorted(f)) for f in facets]
    assert table.walls == reference_walls(facets)
    assert sorted(table.columns.values()) == list(range(len(generators)))
    labels = sorted(table.columns, key=table.columns.get)
    assert set(labels) == set(generators)
    n = len(next(iter(generators.values())))
    a = [[generators[lab][c] for lab in labels] for c in range(n)]
    compared = 0
    for facet, tab, inv in zip(table.facets, table.tableaux,
                               reference_facet_inverses(generators, facets)):
        assert (tab is None) == (inv is None), f"facet {facet}: tableau {tab}, inverse {inv}"
        if tab is None:
            continue
        w, den = tab
        a_sigma = [[generators[lab][c] for lab in facet] for c in range(n)]
        assert den == inv[1] == abs(integer_det(a_sigma))
        assert [[sum(map(mul, row, col)) for col in zip(*w)] for row in a_sigma] == \
            [[den * x for x in row] for row in a]
        assert w == [[sum(map(mul, row, col)) for col in zip(*a)] for row in inv[0]]
        compared += 1
    return compared


def reference_check_nonsingular(mat, cx) -> bool:
    """True iff every facet minor of the matrix is +-1, one integer_det per
    facet: the minor check before the facet table."""
    if set(mat.labels) != set(cx.labels):
        raise LabelMismatch("matrix labels do not match the complex")
    col = {lab: idx for idx, lab in enumerate(mat.labels)}
    for facet in cx.facets:
        idxs = sorted(col[lab] for lab in facet)
        if len(idxs) != mat.n:
            return False
        minor = [[mat.rows[r][c] for c in idxs] for r in range(mat.n)]
        if abs(integer_det(minor)) != 1:
            return False
    return True


def reference_s_sigma(diagram, facets):
    """s_sigma before the facet table: the coface point families go to
    relint_intersection, which inverts one barycentric matrix per coface."""
    return _reference_certificate(
        relint_intersection(coface_families(diagram, facets),
                            dimension=diagram.ambient_dim), facets)


def _reference_certificate(res, facets):
    """The certificate of a relint_intersection result in Fractions, with
    the library's (numerators, den) pairs."""
    if not res.feasible:
        return PolytopalityCertificate(kind="empty-witness")
    bary = {tuple(sorted(f)): as_pairs(lam) for f, lam in zip(facets, res.barycentric)}
    return PolytopalityCertificate(kind="interior-point", point=as_pairs(res.witness),
                                   barycentric=bary,
                                   slack=(res.slack.numerator, res.slack.denominator))


def _same_functionals(a, b) -> bool:
    """Whether two (rows, k) simplices give the same functionals as
    rationals: row_a / k_a == row_b / k_b, cross-multiplied in integers."""
    (rows_a, ka), (rows_b, kb) = a, b
    return len(rows_a) == len(rows_b) and all(
        len(ra) == len(rb) and all(x * kb == y * ka for x, y in zip(ra, rb))
        for ra, rb in zip(rows_a, rows_b))


def check_facet_table_against_reference(obj):
    """The facet table and the Gale functionals of a valid input against the
    routes they replaced: the table is unimodular, every facet tableau
    passes check_tableaux_against_inverses, every coface functional
    equals the one _simplex_functionals computes from the coface's points,
    exactly as rationals, and s_sigma gives the certificate that the
    reference gives from those functionals, as relint_intersection did.
    Returns the number of coface functionals compared."""
    facets, _, full = reference_cofaces(obj)
    prep, diagram, cert = library_shephard(obj)
    table, gens = prep.table, prep.generators
    assert list(table) == [tuple(sorted(f)) for f in facets]
    assert table.unimodular
    if not isinstance(obj, PlaneFan):
        assert reference_check_nonsingular(obj, build_complex(obj.signature_of()))
    assert table == facet_table(gens, facets)
    assert check_tableaux_against_inverses(gens, facets) == len(facets)
    gale = _coface_functionals(diagram, table)
    assert full is not None, "some coface is not a nonsingular full simplex"
    wants = full[1]
    assert len(gale) == len(wants)
    compared = 0
    for simplex, want in zip(gale, wants):
        assert _same_functionals(simplex, want), "coface functionals differ"
        compared += len(want[0])
    ref = _reference_certificate(
        as_fractions(_relint_of_simplices(wants, diagram.ambient_dim)), facets)
    assert cert == ref, "Shephard certificate differs from the reference's"
    return compared


def fourier_motzkin_feasible(system) -> bool:
    """Decide a StrictLinearSystem by eliminating variables one at a time.

    Rows are (coeffs, rhs, strict_flag) meaning coeffs.x < rhs (strict) or
    coeffs.x <= rhs.  Equalities enter as two opposite weak inequalities.
    Rows are kept primitive and dominated parallel rows are dropped, with the
    cheapest variable (fewest pos*neg combinations) eliminated first.  A row
    with all-zero coefficients that its right-hand side contradicts
    (0 < r with r <= 0, or 0 <= r with r < 0) proves infeasibility at once,
    since every later row set still implies it.
    """
    rows = []
    for a, b in getattr(system, "equalities", ()):  # none in a StrictLinearSystem
        rows.append(_primitive(list(a), b, False))
        rows.append(_primitive([-c for c in a], -b, False))
    for a, b in system.weak:
        rows.append(_primitive(list(a), b, False))
    for a, b in system.strict:
        rows.append(_primitive(list(a), b, True))
    rows = _dominance_filter(rows)

    remaining = list(range(system.dimension))
    while remaining:
        if _contradicted(rows):
            return False
        counts = []
        for var in remaining:
            pos = sum(1 for c, _, _ in rows if c[var] > 0)
            neg = sum(1 for c, _, _ in rows if c[var] < 0)
            counts.append((pos * neg, var))
        _, var = min(counts)
        remaining.remove(var)

        pos, neg, rest = [], [], []
        for coeffs, rhs, st in rows:
            c = coeffs[var]
            if c > 0:
                pos.append((coeffs, rhs, st))
            elif c < 0:
                neg.append((coeffs, rhs, st))
            else:
                rest.append((coeffs, rhs, st))
        new_rows = rest
        for pc, pr, pst in pos:
            for nc, nr, nst in neg:
                cp = pc[var]
                cn = -nc[var]
                coeffs = [a * cn + b * cp for a, b in zip(pc, nc)]
                rhs = pr * cn + nr * cp
                new_rows.append(_primitive(coeffs, rhs, pst or nst))
        rows = _dominance_filter(new_rows)
        if len(rows) > 200000:
            raise RuntimeError("Fourier-Motzkin oracle blew up")

    return not _contradicted(rows)


def _contradicted(rows) -> bool:
    """Whether some row with all-zero coefficients has an impossible bound."""
    return any((rhs <= 0 if st else rhs < 0)
               for coeffs, rhs, st in rows if not any(coeffs))


def _primitive(coeffs, rhs, strict):
    """Scale a row to primitive integer coefficients (rhs stays rational)."""
    scale = 1
    for v in coeffs:
        f = Q(v)
        scale = scale * f.denominator // gcd(scale, f.denominator)
    ints = [int(Q(v) * scale) for v in coeffs]
    rhs = Q(rhs) * scale
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
        rhs = rhs / g
    return ints, rhs, strict


def _dominance_filter(rows):
    """Keep, per direction, only the tightest bound; constant rows verbatim."""
    best = {}
    consts = []
    for coeffs, rhs, st in rows:
        if all(c == 0 for c in coeffs):
            consts.append((coeffs, rhs, st))
            continue
        key = tuple(coeffs)
        prev = best.get(key)
        if prev is None:
            best[key] = (coeffs, rhs, st)
        else:
            _, prhs, pst = prev
            # smaller rhs is stronger; at equal rhs strict beats weak
            if rhs < prhs or (rhs == prhs and st and not pst):
                best[key] = (coeffs, rhs, st)
    return list(best.values()) + consts


def grid_relint_intersection_2d(families, denom=24, span=6):
    """Search a rational grid for a common relative-interior point in the plane.

    Returns True when some grid point lies in every family's relint; a miss
    proves nothing on its own, so tests use this one-sidedly.
    """
    pts = [Q(k, denom) for k in range(-span * denom, span * denom + 1)]
    for x, y in product(pts, pts):
        if all(_in_relint_2d((x, y), fam) for fam in families):
            return True
    return False


def _in_relint_2d(point, fam):
    """Exact relint-membership for <=3 affinely independent points in the plane."""
    fam = [tuple(Q(c) for c in p) for p in fam]
    if len(fam) == 1:
        return tuple(point) == fam[0]
    if len(fam) == 2:
        (ax, ay), (bx, by) = fam
        px, py = point
        # collinear and strictly between
        if (bx - ax) * (py - ay) != (by - ay) * (px - ax):
            return False
        d = (px - ax) * (bx - ax) + (py - ay) * (by - ay)
        n = (bx - ax) ** 2 + (by - ay) ** 2
        return 0 < d < n
    if len(fam) == 3:
        (ax, ay), (bx, by), (cx, cy) = fam
        px, py = point
        det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        if det == 0:
            raise ValueError("degenerate triangle not supported by the grid oracle")
        l1 = ((bx - px) * (cy - py) - (cx - px) * (by - py)) / det
        l2 = ((cx - px) * (ay - py) - (ax - px) * (cy - py)) / det
        l3 = 1 - l1 - l2
        return l1 > 0 and l2 > 0 and l3 > 0
    raise ValueError("grid oracle handles at most 3 points per family")


class NotWedged(ValueError):
    pass


class InvalidPuzzle(ValueError):
    pass


def fan_from_matrix(mat: CharMatrix) -> PlaneFan:
    if mat.n != 2:
        raise ValueError("matrix does not describe a plane fan")
    order = sorted(mat.labels)
    return PlaneFan(tuple((mat.column(l)[0], mat.column(l)[1]) for l in order))


def projection(mat: CharMatrix, label) -> CharMatrix:
    """Delete one vertex copy by pivoting, the projection of a wedge matrix.

    Deleting the lowest copy of a color pivots on the wedge row of the
    retained sibling so that the sibling takes over the base column; deleting
    any other copy just removes its own row.  Remaining copies renumber down.
    """
    i, k = label
    copies = sorted(c for (a, c) in mat.labels if a == i)
    if len(copies) < 2:
        raise NotWedged(f"color {i} has a single copy")
    if label not in mat.labels:
        raise LabelMismatch(f"no column labeled {label}")
    col = {lab: idx for idx, lab in enumerate(mat.labels)}
    target = col[label]
    if k == copies[0]:
        sibling = col[(i, copies[1])]
        pivot_rows = [r for r in range(mat.n) if mat.rows[r][sibling] != 0]
    else:
        pivot_rows = [r for r in range(mat.n) if mat.rows[r][target] != 0]
    if len(pivot_rows) != 1 or abs(mat.rows[pivot_rows[0]][target]) != 1:
        raise InvalidPuzzle("matrix is not in projectable standard form")
    rho = pivot_rows[0]
    pv = mat.rows[rho][target]
    rows = [list(r) for r in mat.rows]
    for r in range(len(rows)):
        if r != rho and rows[r][target] != 0:
            if rows[r][target] % pv != 0:
                raise InvariantViolation("pivot entry does not divide its column")
            c = rows[r][target] // pv
            rows[r] = [a - c * b for a, b in zip(rows[r], rows[rho])]
    del rows[rho]
    new_labels = []
    for lab in mat.labels:
        if lab == label:
            continue
        a, c = lab
        new_labels.append((a, c - 1) if a == i and c > k else lab)
    kept = [idx for idx, lab in enumerate(mat.labels) if lab != label]
    new_rows = tuple(tuple(r[idx] for idx in kept) for r in rows)
    return CharMatrix(tuple(new_labels), new_rows)


def project_to_vertex(mat: CharMatrix, alpha) -> PlaneFan:
    """Project down to a single copy per color, retaining copy alpha_i of i."""
    sig = mat.signature_of()
    keep = list(alpha)
    for i in range(1, sig.m + 1):
        for k in range(sig.J[i - 1], 0, -1):
            if k == keep[i - 1]:
                continue
            mat = projection(mat, (i, k))
            if k < keep[i - 1]:
                keep[i - 1] -= 1
    return fan_from_matrix(mat)


def is_realizable(p) -> bool:
    """Whether the standard-form matrix of a puzzle projects onto the
    assigned fan at every vertex of G(J).

    assemble_matrix takes the row of each base-incident vertex from that
    vertex's own offset, so the base and its neighbours are reproduced by
    construction; only vertices that differ from the base in two or more
    colors are projected.
    """
    mat = p.matrix
    for alpha in gj_vertices(p.sig):
        if sum(k > 1 for k in alpha) >= 2 and \
                project_to_vertex(mat, alpha) != p.assignment[alpha]:
            return False
    return True


def permutation_canonical_key(p):
    """Canonical key of a puzzle by brute force over every copy permutation.

    For each dihedral map and each of the prod(j_i!) relabelings of the
    copies, serialize the whole assignment in the basis of the relabeled base
    fan and keep the minimum.  The library's key must equal this one exactly.
    """
    sig = p.sig
    m, J = sig.m, sig.J
    best = None
    for pos_map, reflect in _dihedral_maps(m):
        new_j = tuple(J[pos_map[x]] for x in range(m))
        verts = list(product(*[range(1, j + 1) for j in new_j]))
        copy_perms = [permutations(range(1, new_j[x] + 1)) for x in range(m)]
        for gs in product(*copy_perms):
            mapped = {}
            for alpha in verts:
                old_alpha = [0] * m
                for x in range(m):
                    old_alpha[pos_map[x]] = gs[x][alpha[x] - 1]
                mapped[alpha] = _transform_fan(
                    p.assignment[tuple(old_alpha)], pos_map, reflect)
            base = mapped[(1,) * m]
            (pp, rr) = base.rays[0]
            (qq, ss) = base.rays[1]
            u = ((ss, -qq), (-rr, pp))
            key = (new_j, tuple(
                (alpha,
                 tuple((u[0][0] * x + u[0][1] * y, u[1][0] * x + u[1][1] * y)
                       for x, y in mapped[alpha].rays))
                for alpha in verts))
            if best is None or key < best:
                best = key
    return best


@lru_cache(maxsize=None)
def is_edge(f1: PlaneFan, f2: PlaneFan, color: int):
    """The integer e with shift(f1, color, e) == f2, if any; 0 means equal."""
    if f1.m != f2.m:
        return None
    if f1 == f2:
        return 0
    i = (color - 1) % f1.m
    ell = opposite_position(f1, i)
    if ell is None:
        return None
    vi = f1.rays[i]
    b = (ell + 1) % f1.m
    dx = f2.rays[b][0] - f1.rays[b][0]
    dy = f2.rays[b][1] - f1.rays[b][1]
    yp = det2(vi, f1.rays[b])
    denom_x = -yp * vi[0]
    denom_y = -yp * vi[1]
    if denom_x != 0:
        if dx % denom_x:
            return None
        e = dx // denom_x
    elif denom_y != 0:
        if dy % denom_y:
            return None
        e = dy // denom_y
    else:
        return None
    if e == 0:
        return None
    try:
        return e if shift(f1, color, e) == f2 else None
    except NoOppositeRay:
        return None


class AssignedPuzzle(NamedTuple):
    """A puzzle given by its fan at every vertex of G(J), which need not be
    a base shifted by offsets.  It reads as a library Puzzle: the base is the
    fan at the all-ones vertex, and the offset of copy k of color i is solved
    by is_edge from the base to the vertex that differs from it there."""

    sig: WedgeSignature
    assignment: dict

    @property
    def base(self):
        return self.assignment[(1,) * self.sig.m]

    @property
    def offsets(self):
        alpha0 = (1,) * self.sig.m
        return tuple(
            tuple(is_edge(self.base, self.assignment[alpha0[:i - 1] + (k,) + alpha0[i:]], i)
                  for k in range(2, j + 1))
            for i, j in enumerate(self.sig.J, start=1))

    @property
    def matrix(self):
        return assemble_matrix(self)


def offset_candidates(sig, base_depth, e_bound, draw):
    """Every (base, offsets, assignment) of the enumeration loop: bases from
    enumerate_fans, the offset tuples of one color from draw(range, count),
    and the assignment None when a nonzero shift has no opposite ray."""
    m, J = sig.m, sig.J
    for base in enumerate_fans(m, base_depth):
        per_color = []
        for i in range(1, m + 1):
            if J[i - 1] == 1:
                per_color.append([()])
            elif opposite_position(base, i - 1) is None:
                per_color.append([(0,) * (J[i - 1] - 1)])
            else:
                per_color.append(list(draw(range(-e_bound, e_bound + 1), J[i - 1] - 1)))
        for combo in product(*per_color):
            assignment = {}
            try:
                for alpha in gj_vertices(sig):
                    fan = base
                    for i in range(1, m + 1):
                        if alpha[i - 1] > 1 and combo[i - 1][alpha[i - 1] - 2]:
                            fan = shift(fan, i, combo[i - 1][alpha[i - 1] - 2])
                    assignment[alpha] = fan
            except NoOppositeRay:
                assignment = None
            yield base, combo, assignment


def _reference_classes(sig, base_depth, e_bound, draw, key_of):
    """The first candidate validated by reference_validate_puzzle for each
    key, in the library's loop order (bases, then offset tuples)."""
    out = {}
    for _, _, assignment in offset_candidates(sig, base_depth, e_bound, draw):
        if assignment is None:
            continue
        puzzle = AssignedPuzzle(sig, assignment)
        if not reference_validate_puzzle(puzzle):
            continue
        key = key_of(puzzle)
        if key not in out:
            out[key] = puzzle
    return [(k, out[k]) for k in sorted(out)]


def ordered_enumerate_puzzles_keyed(sig, base_depth, e_bound):
    """Classes of valid puzzles from every ordered tuple of offsets per color,
    keyed by permutation_canonical_key."""
    return _reference_classes(sig, base_depth, e_bound,
                              lambda rng, n: product(rng, repeat=n),
                              permutation_canonical_key)


def multiset_enumerate_puzzles_keyed(sig, base_depth, e_bound):
    """Classes of valid puzzles from every multiset of offsets per color,
    each candidate validated square by square before it is keyed: the
    library's loop before it checked only edges."""
    return _reference_classes(sig, base_depth, e_bound,
                              combinations_with_replacement, puzzle_canonical_key)


class NotASquare(ValueError):
    pass


def gj_squares(sig):
    """2-faces of the simplex product: one edge in each of two distinct colors.

    Yields (colors, corners) with corners ordered (base, +i, +t, ++)."""
    m, J = sig.m, sig.J
    wedged = [i for i in range(m) if J[i] >= 2]
    for i, t in combinations(wedged, 2):
        rest = [x for x in range(m) if x not in (i, t)]
        for gamma in product(*[range(1, J[x] + 1) for x in rest]):
            fixed = dict(zip(rest, gamma))
            for a, a2 in combinations(range(1, J[i] + 1), 2):
                for b, b2 in combinations(range(1, J[t] + 1), 2):
                    def vert(ci, ct):
                        v = [0] * m
                        for x, g in fixed.items():
                            v[x] = g
                        v[i], v[t] = ci, ct
                        return tuple(v)
                    yield (i + 1, t + 1), (vert(a, b), vert(a2, b), vert(a, b2), vert(a2, b2))


def gj_cubes(sig):
    """3-faces of the simplex product: one edge in each of three distinct
    colors.  Yields (colors, corners) with the 8 corners in product order."""
    m, J = sig.m, sig.J
    wedged = [i for i in range(m) if J[i] >= 2]
    for i, t, u in combinations(wedged, 3):
        rest = [x for x in range(m) if x not in (i, t, u)]
        for gamma in product(*[range(1, J[x] + 1) for x in rest]):
            fixed = dict(zip(rest, gamma))
            choices = [combinations(range(1, J[x] + 1), 2) for x in (i, t, u)]
            for (a, a2), (b, b2), (c, c2) in product(*choices):
                def vert(ci, ct, cu):
                    v = [0] * m
                    for x, g in fixed.items():
                        v[x] = g
                    v[i], v[t], v[u] = ci, ct, cu
                    return tuple(v)
                corners = [vert(x, y, z) for x in (a, a2) for y in (b, b2) for z in (c, c2)]
                yield (i + 1, t + 1, u + 1), tuple(corners)


def is_irreducible(p):
    """No edge of G(J) joins two equal fans."""
    return all(p.assignment[a] != p.assignment[b] for _, a, b in gj_edges(p.sig))


def realizable_square(fans, colors, params) -> bool:
    """Operational realizability of a square: the 4-row standard form over the
    double wedge must be non-singular and must project back onto all four
    corner fans.  fans = (base, base shifted in color i, base shifted in
    color t, both); params = (e, f) on the two base-incident edges."""
    f00, f10, f01, f11 = fans
    i, t = colors
    e, f = params
    if i == t:
        raise NotASquare("square needs two distinct colors")
    if is_edge(f00, f10, i) != e or is_edge(f00, f01, t) != f:
        raise NotASquare("base-incident edges do not carry the stated parameters")
    if is_edge(f10, f11, t) is None or is_edge(f01, f11, i) is None:
        raise NotASquare("far edges are not edges")
    m = f00.m
    J = tuple(2 if x + 1 in (i, t) else 1 for x in range(m))
    sig = WedgeSignature(m, J)
    assignment = {}
    for alpha in gj_vertices(sig):
        ci = alpha[i - 1]
        ct = alpha[t - 1]
        assignment[alpha] = (f00, f10, f01, f11)[(ci - 1) + 2 * (ct - 1)]
    mat = assemble_matrix(AssignedPuzzle(sig, assignment))
    if not reference_check_nonsingular(mat, build_complex(sig)):
        return False
    for alpha in gj_vertices(sig):
        ci = alpha[i - 1]
        ct = alpha[t - 1]
        want = (f00, f10, f01, f11)[(ci - 1) + 2 * (ct - 1)]
        if project_to_vertex(mat, alpha) != want:
            return False
    return True


def reference_edges_valid(p) -> bool:
    """Edge color-consistency: is_edge relates the fans at the two ends of
    every color-i edge of G(J) in color i."""
    return all(is_edge(p.assignment[a], p.assignment[b], i) is not None
               for i, a, b in gj_edges(p.sig))


def reference_validate_puzzle(p) -> bool:
    """Edge color-consistency plus realizability of every square of G(J)."""
    sig = p.sig
    if not reference_edges_valid(p):
        return False
    for (i, t), (c00, c10, c01, c11) in gj_squares(sig):
        f00 = p.assignment[c00]
        e = is_edge(f00, p.assignment[c10], i)
        f = is_edge(f00, p.assignment[c01], t)
        try:
            ok = realizable_square(
                (f00, p.assignment[c10], p.assignment[c01], p.assignment[c11]),
                (i, t), (e, f))
        except NotASquare:
            return False
        if not ok:
            return False
    return True
