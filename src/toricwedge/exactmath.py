"""Exact rational linear algebra and strict-inequality feasibility.

Every value is an exact rational, so verdicts come with witnesses that
re-substitute exactly.  The feasibility engine is a two-phase simplex with
Bland's anti-cycling rule, maximizing an auxiliary slack variable t (capped
at 1); a system with strict inequalities is feasible iff the optimal t is
positive.  Free variables are x = x' - mu*1 with x' >= 0 and one shift
column mu >= 0.

The loops run on integers: integer constraint rows stay integers, the
simplex tableau and its objective row are integer, row reduction is
fraction-free, and slack and barycentric coordinates are computed over one
common denominator.  Fraction remains at the API boundary (QMatrix entries
and the kernel bases returned, non-integer constraint entries, and the
witness, slack and barycentric tuples of a result), and in the general
relint encoding, whose rows hold the Fraction points.

Facet and coface matrices are inverted one way only: integer_adjugate, a
fraction-free Gauss-Jordan elimination that returns the integer adjugate and
the determinant together.  relint_intersection has two encodings: integer
barycentric functionals from that adjugate when every family is a
nonsingular full simplex, solved by row generation (a few functionals per
family, the violated ones added until the witness satisfies all of them),
and explicit barycentric variables otherwise.  The row-generation solver,
_relint_of_simplices, also takes functionals computed elsewhere: the
Shephard oracle derives its coface functionals by Gale duality from the
facet adjugates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd
from operator import mul as _mul
from typing import Optional, Sequence

Q = Fraction


class DimensionMismatch(ValueError):
    pass


class NotSquare(ValueError):
    pass


class EmptyFamily(ValueError):
    pass


class OnesNotInKernel(ValueError):
    """Raised when kernel_with_ones is given a matrix with nonzero row sums."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a program bug, never a bad input."""


def _q(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _qvec(v) -> tuple[Fraction, ...]:
    return tuple(_q(x) for x in v)


def _exact(x):
    """An int stays an int; anything else becomes a Fraction."""
    return x if type(x) is int else _q(x)


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

    def transpose(self) -> "QMatrix":
        return QMatrix.from_rows(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def mul(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            ri = self.entries[i]
            out.append(
                [sum((ri[k] * other.entries[k][j] for k in range(self.cols)), Q(0))
                 for j in range(other.cols)]
            )
        return QMatrix.from_rows(out, cols=other.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def rank(self) -> int:
        _, pivots = _rref(self.entries)
        return len(pivots)


def _content(v) -> int:
    """gcd of the entries of an integer vector, stopping as soon as it is 1."""
    g = 0
    for x in v:
        if x:
            g = _gcd(g, x)
            if g == 1:
                break
    return g


def _rref(rows) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form by fraction-free Gauss-Jordan elimination.

    Returns (rows, pivots) with one integer row per pivot: entry (r, c) of the
    RREF is rows[r][c] / rows[r][pivots[r]].  Each input row is scaled to
    integers first and divided by its content after every update.
    """
    rows = [clear_denominators(r)[0] for r in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        pv = prow[c]
        for i, ri in enumerate(rows):
            f = ri[c]
            if f and i != r:
                ri = [pv * a - f * b for a, b in zip(ri, prow)]
                g = _content(ri)
                rows[i] = [x // g for x in ri] if g > 1 else ri
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def kernel_basis(m: QMatrix) -> QMatrix:
    """Basis of the right kernel of m, returned as the columns of a matrix.

    m.mul(result) is exactly zero and the result has m.cols - rank(m) columns.
    """
    rows, pivots = _rref(m.entries)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Q(0)] * m.cols
        v[f] = Q(1)
        for row, p in zip(rows, pivots):
            v[p] = Q(-row[f], row[p])
        basis.append(v)
    # basis vectors become columns
    return QMatrix.from_rows(
        [[basis[j][i] for j in range(len(basis))] for i in range(m.cols)],
        cols=len(basis),
    )


def kernel_with_ones(m: QMatrix) -> QMatrix:
    """Kernel basis of m arranged so the last column is the all-ones vector.

    Requires the all-ones vector to lie in the kernel (zero row sums).  The
    returned matrix B satisfies m.mul(B) = 0, rank(B) = m.cols - rank(m), and
    row i of B reads as a labeled point with a trailing homogenizing 1.
    """
    if m.cols == 0:
        return QMatrix.from_rows([], cols=0)
    if any(sum(clear_denominators(r)[0]) for r in m.entries):
        raise OnesNotInKernel("row sums of the input are not all zero")
    kern = kernel_basis(m)
    # Each column of the RREF kernel basis is a unit vector on its own free
    # coordinate, so ones is the sum of all k columns: the first k-1 columns
    # and ones are a basis of the kernel.
    k = kern.cols
    return QMatrix.from_rows([[*r[:k - 1], Q(1)] for r in kern.entries], cols=k)


def integer_det(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix via fraction-free (Bareiss) elimination."""
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


def integer_adjugate(m: Sequence[Sequence[int]]) -> Optional[tuple[list[list[int]], int]]:
    """(adj(m), det(m)) of a nonsingular integer matrix, or None if singular.

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
                    # a row with nothing to eliminate is only rescaled
                    a[i] = [pv * x // prev for x in ri]
        prev = pv
    return [[sign * x for x in r[n:]] for r in a], sign * prev


def clear_denominators(values) -> tuple[list[int], int]:
    """(ints, scale): the smallest positive scale making every value integral.

    values are ints or Fractions; the scaling is integer arithmetic only.
    """
    scale = 1
    for v in values:
        d = v.denominator
        if d != 1:
            scale = scale * d // _gcd(scale, d)
    if scale == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (scale // v.denominator) for v in values], scale


def make_primitive(ints: Sequence[int]) -> list[int]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = _content(ints)
    return [v // g for v in ints] if g > 1 else list(ints)


@dataclass(frozen=True)
class StrictLinearSystem:
    """Linear system a.x = b / a.x <= b / a.x < b over a common dimension.

    Entries are exact: ints as given, every other number as a Fraction.
    """

    dimension: int
    equalities: tuple[tuple[tuple[Fraction, ...], Fraction], ...] = ()
    weak: tuple[tuple[tuple[Fraction, ...], Fraction], ...] = ()
    strict: tuple[tuple[tuple[Fraction, ...], Fraction], ...] = ()

    @classmethod
    def build(cls, dimension, equalities=(), weak=(), strict=()) -> "StrictLinearSystem":
        def conv(cons):
            out = []
            for a, b in cons:
                a = tuple(map(_exact, a))
                if len(a) != dimension:
                    raise DimensionMismatch(
                        f"constraint length {len(a)} != dimension {dimension}")
                out.append((a, _exact(b)))
            return tuple(out)

        return cls(dimension, conv(equalities), conv(weak), conv(strict))


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    witness: Optional[tuple[Fraction, ...]] = None
    slack: Optional[Fraction] = None
    barycentric: Optional[tuple[tuple[Fraction, ...], ...]] = None


class _Simplex:
    """Exact simplex on an all-integer tableau with Bland's anti-cycling rule.

    Rows are integer vectors scaled independently (the basic variable of a row
    carries a positive integer coefficient rather than 1).  The objective row
    is integer numerators over one positive denominator, so each reduced cost
    has the sign of its numerator.  Fully deterministic.
    """

    def __init__(self, rows, basis, ncols):
        self.t = rows  # each row: int coefficients + [int rhs]
        self.basis = basis
        self.ncols = ncols

    def set_objective(self, objective):
        """objective: integer coefficients, one per column."""
        self.obj, self.den = list(objective) + [0], 1
        for i, b in enumerate(self.basis):
            if self.obj[b]:
                self._eliminate(self.t[i], b)

    def _eliminate(self, row, col):
        """Subtract the multiple of row that zeroes the objective at col."""
        pv, f = row[col], self.obj[col]
        obj = [pv * x for x in self.obj]
        for j, v in enumerate(row):
            if v:
                obj[j] -= f * v
        den = self.den * pv
        g = _gcd(den, _content(obj))
        if g > 1:
            obj = [x // g for x in obj]
            den //= g
        self.obj, self.den = obj, den

    def maximize(self) -> Fraction:
        t, basis = self.t, self.basis
        while True:
            obj = self.obj
            entering = -1
            for j in range(self.ncols):
                if obj[j] > 0:
                    entering = j
                    break  # Bland: lowest index
            if entering < 0:
                return Fraction(-obj[-1], self.den)
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

    def pivot(self, row: int, col: int):
        t = self.t
        prow = t[row]
        if prow[col] < 0:
            # only reachable when driving a zero-valued artificial out
            if prow[-1] != 0:
                raise InvariantViolation("negative pivot on a row with nonzero rhs")
            prow = [-x for x in prow]
            t[row] = prow
        pv = prow[col]
        nz = [j for j, v in enumerate(prow) if v]
        for i, ri in enumerate(t):
            f = ri[col]
            if f and i != row:
                ri = [pv * a for a in ri]
                for j in nz:
                    ri[j] -= f * prow[j]
                g = _content(ri)
                if g > 1:
                    ri = [v // g for v in ri]
                t[i] = ri
        if self.obj[col]:
            self._eliminate(prow, col)
        self.basis[row] = col

    def values(self, ncols: int) -> list[tuple[int, int]]:
        """(numerator, denominator) of the first ncols variables at the vertex."""
        out = [(0, 1)] * ncols
        for row, b in zip(self.t, self.basis):
            if b < ncols:
                out[b] = (row[-1], row[b])
        return out


def strict_feasible(sys: StrictLinearSystem) -> FeasibilityResult:
    """Decide exact feasibility of a system with strict inequalities.

    Maximizes an auxiliary slack t subject to a.x + t <= b for every strict
    constraint and t <= 1; the system is feasible iff the optimum is positive.
    The free x is written x = x' - mu*1 with x' >= 0 and one shift column
    mu >= 0, so the tableau has dim + 1 columns for x rather than 2*dim.
    The witness satisfies every equality exactly; the reported slack is the
    smallest strict-constraint margin.
    """
    dim = sys.dimension
    # variable layout: x' (dim), mu, t | slacks | artificials
    nx = dim + 2
    t_col = dim + 1
    raw: list[tuple[list, object, str]] = []
    for a, b in sys.equalities:
        raw.append(([*a, -sum(a), 0], b, "eq"))
    for a, b in sys.weak:
        raw.append(([*a, -sum(a), 0], b, "le"))
    for a, b in sys.strict:
        raw.append(([*a, -sum(a), 1], b, "le"))
    raw.append(([0] * (dim + 1) + [1], 1, "le"))

    nslack = sum(1 for r in raw if r[2] == "le")
    # artificials only for equality rows and flipped inequality rows
    need_art = [kind == "eq" or rhs < 0 for _, rhs, kind in raw]
    nart = sum(need_art)
    ncols = nx + nslack + nart
    rows = []
    basis = []
    si = 0
    ai = 0
    for idx, (coef, rhs, kind) in enumerate(raw):
        line, scale = clear_denominators(coef + [rhs])
        rhs_i = line.pop()
        line += [0] * (nslack + nart)
        if kind == "le":
            line[nx + si] = scale
            slack_col = nx + si
            si += 1
        else:
            slack_col = None
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
    tab = _Simplex(rows, basis, ncols)

    if nart:
        phase1 = [0] * (nx + nslack) + [-1] * nart
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

    phase2 = [0] * tab.ncols
    phase2[t_col] = 1
    tab.set_objective(phase2)
    topt = tab.maximize()
    if topt <= 0:
        return FeasibilityResult(False)
    val = tab.values(dim + 1)
    mn, md = val[dim]
    witness = tuple(Q(pn * md - mn * pd, pd * md) for pn, pd in val[:dim])
    if not sys.strict:
        return FeasibilityResult(True, witness, topt)
    # smallest margin b - a.x, over the witness's common denominator
    xs, scale = clear_denominators(witness)
    margin = min(b * scale - sum(map(_mul, a, xs)) for a, b in sys.strict)
    return FeasibilityResult(True, witness, Q(margin, scale))


def _simplex_functionals(fam):
    """Integer barycentric functionals of a full simplex of rational points.

    Returns (rows, factor) with lambda_j(x) = factor * (rows[j] . (x, 1)) and
    factor > 0, or None when the points are affinely dependent.  rows[j] is
    column j of the adjugate of the integer matrix whose rows are (k*p, k),
    k clearing every denominator, sign-normalized by its determinant.
    """
    dim = len(fam[0])
    ints, scale = clear_denominators([v for p in fam for v in p])
    m = [ints[i * dim:(i + 1) * dim] + [scale] for i in range(len(fam))]
    inv = integer_adjugate(m)
    if inv is None:
        return None
    adj, det = inv
    sgn = 1 if det > 0 else -1
    rows = [[sgn * adj[c][j] for c in range(dim + 1)] for j in range(dim + 1)]
    return rows, Q(scale, abs(det))


def _relint_of_simplices(simplices, dim: int) -> FeasibilityResult:
    """relint_intersection over full simplices, by row generation.

    Each functional lambda_j > 0 is one strict row, deduplicated across
    families.  The LP starts from the first row of every family.  After each
    solve the witness is substituted into every row, and each family whose
    rows are not all satisfied adds its most violated row (smallest margin,
    then lowest index), until no row is violated.  A subset that is
    infeasible proves the whole system infeasible, so the verdict is that of
    the full system, and the slack is the smallest margin over all rows, not
    only over the rows solved.
    """
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
            dim, (), (), [rows[i] for i in sorted(active)]))
        if not res.feasible:
            return res
        xs, scale = clear_denominators(res.witness)
        margins = [b * scale - sum(map(_mul, a, xs)) for a, b in rows]
        worst = {min(own, key=lambda i: (margins[i], i)) for own in members}
        violated = {i for i in worst if margins[i] <= 0}
        if not violated:
            break
        active |= violated
    # lambda_j = factor * (r . (xs, scale)) / scale, one Fraction each
    bary = tuple(
        tuple(Q(factor.numerator * (sum(map(_mul, r, xs)) + r[dim] * scale),
                factor.denominator * scale)
              for r in fam_rows)
        for fam_rows, factor in simplices)
    slack = Q(min(margins), scale) if rows else res.slack
    return FeasibilityResult(True, res.witness, slack, bary)


def relint_intersection(families: Sequence[Sequence[Sequence]], dimension: Optional[int] = None
                        ) -> FeasibilityResult:
    """Decide whether the relative interiors of the convex hulls intersect.

    Uses x in relint conv(S) iff x is a strictly positive convex combination
    of S.  Two encodings, chosen by the shape of the input: when every family
    is a nonsingular full simplex (dim + 1 affinely independent points), its
    barycentric weights are integer linear functionals of x, taken from one
    adjugate, and the program has x alone as variables, its rows generated
    as the witness violates them (_relint_of_simplices); otherwise the
    weights stay as explicit variables next to x.  Returns the witness x and
    one barycentric tuple per family, in input order, each computed from all
    of that family's functionals.
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
        simplices = [_simplex_functionals(fam) for fam in fams]
        if None not in simplices:
            return _relint_of_simplices(simplices, dim)

    # general encoding: variables (x, all lambda)
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
    res = strict_feasible(StrictLinearSystem.build(total, equalities, (), strict))
    if not res.feasible:
        return res
    w = res.witness
    bary = tuple(tuple(w[offsets[fi] + j] for j in range(sizes[fi])) for fi in range(len(fams)))
    return FeasibilityResult(True, w[:dim], res.slack, bary)


def verify_result(sys: StrictLinearSystem, res: FeasibilityResult) -> bool:
    """Re-substitute a feasibility witness; used by tests and certificates."""
    if not res.feasible:
        return res.witness is None
    x = res.witness
    dot = lambda a: sum((ai * xi for ai, xi in zip(a, x)), Q(0))
    if any(dot(a) != b for a, b in sys.equalities):
        return False
    if any(dot(a) > b for a, b in sys.weak):
        return False
    return all(b - dot(a) >= res.slack > 0 for a, b in sys.strict)
