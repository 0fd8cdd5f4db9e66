"""Exact rational linear algebra and strict-inequality feasibility.

Every value is an exact rational, so verdicts come with witnesses that
re-substitute exactly.  The feasibility engine is a two-phase simplex with
Bland's anti-cycling rule, maximizing an auxiliary slack variable t (capped
at 1); a system with strict inequalities is feasible iff the optimal t is
positive.  Free variables are x = x' - mu*1 with x' >= 0 and one shift
column mu >= 0.

The loops run on integers: integer constraint rows stay integers, the
simplex runs on a condensed all-integer tableau (only the nonbasic columns
are stored) with an integer objective row, and slack and barycentric
coordinates are computed over one common denominator.  Fraction remains only
in non-integer constraint entries and in the witness, slack and barycentric
tuples of a result.

One elimination serves kernels and inverses: _rref, Bareiss's fraction-free
Gauss-Jordan elimination.  kernel_basis reads primitive integer kernel
columns from it, and integer_inverse an integer inverse over |det|: of the
facet where a facet table's wall walk starts, or of the reference coface.
The relative interiors of full simplices are intersected by row generation
(_relint_of_simplices): a few barycentric functionals per simplex, the
violated ones added until the witness satisfies all of them.  Only the first
round is a two-phase solve; each later round appends its rows to the optimal
tableau and restores it by dual simplex pivots, with Bland's rule in both
directions.  It takes the functionals of _simplex_functionals or those the
Shephard oracle derives by Gale duality from the facet tableaux.
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


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a program bug, never a bad input."""


def _exact(x):
    """An int stays an int; anything else becomes a Fraction."""
    return x if type(x) is int else Fraction(x)


def _rref(rows) -> tuple[list[list[int]], list[int], int]:
    """Reduced row echelon form of integer rows by Bareiss's fraction-free
    Gauss-Jordan elimination (E. H. Bareiss, Math. Comp. 22, 1968).

    Returns (rows, pivots, d) with one integer row per pivot and d > 0:
    entry (r, c) of the RREF is rows[r][c] / d.  Each step multiplies every
    row by its pivot and divides it exactly by the previous one, so every
    entry stays an integer minor and every pivot entry ends equal to the last
    pivot, which the rows are negated to make positive.  A column without a
    pivot is skipped.
    """
    a = list(rows)
    pivots = []
    prev = 1
    r = 0
    for c in range(len(a[0]) if a else 0):
        if not a[r][c]:
            swap = next((i for i in range(r + 1, len(a)) if a[i][c]), None)
            if swap is None:
                continue
            a[r], a[swap] = a[swap], a[r]
        prow = a[r]
        pv = prow[c]
        for i, ri in enumerate(a):
            if i != r:
                f = ri[c]
                if f:
                    a[i] = [(pv * x - f * y) // prev for x, y in zip(ri, prow)]
                elif pv != prev:
                    # a row with nothing to eliminate is only rescaled
                    a[i] = [pv * x // prev for x in ri]
        prev = pv
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    if prev < 0:
        return [[-x for x in ri] for ri in a[:r]], pivots, -prev
    return a[:r], pivots, prev


def kernel_basis(rows, ncols: int) -> list[list[int]]:
    """Basis of the right kernel of an integer matrix with ncols columns.

    One primitive integer column per free coordinate of the RREF, positive on
    that coordinate and zero on the other free ones: d on the free coordinate
    and minus the free column's entry of each _rref row on its pivot
    coordinate.  The matrix times each column is exactly zero, and there are
    ncols - rank columns.
    """
    rows, pivots, d = _rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = d
        for row, p in zip(rows, pivots):
            v[p] = -row[f]
        basis.append(make_primitive(v))
    return basis


def integer_inverse(m: Sequence[Sequence[int]]) -> Optional[tuple[list[list[int]], int]]:
    """(N, den) with m^-1 = N / den and den = |det(m)| for a nonsingular
    square integer matrix m, or None if m is singular.

    One _rref of [m | I]: the left block ends as den*I and the right block
    as den*m^-1 = sign(det)*adj(m); m is singular when the pivots are not
    the columns of m.
    """
    n = len(m)
    rows, pivots, den = _rref([[*r, *(int(i == j) for j in range(n))] for i, r in enumerate(m)])
    if pivots != list(range(n)):
        return None
    return [r[n:] for r in rows], den


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
    g = _gcd(*ints)
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
    """Exact simplex on a condensed all-integer tableau, Bland's rule.

    Only nonbasic columns are stored (V. Chvatal, Linear Programming, ch. 2):
    cols[k] is the column at position k, row i holds its integer
    coefficients on cols and its rhs, and bc[i] > 0 is the coefficient of its
    basic variable basis[i].  Each row is scaled independently, and the
    objective row is integer numerators over one positive denominator den, so
    each reduced cost has the sign of its numerator.  A pivot is the
    full-tableau update restricted to the nonbasic columns, so every ratio and
    every choice is that of the full tableau.  maximize runs primal pivots,
    restore dual ones after add_row.  Fully deterministic.
    """

    def __init__(self, rows, bc, basis, cols):
        self.t = rows
        self.bc = bc
        self.basis = basis
        self.cols = cols

    def set_objective(self, objective):
        """objective: integer coefficients, indexed by column."""
        obj, den = [objective[c] for c in self.cols] + [0], 1
        for row, bi, b in zip(self.t, self.bc, self.basis):
            if objective[b]:
                # the objective's entry on basic column b is objective[b] * den
                obj, den = _combine(obj, den, row, bi, objective[b] * den)
        self.obj, self.den = obj, den

    def maximize(self) -> Fraction:
        t, basis, cols = self.t, self.basis, self.cols
        while True:
            obj = self.obj
            entering = [k for k in range(len(cols)) if obj[k] > 0]
            if not entering:
                return self.value()
            q = min(entering, key=cols.__getitem__)  # Bland: lowest column
            leaving = -1
            bnum = bden = 0
            for i in range(len(t)):
                piv = t[i][q]
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
            self.pivot(leaving, q)

    def value(self) -> Fraction:
        """The objective at the current vertex."""
        return Fraction(-self.obj[-1], self.den)

    def pivot(self, row: int, q: int, dual: bool = False):
        """Exchange basis[row] and cols[q].  A negative pivot entry is legal
        on a primal pivot only with a zero rhs, and on a dual one always."""
        t, bc = self.t, self.bc
        prow, br = t[row], bc[row]
        if prow[q] < 0:
            # primal: only reachable when driving a zero-valued artificial out
            if prow[-1] != 0 and not dual:
                raise InvariantViolation("negative pivot on a row with nonzero rhs")
            prow, br = [-x for x in prow], -br
        pv = prow[q]
        for i, ri in enumerate(t):
            f = ri[q]
            if f and i != row:
                t[i], bc[i] = _combine(ri, bc[i], prow, pv, f, q, br)
        if self.obj[q]:
            self.obj, self.den = _combine(self.obj, self.den, prow, pv, self.obj[q], q, br)
        prow[q] = br
        t[row], bc[row] = prow, pv
        self.basis[row], self.cols[q] = self.cols[q], self.basis[row]

    def drive_out(self, limit: int):
        """After phase 1: pivot each basic artificial (column >= limit) out on
        the lowest column below limit where its row is nonzero, then drop the
        rows whose artificial stays basic (redundant equalities) and the
        artificial columns."""
        cols = self.cols
        for i, b in enumerate(self.basis):
            if b >= limit:
                row = self.t[i]
                q = min((k for k, c in enumerate(cols) if c < limit and row[k]),
                        key=cols.__getitem__, default=None)
                if q is not None:
                    self.pivot(i, q)
        keep = [k for k, c in enumerate(cols) if c < limit] + [-1]
        live = [i for i, b in enumerate(self.basis) if b < limit]
        self.t = [[self.t[i][k] for k in keep] for i in live]
        self.bc = [self.bc[i] for i in live]
        self.basis = [self.basis[i] for i in live]
        self.cols = [cols[k] for k in keep[:-1]]

    def add_row(self, coef, rhs: int):
        """Append coef . v + s = rhs, with coef integer coefficients indexed by
        column and s a new column that starts basic, expressed over the
        nonbasic columns.  The column ids are 0 .. len(cols) + len(t) - 1, so
        s gets the next one."""
        coef = list(coef) + [0] * (len(self.cols) + len(self.t) - len(coef))
        line, bi = [coef[c] for c in self.cols] + [rhs], 1
        for row, br, b in zip(self.t, self.bc, self.basis):
            if coef[b]:
                line, bi = _combine(line, bi, row, br, coef[b] * bi)
        self.t.append(line)
        self.bc.append(bi)
        self.basis.append(len(coef))

    def restore(self) -> bool:
        """Dual simplex from a dual-feasible tableau (no positive reduced
        cost) until every rhs is non-negative, with Bland's rule for the
        dual: the row of the lowest basic id with a negative rhs leaves, and
        the column with the smallest ratio obj[k] / row[k] over row[k] < 0
        enters, the lowest column id on a tie.  Returns False when a row
        with a negative rhs has no negative entry: the rows are infeasible."""
        t, basis, cols = self.t, self.basis, self.cols
        while True:
            neg = [i for i in range(len(t)) if t[i][-1] < 0]
            if not neg:
                return True
            r = min(neg, key=basis.__getitem__)
            row, obj = t[r], self.obj
            q = -1
            rnum = rden = 0
            for k in range(len(cols)):
                a = row[k]
                if a < 0:
                    if q < 0:
                        q, rnum, rden = k, obj[k], a
                    else:
                        # obj[k] / a < rnum / rden, with a * rden > 0
                        cmp = obj[k] * rden - rnum * a
                        if cmp < 0 or (cmp == 0 and cols[k] < cols[q]):
                            q, rnum, rden = k, obj[k], a
            if q < 0:
                return False
            self.pivot(r, q, dual=True)

    def values(self, ncols: int) -> list[tuple[int, int]]:
        """(numerator, denominator) of the first ncols variables at the vertex."""
        out = [(0, 1)] * ncols
        for row, bi, b in zip(self.t, self.bc, self.basis):
            if b < ncols:
                out[b] = (row[-1], bi)
        return out


def _combine(ri, bi, prow, pv, f, q=None, br=0):
    """pv*ri - f*prow, with -f*br at position q, and its basic coefficient
    pv*bi, both divided by their common gcd.  Returns (row, coefficient)."""
    d = _gcd(pv, f)
    if d > 1:
        # scales the result by 1/d, which the gcd division below absorbs:
        # the same row, from smaller products
        pv //= d
        f //= d
    ri = [pv * a - f * b for a, b in zip(ri, prow)]
    if q is not None:
        ri[q] = -f * br
    bi *= pv
    g = _gcd(bi, *ri)
    if g > 1:
        return [x // g for x in ri], bi // g
    return ri, bi


def strict_feasible(sys: StrictLinearSystem) -> FeasibilityResult:
    """Decide exact feasibility of a system with strict inequalities.

    Maximizes an auxiliary slack t subject to a.x + t <= b for every strict
    constraint and t <= 1; the system is feasible iff the optimum is positive.
    The free x is written x = x' - mu*1 with x' >= 0 and one shift column
    mu >= 0, so the tableau has dim + 1 columns for x rather than 2*dim.
    The witness satisfies every equality exactly; the reported slack is the
    smallest strict-constraint margin.
    """
    tab = _optimal_tableau(sys)
    if tab is None:
        return FeasibilityResult(False)
    witness = _witness(tab, sys.dimension)
    if not sys.strict:
        return FeasibilityResult(True, witness, tab.value())
    # smallest margin b - a.x, over the witness's common denominator
    xs, scale = clear_denominators(witness)
    margin = min(b * scale - sum(map(_mul, a, xs)) for a, b in sys.strict)
    return FeasibilityResult(True, witness, Q(margin, scale))


def _optimal_tableau(sys: StrictLinearSystem) -> Optional[_Simplex]:
    """strict_feasible's two-phase solve: the tableau at the optimum of t,
    or None when the system is infeasible."""
    dim = sys.dimension
    # variable layout: x' (dim), mu, t | slacks | artificials
    nx = dim + 2
    t_col = dim + 1
    raw: list[tuple[list, object, bool]] = []
    for a, b in sys.equalities:
        raw.append(([*a, -sum(a), 0], b, False))
    for a, b in sys.weak:
        raw.append(([*a, -sum(a), 0], b, True))
    for a, b in sys.strict:
        raw.append(([*a, -sum(a), 1], b, True))
    raw.append(([0] * (dim + 1) + [1], 1, True))

    nslack = sum(1 for r in raw if r[2])
    # Equality rows and flipped (negative rhs) inequality rows start on an
    # artificial; a flipped row's slack starts nonbasic, after the x' columns.
    nflip = sum(1 for _, rhs, le in raw if le and rhs < 0)
    cols = list(range(nx))
    rows, bc, basis = [], [], []
    si = ai = 0
    for coef, rhs, le in raw:
        line, scale = clear_denominators(coef + [rhs])
        rhs_i = line.pop()
        line += [0] * nflip
        if le and rhs_i < 0:
            line[len(cols)] = scale
            cols.append(nx + si)
        if not le or rhs_i < 0:
            basis.append(nx + nslack + ai)
            bc.append(1)
            ai += 1
        else:
            basis.append(nx + si)
            bc.append(scale)
        if rhs_i < 0:
            line = [-x for x in line]
            rhs_i = -rhs_i
        if le:
            si += 1
        rows.append(line + [rhs_i])
    tab = _Simplex(rows, bc, basis, cols)
    limit = nx + nslack

    if ai:
        tab.set_objective([0] * limit + [-1] * ai)
        if tab.maximize() != 0:
            return None
        tab.drive_out(limit)

    phase2 = [0] * limit
    phase2[t_col] = 1
    tab.set_objective(phase2)
    return tab if tab.maximize() > 0 else None


def _witness(tab: _Simplex, dim: int) -> tuple[Fraction, ...]:
    """x = x' - mu*1 at the tableau's vertex."""
    val = tab.values(dim + 1)
    mn, md = val[dim]
    return tuple(Q(pn * md - mn * pd, pd * md) for pn, pd in val[:dim])


def _simplex_functionals(fam):
    """Integer barycentric functionals of a full simplex of rational points.

    Returns (rows, factor) with lambda_j(x) = factor * (rows[j] . (x, 1)) and
    factor > 0, or None when the points are affinely dependent.  rows[j] is
    column j of N, where N / den is the integer_inverse of the integer
    matrix whose rows are (k*p, k), k clearing every denominator.
    """
    dim = len(fam[0])
    ints, scale = clear_denominators([v for p in fam for v in p])
    m = [ints[i * dim:(i + 1) * dim] + [scale] for i in range(len(fam))]
    inv = integer_inverse(m)
    if inv is None:
        return None
    inv_rows, den = inv
    return [list(col) for col in zip(*inv_rows)], Q(scale, den)


def _relint_of_simplices(simplices, dim: int) -> FeasibilityResult:
    """Whether the relative interiors of full simplices intersect, given as
    the (rows, factor) functionals of _simplex_functionals, by row
    generation on one warm tableau.

    Each functional lambda_j > 0 is one strict row, deduplicated across
    families.  The first round solves the first row of every family with
    strict_feasible's two-phase simplex.  After each round the witness is
    substituted into every row, and each family whose rows are not all
    satisfied adds its most violated row (smallest margin, then lowest
    index), until no row is violated.  The added rows go onto the optimal
    tableau, each with a new basic slack, and dual simplex pivots restore
    feasibility (the cutting-plane loop of C. E. Lemke's dual method), so a
    round costs a few pivots rather than a new solve.  A subset that is
    infeasible, shown by a row that cannot be restored or by an optimum
    t <= 0, proves the whole system infeasible, so the verdict is that of
    the full system; the slack is the smallest margin over all rows, not
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
    tab = _optimal_tableau(StrictLinearSystem.build(
        dim, (), (), [rows[i] for i in sorted({own[0] for own in members})]))
    while tab is not None:
        witness = _witness(tab, dim)
        xs, scale = clear_denominators(witness)
        margins = [b * scale - sum(map(_mul, a, xs)) for a, b in rows]
        worst = {min(own, key=lambda i: (margins[i], i)) for own in members}
        violated = sorted(i for i in worst if margins[i] <= 0)
        if not violated:
            break
        for i in violated:
            # a.x + t <= b over x', mu, t, as _optimal_tableau lays it out
            a, b = rows[i]
            tab.add_row([*a, -sum(a), 1], b)
        if not tab.restore() or tab.value() <= 0:
            tab = None
    if tab is None:
        return FeasibilityResult(False)
    # lambda_j = factor * (r . (xs, scale)) / scale, one Fraction each
    bary = tuple(
        tuple(Q(factor.numerator * (sum(map(_mul, r, xs)) + r[dim] * scale),
                factor.denominator * scale)
              for r in fam_rows)
        for fam_rows, factor in simplices)
    slack = Q(min(margins), scale) if rows else tab.value()
    return FeasibilityResult(True, witness, slack, bary)
