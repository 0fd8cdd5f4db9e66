"""Exact integer linear algebra and strict-inequality feasibility.

Only integers enter and leave.  A StrictLinearSystem has integer weak and
strict rows, and strict_feasible decides it by a two-phase simplex with
Bland's anti-cycling rule on a condensed all-integer tableau (only the
nonbasic columns are stored) with an integer objective row.  A result's
witness, slack and barycentric tuples are integer numerators over one
positive denominator, in lowest terms, so they re-substitute exactly.

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
from math import gcd as _gcd, lcm as _lcm
from operator import mul as _mul
from typing import Optional, Sequence


class DimensionMismatch(ValueError):
    pass


class InvariantViolation(RuntimeError):
    """An internal invariant failed: a program bug, never a bad input."""


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


def make_primitive(ints: Sequence[int]) -> list[int]:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = _gcd(*ints)
    return [v // g for v in ints] if g > 1 else list(ints)


def _lowest(nums, den: int) -> tuple[tuple[int, ...], int]:
    """(nums, den), den > 0, divided by the gcd of den and every numerator."""
    g = _gcd(den, *nums)
    return tuple(v // g for v in nums), den // g


def _ratio(num: int, den: int) -> tuple[int, int]:
    """num / den, den > 0, as (num, den) in lowest terms."""
    g = _gcd(num, den)
    return num // g, den // g


@dataclass(frozen=True)
class StrictLinearSystem:
    """Integer rows a.x <= b (weak) and a.x < b (strict) over a common
    dimension.  The constructor raises DimensionMismatch on a row whose a is
    not dimension long and TypeError on an entry that is not an int, a bool
    included; build makes the rows tuples."""

    dimension: int
    weak: tuple[tuple[tuple[int, ...], int], ...] = ()
    strict: tuple[tuple[tuple[int, ...], int], ...] = ()
    equalities = ()  # none; read by the LP row count of benchmarks/bench_trace.py

    def __post_init__(self):
        for a, b in (*self.weak, *self.strict):
            if len(a) != self.dimension:
                raise DimensionMismatch(
                    f"constraint length {len(a)} != dimension {self.dimension}")
            if type(b) is not int or any(type(v) is not int for v in a):
                raise TypeError(f"constraint entries must be ints, got {a!r}, {b!r}")

    @classmethod
    def build(cls, dimension, weak=(), strict=()) -> "StrictLinearSystem":
        return cls(dimension, tuple((tuple(a), b) for a, b in weak),
                   tuple((tuple(a), b) for a, b in strict))


@dataclass(frozen=True)
class FeasibilityResult:
    """A verdict and, when feasible, the witness x as (xs, den), the slack
    as (num, den) and, from _relint_of_simplices, one barycentric tuple
    (nums, den) per simplex: integer numerators over one positive
    denominator, in lowest terms."""

    feasible: bool
    witness: Optional[tuple[tuple[int, ...], int]] = None
    slack: Optional[tuple[int, int]] = None
    barycentric: Optional[tuple[tuple[tuple[int, ...], int], ...]] = None


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

    def maximize(self) -> tuple[int, int]:
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

    def value(self) -> tuple[int, int]:
        """The objective at the current vertex, as (num, den) in lowest terms."""
        return _ratio(-self.obj[-1], self.den)

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
        artificial columns.  Every row has its own slack column, so the
        columns below limit have full row rank and each artificial leaves."""
        cols = self.cols
        for i, b in enumerate(self.basis):
            if b >= limit:
                row = self.t[i]
                q = min((k for k, c in enumerate(cols) if c < limit and row[k]),
                        key=cols.__getitem__, default=None)
                if q is None:
                    raise InvariantViolation("an artificial cannot leave the basis")
                self.pivot(i, q)
        keep = [k for k, c in enumerate(cols) if c < limit] + [-1]
        self.t = [[row[k] for k in keep] for row in self.t]
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
    The reported slack is the smallest strict-constraint margin, or the
    optimal t when there is no strict constraint.
    """
    tab = _optimal_tableau(sys)
    if tab is None:
        return FeasibilityResult(False)
    xs, den = witness = _witness(tab, sys.dimension)
    margins = [b * den - sum(map(_mul, a, xs)) for a, b in sys.strict]
    slack = _ratio(min(margins), den) if margins else tab.value()
    return FeasibilityResult(True, witness, slack)


def _optimal_tableau(sys: StrictLinearSystem) -> Optional[_Simplex]:
    """strict_feasible's two-phase solve: the tableau at the optimum of t,
    or None when the system is infeasible."""
    dim = sys.dimension
    # variable layout: x' (dim), mu, t | slacks | artificials
    nx = dim + 2
    raw = [([*a, -sum(a), 0], b) for a, b in sys.weak]
    raw += [([*a, -sum(a), 1], b) for a, b in sys.strict]
    raw.append(([0] * (dim + 1) + [1], 1))
    limit = nx + len(raw)
    # A row with a negative rhs is flipped and starts on an artificial, the
    # artificials numbered from limit in row order; its slack starts
    # nonbasic, after the x' columns.
    nflip = sum(1 for _, rhs in raw if rhs < 0)
    cols = list(range(nx))
    rows, basis = [], []
    for si, (coef, rhs) in enumerate(raw):
        line = coef + [0] * nflip
        if rhs < 0:
            basis.append(limit + len(cols) - nx)
            line[len(cols)] = 1
            cols.append(nx + si)
            line, rhs = [-x for x in line], -rhs
        else:
            basis.append(nx + si)
        rows.append(line + [rhs])
    tab = _Simplex(rows, [1] * len(rows), basis, cols)

    if nflip:
        tab.set_objective([0] * limit + [-1] * nflip)
        if tab.maximize()[0] != 0:
            return None
        tab.drive_out(limit)
    tab.set_objective([0] * (dim + 1) + [1] + [0] * len(raw))  # maximize t
    return tab if tab.maximize()[0] > 0 else None


def _witness(tab: _Simplex, dim: int) -> tuple[tuple[int, ...], int]:
    """x = x' - mu*1 at the tableau's vertex, as (xs, den) in lowest terms:
    a basic variable is its row's rhs over the row's bc, any other is 0."""
    val = [(0, 1)] * (dim + 1)
    for row, bi, b in zip(tab.t, tab.bc, tab.basis):
        if b <= dim:
            val[b] = (row[-1], bi)
    den = _lcm(*(d for _, d in val))
    mu = val[dim][0] * (den // val[dim][1])
    return _lowest([n * (den // d) - mu for n, d in val[:dim]], den)


def _simplex_functionals(fam):
    """Integer barycentric functionals of a full simplex of integer points.

    Returns (rows, k) with lambda_j(x) = (rows[j] . (x, 1)) / k and k > 0,
    or None when the points are affinely dependent.  rows[j] is column j of
    N, where N / k is the integer_inverse of the matrix whose rows are
    (p, 1).
    """
    inv = integer_inverse([[*p, 1] for p in fam])
    if inv is None:
        return None
    inv_rows, den = inv
    return [list(col) for col in zip(*inv_rows)], den


def _relint_of_simplices(simplices, dim: int) -> FeasibilityResult:
    """Whether the relative interiors of full simplices intersect, given as
    the (rows, k) functionals of _simplex_functionals, by row
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
        dim, (), [rows[i] for i in sorted({own[0] for own in members})]))
    while tab is not None:
        xs, scale = witness = _witness(tab, dim)
        margins = [b * scale - sum(map(_mul, a, xs)) for a, b in rows]
        worst = {min(own, key=lambda i: (margins[i], i)) for own in members}
        violated = sorted(i for i in worst if margins[i] <= 0)
        if not violated:
            break
        for i in violated:
            # a.x + t <= b over x', mu, t, as _optimal_tableau lays it out
            a, b = rows[i]
            tab.add_row([*a, -sum(a), 1], b)
        if not tab.restore() or tab.value()[0] <= 0:
            tab = None
    if tab is None:
        return FeasibilityResult(False)
    # lambda_j = (r . (xs, scale)) / (k * scale)
    bary = tuple(
        _lowest([sum(map(_mul, r, xs)) + r[dim] * scale for r in fam_rows], k * scale)
        for fam_rows, k in simplices)
    slack = _ratio(min(margins), scale) if rows else tab.value()
    return FeasibilityResult(True, witness, slack, bary)
