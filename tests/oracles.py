"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's simplex path so that agreement is
meaningful: Fourier-Motzkin elimination for feasibility, a rational grid
sweep for relative-interior membership in the plane, and a minor-by-minor
cofactor matrix against which the library's integer adjugate is checked.
The feasibility engine is checked against the earlier simplex whose
objective row was kept in Fractions (in the same shift-column layout), the
row-generated coface intersection against one solve of its whole strict
system, kernel_basis against a Fraction row reduction, and
kernel_with_ones against the greedy rank loop it replaced.  The facet
table is checked against one integer_det per facet minor, and the coface
functionals it gives by Gale duality against one barycentric adjugate per
coface, the route s_sigma took through relint_intersection before.  The
puzzle classes are checked against a canonical key that tries every
copy permutation, an enumeration over every ordered offset tuple, and the
offset-multiset enumeration that checked every square of G(J) of every
candidate for realizability, where the library checks each class once.
Edges are checked by is_edge, which solves for the shift between two fans
where the library shifts by the known difference of two offsets, and
AssignedPuzzle holds a fan at every vertex of G(J), so that tests can give
the library assignments that no base and offsets produce.
"""

from functools import lru_cache
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd
from typing import NamedTuple

from toricwedge.exactmath import (
    FeasibilityResult,
    InvariantViolation,
    QMatrix,
    StrictLinearSystem,
    _relint_of_simplices,
    _simplex_functionals,
    clear_denominators,
    integer_det,
    make_primitive,
    relint_intersection,
    strict_feasible,
    verify_result,
)
from toricwedge.planefan import NoOppositeRay, PlaneFan, det2, enumerate_fans, opposite_position
from toricwedge.shephard import (
    PolytopalityCertificate,
    _coface_functionals,
    _facet_table,
    _fan_data,
    _validated,
    coface_indices,
    s_sigma,
    shephard_diagram,
)
from toricwedge.wedgepuzzle import (
    LabelMismatch,
    WedgeSignature,
    _dihedral_maps,
    _transform_fan,
    assemble_matrix,
    build_complex,
    check_nonsingular,
    gj_edges,
    gj_vertices,
    project_to_vertex,
    puzzle_canonical_key,
    shift,
)

Q = Fraction


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
    """kernel_with_ones by greedy extension of {ones} with independent kernel
    columns, one rank computation per candidate column."""
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
    for a, b in sys.equalities:
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
    simplices = [_simplex_functionals([tuple(map(Q, p)) for p in fam]) for fam in families]
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
    return StrictLinearSystem.build(dim, (), (), strict), simplices


def reference_relint_intersection(families, dimension=None):
    """relint_intersection's full-simplex encoding as one solve of the whole
    strict system, where the library generates rows as they are violated.
    Families that are not all full simplices go to the library's general
    encoding, which row generation does not touch."""
    dim = len(families[0][0]) if dimension is None else dimension
    full = simplex_strict_system(families, dim)
    if full is None:
        return relint_intersection(families, dimension)
    return solve_strict_system(*full, dim)


def solve_strict_system(sys, simplices, dim):
    """One solve of a whole strict system from simplex_strict_system, with
    each family's barycentric tuple from its functionals at the witness."""
    res = strict_feasible(sys)
    if not res.feasible:
        return res
    xs, scale = clear_denominators(res.witness)
    bary = tuple(tuple(factor * Q(sum(r[c] * xs[c] for c in range(dim)) + r[dim] * scale, scale)
                       for r in rows)
                 for rows, factor in simplices)
    return FeasibilityResult(True, res.witness, res.slack, bary)


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


@lru_cache(maxsize=1)
def library_shephard(obj, cx):
    """(cx, table, diagram, certificate): the complex, facet table, Shephard
    diagram and s_sigma certificate the library gives a valid input.  One
    entry is cached, so the references below, run one after the other on
    the same object, share them."""
    cx = _validated(obj, cx)
    table = _facet_table(obj, cx)
    diagram = shephard_diagram(obj, cx)
    return cx, table, diagram, s_sigma(diagram, table)


@lru_cache(maxsize=1)
def reference_cofaces(obj, cx):
    """(facets, families, system): the facets of a valid input, the points
    of each facet's coface in library_shephard's diagram, and
    simplex_strict_system of those families, None when some coface is not a
    nonsingular full simplex.  One entry is cached, like library_shephard's."""
    cx, _, diagram, _ = library_shephard(obj, cx)
    _, _, facets = _fan_data(obj, cx)
    families = coface_families(diagram, facets)
    return facets, families, simplex_strict_system(families, diagram.ambient_dim)


def check_shephard_against_reference(obj, cx=None):
    """Shephard verdict of obj from the library's s_sigma, asserted equal to
    the one-shot reference's, with a feasible certificate re-verified by
    substitution into the whole strict system."""
    facets, families, full = reference_cofaces(obj, cx)
    _, _, diagram, cert = library_shephard(obj, cx)
    ok = cert.kind == "interior-point"
    dim = diagram.ambient_dim
    ref = relint_intersection(families, dim) if full is None else \
        solve_strict_system(*full, dim)
    assert ok == ref.feasible, f"Shephard verdict {ok} differs from the reference's"
    if ok:
        bary = tuple(cert.barycentric[tuple(sorted(f))] for f in facets)
        assert_relint_certificate(families, dim,
                                  FeasibilityResult(True, cert.point, cert.slack, bary),
                                  None if full is None else full[0])
    return ok


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
    if not res.feasible:
        return PolytopalityCertificate(kind="empty-witness")
    bary = {tuple(sorted(f)): lam for f, lam in zip(facets, res.barycentric)}
    return PolytopalityCertificate(
        kind="interior-point", point=res.witness, barycentric=bary, slack=res.slack)


def _same_functionals(a, b) -> bool:
    """Whether two (rows, factor) simplices give the same functionals as
    rationals: factor_a * row_a == factor_b * row_b, cross-multiplied in
    integers."""
    (rows_a, fa), (rows_b, fb) = a, b
    ka = fa.numerator * fb.denominator
    kb = fb.numerator * fa.denominator
    return len(rows_a) == len(rows_b) and all(
        len(ra) == len(rb) and all(x * ka == y * kb for x, y in zip(ra, rb))
        for ra, rb in zip(rows_a, rows_b))


def check_facet_table_against_reference(obj, cx=None):
    """The facet table and the Gale functionals of a valid input against the
    routes they replaced: the table is unimodular and every facet
    determinant equals integer_det of its minor, every coface functional
    equals the one _simplex_functionals computes from the coface's points,
    exactly as rationals, and s_sigma gives the certificate that the
    reference gives from those functionals, as relint_intersection did.
    Returns the number of coface functionals compared."""
    facets, _, full = reference_cofaces(obj, cx)
    cx, table, diagram, cert = library_shephard(obj, cx)
    _, gens, _ = _fan_data(obj, cx)
    assert list(table) == [tuple(sorted(f)) for f in facets]
    assert table.unimodular
    if cx is not None:
        assert check_nonsingular(obj, cx) and reference_check_nonsingular(obj, cx)
    n = len(next(iter(gens.values())))
    for facet, (_, det) in zip(table.facets, table.inverses):
        assert det == integer_det([[gens[lab][c] for lab in facet] for c in range(n)])
    gale = _coface_functionals(diagram, table)
    assert gale is not None, "the Gale functionals do not apply to a valid input"
    assert full is not None, "some coface is not a nonsingular full simplex"
    wants = full[1]
    assert len(gale) == len(wants)
    compared = 0
    for simplex, want in zip(gale, wants):
        assert _same_functionals(simplex, want), "coface functionals differ"
        compared += len(want[0])
    ref = _reference_certificate(_relint_of_simplices(wants, diagram.ambient_dim), facets)
    assert cert == ref, "Shephard certificate differs from the reference's"
    return compared


def fourier_motzkin_feasible(system) -> bool:
    """Decide a StrictLinearSystem by eliminating variables one at a time.

    Rows are (coeffs, rhs, strict_flag) meaning coeffs.x < rhs (strict) or
    coeffs.x <= rhs.  Equalities enter as two opposite weak inequalities.
    Rows are kept primitive and dominated parallel rows are dropped, with the
    cheapest variable (fewest pos*neg combinations) eliminated first.
    """
    rows = []
    for a, b in system.equalities:
        rows.append(_primitive(list(a), b, False))
        rows.append(_primitive([-c for c in a], -b, False))
    for a, b in system.weak:
        rows.append(_primitive(list(a), b, False))
    for a, b in system.strict:
        rows.append(_primitive(list(a), b, True))
    rows = _dominance_filter(rows)

    remaining = list(range(system.dimension))
    while remaining:
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

    for _, rhs, st in rows:
        if st and rhs <= 0:
            return False
        if not st and rhs < 0:
            return False
    return True


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
    library's loop before realizability moved to one test per class."""
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
