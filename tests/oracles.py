"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's simplex path so that agreement is
meaningful: Fourier-Motzkin elimination for feasibility, a rational grid
sweep for relative-interior membership in the plane, and a minor-by-minor
cofactor matrix against which the library's integer adjugate is checked.
The puzzle classes are checked against a canonical key that tries every
copy permutation and an enumeration over every ordered offset tuple.
"""

from fractions import Fraction
from itertools import permutations, product
from math import gcd

from toricwedge.exactmath import integer_det
from toricwedge.planefan import NoOppositeRay, enumerate_fans, opposite_position
from toricwedge.wedgepuzzle import (
    Puzzle,
    _dihedral_maps,
    _transform_fan,
    gj_vertices,
    shift,
    validate_puzzle,
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


def ordered_enumerate_puzzles_keyed(sig, base_depth, e_bound):
    """Classes of valid puzzles from every ordered tuple of offsets per color.

    Each candidate is keyed by permutation_canonical_key, and the first
    candidate met for a key is its representative, in the same loop order as
    the library (bases, then offset tuples lexicographically).
    """
    m, J = sig.m, sig.J
    out = {}
    for base in enumerate_fans(m, base_depth):
        per_color = []
        for i in range(1, m + 1):
            if J[i - 1] == 1:
                per_color.append([()])
            elif opposite_position(base, i - 1) is None:
                per_color.append([(0,) * (J[i - 1] - 1)])
            else:
                rng = range(-e_bound, e_bound + 1)
                per_color.append(list(product(rng, repeat=J[i - 1] - 1)))
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
                continue
            puzzle = Puzzle(sig, assignment)
            if not validate_puzzle(puzzle):
                continue
            key = permutation_canonical_key(puzzle)
            if key not in out:
                out[key] = puzzle
    return [(k, out[k]) for k in sorted(out)]
