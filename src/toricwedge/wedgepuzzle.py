"""Wedge complexes over polygons, characteristic matrices, shifts and puzzles.

Vertices of the wedged polygon carry labels (i, k) with i in 1..m and copy
index k in 1..j_i.  A puzzle assigns a plane fan to every vertex of the
edge-colored graph G(J) (the 1-skeleton of a product of simplices, one
simplex factor per polygon vertex); edges of color i connect fans that are
equal or differ by a shift along the line through ray i and its opposite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .exactmath import InvariantViolation, integer_det
from .planefan import (
    NoOppositeRay,
    PlaneFan,
    det2,
    enumerate_fans,
    opposite_position,
    validate,
)

Label = "tuple[int, int]"


class NotWedged(ValueError):
    pass


class InvalidPuzzle(ValueError):
    pass


class LabelMismatch(ValueError):
    pass


class NotASquare(ValueError):
    pass


@dataclass(frozen=True)
class WedgeSignature:
    m: int
    J: tuple[int, ...]

    def __post_init__(self):
        if self.m < 3 or len(self.J) != self.m or any(j < 1 for j in self.J):
            raise ValueError(f"bad signature m={self.m}, J={self.J}")

    @property
    def d(self) -> int:
        return sum(self.J)

    @property
    def n(self) -> int:
        # facet size of the wedged polygon complex
        return self.d - self.m + 2


def signature(m, J) -> WedgeSignature:
    return WedgeSignature(m, tuple(J))


@dataclass(frozen=True)
class WedgeComplex:
    sig: WedgeSignature
    labels: tuple[tuple[int, int], ...]
    facets: tuple[frozenset, ...]


@lru_cache(maxsize=None)
def build_complex(sig: WedgeSignature) -> WedgeComplex:
    """Facets of the wedged polygon: for each polygon edge {i, i+1}, all
    copies of i and i+1 together with all-but-one copies of every other
    vertex, one facet per choice of omitted copies."""
    m, J = sig.m, sig.J
    labels = tuple((i, k) for i in range(1, m + 1) for k in range(1, J[i - 1] + 1))
    facets = []
    for i in range(1, m + 1):
        nxt = i % m + 1
        others = [t for t in range(1, m + 1) if t not in (i, nxt)]
        for omitted in itertools.product(*[range(1, J[t - 1] + 1) for t in others]):
            facet = {(i, k) for k in range(1, J[i - 1] + 1)}
            facet |= {(nxt, k) for k in range(1, J[nxt - 1] + 1)}
            for t, om in zip(others, omitted):
                facet |= {(t, k) for k in range(1, J[t - 1] + 1) if k != om}
            facets.append(frozenset(facet))
    # the choices never collide: a facet's edge is recoverable as its set of
    # fully-present vertices; sorting fixes a deterministic order
    uniq = sorted(set(facets), key=lambda f: sorted(f))
    return WedgeComplex(sig, labels, tuple(uniq))


@dataclass(frozen=True)
class CharMatrix:
    """Integer matrix with one labeled column per vertex of a wedge complex."""

    labels: tuple[tuple[int, int], ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows)

    def column(self, label) -> tuple[int, ...]:
        j = self.labels.index(label)
        return tuple(r[j] for r in self.rows)

    def signature_of(self) -> WedgeSignature:
        m = max(i for i, _ in self.labels)
        J = [0] * m
        for i, _ in self.labels:
            J[i - 1] += 1
        return WedgeSignature(m, tuple(J))


def matrix_from_fan(fan: PlaneFan) -> CharMatrix:
    labels = tuple((i, 1) for i in range(1, fan.m + 1))
    rows = (tuple(x for x, _ in fan.rays), tuple(y for _, y in fan.rays))
    return CharMatrix(labels, rows)


def fan_from_matrix(mat: CharMatrix) -> PlaneFan:
    if mat.n != 2:
        raise ValueError("matrix does not describe a plane fan")
    order = sorted(mat.labels)
    return PlaneFan(tuple((mat.column(l)[0], mat.column(l)[1]) for l in order))


@lru_cache(maxsize=None)
def shift(fan: PlaneFan, color: int, e: int) -> PlaneFan:
    """Shift along the line through ray `color` and its opposite.

    Rays strictly between the opposite ray and ray `color` (counterclockwise
    from the opposite ray, the lower half-plane after normalizing the colored
    ray to (1,0)) move by v -> v - e*det(v_i, v)*v_i.  e = 0 is the identity
    and needs no opposite ray.
    """
    if e == 0:
        return fan
    i = (color - 1) % fan.m
    ell = opposite_position(fan, i)
    if ell is None:
        raise NoOppositeRay(f"no ray opposite to color {color}")
    vi = fan.rays[i]
    rays = list(fan.rays)
    b = (ell + 1) % fan.m
    while b != i:
        x, y = rays[b]
        yp = det2(vi, rays[b])
        if yp >= 0:
            raise InvariantViolation("lower-block ray with nonnegative normalized height")
        rays[b] = (x - e * yp * vi[0], y - e * yp * vi[1])
        b = (b + 1) % fan.m
    return PlaneFan(tuple(rays))


@lru_cache(maxsize=None)
def is_edge(f1: PlaneFan, f2: PlaneFan, color: int) -> Optional[int]:
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


class Puzzle:
    """Assignment of plane fans to the vertices of G(J), all in one basis."""

    def __init__(self, sig: WedgeSignature, assignment):
        self.sig = sig
        self.assignment = dict(assignment)

    @property
    def base(self) -> PlaneFan:
        return self.assignment[(1,) * self.sig.m]

    def edge_parameter(self, a, b) -> Optional[int]:
        color = next(i + 1 for i in range(self.sig.m) if a[i] != b[i])
        return is_edge(self.assignment[a], self.assignment[b], color)

    def edge_data(self):
        return {(a, b): self.edge_parameter(a, b) for a, b in gj_edges(self.sig)}

    def __eq__(self, other):
        return isinstance(other, Puzzle) and self.sig == other.sig \
            and self.assignment == other.assignment

    def __repr__(self):
        return f"Puzzle(m={self.sig.m}, J={self.sig.J}, base={self.base.rays})"


def gj_vertices(sig: WedgeSignature):
    return itertools.product(*[range(1, j + 1) for j in sig.J])


def gj_edges(sig: WedgeSignature):
    for a in gj_vertices(sig):
        for i in range(sig.m):
            for k in range(a[i] + 1, sig.J[i] + 1):
                b = a[:i] + (k,) + a[i + 1:]
                yield a, b


def gj_squares(sig: WedgeSignature):
    """2-faces of the simplex product: one edge in each of two distinct colors.

    Yields (colors, corners) with corners ordered (base, +i, +t, ++)."""
    m, J = sig.m, sig.J
    wedged = [i for i in range(m) if J[i] >= 2]
    for i, t in itertools.combinations(wedged, 2):
        rest = [x for x in range(m) if x not in (i, t)]
        for gamma in itertools.product(*[range(1, J[x] + 1) for x in rest]):
            fixed = dict(zip(rest, gamma))
            for a, a2 in itertools.combinations(range(1, J[i] + 1), 2):
                for b, b2 in itertools.combinations(range(1, J[t] + 1), 2):
                    def vert(ci, ct):
                        v = [0] * m
                        for x, g in fixed.items():
                            v[x] = g
                        v[i], v[t] = ci, ct
                        return tuple(v)
                    yield (i + 1, t + 1), (vert(a, b), vert(a2, b), vert(a, b2), vert(a2, b2))


def gj_cubes(sig: WedgeSignature):
    m, J = sig.m, sig.J
    wedged = [i for i in range(m) if J[i] >= 2]
    for i, t, u in itertools.combinations(wedged, 3):
        rest = [x for x in range(m) if x not in (i, t, u)]
        for gamma in itertools.product(*[range(1, J[x] + 1) for x in rest]):
            fixed = dict(zip(rest, gamma))
            choices = [itertools.combinations(range(1, J[x] + 1), 2) for x in (i, t, u)]
            for (a, a2), (b, b2), (c, c2) in itertools.product(*choices):
                def vert(ci, ct, cu):
                    v = [0] * m
                    for x, g in fixed.items():
                        v[x] = g
                    v[i], v[t], v[u] = ci, ct, cu
                    return tuple(v)
                corners = [vert(x, y, z) for x in (a, a2) for y in (b, b2) for z in (c, c2)]
                yield (i + 1, t + 1, u + 1), tuple(corners)


def assemble_matrix(puzzle: Puzzle) -> CharMatrix:
    """Standard-form characteristic matrix over the wedged polygon.

    The top two rows carry the base fan on the first copies; every extra copy
    (i, k) contributes a row with -1 at (i,1), +1 at (i,k) and the shift
    pattern of its base-incident edge on the lower-block columns.
    """
    sig = puzzle.sig
    m, J = sig.m, sig.J
    base = puzzle.base
    labels = tuple((i, k) for i in range(1, m + 1) for k in range(1, J[i - 1] + 1))
    col = {lab: idx for idx, lab in enumerate(labels)}
    d = sig.d
    top_x = [0] * d
    top_y = [0] * d
    for i in range(1, m + 1):
        x, y = base.rays[i - 1]
        top_x[col[(i, 1)]] = x
        top_y[col[(i, 1)]] = y
    rows = [top_x, top_y]
    alpha0 = (1,) * m
    for i in range(1, m + 1):
        for k in range(2, J[i - 1] + 1):
            alpha = alpha0[:i - 1] + (k,) + alpha0[i:]
            e = is_edge(base, puzzle.assignment[alpha], i)
            if e is None:
                raise InvalidPuzzle(f"no color-{i} edge between base and copy {k}")
            row = [0] * d
            row[col[(i, 1)]] = -1
            row[col[(i, k)]] = 1
            if e != 0:
                pos = i - 1
                ell = opposite_position(base, pos)
                vi = base.rays[pos]
                b = (ell + 1) % m
                while b != pos:
                    row[col[(b + 1, 1)]] = -det2(vi, base.rays[b]) * e
                    b = (b + 1) % m
            rows.append(row)
    return CharMatrix(labels, tuple(tuple(r) for r in rows))


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


def check_nonsingular(mat: CharMatrix, cx: WedgeComplex) -> bool:
    """True iff every facet minor of the matrix is +-1."""
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
    try:
        mat = assemble_matrix(Puzzle(sig, assignment))
    except InvalidPuzzle:
        return False
    if not check_nonsingular(mat, build_complex(sig)):
        return False
    for alpha in gj_vertices(sig):
        ci = alpha[i - 1]
        ct = alpha[t - 1]
        want = (f00, f10, f01, f11)[(ci - 1) + 2 * (ct - 1)]
        if project_to_vertex(mat, alpha) != want:
            return False
    return True


def validate_puzzle(p: Puzzle) -> bool:
    """Edge color-consistency plus realizability of every square of G(J)."""
    sig = p.sig
    for a in gj_vertices(sig):
        if a not in p.assignment:
            return False
    for a, b in gj_edges(sig):
        if p.edge_parameter(a, b) is None:
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


def is_irreducible(p: Puzzle) -> bool:
    return all(p.assignment[a] != p.assignment[b] for a, b in gj_edges(p.sig))


def _dihedral_maps(m):
    """Position maps new->old for the dihedral group, with a reflection flag."""
    maps = []
    for k in range(m):
        maps.append((tuple((p + k) % m for p in range(m)), False))
        maps.append((tuple((k - p) % m for p in range(m)), True))
    return maps


def _transform_fan(fan: PlaneFan, pos_map, reflect: bool) -> PlaneFan:
    rays = [fan.rays[p] for p in pos_map]
    if reflect:
        rays = [(y, x) for x, y in rays]
    return PlaneFan(tuple(rays))


def puzzle_canonical_key(p: Puzzle):
    """Minimal serialization over polygon symmetries, copy relabelings per
    color, and a simultaneous basis change.  Keys are comparable across
    signatures that differ by a polygon symmetry, so equivalent puzzles over
    relabeled signatures collide."""
    sig = p.sig
    m, J = sig.m, sig.J
    best = None
    for pos_map, reflect in _dihedral_maps(m):
        new_j = tuple(J[pos_map[x]] for x in range(m))
        verts = list(itertools.product(*[range(1, j + 1) for j in new_j]))
        copy_perms = [itertools.permutations(range(1, new_j[x] + 1)) for x in range(m)]
        for gs in itertools.product(*copy_perms):
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


def enumerate_puzzles(sig: WedgeSignature, base_depth: int, e_bound: int) -> list[Puzzle]:
    """All valid puzzles with the base fan drawn from enumerate_fans(m,
    base_depth) and base-incident edge parameters bounded by e_bound, up to
    simultaneous fan equivalence and G(J) symmetry."""
    return [p for _, p in enumerate_puzzles_keyed(sig, base_depth, e_bound)]


def enumerate_puzzles_keyed(sig: WedgeSignature, base_depth: int, e_bound: int):
    """enumerate_puzzles together with each class's canonical key, sorted."""
    m, J = sig.m, sig.J
    out = {}
    for base in enumerate_fans(m, base_depth):
        per_color = []
        for i in range(1, m + 1):
            if J[i - 1] == 1:
                per_color.append([()])
                continue
            if opposite_position(base, i - 1) is None:
                per_color.append([(0,) * (J[i - 1] - 1)])
            else:
                rng = range(-e_bound, e_bound + 1)
                per_color.append(list(itertools.product(rng, repeat=J[i - 1] - 1)))
        for combo in itertools.product(*per_color):
            assignment = {}
            ok = True
            for alpha in gj_vertices(sig):
                fan = base
                try:
                    for i in range(1, m + 1):
                        if alpha[i - 1] > 1:
                            e = combo[i - 1][alpha[i - 1] - 2]
                            if e:
                                fan = shift(fan, i, e)
                except NoOppositeRay:
                    ok = False
                    break
                assignment[alpha] = fan
            if not ok:
                continue
            puzzle = Puzzle(sig, assignment)
            if not validate_puzzle(puzzle):
                continue
            key = puzzle_canonical_key(puzzle)
            if key not in out:
                out[key] = puzzle
    return [(k, out[k]) for k in sorted(out)]


def matrix_to_dict(mat: CharMatrix) -> dict:
    return {
        "n": mat.n,
        "cols": [{"label": f"{i}_{k}", "v": list(mat.column((i, k)))}
                 for (i, k) in mat.labels],
    }


def matrix_from_dict(data: dict) -> CharMatrix:
    labels = []
    cols = []
    for entry in data["cols"]:
        i, k = entry["label"].split("_")
        labels.append((int(i), int(k)))
        cols.append([int(x) for x in entry["v"]])
    n = int(data["n"])
    if any(len(c) != n for c in cols):
        raise ValueError("column length disagrees with n")
    rows = tuple(tuple(c[r] for c in cols) for r in range(n))
    return CharMatrix(tuple(labels), rows)


def puzzle_to_dict(p: Puzzle) -> dict:
    sig = p.sig
    edges = []
    alpha0 = (1,) * sig.m
    for i in range(1, sig.m + 1):
        for k in range(2, sig.J[i - 1] + 1):
            alpha = alpha0[:i - 1] + (k,) + alpha0[i:]
            edges.append({
                "color": i,
                "from": list(alpha0),
                "to": list(alpha),
                "e": p.edge_parameter(alpha0, alpha),
            })
    return {
        "m": sig.m,
        "J": list(sig.J),
        "base": {"rays": [[x, y] for x, y in p.base.rays]},
        "edges": edges,
    }


def puzzle_from_dict(data: dict) -> Puzzle:
    sig = WedgeSignature(int(data["m"]), tuple(int(j) for j in data["J"]))
    base = validate(data["base"]["rays"])
    params = {}
    for edge in data.get("edges", []):
        a = tuple(int(x) for x in edge["from"])
        b = tuple(int(x) for x in edge["to"])
        if a != (1,) * sig.m:
            raise InvalidPuzzle("edge list must be rooted at the all-ones vertex")
        i = int(edge["color"])
        k = b[i - 1]
        params[(i, k)] = int(edge["e"])
    assignment = {}
    for alpha in gj_vertices(sig):
        fan = base
        for i in range(1, sig.m + 1):
            if alpha[i - 1] > 1:
                e = params.get((i, alpha[i - 1]), 0)
                if e:
                    fan = shift(fan, i, e)
        assignment[alpha] = fan
    return Puzzle(sig, assignment)
