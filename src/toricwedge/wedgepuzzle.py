"""Wedge complexes over polygons, characteristic matrices, facet tables,
shifts and puzzles.

Vertices of the wedged polygon carry labels (i, k) with i in 1..m and copy
index k in 1..j_i.  A puzzle is a base fan together with a shift offset for
every extra copy: copy k of color i has offset o_i(k), with o_i(1) = 0.  The
fan at a vertex alpha of the edge-colored graph G(J) (the 1-skeleton of a
product of simplices, one simplex factor per polygon vertex) is the base
shifted in each color i by o_i(alpha_i), and the puzzle is valid when every
color-i edge alpha -> beta is the shift of the fan at alpha by
o_i(beta_i) - o_i(alpha_i) along the line through ray i and its opposite.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional

from .exactmath import InvariantViolation, integer_adjugate
from .planefan import (
    NoOppositeRay,
    PlaneFan,
    apply_unimodular,
    det2,
    enumerate_fans,
    opposite_position,
)


class NotWedged(ValueError):
    pass


class InvalidPuzzle(ValueError):
    pass


class LabelMismatch(ValueError):
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


@lru_cache(maxsize=256)
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


@lru_cache(maxsize=8192)
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


@dataclass(frozen=True)
class Puzzle:
    """A base fan and the offsets of the extra copies: offsets[i - 1][k - 2]
    is o_i(k), the shift in color i of copy k >= 2 against copy 1."""

    sig: WedgeSignature
    base: PlaneFan
    offsets: tuple[tuple[int, ...], ...]

    @cached_property
    def assignment(self) -> dict:
        """The fan at every vertex of G(J), by shifted_assignment."""
        return shifted_assignment(self.sig, self.base, self.offsets)

    @cached_property
    def matrix(self) -> CharMatrix:
        """The standard-form characteristic matrix, by assemble_matrix."""
        return assemble_matrix(self)


def gj_vertices(sig: WedgeSignature):
    return itertools.product(*[range(1, j + 1) for j in sig.J])


def gj_edges(sig: WedgeSignature):
    """Every edge (color, a, b) of G(J), with a below b in that color."""
    for a in gj_vertices(sig):
        for i in range(sig.m):
            for k in range(a[i] + 1, sig.J[i] + 1):
                b = a[:i] + (k,) + a[i + 1:]
                yield i + 1, a, b


def assemble_matrix(puzzle: Puzzle) -> CharMatrix:
    """Standard-form characteristic matrix over the wedged polygon.

    The top two rows carry the base fan on the first copies; every extra copy
    (i, k) contributes a row with -1 at (i,1), +1 at (i,k) and the shift
    pattern of its offset on the lower-block columns.
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
    for i in range(1, m + 1):
        for k, e in enumerate(puzzle.offsets[i - 1], start=2):
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


@dataclass(frozen=True)
class FacetTable:
    """Each facet's labels, sorted, with the (adjugate, determinant) of its
    generator matrix: the matrix whose columns are the facet's generators in
    label order, None when it is singular or not square.  Iterating over a
    table gives its facets."""

    facets: tuple[tuple, ...]
    inverses: tuple[Optional[tuple[list[list[int]], int]], ...]

    def __iter__(self):
        return iter(self.facets)

    @property
    def unimodular(self) -> bool:
        """Whether every facet minor is +-1."""
        return all(inv is not None and abs(inv[1]) == 1 for inv in self.inverses)


def facet_table(generators: dict, facets) -> FacetTable:
    """The FacetTable of label sets over labeled integer generators, one
    integer_adjugate per facet."""
    n = len(next(iter(generators.values())))
    keys = []
    inverses = []
    for facet in facets:
        labs = tuple(sorted(facet))
        keys.append(labs)
        inverses.append(
            integer_adjugate([[generators[lab][c] for lab in labs] for c in range(n)])
            if len(labs) == n else None)
    return FacetTable(tuple(keys), tuple(inverses))


@lru_cache(maxsize=1)
def matrix_facet_table(mat: CharMatrix, cx: WedgeComplex) -> FacetTable:
    """The FacetTable of a matrix over the facets of cx; raises
    LabelMismatch unless the matrix has one column per vertex of cx.  One
    entry is cached, so the minor check and the certification of the same
    matrix read one build."""
    if set(mat.labels) != set(cx.labels):
        raise LabelMismatch("matrix labels do not match the complex")
    return facet_table({lab: mat.column(lab) for lab in mat.labels}, cx.facets)


def check_nonsingular(mat: CharMatrix, cx: WedgeComplex) -> bool:
    """True iff every facet minor of the matrix is +-1."""
    return matrix_facet_table(mat, cx).unimodular


def validate_puzzle(p: Puzzle) -> bool:
    """Edge color-consistency: every color-i edge a -> b of G(J) is the shift
    of the fan at a in color i by o_i(b_i) - o_i(a_i).  A nonzero shift that
    meets a fan without a ray opposite to its color makes the puzzle invalid."""
    steps = [(0,) + o for o in p.offsets]
    try:
        fans = p.assignment
        for i, a, b in gj_edges(p.sig):
            e = steps[i - 1][b[i - 1] - 1] - steps[i - 1][a[i - 1] - 1]
            if shift(fans[a], i, e) != fans[b]:
                return False
    except NoOppositeRay:
        return False
    return True


def is_realizable(p: Puzzle) -> bool:
    """Whether the standard-form matrix of an edge-valid puzzle projects onto
    the assigned fan at every vertex of G(J).

    assemble_matrix takes the row of each base-incident vertex from that
    vertex's own offset, so the base and its neighbours are reproduced by
    construction; only vertices that differ from the base in two or more
    colors are projected.  Realizability is invariant under the
    relabelings and the basis change of the canonical key, so one
    representative decides it for its whole class.
    """
    mat = p.matrix
    for alpha in gj_vertices(p.sig):
        if sum(k > 1 for k in alpha) >= 2 and \
                project_to_vertex(mat, alpha) != p.assignment[alpha]:
            return False
    return True


@lru_cache(maxsize=16)
def _dihedral_maps(m):
    """Position maps new->old for the dihedral group, with a reflection flag."""
    maps = []
    for k in range(m):
        maps.append((tuple((p + k) % m for p in range(m)), False))
        maps.append((tuple((k - p) % m for p in range(m)), True))
    return tuple(maps)


def _transform_fan(fan: PlaneFan, pos_map, reflect: bool) -> PlaneFan:
    rays = [fan.rays[p] for p in pos_map]
    if reflect:
        rays = [(y, x) for x, y in rays]
    return PlaneFan(tuple(rays))


def _copy_classes(p: Puzzle, verts, color: int):
    """Class of each copy of a color: two copies share a class iff swapping
    them leaves every fan of the puzzle in place."""
    slices = {}
    for a in verts:
        slices.setdefault(a[color], []).append(p.assignment[a].rays)
    first = {}
    return {k: first.setdefault(tuple(sl), k) for k, sl in slices.items()}


def _tie_orders(group, classes):
    """Every order of a run of copies with equal single-copy fans that can
    give a different key: one order when all of them are interchangeable."""
    seen = set()
    out = []
    for perm in itertools.permutations(group):
        pattern = tuple(classes[k] for k in perm)
        if pattern not in seen:
            seen.add(pattern)
            out.append(perm)
    return out


def puzzle_canonical_key(p: Puzzle):
    """Minimal serialization over polygon symmetries, copy relabelings per
    color, and a simultaneous basis change.  Keys are comparable across
    signatures that differ by a polygon symmetry, so equivalent puzzles over
    relabeled signatures collide.

    The key of one relabeling is (new J, ((alpha, fan at alpha in the basis
    of the base fan), ...)) over the vertices alpha of G(J) in lexicographic
    order, and the canonical key is its minimum.  Only the dihedral maps
    with the smallest new J and, under them, the base copies (one per
    color) with the smallest normalized base fan can reach it, so only those
    are expanded.  For a fixed base the basis is fixed too, and the other
    copies of each color are put in order of their single-copy fans (the
    fan at the vertex that differs from the base in that color alone).
    Every relabeling that attains the minimum is in that order: the vertex
    carrying copy k of a color, with the base everywhere else, comes before
    every vertex that depends on copies k' > k of that color, so swapping an
    out-of-order pair k < k' changes nothing before it and lowers the fan
    there.  The ∏ j_i! copy permutations thus reduce to ∏ j_i base choices.
    Copies whose single-copy fans tie may still differ at other vertices, and
    then every order of the tied run is tried; tied copies that swap without
    moving any fan (always the case for enumerated puzzles, where equal
    single-copy fans mean equal offsets) need one order only.
    """
    sig = p.sig
    m, J = sig.m, sig.J
    verts = list(gj_vertices(sig))
    maps = [(tuple(J[o] for o in pos_map), pos_map, reflect)
            for pos_map, reflect in _dihedral_maps(m)]
    new_j = min(nj for nj, _, _ in maps)
    # the base fan of each (dihedral map, base copies) in its own basis
    bases = []
    for nj, pos_map, reflect in maps:
        if nj != new_j:
            continue
        moved = {a: _transform_fan(p.assignment[a], pos_map, reflect) for a in verts}
        for b in verts:
            (pp, rr), (qq, ss) = moved[b].rays[:2]
            u = ((ss, -qq), (-rr, pp))
            bases.append((apply_unimodular(moved[b], u).rays, pos_map, moved, b, u))
    least = min(base for base, *_ in bases)
    new_verts = list(itertools.product(*[range(1, j + 1) for j in new_j]))
    classes = {o: _copy_classes(p, verts, o) for o in range(m) if J[o] > 1}
    best = None
    for base, pos_map, moved, b, u in bases:
        if base != least:
            continue
        per_position = []
        for o in pos_map:
            rest = [k for k in range(1, J[o] + 1) if k != b[o]]
            single = {k: apply_unimodular(moved[b[:o] + (k,) + b[o + 1:]], u).rays
                      for k in rest}
            rest.sort(key=single.__getitem__)
            runs = [list(g) for _, g in itertools.groupby(rest, key=single.__getitem__)]
            choices = [_tie_orders(run, classes[o]) for run in runs]
            per_position.append([(b[o],) + sum(c, ()) for c in itertools.product(*choices)])
        for gs in itertools.product(*per_position):
            old = [None] * m
            fans = []
            for alpha in new_verts:
                for x, o in enumerate(pos_map):
                    old[o] = gs[x][alpha[x] - 1]
                fans.append((alpha, apply_unimodular(moved[tuple(old)], u).rays))
            key = (new_j, tuple(fans))
            if best is None or key < best:
                best = key
    return best


def shifted_assignment(sig: WedgeSignature, base: PlaneFan, offsets) -> dict:
    """The fan at every vertex alpha of G(J): the base shifted, in color
    order, by offsets[i - 1][alpha_i - 2] in each color i with alpha_i > 1.

    Raises NoOppositeRay when a nonzero shift meets a fan without a ray
    opposite to its color.
    """
    assignment = {}
    for alpha in gj_vertices(sig):
        fan = base
        for i, k in enumerate(alpha, start=1):
            if k > 1 and offsets[i - 1][k - 2]:
                fan = shift(fan, i, offsets[i - 1][k - 2])
        assignment[alpha] = fan
    return assignment


def enumerate_puzzles(sig: WedgeSignature, base_depth: int, e_bound: int) -> list[Puzzle]:
    """All valid puzzles with the base fan drawn from enumerate_fans(m,
    base_depth) and offsets bounded by e_bound, up to simultaneous fan
    equivalence and G(J) symmetry."""
    return [p for _, p in enumerate_puzzles_keyed(sig, base_depth, e_bound)]


def enumerate_puzzles_keyed(sig: WedgeSignature, base_depth: int, e_bound: int):
    """enumerate_puzzles together with each class's canonical key, sorted.

    The copies of a color are interchangeable, so each color's offsets are
    drawn as a sorted multiset (combinations_with_replacement) and never as
    an ordered tuple: every ordering of a multiset is a copy relabeling of
    the same puzzle, with the same canonical key and the same validity.  For
    a given base the lexicographically first offset tuple of a class is
    sorted within each color, and the multisets come in lexicographic order,
    so the representative kept for each key is the one the ordered tuples
    would give first.  Every candidate gets the edge check; realizability,
    a property of the whole class, is tested only on the candidate that
    would become a new key's representative.
    """
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
                per_color.append(list(itertools.combinations_with_replacement(
                    rng, J[i - 1] - 1)))
        for combo in itertools.product(*per_color):
            puzzle = Puzzle(sig, base, combo)
            if not validate_puzzle(puzzle):
                continue
            key = puzzle_canonical_key(puzzle)
            if key not in out and is_realizable(puzzle):
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
        label = entry["label"]
        match = isinstance(label, str) and re.fullmatch(r"([0-9]+)_([0-9]+)", label)
        if not match or min(int(match[1]), int(match[2])) < 1:
            raise ValueError(f"column label {label!r} is not i_k with integers i, k >= 1")
        labels.append((int(match[1]), int(match[2])))
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
        for k, e in enumerate(p.offsets[i - 1], start=2):
            alpha = alpha0[:i - 1] + (k,) + alpha0[i:]
            edges.append({"color": i, "from": list(alpha0), "to": list(alpha), "e": e})
    return {
        "m": sig.m,
        "J": list(sig.J),
        "base": {"rays": [[x, y] for x, y in p.base.rays]},
        "edges": edges,
    }
