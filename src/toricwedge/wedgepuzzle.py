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

from .exactmath import InvariantViolation, integer_inverse
from .planefan import (
    NoOppositeRay,
    PlaneFan,
    apply_unimodular,
    det2,
    enumerate_fans,
    normalize_basis,
    opposite_position,
)


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

    The matrix realizes the puzzle (its projection to each vertex alpha of
    G(J) is the fan that shifted_assignment puts there) whenever at most two
    colors have a nonzero offset and two such colors are opposite in the
    base, which enumerate_puzzles_keyed checks.  Let v be the base's
    rays, L_t the base's lower block of color t, and e_t = o_t(alpha_t), with
    e_t = 0 when alpha_t = 1.  Projecting to alpha takes the quotient of R^n
    by the columns (i, k) with k != alpha_i, and solving for the kept columns
    gives w_b = v_b - sum of e_t * det(v_t, v_b) * w_t over the colors t with
    e_t != 0 and b in L_t.  With one moved color t this is shift(base, t,
    e_t).  With two, t and t' = opposite(t), L_t and L_t' are the two open
    half-planes and neither contains t or t', so w_t = v_t, w_t' = -v_t, and
    w is exactly the composed shift that shifted_assignment builds: the first
    shift fixes the pair, and it fixes the second color's lower block (as an
    index range) and its determinants.  Three colors cannot be pairwise
    opposite.
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


@dataclass(frozen=True)
class FacetTable:
    """Each facet's sorted labels and integer tableau (W, den) with
    A_sigma^-1 A = W / den and den = |det A_sigma| > 0 (columns maps labels
    to columns of A), or None when A_sigma is singular or not square; walls
    holds (fi, r) for each pair fi < fj of facets with fj = fi - s + r."""

    facets: tuple[tuple, ...]
    columns: dict
    tableaux: tuple[Optional[tuple[list[list[int]], int]], ...]
    walls: tuple[tuple[int, object], ...]

    def __iter__(self):
        return iter(self.facets)

    @property
    def unimodular(self) -> bool:
        """Whether every facet minor is +-1."""
        return all(tab is not None and tab[1] == 1 for tab in self.tableaux)


@lru_cache(maxsize=256)
def _wall_graph(facets: tuple[tuple, ...]):
    """FacetTable's walls and each sorted facet's neighbours (tau, k, r,
    order): tau trades the facet's k-th label for r, and takes its row i
    from the facet's row order[i].  One ridge lookup per label."""
    ridges = {}
    for fi, facet in enumerate(facets):
        for k in range(len(facet)):
            ridges.setdefault(facet[:k] + facet[k + 1:], []).append((fi, k))
    adjacent = [[] for _ in facets]
    for sharing in ridges.values():
        for (fi, k), (tau, kt) in itertools.permutations(sharing, 2):
            r = facets[tau][kt]
            if r not in facets[fi]:
                adjacent[fi].append((tau, k, r, tuple(
                    k if lab == r else facets[fi].index(lab) for lab in facets[tau])))
    adjacent = [sorted(nbrs) for nbrs in adjacent]
    return adjacent, tuple((fi, r) for fi, nbrs in enumerate(adjacent)
                           for tau, _, r, _ in nbrs if tau > fi)


def _pivot(tableau, k, c, order):
    """The neighbour's tableau by one pivot on entry w = (k, c), or None
    when w = 0 and the neighbour is singular: den becomes |w|, row k times
    sign(w) becomes the new label's row, and every other row i becomes
    sign(w) (w row_i - row_i[c] row_k) / den, an exact division."""
    rows, den = tableau
    w = rows[k][c]
    if not w:
        return None
    pk, new = (rows[k], w) if w > 0 else ([-x for x in rows[k]], -w)
    return [pk if i == k else rows[i] if not rows[i][c] and new == den else
            [(new * x - rows[i][c] * y) // den for x, y in zip(rows[i], pk)]
            for i in order], new


def facet_table(generators: dict, facets) -> FacetTable:
    """The FacetTable of label sets over labeled integer generators.  The
    first facet not yet reached takes one integer_inverse (N, den), with
    tableau N A, and a breadth-first walk over the walls pivots once into
    each facet reached from a nonsingular one; tableaux are unique."""
    keys = tuple(tuple(sorted(f)) for f in facets)
    adjacent, walls = _wall_graph(keys)
    labels = sorted(generators)
    columns = {lab: c for c, lab in enumerate(labels)}
    n = len(generators[labels[0]])
    tableaux = {}
    for root, labs in enumerate(keys):
        if root in tableaux:
            continue
        inv = integer_inverse([[generators[lab][c] for lab in labs] for c in range(n)]) \
            if len(labs) == n else None
        tableaux[root] = inv and ([[sum(a * x for a, x in zip(row, generators[lab]))
                                    for lab in labels] for row in inv[0]], inv[1])
        queue = [root]
        for sigma in queue:
            for tau, k, r, order in adjacent[sigma] if tableaux[sigma] else ():
                if tau not in tableaux:
                    tableaux[tau] = _pivot(tableaux[sigma], k, columns[r], order)
                    queue.append(tau)
    return FacetTable(keys, columns, tuple(map(tableaux.get, range(len(keys)))), walls)


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
    The offsets define every fan and a shift by e is undone by a shift by
    -e, so copies whose single-copy fans tie have equal offsets, and swapping
    them moves no fan: one order of a tied run gives the key.
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
        bases.extend((normalize_basis(moved[b]).rays, pos_map, moved, b) for b in verts)
    least = min(base for base, *_ in bases)
    new_verts = list(itertools.product(*[range(1, j + 1) for j in new_j]))
    keys = []
    for base, pos_map, moved, b in bases:
        if base != least:
            continue
        # every fan in the basis of the base, the one normalize_basis takes
        (pp, rr), (qq, ss) = moved[b].rays[:2]
        u = ((ss, -qq), (-rr, pp))
        in_basis = {a: apply_unimodular(moved[a], u).rays for a in verts}
        gs = []
        for o in pos_map:
            rest = [k for k in range(1, J[o] + 1) if k != b[o]]
            rest.sort(key=lambda k: in_basis[b[:o] + (k,) + b[o + 1:]])
            gs.append([b[o]] + rest)
        old = [None] * m
        fans = []
        for alpha in new_verts:
            for x, o in enumerate(pos_map):
                old[o] = gs[x][alpha[x] - 1]
            fans.append((alpha, in_basis[tuple(old)]))
        keys.append((new_j, tuple(fans)))
    return min(keys)


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
    so the first edge-valid candidate of each key, the one stored, is the
    representative the ordered tuples would give first.  An edge-valid
    candidate with nonzero offsets on colors other than one opposite ray
    pair raises InvariantViolation, since assemble_matrix would not realize
    it.
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
            moved = [i for i in range(m) if any(combo[i])]
            if len(moved) > 2 or len(moved) == 2 and \
                    opposite_position(base, moved[0]) != moved[1]:
                raise InvariantViolation(
                    f"edge-valid puzzle over {sig} moves colors that are not one "
                    f"opposite pair: base {base.rays}, offsets {combo}")
            out.setdefault(puzzle_canonical_key(puzzle), puzzle)
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
        match = isinstance(label, str) and re.fullmatch(r"([1-9][0-9]*)_([1-9][0-9]*)", label)
        if not match:
            raise ValueError(f"column label {label!r} is not i_k with integers i, k >= 1")
        # a matrix over P_m(J) has d = sum(J) >= m columns and k <= j_i
        if max(int(match[1]), int(match[2])) > len(data["cols"]):
            raise ValueError(f"column label {label!r} has an index above the column count")
        if (int(match[1]), int(match[2])) in labels:
            raise ValueError(f"column label {label!r} repeats")
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
