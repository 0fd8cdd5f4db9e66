"""Shephard diagrams and strong-polytopality certification.

The diagram of a complete fan is a labeled point configuration in dimension
(rays - dim - 1), dual to the weighted generator matrix through a kernel
basis with a trailing ones column.  The fan is strongly polytopal iff the
relative interiors of all cofaces of maximal cones intersect; an independent
classical oracle asks instead for strictly convex piecewise-linear support
heights.  Both run on the exact LP engine, so every verdict carries a
re-checkable witness.  prepare validates an input once and returns what both
oracles read: its labels, generators, positive relation and facet table,
which serves the minor check, the positive relation (with no LP), the
support walls and, by Gale duality, the barycentric functionals of cofaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul as _mul
from typing import Optional

from .exactmath import (
    DimensionMismatch,
    InvariantViolation,
    StrictLinearSystem,
    _relint_of_simplices,
    _simplex_functionals,
    kernel_basis,
    make_primitive,
    strict_feasible,
)
from .planefan import PlaneFan, validate
from .wedgepuzzle import CharMatrix, FacetTable, LabelMismatch, build_complex, facet_table


class NotComplete(ValueError):
    pass


class SingularInput(ValueError):
    pass


@dataclass(frozen=True)
class ShephardDiagram:
    labels: tuple
    points: dict
    weights: dict
    generators: dict
    ambient_dim: int


@dataclass(frozen=True)
class PolytopalityCertificate:
    """A verdict's witness as integer numerators over one denominator: the
    interior point (xs, den), a (nums, den) barycentric tuple per facet, the
    support heights ({label: num}, den) and the slack (num, den)."""

    kind: str  # interior-point | support-heights | empty-witness
    point: Optional[tuple] = None
    barycentric: Optional[dict] = None
    heights: Optional[tuple] = None
    slack: Optional[tuple] = None


@dataclass(frozen=True)
class Prepared:
    """A validated input, as both oracles read it: the sorted labels, the
    generator of each label, the unimodular FacetTable of its maximal cones
    and the positive-relation weights read off that table, one per label."""

    labels: tuple
    generators: dict
    table: FacetTable
    weights: tuple[int, ...]


def prepare(obj) -> Prepared:
    """Validate a PlaneFan, or a CharMatrix over the complex of its
    signature, once, with no LP.  Raises FanError, LabelMismatch,
    DimensionMismatch (a row count other than the facet size), SingularInput
    (a facet minor other than +-1) or NotComplete (no facet cone holds -sum u:
    minors alone do not rule out a non-complete fan)."""
    if isinstance(obj, PlaneFan):
        validate(obj.rays)
        m = obj.m
        labels = tuple(range(1, m + 1))
        gens = dict(zip(labels, obj.rays))
        facets = [(i, i % m + 1) for i in labels]
    elif isinstance(obj, CharMatrix):
        sig = obj.signature_of()
        cx = build_complex(sig)
        if set(obj.labels) != set(cx.labels):
            raise LabelMismatch("matrix labels do not match the complex")
        if obj.n != sig.n:
            raise DimensionMismatch(
                f"matrix has {obj.n} rows where P_{sig.m}({','.join(map(str, sig.J))}) "
                f"needs {sig.n}")
        labels = tuple(sorted(obj.labels))
        gens = {lab: obj.column(lab) for lab in labels}
        facets = cx.facets
    else:
        raise TypeError(f"expected PlaneFan or CharMatrix, got {type(obj).__name__}")
    table = facet_table(gens, facets)
    if not table.unimodular:
        raise SingularInput("some facet minor is not +-1")
    return Prepared(labels, gens, table, positive_relation(labels, table))


def positive_relation(labels, table: FacetTable) -> tuple[int, ...]:
    """Integer weights c_i >= 1 with sum c_i u_i = 0, in label order, primitive.

    Row k of a facet sigma's tableau W / den writes the u_j in sigma's
    generators; with r_k its sum, -sum u = sum_k (-r_k / den) u_(sigma_k),
    which lies in sigma's cone iff every r_k <= 0.  On the first such facet,
    c = den - r_k on sigma's k-th label and den elsewhere: sum c_i u_i = 0 and
    c >= den >= 1.  In a complete fan some facet qualifies, and c / den - 1
    holds the coordinates of -sum u in the unique smallest cone containing it
    (the cones meet in faces, and each cone's generators are independent), so
    every qualifying facet gives the same c, a function of the fan alone.
    Else the cones do not cover the space: NotComplete.
    """
    for facet, (rows, den) in zip(table.facets, table.tableaux):
        sums = [sum(row) for row in rows]
        if max(sums) <= 0:
            c = dict.fromkeys(labels, den) | {lab: den - s for lab, s in zip(facet, sums)}
            return tuple(make_primitive([c[lab] for lab in labels]))
    raise NotComplete("no facet cone holds minus the sum of the generators")


def shephard_diagram(prep: Prepared) -> ShephardDiagram:
    """Diagram points from an integer kernel basis of the weighted generators.

    The weights make ones a kernel vector, with a nonzero coefficient on the
    basis column of the last free coordinate, so the other columns and ones
    are a basis of the kernel: the other columns give the points and ones
    their homogenizing coordinate.  A diagram is not unique; downstream
    comparisons go through verdicts and incidence, never raw coordinates.
    """
    labels, gens = prep.labels, prep.generators
    wmap = dict(zip(labels, prep.weights))
    dim = len(gens[labels[0]])
    cols = kernel_basis(
        [[wmap[lab] * gens[lab][c] for lab in labels] for c in range(dim)], len(labels))[:-1]
    points = {lab: tuple(col[i] for col in cols) for i, lab in enumerate(labels)}
    return ShephardDiagram(labels, points, wmap, dict(gens), len(cols))


def coface_indices(diagram: ShephardDiagram, cone) -> frozenset:
    """Labels of the diagram points not generating rays of the cone."""
    cone = frozenset(cone)
    unknown = cone - set(diagram.labels)
    if unknown:
        raise KeyError(f"unknown labels {sorted(unknown)}")
    return frozenset(lab for lab in diagram.labels if lab not in cone)


def _coface_functionals(diagram: ShephardDiagram, table: FacetTable):
    """Integer barycentric functionals of every coface, in the (rows, k)
    form of _simplex_functionals and in table order, by Gale duality.

    The left kernel of the point matrix [p_j | 1] is the row space of the
    weighted generator matrix A diag(c).  So the functionals lambda of a
    coface, extended by zero over its facet sigma, differ from those of the
    reference coface (the first facet's), mu extended by zero, by a vector
    c_j u_j . z, and vanishing on sigma fixes z:
        lambda_j = mu_j - c_j sum_{s in sigma} (A_sigma^-1 u_j)_s mu_s / c_s,
    with (A_sigma^-1 u_j)_s = W[s][j] / den from sigma's tableau.  It applies
    when every facet matrix is nonsingular, every coface has ambient_dim + 1
    points, the points are integer, the weights are nonzero integers and
    A diag(c) [p_j | 1] = 0,
    which is how shephard_diagram builds a diagram from a prepared input;
    any other diagram raises InvariantViolation.
    """
    labels = diagram.labels
    dim = diagram.ambient_dim
    gens = diagram.generators
    weights = diagram.weights
    if not table.facets or None in table.tableaux or any(
            len(labels) - len(f) != dim + 1 for f in table.facets) or any(
            type(weights[lab]) is not int or weights[lab] == 0 for lab in labels) or any(
            type(v) is not int for p in diagram.points.values() for v in p):
        raise InvariantViolation("facets, cofaces, points or weights unfit for Gale duality")
    # A diag(c) [p_j | 1] = 0
    n = len(gens[labels[0]])
    columns = [[1] * len(labels)] + [[diagram.points[lab][t] for lab in labels]
                                     for t in range(dim)]
    for r in range(n):
        cu = [weights[lab] * gens[lab][r] for lab in labels]
        if any(sum(map(_mul, cu, col)) for col in columns):
            raise InvariantViolation("diagram is not a Gale dual of its weighted generators")
    first = set(table.facets[0])
    ref = [lab for lab in labels if lab not in first]
    simplex = _simplex_functionals([diagram.points[lab] for lab in ref])
    if simplex is None:
        raise InvariantViolation("reference coface is not a full simplex")
    rows0, k0 = simplex
    mu = dict(zip(ref, rows0))
    scale = lcm(*(weights[lab] for lab in ref))
    # mu_s / c_s over the common denominator scale
    nu = {s: [scale // weights[s] * v for v in mu[s]] for s in ref}
    out = []
    for facet, (tab, den) in zip(table.facets, table.tableaux):
        d = den * scale
        in_ref = [(tab[k], nu[s]) for k, s in enumerate(facet) if s in nu]
        members = set(facet)
        rows = []
        for j in labels:
            if j in members:
                continue
            row = [d * v for v in mu[j]] if j in mu else [0] * (dim + 1)
            c, cj = table.columns[j], weights[j]
            for tab_s, nu_s in in_ref:
                w = cj * tab_s[c]
                if w:
                    row = [a - w * b for a, b in zip(row, nu_s)]
            rows.append(row)
        out.append((rows, k0 * d))
    return out


def s_sigma(diagram: ShephardDiagram, table: FacetTable) -> PolytopalityCertificate:
    """Intersection of the cofaces of the maximal cones, as a certificate.

    table is the FacetTable of the diagram's generators.  The barycentric
    functionals of the cofaces come from it by Gale duality
    (_coface_functionals) and go to the row-generation LP.
    """
    res = _relint_of_simplices(_coface_functionals(diagram, table), diagram.ambient_dim)
    if not res.feasible:
        return PolytopalityCertificate(kind="empty-witness")
    bary = dict(zip(table.facets, res.barycentric))
    return PolytopalityCertificate(
        kind="interior-point", point=res.witness, barycentric=bary, slack=res.slack)


def is_strongly_polytopal(prep: Prepared) -> tuple[bool, PolytopalityCertificate]:
    """Shephard's criterion: strongly polytopal iff all cofaces intersect."""
    cert = s_sigma(shephard_diagram(prep), prep.table)
    return cert.kind == "interior-point", cert


def support_function_polytopal(prep: Prepared) -> tuple[bool, PolytopalityCertificate]:
    """Independent oracle: existence of strictly convex support heights.

    For every wall between adjacent maximal cones, the linear function that
    agrees with the heights on one cone must sit strictly below the height of
    the ray on the other side: one condition per wall of the facet table,
    the reverse one being the same inequality through the other cone.  The
    weights of that ray r in the generators of the facet fi, unimodular,
    are column r of fi's tableau.  Heights are gauge-fixed to zero on the
    first facet; the others are the witness numerators over its denominator.
    """
    table = prep.table
    facets = table.facets
    free = [lab for lab in prep.labels if lab not in facets[0]]
    pos = {lab: i for i, lab in enumerate(free)}
    bends = {}
    for fi, r_out in table.walls:
        tab, c = table.tableaux[fi][0], table.columns[r_out]
        row = [0] * len(free)
        for k, lab in enumerate(facets[fi]):
            if lab in pos:
                row[pos[lab]] += tab[k][c]
        if r_out in pos:
            row[pos[r_out]] -= 1
        bends.setdefault(tuple(row))
    res = strict_feasible(StrictLinearSystem.build(len(free), (), [(row, 0) for row in bends]))
    if not res.feasible:
        return False, PolytopalityCertificate(kind="empty-witness")
    xs, den = res.witness
    heights = {lab: 0 for lab in facets[0]}
    heights.update({lab: xs[pos[lab]] for lab in free})
    return True, PolytopalityCertificate(
        kind="support-heights", heights=(heights, den), slack=res.slack)


def certify(obj) -> tuple[str, PolytopalityCertificate, PolytopalityCertificate]:
    """Run both oracles on one object, prepared once.

    Returns (verdict, Shephard certificate, support certificate), where the
    verdict is "projective", "not-strongly-polytopal" or
    "oracle-disagreement".
    """
    prep = prepare(obj)
    ok1, cert1 = is_strongly_polytopal(prep)
    ok2, cert2 = support_function_polytopal(prep)
    if ok1 != ok2:
        verdict = "oracle-disagreement"
    elif ok1:
        verdict = "projective"
    else:
        verdict = "not-strongly-polytopal"
    return verdict, cert1, cert2
