"""Shephard diagrams and strong-polytopality certification.

The diagram of a complete fan is a labeled point configuration in dimension
(rays - dim - 1), dual to the weighted generator matrix through a kernel
basis with a trailing ones column.  The fan is strongly polytopal iff the
relative interiors of all cofaces of maximal cones intersect; an independent
classical oracle asks instead for strictly convex piecewise-linear support
heights.  Both run on the exact LP engine, so every verdict carries a
re-checkable witness.  prepare validates an input once and returns what both
oracles read: its labels, generators, positive relation and facet table,
which serves the minor check, the support walls and, by Gale duality, the
barycentric functionals of the cofaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul as _mul
from typing import Optional

from .exactmath import (
    DimensionMismatch,
    InvariantViolation,
    StrictLinearSystem,
    _relint_of_simplices,
    _simplex_functionals,
    clear_denominators,
    kernel_basis,
    make_primitive,
    strict_feasible,
)
from .planefan import PlaneFan, validate
from .wedgepuzzle import CharMatrix, FacetTable, LabelMismatch, build_complex, facet_table

Q = Fraction


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
    kind: str  # interior-point | support-heights | empty-witness
    point: Optional[tuple] = None
    barycentric: Optional[dict] = None
    heights: Optional[dict] = None
    slack: Optional[Fraction] = None


@dataclass(frozen=True)
class Prepared:
    """A validated input, as both oracles read it: the sorted labels, the
    generator of each label, the unimodular FacetTable of its maximal cones
    and the positive-relation weights, one per label."""

    labels: tuple
    generators: dict
    table: FacetTable
    weights: tuple[int, ...]


def prepare(obj) -> Prepared:
    """Validate a PlaneFan, or a CharMatrix over the complex of its
    signature, once.  Raises FanError, LabelMismatch, DimensionMismatch (a
    row count other than the facet size), SingularInput (a facet minor other
    than +-1) or NotComplete (no positive relation: minors alone do not rule
    out a non-complete fan)."""
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
    return Prepared(labels, gens, table, positive_relation([gens[lab] for lab in labels]))


def positive_relation(generators) -> tuple[int, ...]:
    """Integer weights c_i >= 1 with sum c_i u_i = 0, primitive and deterministic.

    The relations are c = K y over the integer kernel basis K of the
    generator matrix, so the exact LP is {K y >= 1} in the m - rank
    coordinates y.  An empty kernel or an infeasible LP means the generators
    do not positively span, i.e. the fan is not complete.
    """
    gens = list(generators)
    dim = len(gens[0]) if gens else 0
    kern = kernel_basis([[g[c] for g in gens] for c in range(dim)], len(gens))
    if not kern:
        raise NotComplete("generators are linearly independent")
    weak = [([-col[i] for col in kern], -1) for i in range(len(gens))]
    res = strict_feasible(StrictLinearSystem.build(len(kern), (), weak, ()))
    if not res.feasible:
        raise NotComplete("generators admit no positive zero-sum relation")
    ys, _ = clear_denominators(res.witness)
    return tuple(make_primitive(
        [sum(col[i] * y for col, y in zip(kern, ys)) for i in range(len(gens))]))


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
    """Integer barycentric functionals of every coface, in the (rows,
    factor) form of _simplex_functionals and in table order, by Gale
    duality.

    The left kernel of the point matrix [p_j | 1] is the row space of the
    weighted generator matrix A diag(c).  So the functionals lambda of a
    coface, extended by zero over its facet sigma, differ from those of the
    reference coface (the first facet's), mu extended by zero, by a vector
    c_j u_j . z, and vanishing on sigma fixes z:
        lambda_j = mu_j - c_j sum_{s in sigma} (A_sigma^-1 u_j)_s mu_s / c_s,
    with A_sigma^-1 = N / den from the table.  It applies when every facet
    matrix is nonsingular, every coface has ambient_dim + 1 points, the
    weights are nonzero integers and A diag(c) [p_j | 1] = 0, which is how
    shephard_diagram builds a diagram from a prepared input; any other
    diagram raises InvariantViolation.
    """
    labels = diagram.labels
    dim = diagram.ambient_dim
    gens = diagram.generators
    weights = diagram.weights
    if not table.facets or None in table.inverses or any(
            len(labels) - len(f) != dim + 1 for f in table.facets) or any(
            type(weights[lab]) is not int or weights[lab] == 0 for lab in labels):
        raise InvariantViolation("facets, cofaces or weights unfit for Gale duality")
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
    rows0, factor0 = simplex
    mu = dict(zip(ref, rows0))
    scale = lcm(*(weights[lab] for lab in ref))
    # mu_s / c_s over the common denominator scale
    nu = {s: [scale // weights[s] * v for v in mu[s]] for s in ref}
    out = []
    for facet, (inv, den) in zip(table.facets, table.inverses):
        d = den * scale
        in_ref = [(inv[k], nu[s]) for k, s in enumerate(facet) if s in nu]
        members = set(facet)
        rows = []
        for j in labels:
            if j in members:
                continue
            row = [d * v for v in mu[j]] if j in mu else [0] * (dim + 1)
            u = gens[j]
            for inv_s, nu_s in in_ref:
                w = weights[j] * sum(map(_mul, inv_s, u))
                if w:
                    row = [a - w * b for a, b in zip(row, nu_s)]
            rows.append(row)
        out.append((rows, factor0 / d))
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
    the ray on the other side.  Heights are gauge-fixed to zero on the first
    facet.
    """
    table = prep.table
    labels, gens = prep.labels, prep.generators
    facets = table.facets
    facet_sets = [frozenset(f) for f in facets]
    n = len(gens[labels[0]])
    free = [lab for lab in labels if lab not in facet_sets[0]]
    pos = {lab: i for i, lab in enumerate(free)}
    strict = []
    seen = set()
    for fi in range(len(facets)):
        inv = table.inverses[fi][0]
        for fj in range(fi + 1, len(facets)):
            if len(facet_sets[fi] & facet_sets[fj]) != n - 1:
                continue
            # one strict bend condition per wall; the reverse direction is
            # the same inequality expressed through the other cone.  The
            # facet matrix U is unimodular, so its inverse is N / 1 and the
            # weights of u_r in its columns, N . u_r, are integers.
            r_out = next(iter(facet_sets[fj] - facet_sets[fi]))
            ur = gens[r_out]
            row = [0] * len(free)
            for k, lab in enumerate(facets[fi]):
                if lab in pos:
                    row[pos[lab]] += sum(a * x for a, x in zip(inv[k], ur))
            if r_out in pos:
                row[pos[r_out]] -= 1
            key = tuple(row)
            if key not in seen:
                seen.add(key)
                strict.append((row, 0))
    res = strict_feasible(StrictLinearSystem.build(len(free), (), (), strict))
    if not res.feasible:
        return False, PolytopalityCertificate(kind="empty-witness")
    heights = {lab: Q(0) for lab in facets[0]}
    heights.update({lab: res.witness[pos[lab]] for lab in free})
    return True, PolytopalityCertificate(
        kind="support-heights", heights=heights, slack=res.slack)


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
