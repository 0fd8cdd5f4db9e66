"""Shephard diagrams and strong-polytopality certification.

The diagram of a complete fan is a labeled point configuration in dimension
(rays - dim - 1), dual to the weighted generator matrix through a kernel
basis with a trailing ones column.  The fan is strongly polytopal iff the
relative interiors of all cofaces of maximal cones intersect; an independent
classical oracle asks instead for strictly convex piecewise-linear support
heights.  Both run on the exact LP engine, so every verdict carries a
re-checkable witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .exactmath import (
    InvariantViolation,
    QMatrix,
    StrictLinearSystem,
    _qvec,
    _simplex_functionals,
    clear_denominators,
    integer_adjugate,
    kernel_basis,
    kernel_with_ones,
    make_primitive,
    relint_intersection,
    strict_feasible,
)
from .planefan import NoOppositeRay, PlaneFan, validate
from .wedgepuzzle import (
    CharMatrix,
    NotWedged,
    WedgeComplex,
    WedgeSignature,
    build_complex,
    check_nonsingular,
)

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
class RadonData:
    ell: int
    upper: tuple
    lower: tuple
    s: Fraction
    point: tuple
    h_normal: tuple
    h_offset: Fraction


def _fan_data(obj, cx: Optional[WedgeComplex] = None):
    """Common view of a plane fan or a characteristic matrix over a complex:
    (ordered labels, generator dict, facet label-sets)."""
    if isinstance(obj, PlaneFan):
        m = obj.m
        labels = tuple(range(1, m + 1))
        gens = {i + 1: obj.rays[i] for i in range(m)}
        facets = [frozenset({i, i % m + 1}) for i in range(1, m + 1)]
        return labels, gens, facets
    if isinstance(obj, CharMatrix):
        if cx is None:
            cx = build_complex(obj.signature_of())
        labels = tuple(sorted(obj.labels))
        gens = {lab: obj.column(lab) for lab in labels}
        return labels, gens, list(cx.facets)
    raise TypeError(f"expected PlaneFan or CharMatrix, got {type(obj).__name__}")


def positive_relation(generators) -> tuple[int, ...]:
    """Integer weights c_i >= 1 with sum c_i u_i = 0, primitive and deterministic.

    Found by the exact LP {c_i >= 1, sum c_i u_i = 0}; infeasibility means the
    generators do not positively span, i.e. the fan is not complete.
    """
    return _positive_relation(tuple(tuple(int(x) for x in g) for g in generators))


@lru_cache(maxsize=4096)
def _positive_relation(gens) -> tuple[int, ...]:
    m = len(gens)
    dim = len(gens[0]) if gens else 0
    equalities = []
    for c in range(dim):
        equalities.append(([g[c] for g in gens], 0))
    weak = []
    for i in range(m):
        row = [0] * m
        row[i] = -1
        weak.append((row, -1))
    res = strict_feasible(StrictLinearSystem.build(m, equalities, weak, ()))
    if not res.feasible:
        raise NotComplete("generators admit no positive zero-sum relation")
    ints, _ = clear_denominators(res.witness)
    return tuple(make_primitive(ints))


def shephard_diagram(obj, cx: Optional[WedgeComplex] = None,
                     weights=None) -> ShephardDiagram:
    """Diagram points from the weighted generators via a kernel-with-ones basis.

    A diagram is not unique; downstream comparisons go through verdicts and
    incidence, never raw coordinates.
    """
    labels, gens, _ = _fan_data(obj, cx)
    if weights is None:
        weights = positive_relation([gens[lab] for lab in labels])
    wmap = dict(zip(labels, weights))
    dim = len(gens[labels[0]])
    a = QMatrix.from_rows(
        [[wmap[lab] * gens[lab][c] for lab in labels] for c in range(dim)])
    b = kernel_with_ones(a)
    # rescale each coordinate axis to primitive integers; an admissible
    # change of kernel basis that keeps the ones column intact
    cols = [make_primitive(clear_denominators(b.column(j))[0]) for j in range(b.cols - 1)]
    points = {lab: tuple(Q(col[i]) for col in cols) for i, lab in enumerate(labels)}
    return ShephardDiagram(labels, points, wmap, dict(gens), b.cols - 1)


def coface_indices(diagram: ShephardDiagram, cone) -> frozenset:
    """Labels of the diagram points not generating rays of the cone."""
    cone = frozenset(cone)
    unknown = cone - set(diagram.labels)
    if unknown:
        raise KeyError(f"unknown labels {sorted(unknown)}")
    return frozenset(lab for lab in diagram.labels if lab not in cone)


def _facet_key(facet):
    return tuple(sorted(facet))


def s_sigma(diagram: ShephardDiagram, facets) -> PolytopalityCertificate:
    """Intersection of the cofaces of the maximal cones, as a certificate."""
    families = []
    keys = []
    for facet in facets:
        labs = sorted(coface_indices(diagram, facet))
        families.append([diagram.points[lab] for lab in labs])
        keys.append(_facet_key(facet))
    res = relint_intersection(families, dimension=diagram.ambient_dim)
    if not res.feasible:
        return PolytopalityCertificate(kind="empty-witness")
    bary = {k: lam for k, lam in zip(keys, res.barycentric)}
    return PolytopalityCertificate(
        kind="interior-point", point=res.witness, barycentric=bary, slack=res.slack)


@lru_cache(maxsize=1)
def _validated(obj, cx):
    """The complex of a valid input; raises on an invalid one.

    One entry is cached, so the two oracles run one after the other on the
    same object validate it once.
    """
    if isinstance(obj, PlaneFan):
        validate(obj.rays)
    else:
        if cx is None:
            cx = build_complex(obj.signature_of())
        if not check_nonsingular(obj, cx):
            raise SingularInput("some facet minor is not +-1")
        # minors alone do not rule out a non-complete fan; the positive
        # relation exists iff the generators positively span (cached)
        positive_relation([obj.column(lab) for lab in sorted(obj.labels)])
    return cx


def is_strongly_polytopal(obj, cx: Optional[WedgeComplex] = None
                          ) -> tuple[bool, PolytopalityCertificate]:
    """Shephard's criterion: strongly polytopal iff all cofaces intersect."""
    cx = _validated(obj, cx)
    diagram = shephard_diagram(obj, cx)
    _, _, facets = _fan_data(obj, cx)
    cert = s_sigma(diagram, facets)
    return cert.kind == "interior-point", cert


def support_function_polytopal(obj, cx: Optional[WedgeComplex] = None
                               ) -> tuple[bool, PolytopalityCertificate]:
    """Independent oracle: existence of strictly convex support heights.

    For every wall between adjacent maximal cones, the linear function that
    agrees with the heights on one cone must sit strictly below the height of
    the ray on the other side.  Heights are gauge-fixed to zero on the first
    facet.
    """
    cx = _validated(obj, cx)
    labels, gens, facets = _fan_data(obj, cx)
    facets = [sorted(f) for f in facets]
    facet_sets = [frozenset(f) for f in facets]
    n = len(gens[labels[0]])
    free = [lab for lab in labels if lab not in facet_sets[0]]
    pos = {lab: i for i, lab in enumerate(free)}
    strict = []
    seen = set()
    for fi in range(len(facets)):
        inv = None
        for fj in range(fi + 1, len(facets)):
            if len(facet_sets[fi] & facet_sets[fj]) != n - 1:
                continue
            # one strict bend condition per wall; the reverse direction is
            # the same inequality expressed through the other cone.  The
            # facet matrix U is unimodular, so the weights of u_r in its
            # columns, det(U) * adj(U) . u_r, are integers (Cramer's rule).
            r_out = next(iter(facet_sets[fj] - facet_sets[fi]))
            if inv is None:
                inv = integer_adjugate(
                    [[gens[lab][c] for lab in facets[fi]] for c in range(n)])
            adj, u_det = inv
            ur = gens[r_out]
            row = [0] * len(free)
            for k, lab in enumerate(facets[fi]):
                if lab in pos:
                    row[pos[lab]] += sum(a * x for a, x in zip(adj[k], ur)) * u_det
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


def certify(obj, cx: Optional[WedgeComplex] = None
            ) -> tuple[str, PolytopalityCertificate, PolytopalityCertificate]:
    """Run both oracles on one object, validated once: the support oracle
    finds the object that the Shephard oracle validated in _validated's cache.

    Returns (verdict, Shephard certificate, support certificate), where the
    verdict is "projective", "not-strongly-polytopal" or
    "oracle-disagreement".
    """
    ok1, cert1 = is_strongly_polytopal(obj, cx)
    ok2, cert2 = support_function_polytopal(obj, cx)
    if ok1 != ok2:
        verdict = "oracle-disagreement"
    elif ok1:
        verdict = "projective"
    else:
        verdict = "not-strongly-polytopal"
    return verdict, cert1, cert2


def point_in_relint(point, family) -> bool:
    """Exact membership of a point in the relative interior of a hull."""
    point = _qvec(point)
    fam = [_qvec(p) for p in family]
    dim = len(point)
    simplex = _simplex_functionals(fam) if len(fam) == dim + 1 else None
    if simplex is not None:
        rows, _ = simplex
        return all(sum((r[c] * point[c] for c in range(dim)), Q(0)) + r[dim] > 0
                   for r in rows)
    return relint_intersection([fam, [point]]).feasible


def radon_data(diagram: ShephardDiagram, ell: Optional[int] = None) -> RadonData:
    """Radon point of a plane-fan diagram with the opposite pair (1, ell).

    The upper/lower ray labels split by the sign of the weighted second
    coordinate; their diagram hulls meet in the single point
    R = (1/s) sum_upper y_a a_hat = -(1/s) sum_lower y_b b_hat, and together
    they affinely span the hyperplane H returned as a functional.
    """
    gens = diagram.generators
    if gens[1] != (1, 0):
        raise ValueError("diagram must come from a fan normalized with v_1 = (1,0)")
    if ell is None:
        ell = next((lab for lab in diagram.labels if gens[lab] == (-1, 0)), None)
        if ell is None:
            raise NoOppositeRay("no ray opposite to ray 1")
    upper = tuple(lab for lab in diagram.labels
                  if lab not in (1, ell) and gens[lab][1] > 0)
    lower = tuple(lab for lab in diagram.labels
                  if lab not in (1, ell) and gens[lab][1] < 0)
    y = {lab: Q(diagram.weights[lab] * gens[lab][1]) for lab in upper + lower}
    s = sum((y[a] for a in upper), Q(0))
    if s != -sum((y[b] for b in lower), Q(0)):
        raise InvariantViolation("weighted heights of the split do not cancel")
    dim = diagram.ambient_dim
    point = tuple(
        sum((y[a] * diagram.points[a][c] for a in upper), Q(0)) / s for c in range(dim))
    flipped = tuple(
        -sum((y[b] * diagram.points[b][c] for b in lower), Q(0)) / s for c in range(dim))
    if point != flipped:
        raise InvariantViolation("affine relation violated: Radon point mismatch")
    hull_pts = [diagram.points[lab] for lab in upper + lower]
    kern = kernel_basis(QMatrix.from_rows([[*p, Q(-1)] for p in hull_pts]))
    if kern.cols != 1:
        raise ValueError(f"hyperplane through the split is not unique ({kern.cols} normals)")
    normal = kern.column(0)
    h_normal, h_offset = normal[:dim], normal[dim]
    value_1 = sum((h_normal[c] * diagram.points[1][c] for c in range(dim)), Q(0)) - h_offset
    if value_1 < 0:
        h_normal = tuple(-x for x in h_normal)
        h_offset = -h_offset
    return RadonData(ell, upper, lower, s, point, tuple(h_normal), h_offset)


def h_value(data: RadonData, point) -> Fraction:
    return sum((a * Q(x) for a, x in zip(data.h_normal, point)), Q(0)) - data.h_offset


def verify_wedge_shephard(mat: CharMatrix, color: int = 1,
                          cx: Optional[WedgeComplex] = None) -> bool:
    """Check that the wedge diagram decomposes: S of the wedge equals the
    joint coface system of the two projections, point maps taken per the
    swapped-copy rule, and any interior witness re-verifies in both."""
    sig = mat.signature_of()
    if sig.J[color - 1] != 2:
        raise NotWedged(f"color {color} does not have exactly two copies")
    if cx is None:
        cx = build_complex(sig)
    diagram = shephard_diagram(mat, cx)
    full = s_sigma(diagram, cx.facets)

    small_j = tuple(1 if i == color - 1 else sig.J[i] for i in range(sig.m))
    small_cx = build_complex(WedgeSignature(sig.m, small_j))

    def coface_families(copy_for_color):
        fams = []
        for facet in small_cx.facets:
            fam = []
            for lab in sorted(set(small_cx.labels) - set(facet)):
                big = (color, copy_for_color) if lab == (color, 1) else lab
                fam.append(diagram.points[big])
            fams.append(fam)
        return fams

    fams_1 = coface_families(2)  # diagram of the projection keeping copy 1
    fams_2 = coface_families(1)  # diagram of the projection keeping copy 2
    joint = relint_intersection(fams_1 + fams_2, dimension=diagram.ambient_dim)
    if joint.feasible != (full.kind == "interior-point"):
        return False
    if full.kind == "interior-point":
        for fam in fams_1 + fams_2:
            if not point_in_relint(full.point, fam):
                return False
    return True
