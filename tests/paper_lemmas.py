"""The paper's lemmas on Shephard diagrams, replayed on the library's diagrams.

Neither `check` nor `classify` needs these: they are the constructions that
the acceptance criteria and the Shephard tests re-verify.  radon_data builds
the Radon point of a plane-fan diagram with an opposite ray pair and the
hyperplane through the split, h_value evaluates that hyperplane, and
verify_wedge_shephard checks that the diagram of a wedge decomposes into
the coface systems of its two projections.  point_in_relint decides
relative-interior membership exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from toricwedge.exactmath import InvariantViolation, kernel_basis
from toricwedge.planefan import NoOppositeRay
from toricwedge.shephard import ShephardDiagram, prepare, s_sigma, shephard_diagram
from toricwedge.wedgepuzzle import CharMatrix, WedgeSignature, build_complex
from oracles import (
    NotWedged,
    _qvec,
    clear_denominators,
    fractions_of,
    rational_simplex_functionals,
    relint_intersection,
)

Q = Fraction


@dataclass(frozen=True)
class RadonData:
    ell: int
    upper: tuple
    lower: tuple
    s: Fraction
    point: tuple
    h_normal: tuple
    h_offset: Fraction


def point_in_relint(point, family) -> bool:
    """Exact membership of a point in the relative interior of a hull."""
    point = _qvec(point)
    fam = [_qvec(p) for p in family]
    dim = len(point)
    simplex = rational_simplex_functionals(fam) if len(fam) == dim + 1 else None
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
    kern = kernel_basis([clear_denominators([*p, -1])[0] for p in hull_pts], dim + 1)
    if len(kern) != 1:
        raise ValueError(f"hyperplane through the split is not unique ({len(kern)} normals)")
    normal = kern[0]
    h_normal, h_offset = normal[:dim], normal[dim]
    value_1 = sum((h_normal[c] * diagram.points[1][c] for c in range(dim)), Q(0)) - h_offset
    if value_1 < 0:
        h_normal = tuple(-x for x in h_normal)
        h_offset = -h_offset
    return RadonData(ell, upper, lower, s, point, tuple(h_normal), h_offset)


def h_value(data: RadonData, point) -> Fraction:
    return sum((a * Q(x) for a, x in zip(data.h_normal, point)), Q(0)) - data.h_offset


def verify_wedge_shephard(mat: CharMatrix, color: int = 1) -> bool:
    """Check that the wedge diagram decomposes: S of the wedge equals the
    joint coface system of the two projections, point maps taken per the
    swapped-copy rule, and any interior witness re-verifies in both."""
    sig = mat.signature_of()
    if sig.J[color - 1] != 2:
        raise NotWedged(f"color {color} does not have exactly two copies")
    prep = prepare(mat)
    diagram = shephard_diagram(prep)
    full = s_sigma(diagram, prep.table)

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
            if not point_in_relint(fractions_of(full.point), fam):
                return False
    return True
