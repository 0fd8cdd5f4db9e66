import dataclasses
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricwedge import exactmath, shephard, wedgepuzzle
from toricwedge.exactmath import DimensionMismatch, InvariantViolation, kernel_basis
from toricwedge.planefan import (
    NoOppositeRay,
    PlaneFan,
    blow_up,
    canonical_form,
    cp2_fan,
    enumerate_fans,
    hirzebruch_fan,
    normalize_basis,
    opposite_position,
)
from toricwedge.shephard import (
    NotComplete,
    Prepared,
    ShephardDiagram,
    SingularInput,
    certify,
    coface_indices,
    is_strongly_polytopal,
    positive_relation,
    prepare,
    s_sigma,
    shephard_diagram,
    support_function_polytopal,
)
from toricwedge.wedgepuzzle import (
    CharMatrix,
    LabelMismatch,
    Puzzle,
    WedgeSignature,
    assemble_matrix,
    build_complex,
    facet_table,
)
from oracles import (
    QMatrix,
    check_facet_table_against_reference,
    check_positive_relation,
    check_shephard_against_reference,
    check_tableaux_against_inverses,
    clear_denominators,
    fractions_of,
    is_zero,
    matmul,
    rank,
    reference_check_nonsingular,
    reference_s_sigma,
    relint_intersection,
    transpose,
)
from paper_lemmas import h_value, point_in_relint, radon_data, verify_wedge_shephard


def pentagon(d):
    return PlaneFan(((1, 0), (0, 1), (-1, 1), (-1, 0), (d, -1)))


def paper_diagram(d):
    """The worked example's diagram, replayed verbatim as a fixture."""
    labels = (1, 2, 3, 4, 5)
    pts = {1: (1, -d), 2: (-2, 2), 3: (2, 0), 4: (0, 0), 5: (0, 1)}
    weights = {1: 2, 2: 1, 3: 1, 4: 2 * d + 1, 5: 2}
    gens = {i + 1: pentagon(d).rays[i] for i in range(5)}
    return ShephardDiagram(labels, pts, weights, gens, 2)


def pentagon_facets():
    return [frozenset({i, i % 5 + 1}) for i in range(1, 6)]


def pentagon_table(diag):
    """The FacetTable of the pentagon's cones over a diagram's generators."""
    return facet_table(diag.generators, pentagon_facets())


def diagram_of(obj):
    return shephard_diagram(prepare(obj))


# two triangulations of the "mother of all examples": the triangle 123
# around the triangle 456, in the plane x + y + z = 4
TWISTED = [(1, 2, 4), (2, 3, 5), (1, 3, 6), (4, 5, 6), (2, 4, 5), (3, 5, 6), (1, 4, 6)]
PULLED = [(1, 2, 4), (1, 3, 4), (2, 4, 5), (2, 3, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6)]


def nested_triangles_fan(triangles):
    """The prepared record of a complete simplicial fan in R^3, not
    unimodular: the cones over the triangles cut the positive octant, and
    three cones on the ray (-1,-1,-1) fill the rest.  The fan is polytopal
    iff the triangulation is regular."""
    gens = {1: (4, 0, 0), 2: (0, 4, 0), 3: (0, 0, 4), 4: (2, 1, 1), 5: (1, 2, 1),
            6: (1, 1, 2), 7: (-1, -1, -1)}
    facets = [frozenset(t) for t in triangles] + \
        [frozenset({7, i, j}) for i, j in ((1, 2), (2, 3), (1, 3))]
    labels = tuple(gens)
    table = facet_table(gens, facets)
    return Prepared(labels, gens, table, positive_relation(labels, table))


def single_wedge_puzzle(base, color, e):
    J = tuple(2 if i + 1 == color else 1 for i in range(base.m))
    return Puzzle(WedgeSignature(base.m, J), base,
                  tuple((e,) if i + 1 == color else () for i in range(base.m)))


class TestPositiveRelation:
    def test_cp1_times_cp1(self):
        rays = ((1, 0), (0, 1), (-1, 0), (0, -1))
        assert prepare(PlaneFan(rays)).weights == (1, 1, 1, 1)

    def test_pentagon_contract(self):
        # the contract is a primitive integer zero-sum with every weight >= 1.
        # -sum u = (1 - d, -1) is (2d - 1) u_4 + u_5 for d >= 1 and u_5 + u_1
        # for d = 0, and c - 1 holds those coordinates
        for d in range(4):
            prep = prepare(pentagon(d))
            check_positive_relation(prep)
            assert prep.weights == ((1, 1, 1, 2 * d, 2) if d else (2, 1, 1, 1, 2))

    def test_paper_weights_are_also_a_valid_relation(self):
        for d in range(4):
            c = (2, 1, 1, 2 * d + 1, 2)
            sx = sum(w * v[0] for w, v in zip(c, pentagon(d).rays))
            sy = sum(w * v[1] for w, v in zip(c, pentagon(d).rays))
            assert (sx, sy) == (0, 0)

    def test_incomplete_rejected(self):
        # unimodular minors and a positive relation, but the repeated ray
        # (-1,0) folds the cones of the pentagon over each other, and no
        # facet cone holds -sum u (the half-plane case is in TestOracles)
        cols = ((-1, 0, -1, -1, 2), (0, 1, -1, 0, -1))
        with pytest.raises(NotComplete, match="no facet cone holds"):
            prepare(CharMatrix(tuple((i, 1) for i in range(1, 6)), cols))

    def test_assembled_wedge_always_feasible(self):
        check_positive_relation(prepare(assemble_matrix(single_wedge_puzzle(pentagon(2), 1, 1))))

    def test_whole_pool(self):
        # every 10-ray fan of the check-fan pool
        pool = ten_ray_pool()
        assert len(pool) == 837
        for fan in pool:
            check_positive_relation(prepare(fan))


class TestShephardDiagram:
    def test_pentagon_kernel_level_match(self):
        # kernels agree once the weight scalings are matched column-wise:
        # both B-blocks annihilate their own weighted matrix exactly
        diag = diagram_of(pentagon(2))
        assert diag.ambient_dim == 2
        a = QMatrix.from_rows(
            [[diag.weights[i + 1] * pentagon(2).rays[i][c] for i in range(5)]
             for c in range(2)])
        b = QMatrix.from_rows([[*diag.points[i], Q(1)] for i in diag.labels])
        assert is_zero(matmul(a, b))
        assert rank(b) == 3

    def test_cp2_zero_dimensional(self):
        diag = diagram_of(cp2_fan())
        assert diag.ambient_dim == 0
        assert all(diag.points[lab] == () for lab in diag.labels)

    def test_cp1_cp1_diagram(self):
        fan = PlaneFan(((1, 0), (0, 1), (-1, 0), (0, -1)))
        diag = diagram_of(fan)
        assert diag.ambient_dim == 1
        # (u_hat, 1) rows span the kernel of the weighted matrix, which equals
        # span{(1,0,1,0), ones} here
        b = QMatrix.from_rows([[*diag.points[i], Q(1)] for i in diag.labels])
        ext = QMatrix.from_rows(
            [list(b.column(0)), list(b.column(1)), [1, 0, 1, 0]])
        assert rank(ext) == 2


class TestCofaces:
    def test_pentagon_coface(self):
        diag = paper_diagram(2)
        assert coface_indices(diag, {1, 2}) == frozenset({3, 4, 5})

    def test_triangle_coface(self):
        diag = diagram_of(cp2_fan())
        assert coface_indices(diag, {1, 2}) == frozenset({3})

    def test_wedge_coface(self):
        mat = assemble_matrix(single_wedge_puzzle(pentagon(2), 1, 1))
        diag = diagram_of(mat)
        cone = {(1, 1), (1, 2), (2, 1)}
        assert coface_indices(diag, cone) == frozenset({(3, 1), (4, 1), (5, 1)})

    def test_unknown_label(self):
        diag = paper_diagram(2)
        with pytest.raises(KeyError):
            coface_indices(diag, {1, 9})


class TestSSigma:
    def test_paper_pentagon_witness_in_shaded_triangle(self):
        for d in range(6):
            cert = s_sigma(paper_diagram(d), pentagon_table(paper_diagram(d)))
            assert cert.kind == "interior-point"
            if d == 2:
                x, y = fractions_of(cert.point)
                (ax, ay), (bx, by), (cx, cy) = (Q(0), Q(0)), (Q(1, 3), Q(0)), (Q(0), Q(1))
                det = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
                l1 = ((bx - x) * (cy - y) - (cx - x) * (by - y)) / det
                l2 = ((cx - x) * (ay - y) - (ax - x) * (cy - y)) / det
                assert l1 > 0 and l2 > 0 and 1 - l1 - l2 > 0

    def test_witness_reverifies_in_every_coface(self):
        diag = paper_diagram(3)
        cert = s_sigma(diag, pentagon_table(diag))
        for facet in pentagon_facets():
            fam = [diag.points[lab] for lab in sorted(coface_indices(diag, facet))]
            assert point_in_relint(fractions_of(cert.point), fam)

    def test_empty_intersection_detected(self):
        # the twisted triangulation is not regular, so its fan has no
        # strictly convex support function and the cofaces do not meet; the
        # pulled one is regular
        for triangles, kind in ((TWISTED, "empty-witness"), (PULLED, "interior-point")):
            prep = nested_triangles_fan(triangles)
            diag = shephard_diagram(prep)
            cert = s_sigma(diag, prep.table)
            assert cert.kind == kind
            assert cert == reference_s_sigma(diag, prep.table)

    def test_zero_dimensional_nonempty(self):
        prep = prepare(cp2_fan())
        cert = s_sigma(shephard_diagram(prep), prep.table)
        assert cert.kind == "interior-point"
        assert cert.point == ((), 1)


class TestOracles:
    def test_every_small_plane_fan_projective(self):
        for m in (3, 4, 5):
            for fan in enumerate_fans(m, 2):
                ok, cert = is_strongly_polytopal(prepare(fan))
                assert ok, f"fan {fan.rays} not strongly polytopal"
                assert cert.kind == "interior-point"

    def test_oracle_agreement(self):
        for m in (3, 4, 5, 6):
            for fan in enumerate_fans(m, 2):
                a, _ = is_strongly_polytopal(prepare(fan))
                b, _ = support_function_polytopal(prepare(fan))
                assert a == b == True

    def test_support_heights_reverify(self):
        for fan in enumerate_fans(5, 2):
            ok, cert = support_function_polytopal(prepare(fan))
            assert ok
            hs, den = cert.heights
            h = {lab: Q(v, den) for lab, v in hs.items()}
            m = fan.m
            # strict convexity across every wall, re-checked from scratch
            for i in range(1, m + 1):
                j = i % m + 1
                k = j % m + 1
                u_i, u_j, u_k = (fan.rays[i - 1], fan.rays[j - 1], fan.rays[k - 1])
                det = u_i[0] * u_j[1] - u_j[0] * u_i[1]
                a = (h[i] * u_j[1] - h[j] * u_i[1]) / det
                b = (-h[i] * u_j[0] + h[j] * u_i[0]) / det
                assert a * u_k[0] + b * u_k[1] < h[k]

    def test_singular_matrix_rejected(self):
        mat = CharMatrix(((1, 1), (2, 1), (3, 1)), ((1, 0, -1), (0, 1, -2)))
        with pytest.raises(SingularInput):
            prepare(mat)

    def test_non_complete_input_is_an_error_not_a_verdict(self):
        # unimodular minors but the rays only span a half-plane
        mat = CharMatrix(((1, 1), (2, 1), (3, 1)), ((1, 0, -1), (0, 1, 1)))
        with pytest.raises(NotComplete):
            prepare(mat)

    def test_wedge_matrices_projective(self):
        for e in (-2, 0, 1, 3):
            prep = prepare(assemble_matrix(single_wedge_puzzle(pentagon(1), 1, e)))
            ok1, c1 = is_strongly_polytopal(prep)
            ok2, c2 = support_function_polytopal(prep)
            assert ok1 and ok2
            assert c1.point is not None and c2.heights is not None

    def test_certify_prepares_once(self, monkeypatch):
        # one certify builds one facet table, which the minor check, the
        # coface functionals, the support walls and the positive relation all
        # read.  It solves two LPs, one strict_feasible for the support
        # oracle and one _relint_of_simplices for the Shephard oracle, and
        # prepare solves none.  It inverts two matrices: the first facet's,
        # where the wall walk starts, and the reference coface's
        calls = {name: [] for name in ("facet_table", "strict_feasible",
                                       "_relint_of_simplices", "integer_inverse",
                                       "_optimal_tableau")}

        def counted(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args: calls[name].append(args) or real(*args))

        for module in (exactmath, wedgepuzzle):
            counted(module, "integer_inverse")
        for name in ("facet_table", "strict_feasible", "_relint_of_simplices"):
            counted(shephard, name)
        counted(exactmath, "_optimal_tableau")
        for e in (-2, 1):
            mat = assemble_matrix(single_wedge_puzzle(pentagon(1), 1, e))
            for seen in calls.values():
                seen.clear()
            verdict, c1, c2 = certify(mat)
            assert {name: len(seen) for name, seen in calls.items()} == {
                "facet_table": 1, "strict_feasible": 1, "_relint_of_simplices": 1,
                "integer_inverse": 2, "_optimal_tableau": 2}
            assert verdict == "projective"
            calls["_optimal_tableau"].clear()
            prep = prepare(mat)
            assert not calls["_optimal_tableau"]
            assert (c1, c2) == (is_strongly_polytopal(prep)[1],
                                support_function_polytopal(prep)[1])

    def test_certify_raises_like_the_oracles(self):
        with pytest.raises(SingularInput):
            certify(CharMatrix(((1, 1), (2, 1), (3, 1)), ((1, 0, -1), (0, 1, -2))))
        with pytest.raises(NotComplete):
            certify(CharMatrix(((1, 1), (2, 1), (3, 1)), ((1, 0, -1), (0, 1, 1))))


@st.composite
def drawn_matrices(draw):
    """A labeled matrix over some P_m(J): of the facet size or of another,
    and with a duplicated label or a gap in a colour's copies or neither."""
    m = draw(st.integers(3, 5))
    J = draw(st.lists(st.integers(1, 2), min_size=m, max_size=m))
    n = draw(st.one_of(st.just(sum(J) - m + 2), st.integers(1, 4)))
    labels = [(i, k) for i in range(1, m + 1) for k in range(1, J[i - 1] + 1)]
    fault = draw(st.sampled_from(("none", "duplicate", "gap")))
    if fault == "duplicate":
        labels.append(labels[0])
    elif fault == "gap":
        labels[-1] = (m, J[-1] + 1)
    cols = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in labels]
    return CharMatrix(tuple(labels), tuple(tuple(c[r] for c in cols) for r in range(n)))


class TestFacetTable:
    @settings(max_examples=300, deadline=None)
    @given(drawn_matrices())
    def test_raises_where_the_minor_check_fails(self, mat):
        # the facet table and prepare fail where one integer_det per facet
        # does: LabelMismatch raised, or a minor other than +-1, which prepare
        # names as a wrong row count when the facet matrices are not square.
        # A matrix whose minors pass may still not be complete.
        cx = build_complex(mat.signature_of())
        try:
            want = reference_check_nonsingular(mat, cx)
        except LabelMismatch:
            with pytest.raises(LabelMismatch):
                prepare(mat)
            return
        gens = {lab: mat.column(lab) for lab in mat.labels}
        table = facet_table(gens, cx.facets)
        assert table.unimodular == want
        # every tableau, by wall pivots from nonsingular facets, is the one
        # the facet's own integer_inverse gives
        check_tableaux_against_inverses(gens, cx.facets)
        if want:
            try:
                assert prepare(mat).table == table
            except NotComplete:
                pass
        else:
            square = mat.n == mat.signature_of().n
            with pytest.raises(SingularInput if square else DimensionMismatch):
                prepare(mat)

    def test_non_unimodular_tableaux(self):
        # the nested triangles' facets have minors 1 to 64, so their walk
        # takes general pivots; any order of the facets gives each one the
        # tableau of its own integer_inverse, and the positive relation read
        # off tableaux with den > 1 still meets its contract
        rng = random.Random(5)
        for triangles in (TWISTED, PULLED):
            prep = nested_triangles_fan(triangles)
            assert {den for _, den in prep.table.tableaux} != {1}
            check_positive_relation(prep)
            facets = list(prep.table.facets)
            for _ in range(5):
                rng.shuffle(facets)
                assert check_tableaux_against_inverses(prep.generators, facets) == 10

    def test_singular_facets_cut_the_walk(self, monkeypatch):
        # over the square, v2 parallel to v3 and v1 parallel to v4 make the
        # walls out of the first facet lead only to singular facets, so the
        # last facet takes its own integer_inverse; a singular first facet
        # starts the walk at the next one
        gens = {1: (1, 0), 2: (0, 1), 3: (0, -1), 4: (-1, 0)}
        facets = [frozenset({i, i % 4 + 1}) for i in range(1, 5)]
        calls = []
        monkeypatch.setattr(wedgepuzzle, "integer_inverse",
                            lambda m, real=exactmath.integer_inverse:
                            calls.append(m) or real(m))
        table = facet_table(gens, facets)
        assert [tab is None for tab in table.tableaux] == [False, True, False, True]
        assert len(calls) == 2 and not table.unimodular
        assert check_tableaux_against_inverses(gens, facets) == 2
        triangle = {1: (1, 0), 2: (2, 0), 3: (-1, -1)}
        cones = [frozenset(f) for f in ((1, 2), (2, 3), (1, 3))]
        table = facet_table(triangle, cones)
        assert [tab and tab[1] for tab in table.tableaux] == [None, 2, 1]
        assert check_tableaux_against_inverses(triangle, cones) == 2

    def test_prepared_table_is_the_table_of_the_cones(self):
        fan = pentagon(2)
        prep = prepare(fan)
        diag = shephard_diagram(prep)
        assert prep.table == pentagon_table(diag)
        assert s_sigma(diag, prep.table) == reference_s_sigma(diag, pentagon_facets())

    def test_diagram_not_dual_to_its_generators_raises(self):
        # move one point of the paper's diagram: the cofaces are still full
        # simplices, but no longer a Gale dual of the weighted generators
        diag = paper_diagram(2)
        moved = ShephardDiagram(diag.labels, {**diag.points, 5: (0, 2)},
                                diag.weights, diag.generators, 2)
        table = pentagon_table(diag)
        assert s_sigma(diag, table) == reference_s_sigma(diag, pentagon_facets())
        with pytest.raises(InvariantViolation):
            s_sigma(moved, table)
        # weights that are no relation: ones leaves the weighted kernel
        prep = dataclasses.replace(prepare(pentagon(2)), weights=(1, 1, 1, 1, 1))
        with pytest.raises(InvariantViolation):
            s_sigma(shephard_diagram(prep), prep.table)

    def test_non_integer_points_raise(self):
        # the Gale functionals take integer points: the paper's points as
        # Fractions of equal value, and a half-integer point, are refused
        diag = paper_diagram(2)
        table = pentagon_table(diag)
        for pts in ({lab: tuple(map(Q, p)) for lab, p in diag.points.items()},
                    {**diag.points, 5: (Q(1, 2), 1)}):
            with pytest.raises(InvariantViolation):
                s_sigma(dataclasses.replace(diag, points=pts), table)

    def test_paper_diagrams_match_reference(self):
        for d in range(6):
            diag = paper_diagram(d)
            assert s_sigma(diag, pentagon_table(diag)) == \
                reference_s_sigma(diag, pentagon_facets())


class TestRadon:
    def test_paper_fixture(self):
        rd = radon_data(paper_diagram(2))
        assert rd.ell == 4
        assert rd.upper == (2, 3) and rd.lower == (5,)
        assert rd.s == 2
        assert rd.point == (Q(0), Q(1))

    def test_paper_hyperplane_is_x_plus_2y_eq_2(self):
        rd = radon_data(paper_diagram(2))
        # H is the line x + 2y = 2: normal proportional to (1, 2), offset 2k
        n1, n2 = rd.h_normal
        assert n2 == 2 * n1 and rd.h_offset == 2 * n1
        for lab in (2, 3, 5):
            assert h_value(rd, paper_diagram(2).points[lab]) == 0
        assert h_value(rd, (Q(0), Q(1))) == 0

    def test_same_side(self):
        diag = paper_diagram(2)
        rd = radon_data(diag)
        v1 = h_value(rd, diag.points[1])
        v4 = h_value(rd, diag.points[4])
        assert v1 > 0 and v4 > 0

    def test_radon_point_is_the_unique_intersection(self):
        for d in (0, 1, 3):
            diag = diagram_of(pentagon(d))
            rd = radon_data(diag)
            res = relint_intersection([
                [diag.points[a] for a in rd.upper],
                [diag.points[b] for b in rd.lower]])
            assert res.feasible and res.witness == rd.point

    def test_h_dimension_m_minus_4(self):
        for m in (5, 6):
            for fan in enumerate_fans(m, 2):
                if opposite_position(fan, 0) is None:
                    continue
                diag = diagram_of(fan)
                rd = radon_data(diag)
                pts = [diag.points[lab] for lab in rd.upper + rd.lower]
                hom = QMatrix.from_rows([[*p, Q(1)] for p in pts])
                assert rank(hom) - 1 == m - 4

    def test_relabelled_hirzebruch_pair(self):
        # H2's opposite pair sits at colors 2 and 4; rotate it into position 1
        fan = hirzebruch_fan(2)
        rot = normalize_basis(PlaneFan(fan.rays[1:] + fan.rays[:1]))
        assert opposite_position(rot, 0) == 2
        rd = radon_data(diagram_of(rot))
        assert rd.ell == 3

    def test_no_opposite(self):
        with pytest.raises(NoOppositeRay):
            radon_data(diagram_of(cp2_fan()))


class TestWedgeShephard:
    def test_trivial_extension(self):
        mat = assemble_matrix(single_wedge_puzzle(pentagon(2), 1, 0))
        assert verify_wedge_shephard(mat, 1)

    def test_shifted_wedge(self):
        mat = assemble_matrix(single_wedge_puzzle(pentagon(2), 1, 1))
        assert verify_wedge_shephard(mat, 1)

    def test_color_4(self):
        mat = assemble_matrix(single_wedge_puzzle(pentagon(1), 4, 2))
        assert verify_wedge_shephard(mat, 4)

    def test_not_wedged_color(self):
        from oracles import NotWedged
        mat = assemble_matrix(single_wedge_puzzle(pentagon(2), 1, 1))
        with pytest.raises(NotWedged):
            verify_wedge_shephard(mat, 2)


class TestCofaceSimplex:
    def test_plane_fan_cofaces_are_open_simplices(self):
        # for 2-D fans every maximal-cone coface has m-2 affinely independent
        # points, an open (m-3)-simplex
        for m in (4, 5, 6):
            for fan in enumerate_fans(m, 2):
                diag = diagram_of(fan)
                for i in range(1, m + 1):
                    facet = {i, i % m + 1}
                    pts = [diag.points[lab]
                           for lab in sorted(coface_indices(diag, facet))]
                    hom = QMatrix.from_rows([[*p, Q(1)] for p in pts])
                    assert rank(hom) == m - 2


class TestHalfPlaneLemma:
    def test_copies_ell_and_radon_point_are_coplanar(self):
        # wedge at color 1 with the opposite pair (1, 4) on the pentagon:
        # the two copy points, the opposite point, and the Radon point sit on
        # a 2-dimensional affine space, and the unique affine relation gives
        # the copy points opposite signs
        for d in (1, 2):
            for e in (-1, 1, 2):
                mat = assemble_matrix(single_wedge_puzzle(pentagon(d), 1, e))
                diag = diagram_of(mat)
                y = {lab: diag.weights[lab] * diag.generators[lab][1]
                     for lab in diag.labels}
                upper = [lab for lab in diag.labels
                         if lab[0] not in (1, 4) and y[lab] > 0]
                lower = [lab for lab in diag.labels
                         if lab[0] not in (1, 4) and y[lab] < 0]
                s = sum(y[a] for a in upper)
                assert s == -sum(y[b] for b in lower)
                dim = diag.ambient_dim
                radon = tuple(
                    sum(Q(y[a]) * diag.points[a][c] for a in upper) / s
                    for c in range(dim))
                quad = [diag.points[(1, 1)], diag.points[(1, 2)],
                        diag.points[(4, 1)], radon]
                hom = QMatrix.from_rows([[*p, Q(1)] for p in quad])
                assert rank(hom) <= 3
                kern = kernel_basis(
                    [clear_denominators(r)[0] for r in transpose(hom).entries], 4)
                assert len(kern) == 1
                rel = kern[0]
                assert rel[0] * rel[1] < 0  # copies enter with opposite signs


class TestInvariance:
    def test_verdict_invariant_under_relation_choice(self):
        fan = pentagon(2)
        base = prepare(fan).weights
        # uniform rescalings and the paper's different-but-valid relation
        for weights in (tuple(2 * b for b in base), tuple(7 * b for b in base),
                        (2, 1, 1, 5, 2)):
            prep = dataclasses.replace(prepare(fan), weights=weights)
            cert = s_sigma(shephard_diagram(prep), prep.table)
            assert cert.kind == "interior-point"

    def test_verdict_invariant_under_kernel_basis_change(self):
        # replaying the paper's fixture versus the computed diagram: raw
        # coordinates differ, verdicts agree
        prep = prepare(pentagon(2))
        mine = s_sigma(shephard_diagram(prep), prep.table)
        paper = s_sigma(paper_diagram(2), pentagon_table(paper_diagram(2)))
        assert mine.kind == paper.kind == "interior-point"


def ten_ray_pool():
    """Every 10-ray fan that blow-ups of CP2 and F_0..F_3 reach, one per
    equivalence class, in sorted order: the benchmark's check-fan pool."""
    bases = [cp2_fan()] + [hirzebruch_fan(d) for d in range(4)]
    level = set()
    for n in range(3, 11):
        level = {canonical_form(blow_up(f, i)) for f in level for i in range(f.m)}
        level |= {canonical_form(b) for b in bases if b.m == n}
    return sorted(level, key=lambda f: f.rays)


class TestAgainstOneShotReference:
    """Row generation against one solve of the whole coface system: the
    same verdict on every fan, and every certificate re-verified by
    substitution into every row."""

    def test_pool_sample(self):
        pool = ten_ray_pool()
        assert all(check_shephard_against_reference(fan) for fan in pool[::40])

    def test_pool_sample_facet_tables(self):
        # the Gale coface functionals against one adjugate per coface
        pool = ten_ray_pool()
        assert all(check_facet_table_against_reference(fan) > 0 for fan in pool[::40])

    @pytest.mark.slow
    def test_whole_pool(self):
        pool = ten_ray_pool()
        assert len(pool) == 837
        assert all(check_shephard_against_reference(fan) for fan in pool)
