import dataclasses
import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricwedge import exactmath
from toricwedge.exactmath import (
    DimensionMismatch,
    FeasibilityResult,
    InvariantViolation,
    StrictLinearSystem,
    _Simplex,
    _optimal_tableau,
    _rref,
    _simplex_functionals,
    integer_inverse,
    kernel_basis,
    make_primitive,
    strict_feasible,
)
from toricwedge.planefan import PlaneFan, blow_up, hirzebruch_fan
from toricwedge.shephard import (
    Prepared,
    _coface_functionals,
    certify,
    coface_indices,
    is_strongly_polytopal,
    prepare,
    shephard_diagram,
)
from toricwedge.wedgepuzzle import enumerate_puzzles, facet_table, signature
from oracles import (
    _reference_rref,
    RationalSystem,
    as_fractions,
    assert_relint_certificate,
    check_positive_relation,
    check_rational,
    clear_denominators,
    coface_families,
    cofactor_matrix,
    EmptyFamily,
    QMatrix,
    fourier_motzkin_feasible,
    fractions_of,
    grid_relint_intersection_2d,
    integer_adjugate,
    integer_det,
    NotSquare,
    margins,
    rank,
    rational_simplex_functionals,
    reference_kernel_basis,
    reference_kernel_with_ones,
    reference_positive_relation,
    reference_rank,
    reference_relint_intersection,
    reference_relint_of_simplices,
    reference_strict_feasible,
    relint_intersection,
    simplex_strict_system,
    solve_rational,
    verify_result,
)

Q = Fraction


def pentagon_weighted(d):
    # pentagon ray matrix with each column scaled to make the columns sum to zero
    return [[2, 0, -1, -2 * d - 1, 2 * d], [0, 1, 1, 0, -2]]


def pentagon_diagram_points(d):
    return [(Q(1), Q(-d)), (Q(-2), Q(2)), (Q(2), Q(0)), (Q(0), Q(0)), (Q(0), Q(1))]


def pentagon_cofaces(d):
    pts = pentagon_diagram_points(d)
    # maximal cones of the pentagon fan are the consecutive pairs {i, i+1}
    return [[pts[j] for j in range(5) if j not in (i, (i + 1) % 5)] for i in range(5)]


def annihilates(rows, cols):
    return all(sum(map(mul, r, c)) == 0 for r in rows for c in cols)


def check_kernel(rows, ncols):
    """kernel_basis of integer rows against its contract: ncols - rank
    primitive integer columns that rows annihilates, each a positive multiple
    of the Fraction reference column of the same free coordinate."""
    kern = kernel_basis(rows, ncols)
    m = QMatrix.from_rows(rows, cols=ncols)
    ref = reference_kernel_basis(m)
    assert len(kern) == ncols - rank(m) == ref.cols
    assert annihilates(rows, kern)
    for j, v in enumerate(kern):
        assert len(v) == ncols and all(type(x) is int for x in v)
        assert make_primitive(v) == v
        col = ref.column(j)
        free = col.index(1)
        assert v[free] > 0 and [Q(x, v[free]) for x in v] == list(col)
    return kern


def diagram_columns(diag):
    """The columns of [p | 1], one diagram point per row."""
    return [[diag.points[lab][t] for lab in diag.labels] for t in range(diag.ambient_dim)] + \
        [[1] * len(diag.labels)]


def weighted_matrix(diag):
    n = len(diag.generators[diag.labels[0]])
    return [[diag.weights[lab] * diag.generators[lab][r] for lab in diag.labels]
            for r in range(n)]


def check_diagram_kernel(diag):
    """[p | 1] of a diagram spans the same kernel of the weighted generator
    matrix as reference_kernel_with_ones, with int point coordinates."""
    assert all(type(v) is int for p in diag.points.values() for v in p)
    a = weighted_matrix(diag)
    cols = diagram_columns(diag)
    assert annihilates(a, cols)
    ref = reference_kernel_with_ones(QMatrix.from_rows(a))
    ref_cols = [list(ref.column(j)) for j in range(ref.cols)]
    assert ref_cols[-1] == cols[-1]
    assert rank(QMatrix.from_rows(cols)) == rank(QMatrix.from_rows(cols + ref_cols)) \
        == len(cols) == ref.cols


def zero_sum_prepared(m):
    """A record that shephard_diagram reads as unit weights on the columns
    of a matrix with zero row sums."""
    labels = tuple(range(1, len(m[0]) + 1))
    gens = {lab: tuple(r[lab - 1] for r in m) for lab in labels}
    return Prepared(labels, gens, None, (1,) * len(labels))


def zero_sum_matrices(rng, trials, max_rows, max_cols, spread):
    for _ in range(trials):
        rows = rng.randint(1, max_rows)
        cols = rng.randint(2, max_cols)
        m = []
        for _ in range(rows):
            r = [rng.randint(-spread, spread) for _ in range(cols - 1)]
            r.append(-sum(r))
            m.append(r)
        yield m


class TestKernelBasis:
    def test_full_rank_square_has_trivial_kernel(self):
        assert check_kernel([[1, 0], [0, 1]], 2) == []

    def test_single_relation(self):
        assert check_kernel([[1, 1]], 2) == [[-1, 1]]

    def test_pentagon_kernel_contains_paper_columns(self):
        a = pentagon_weighted(2)
        assert len(check_kernel(a, 5)) == 3
        b = [[1, -2, 1], [-2, 2, 1], [2, 0, 1], [0, 0, 1], [0, 1, 1]]
        assert annihilates(a, [[r[j] for r in b] for j in range(3)])

    def test_random_matrices_annihilated(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            kern = check_kernel(m, cols)
            if kern:
                assert rank(QMatrix.from_rows(kern)) == len(kern)

    def test_matches_fraction_reference(self):
        # rational rows, scaled row-wise to integers: the same kernel
        rng = random.Random(13)
        for _ in range(80):
            rows = rng.randint(0, 5)
            cols = rng.randint(1, 6)
            entry = (lambda: Q(rng.randint(-6, 6), rng.randint(1, 4))) if rng.random() < 0.5 \
                else (lambda: rng.randint(-3, 3))
            m = QMatrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)],
                                  cols=cols)
            check_kernel([clear_denominators(r)[0] for r in m.entries], cols)
            assert rank(m) == reference_rank(m)


class TestKernelWithOnes:
    """shephard_diagram takes the kernel basis of the weighted generators
    and swaps its last column for ones: [p | 1] must span that kernel."""

    def test_pentagon(self):
        # the paper's weights (2, 1, 1, 5, 2) of the pentagon with d = 2
        fan = PlaneFan(((1, 0), (0, 1), (-1, 1), (-1, 0), (2, -1)))
        prep = dataclasses.replace(prepare(fan), weights=(2, 1, 1, 5, 2))
        diag = shephard_diagram(prep)
        assert weighted_matrix(diag) == pentagon_weighted(2)
        check_diagram_kernel(diag)
        assert diag.ambient_dim == 2

    def test_cp1_times_cp1(self):
        diag = shephard_diagram(prepare(PlaneFan(((1, 0), (0, 1), (-1, 0), (0, -1)))))
        assert diag.weights == {1: 1, 2: 1, 3: 1, 4: 1}
        check_diagram_kernel(diag)
        # the kernel equals span{(1,0,1,0), ones}
        cols = diagram_columns(diag)
        assert rank(QMatrix.from_rows(cols + [[1, 0, 1, 0]])) == 2

    def test_degenerate_ones_only(self):
        diag = shephard_diagram(zero_sum_prepared([[1, 0, -1], [0, 1, -1]]))
        assert diag.ambient_dim == 0
        assert diagram_columns(diag) == [[1, 1, 1]]

    def test_random_zero_sum_matrices(self):
        rng = random.Random(11)
        for m in zero_sum_matrices(rng, 30, 3, 6, 3):
            diag = shephard_diagram(zero_sum_prepared(m))
            assert annihilates(m, diagram_columns(diag))
            assert diag.ambient_dim + 1 == len(m[0]) - rank(QMatrix.from_rows(m))

    def test_matches_greedy_reference(self):
        rng = random.Random(19)
        kernel_dims = set()
        for m in zero_sum_matrices(rng, 60, 4, 7, 4):
            diag = shephard_diagram(zero_sum_prepared(m))
            check_diagram_kernel(diag)
            kernel_dims.add(diag.ambient_dim + 1)
        assert 1 in kernel_dims and max(kernel_dims) >= 3
        for obj in [p.matrix for p in golden_puzzles()] + blown_up_fans():
            check_diagram_kernel(shephard_diagram(prepare(obj)))


class TestPositiveRelationAgainstReference:
    """The positive relation that prepare reads off the facet table gives
    the weights of the LP over all m weights on every golden puzzle and on
    the pentagon family.  Elsewhere the LP's weights follow Bland's path and
    so the labelling (17 of the 32 blown-up fans differ), and the relation
    is checked against its contract and for invariance instead."""

    def test_golden_puzzles(self):
        puzzles = golden_puzzles()
        assert len(puzzles) == 65
        for p in puzzles:
            prep = prepare(p.matrix)
            gens = [prep.generators[lab] for lab in prep.labels]
            assert prep.weights == reference_positive_relation(gens)

    def test_pentagon_family(self):
        for d in range(-3, 8):
            rays = ((1, 0), (0, 1), (-1, 1), (-1, 0), (d, -1))
            assert prepare(PlaneFan(rays)).weights == reference_positive_relation(rays)

    def test_blown_up_fans_satisfy_the_contract(self):
        for fan in blown_up_fans():
            check_positive_relation(prepare(fan))


def rotated(fan, k):
    return PlaneFan(fan.rays[k:] + fan.rays[:k])


def reflected(fan):
    """The mirror image in the line x = y, still counter-clockwise: ray i
    becomes ray m - 1 - i."""
    return PlaneFan(tuple((y, x) for x, y in reversed(fan.rays)))


class TestPositiveRelationInvariance:
    """Relabelling a fan's rays permutes its weights: the relation is a
    function of the fan, not of the order of its rays."""

    @staticmethod
    def check_relabellings(fan, shifts):
        c = prepare(fan).weights
        for k in shifts:
            assert prepare(rotated(fan, k)).weights == c[k:] + c[:k]
        assert prepare(reflected(fan)).weights == c[::-1]

    def test_blown_up_fans(self):
        for fan in blown_up_fans():
            self.check_relabellings(fan, (1, fan.m // 2))

    def test_large_fans(self):
        # fan_48(24) and large_fan(64, 32): the LP over the kernel
        # coordinates gave other weights than the rotated ones
        for fan in (fan_48(0), large_fan(64, 0)):
            self.check_relabellings(fan, (fan.m // 2,))


def criterion_8_systems(seed=271828, trials=500):
    """The random systems of acceptance criterion 8, from the same generator."""
    rng = random.Random(seed)
    for _ in range(trials):
        dim = rng.randint(1, 5)
        n_total = rng.randint(1, 10)
        n_eq = rng.randint(0, min(2, n_total - 1)) if n_total > 1 else 0
        n_strict = rng.randint(1, n_total - n_eq)
        n_weak = n_total - n_eq - n_strict

        def row():
            return ([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-5, 5))

        yield RationalSystem.build(
            dim,
            equalities=[row() for _ in range(n_eq)],
            weak=[row() for _ in range(n_weak)],
            strict=[row() for _ in range(n_strict)],
        )


def rational_rows(dim, n):
    coef = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    return st.lists(st.tuples(st.lists(coef | st.integers(-4, 4), min_size=dim, max_size=dim),
                              coef | st.integers(-5, 5)),
                    max_size=n)


@st.composite
def linear_systems(draw):
    dim = draw(st.integers(1, 4))
    return RationalSystem.build(
        dim,
        equalities=draw(rational_rows(dim, 2)),
        weak=draw(rational_rows(dim, 3)),
        strict=draw(rational_rows(dim, 5)),
    )


def blown_up_fans():
    """Blow-ups of each Hirzebruch fan up to 16 rays, each labelled from ray
    0 and from ray m/2: 32 fans."""
    rng = random.Random(1983)
    fans = []
    for d in range(4):
        fan = hirzebruch_fan(d)
        while fan.m < 16:
            fan = blow_up(fan, rng.randrange(fan.m))
            if fan.m in (7, 10, 13, 16):
                fans += [PlaneFan(fan.rays[k:] + fan.rays[:k]) for k in (0, fan.m // 2)]
    return fans


def large_fan(m, k):
    """hirzebruch_fan(1) blown up to m rays at seeded positions, labelled
    from ray k."""
    rng = random.Random(7)
    fan = hirzebruch_fan(1)
    while fan.m < m:
        fan = blow_up(fan, rng.randrange(fan.m))
    return rotated(fan, k)


def fan_48(k):
    return large_fan(48, k)


def golden_puzzles():
    """Every class of the four golden classify signatures."""
    return [p for j in ("2,1,1,1,1", "2,1,2,1,1", "3,1,1,1,1", "2,2,1,1,1")
            for p in enumerate_puzzles(signature(5, tuple(map(int, j.split(",")))), 2, 2)]


class TestAgainstReferenceEngine:
    """The condensed integer tableau against the full tableau with a
    Fraction objective that it replaced: the whole result, witness and slack
    included, must be equal, on random systems and on every LP that certify
    solves from the first pivot on blown-up fans and on the golden classify
    inputs (the warm Shephard rounds are checked in TestWarmStart).  The
    random systems have rational entries and equality rows, so they go
    through check_rational: the whole results are compared on their integer
    form, and the verdict and the witness on the system as drawn."""

    def test_criterion_8_systems(self):
        feasible = 0
        for sys in criterion_8_systems():
            res = check_rational(sys)
            feasible += res.feasible
        assert 50 < feasible < 450

    def test_fraction_coefficients(self):
        rng = random.Random(41)

        def q():
            return Q(rng.randint(-9, 9), rng.randint(1, 7))

        feasible = 0
        for _ in range(200):
            dim = rng.randint(1, 4)
            rows = lambda n: [([q() for _ in range(dim)], q()) for _ in range(n)]
            sys = RationalSystem.build(
                dim, rows(rng.randint(0, 1)), rows(rng.randint(0, 3)), rows(rng.randint(1, 5)))
            res = check_rational(sys)
            feasible += res.feasible
        assert 20 < feasible < 180

    @settings(max_examples=200, deadline=None)
    @given(linear_systems())
    def test_hypothesis_systems(self, sys):
        check_rational(sys)

    @staticmethod
    def certify_lps(objs, monkeypatch):
        """Every system that certify solves from the first pivot on objs:
        the first Shephard round and the support LP, two per object, since
        prepare reads the positive relation off the facet table.  The later
        Shephard rounds are warm (TestWarmStart)."""
        systems = []
        solve = exactmath._optimal_tableau

        def recording(sys):
            systems.append(sys)
            return solve(sys)

        monkeypatch.setattr(exactmath, "_optimal_tableau", recording)
        for obj in objs:
            certify(obj)
        monkeypatch.undo()
        return systems

    def test_certify_lps_of_blown_up_fans(self, monkeypatch):
        fans = blown_up_fans()
        systems = self.certify_lps(fans, monkeypatch)
        assert len(systems) == 2 * len(fans)
        for sys in systems:
            assert as_fractions(strict_feasible(sys)) == reference_strict_feasible(sys)

    def test_certify_lps_of_golden_classify(self, monkeypatch):
        puzzles = golden_puzzles()
        systems = self.certify_lps([p.matrix for p in puzzles], monkeypatch)
        assert len(systems) == 2 * len(puzzles)
        for sys in systems:
            assert as_fractions(strict_feasible(sys)) == reference_strict_feasible(sys)

    @staticmethod
    def drive_out_trace(sys, monkeypatch):
        """(rows before, rows after, signs of the pivot entries) of each
        drive_out call while solving sys."""
        calls = []
        drive_out, pivot = _Simplex.drive_out, _Simplex.pivot

        def traced_drive_out(tab, limit):
            calls.append([len(tab.t), None, []])
            tab.in_drive_out = True
            drive_out(tab, limit)
            del tab.in_drive_out
            calls[-1][1] = len(tab.t)

        def traced_pivot(tab, row, q):
            if getattr(tab, "in_drive_out", False):
                assert tab.t[row][-1] == 0  # a zero-level artificial
                calls[-1][2].append(tab.t[row][q] > 0)
            pivot(tab, row, q)

        monkeypatch.setattr(_Simplex, "drive_out", traced_drive_out)
        monkeypatch.setattr(_Simplex, "pivot", traced_pivot)
        res = strict_feasible(sys)
        monkeypatch.undo()
        assert as_fractions(res) == reference_strict_feasible(sys)
        return res, calls

    def test_drive_out_negative_pivot(self, monkeypatch):
        # x = 1 as -x <= -1 and x <= 1: the flipped row's artificial is
        # driven out at zero on the entry -1, which pivot negates with its
        # row, and every row stays
        sys = StrictLinearSystem.build(1, [([-1], -1), ([1], 1)], [([0], 1)])
        res, calls = self.drive_out_trace(sys, monkeypatch)
        assert res.feasible and res.witness == ((1,), 1)
        assert calls == [[4, 4, [False]]]


class TestStrictFeasible:
    def test_open_interval(self):
        sys = StrictLinearSystem.build(1, strict=[([-1], 0), ([1], 1)])
        res = as_fractions(strict_feasible(sys))
        assert res.feasible
        assert 0 < res.witness[0] < 1
        assert verify_result(sys, res)

    def test_contradiction(self):
        sys = StrictLinearSystem.build(1, strict=[([-1], 0), ([1], 0)])
        res = strict_feasible(sys)
        assert not res.feasible

    def test_pentagon_coface_system(self):
        # point strictly inside all five pentagon cofaces for d=2, via the
        # full-simplex encoding (each coface is three affinely independent
        # points); the shaded region is the triangle (0,0) (1/3,0) (0,1)
        res = relint_intersection(pentagon_cofaces(2))
        assert res.feasible
        x, y = res.witness
        (ax, ay), (bx, by), (cx, cy) = (Q(0), Q(0)), (Q(1, 3), Q(0)), (Q(0), Q(1))
        d = (bx - ax) * (cy - ay) - (cx - ax) * (by - ay)
        l1 = ((bx - x) * (cy - y) - (cx - x) * (by - y)) / d
        l2 = ((cx - x) * (ay - y) - (ax - x) * (cy - y)) / d
        l3 = 1 - l1 - l2
        assert l1 > 0 and l2 > 0 and l3 > 0

    def test_equalities_and_weak(self):
        sys = RationalSystem.build(
            2, equalities=[([1, 1], 1)], weak=[([1, 0], Q(3, 4))], strict=[([-1, 0], 0)])
        res = solve_rational(sys)
        assert res.feasible
        assert verify_result(sys, res)
        assert res.witness[0] + res.witness[1] == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            StrictLinearSystem.build(2, strict=[([1], 0)])

    def test_only_integer_rows(self):
        # a Fraction, a float or a bool anywhere in a row, weak or strict,
        # and a row of the wrong length are refused
        for bad in (Q(4, 2), 2.0, True):
            for row in (([1, bad], 3), ([1, 2], bad)):
                for kind in ("weak", "strict"):
                    with pytest.raises(TypeError):
                        StrictLinearSystem.build(2, **{kind: [([0, 1], 1), row]})
        for kind in ("weak", "strict"):
            with pytest.raises(DimensionMismatch):
                StrictLinearSystem.build(2, **{kind: [([1, 2], 3), ([1, 2, 3], 4)]})
        with pytest.raises(TypeError):
            StrictLinearSystem(1, strict=(((Q(1),), 0),))
        sys = StrictLinearSystem.build(2, [([1, 2], 3)], [([-1, 0], 0)])
        assert sys == StrictLinearSystem(2, (((1, 2), 3),), (((-1, 0), 0),))

    def test_deterministic(self):
        sys = StrictLinearSystem.build(
            3,
            weak=[([1, 2, -1], 5), ([0, 1, 1], 3)],
            strict=[([-1, 0, 0], 0), ([0, -1, 0], 0), ([0, 0, -1], 0)],
        )
        r1 = strict_feasible(sys)
        r2 = strict_feasible(sys)
        assert r1 == r2

    def test_fourier_motzkin_agreement_small(self):
        rng = random.Random(23)
        agree = 0
        for _ in range(120):
            dim = rng.randint(1, 6)
            n_eq = rng.randint(0, 1)
            n_weak = rng.randint(0, 3)
            n_strict = rng.randint(1, 4)
            mk = lambda: ([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-4, 4))
            sys = RationalSystem.build(
                dim,
                equalities=[mk() for _ in range(n_eq)],
                weak=[mk() for _ in range(n_weak)],
                strict=[mk() for _ in range(n_strict)],
            )
            res = solve_rational(sys)
            assert res.feasible == fourier_motzkin_feasible(sys)
            if res.feasible:
                assert verify_result(sys, res)
                agree += 1
        assert agree > 10  # the sample is not degenerate


class TestRelintIntersection:
    def test_point_in_open_segment(self):
        res = relint_intersection([[(0, 0), (1, 0)], [(Q(1, 2), 0)]])
        assert res.feasible
        assert res.witness == (Q(1, 2), Q(0))
        lam = res.barycentric[0]
        assert sum(lam) == 1 and all(l > 0 for l in lam)

    def test_disjoint_singletons(self):
        res = relint_intersection([[(0,)], [(1,)]])
        assert not res.feasible

    def test_pentagon_all_d(self):
        for d in (0, 1, 2):
            res = relint_intersection(pentagon_cofaces(d))
            assert res.feasible, f"pentagon coface intersection empty for d={d}"

    def test_zero_dimensional_space(self):
        res = relint_intersection([[()], [(), ()]])
        assert res.feasible
        assert res.witness == ()

    def test_rejects_empty_family(self):
        with pytest.raises(EmptyFamily):
            relint_intersection([[(0, 0)], []])

    def test_rejects_mixed_dimensions(self):
        with pytest.raises(DimensionMismatch):
            relint_intersection([[(0, 0)], [(1,)]])

    def test_degenerate_family_general_path(self):
        # four coplanar... collinear points force the explicit-lambda encoding
        fam = [(0, 0), (1, 0), (2, 0), (3, 0)]
        res = relint_intersection([fam, [(Q(3, 2), 0)]])
        assert res.feasible
        assert res.witness == (Q(3, 2), Q(0))
        lam = res.barycentric[0]
        assert sum(lam) == 1 and all(l > 0 for l in lam)
        mix = [sum(Q(p[c]) * l for p, l in zip(fam, lam)) for c in range(2)]
        assert tuple(mix) == res.witness

    def test_grid_oracle_agreement_2d(self):
        rng = random.Random(5)
        for _ in range(25):
            fams = []
            for _ in range(rng.randint(1, 3)):
                n = rng.randint(1, 3)
                while True:
                    pts = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(n)]
                    if n < 3:
                        break
                    det = (pts[1][0] - pts[0][0]) * (pts[2][1] - pts[0][1]) - (
                        pts[2][0] - pts[0][0]) * (pts[1][1] - pts[0][1])
                    if det != 0:
                        break
                fams.append(pts)
            res = relint_intersection(fams)
            if grid_relint_intersection_2d(fams, denom=8, span=3):
                assert res.feasible
            if res.feasible:
                # re-verify the witness against every family exactly
                for fam, lam in zip(fams, res.barycentric):
                    assert sum(lam) == 1 and all(l > 0 for l in lam)
                    for c in range(2):
                        assert sum(Q(p[c]) * l for p, l in zip(fam, lam)) == res.witness[c]


def simplex_around(rng, dim, centre, spread):
    """A random nonsingular full simplex with centre in its interior: the
    offsets v_1..v_dim are random and v_0 makes sum w_j v_j = 0 for random
    weights w_j >= 1, so some points are Fractions."""
    while True:
        vs = [[rng.randint(-spread, spread) for _ in range(dim)] for _ in range(dim)]
        ws = [rng.randint(1, 3) for _ in range(dim + 1)]
        v0 = [-Q(sum(w * v[c] for w, v in zip(ws[1:], vs)), ws[0]) for c in range(dim)]
        fam = [tuple(Q(centre[c]) + v[c] for c in range(dim)) for v in [v0] + vs]
        if rational_simplex_functionals(fam) is not None:
            return fam


def random_simplex(rng, dim, spread):
    while True:
        fam = [tuple(rng.randint(-spread, spread) for _ in range(dim)) for _ in range(dim + 1)]
        if _simplex_functionals(fam) is not None:
            return fam


def first_rows_feasible(families, dim):
    """Whether the LP that row generation starts from, the first functional
    of every family, is feasible."""
    rows = [rational_simplex_functionals(fam)[0][0] for fam in families]
    keys = [make_primitive([-v for v in r[:dim]] + [r[dim]]) for r in rows]
    return strict_feasible(StrictLinearSystem.build(
        dim, (), [(k[:dim], k[dim]) for k in keys])).feasible


def warm_rounds(simplices, dim):
    """_relint_of_simplices on simplices, with every round recorded:
    (result, [(rows, witness)]), where rows are the round's strict rows and
    witness is the warm tableau's, None when the round proved its rows
    infeasible."""
    rounds = []
    rows = []
    solve, add_row, restore = exactmath._optimal_tableau, _Simplex.add_row, _Simplex.restore

    def first(sys):
        tab = solve(sys)
        rows.extend(sys.strict)
        rounds.append((tuple(rows), None if tab is None else exactmath._witness(tab, dim)))
        return tab

    def added(tab, coef, rhs):
        rows.append((tuple(coef[:dim]), rhs))
        add_row(tab, coef, rhs)

    def restored(tab):
        ok = restore(tab)
        feasible = ok and tab.value()[0] > 0
        rounds.append((tuple(rows), exactmath._witness(tab, dim) if feasible else None))
        return ok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactmath, "_optimal_tableau", first)
        mp.setattr(_Simplex, "add_row", added)
        mp.setattr(_Simplex, "restore", restored)
        res = exactmath._relint_of_simplices(simplices, dim)
    return res, rounds


def check_warm_start(simplices, dim, families, whole=None, engine=False):
    """The warm row generation against reference_relint_of_simplices, which
    solves every round from the first pivot: the same verdict, a feasible
    result re-verified on the whole strict system (whole, built from the
    families when not given), and in every round min(1, slack) at the warm
    witness equal to min(1, slack) of a cold strict_feasible on the round's
    rows.  That is the optimum of t, which is unique where the optimal vertex
    is not.  With engine, each cold solve must also equal
    reference_strict_feasible.  Returns (result, rounds)."""
    res, rounds = warm_rounds(simplices, dim)
    assert res.feasible == reference_relint_of_simplices(simplices, dim).feasible
    if res.feasible:
        assert_relint_certificate(families, dim, as_fractions(res), whole)
        assert res.witness == rounds[-1][1]
    else:
        assert res == FeasibilityResult(False)
        assert rounds[-1][1] is None
    assert all(witness is not None for _, witness in rounds[:-1])
    for rows, witness in rounds:
        sys = StrictLinearSystem.build(dim, (), rows)
        cold = as_fractions(strict_feasible(sys))
        if engine:
            assert cold == reference_strict_feasible(sys)
        assert cold.feasible == (witness is not None)
        if witness is not None:
            assert min(1, min(margins(sys, fractions_of(witness)))) == min(1, cold.slack)
    return res, rounds


def check_row_generation(families, dim):
    """relint_intersection against the one-shot reference and the cold row
    generation (check_warm_start): the same verdict, and a feasible result
    re-verified against the whole strict system."""
    whole, simplices = simplex_strict_system(families, dim)
    res, _ = check_warm_start(simplices, dim, families, whole)
    assert relint_intersection(families, dimension=dim) == as_fractions(res)
    assert res.feasible == reference_relint_intersection(families, dim).feasible
    return res.feasible


@st.composite
def simplex_families(draw):
    """1-4 full simplices in dimension 2-6: each either random or around a
    centre that some of them share, and at times one moved far away, so
    that the families are disjoint."""
    dim = draw(st.integers(2, 6))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    centre = [rng.randint(-3, 3) for _ in range(dim)]
    fams = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["shared", "shared", "random", "far"]))
        if kind == "random":
            fams.append(random_simplex(rng, dim, 3))
        else:
            c = centre if kind == "shared" else [200] + centre[1:]
            fams.append(simplex_around(rng, dim, c, 2))
    return dim, fams


class TestRowGeneration:
    """relint_intersection over full simplices solves a growing subset of
    the strict rows; its answer must be that of the whole system."""

    def test_seeded_families(self):
        rng = random.Random(8)
        counts = {"feasible": 0, "infeasible": 0, "start_misleads": 0}
        for trial in range(240):
            dim = 2 + trial % 5
            centre = [rng.randint(-3, 3) for _ in range(dim)]
            far = [100] + centre[1:]
            shape = trial % 4
            if shape == 0:  # all around one point: feasible
                fams = [simplex_around(rng, dim, centre, 2) for _ in range(rng.randint(2, 4))]
            elif shape == 1:  # two disjoint families, and maybe a shared one
                fams = [simplex_around(rng, dim, centre, 2), simplex_around(rng, dim, far, 2)]
                fams += [simplex_around(rng, dim, centre, 2)] * rng.randint(0, 1)
            else:
                fams = [random_simplex(rng, dim, 4) for _ in range(rng.randint(1, 4))]
            feasible = check_row_generation(fams, dim)
            counts["feasible" if feasible else "infeasible"] += 1
            if not feasible and first_rows_feasible(fams, dim):
                counts["start_misleads"] += 1
        assert counts["feasible"] > 60 and counts["infeasible"] > 60
        assert counts["start_misleads"] > 60

    @settings(max_examples=150, deadline=None)
    @given(simplex_families())
    def test_hypothesis_families(self, case):
        dim, fams = case
        check_row_generation(fams, dim)

    def test_pentagon_certificate(self):
        for d in (0, 1, 2):
            res = relint_intersection(pentagon_cofaces(d))
            assert_relint_certificate(pentagon_cofaces(d), 2, res)

    def test_solves_fewer_rows_than_the_system(self):
        # the cofaces of a 16-ray plane fan: 16 simplices in dimension 13
        rng = random.Random(3)
        fan = hirzebruch_fan(1)
        while fan.m < 16:
            fan = blow_up(fan, rng.randrange(fan.m))
        prep = prepare(fan)
        diagram = shephard_diagram(prep)
        fams = [[diagram.points[lab] for lab in sorted(coface_indices(diagram, f))]
                for f in prep.table]
        dim = diagram.ambient_dim
        whole, simplices = simplex_strict_system(fams, dim)
        res, rounds = warm_rounds(simplices, dim)
        sizes = [len(rows) for rows, _ in rounds]
        assert res.feasible
        assert_relint_certificate(fams, dim, as_fractions(res), whole)
        assert sizes == sorted(set(sizes)) and sizes[0] <= len(fams)
        assert sizes[-1] < len(whole.strict)


def shephard_case(obj):
    """(simplices, dim, families) of the Shephard LP of a valid input: the
    coface functionals that s_sigma passes to _relint_of_simplices, and the
    coface points they come from."""
    prep = prepare(obj)
    diagram = shephard_diagram(prep)
    return (_coface_functionals(diagram, prep.table), diagram.ambient_dim,
            coface_families(diagram, prep.table))


class TestWarmStart:
    """Shephard row generation keeps one tableau and restores it by dual
    simplex after adding rows; each round must reach the optimum that a
    cold solve of the same rows reaches.  The seeded and hypothesis families
    go through check_warm_start in TestRowGeneration."""

    def test_blown_up_fans(self):
        for fan in blown_up_fans():
            simplices, dim, families = shephard_case(fan)
            res, rounds = check_warm_start(simplices, dim, families, engine=True)
            assert res.feasible

    def test_golden_classify(self):
        warm = 0
        for puzzle in golden_puzzles():
            simplices, dim, families = shephard_case(puzzle.matrix)
            _, rounds = check_warm_start(simplices, dim, families, engine=True)
            warm += len(rounds) > 1
        assert warm > 0

    def test_pivot_budget_of_a_48_ray_fan(self):
        # the Shephard oracle on 48 rays, labelled from ray 0 and from ray
        # 24, in at most 300 pivots where re-solving every round from the
        # first pivot takes 394 and 1,085
        for k in (0, 24):
            prep = prepare(fan_48(k))
            pivots = []
            pivot = _Simplex.pivot

            def counted(tab, row, q, dual=False):
                pivots.append(dual)
                pivot(tab, row, q, dual)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_Simplex, "pivot", counted)
                ok, _ = is_strongly_polytopal(prep)
            assert ok and any(pivots)
            assert len(pivots) <= 300, (k, len(pivots))

    @staticmethod
    def tableau(strict):
        """The optimal tableau of one strict system in one variable."""
        tab = _optimal_tableau(StrictLinearSystem.build(1, (), strict))
        assert tab is not None and tab.value()[0] > 0
        return tab

    def test_added_row_restored(self):
        # x < 1 has t = 1 at x = 0; adding x > 1/2, as -2x + t <= -1 over
        # x', mu, t, cuts t to 1/3 at x = 2/3
        tab = self.tableau([([1], 1)])
        tab.add_row([-2, 2, 1], -1)
        assert min(row[-1] for row in tab.t) < 0
        assert tab.restore()
        assert min(row[-1] for row in tab.t) >= 0
        assert tab.value() == (1, 3)
        assert exactmath._witness(tab, 1) == ((2,), 3)

    def test_added_rows_that_meet_at_t_zero(self):
        # x < 1 and x > 1: restored, with t = 0
        tab = self.tableau([([1], 1)])
        tab.add_row([-1, 1, 1], -1)
        assert tab.restore() and tab.value() == (0, 1)

    def test_added_row_that_cannot_be_restored(self):
        # x < 1 and x > 2 with t >= 0: the dual is unbounded, and a row
        # with a negative rhs is left without a negative entry
        tab = self.tableau([([1], 1)])
        tab.add_row([-1, 1, 1], -2)
        assert not tab.restore()
        assert any(row[-1] < 0 and all(a >= 0 for a in row[:-1]) for row in tab.t)

    def test_negative_pivot_is_dual_only(self):
        tab = self.tableau([([1], 1)])
        tab.add_row([-2, 2, 1], -1)
        r = len(tab.t) - 1
        q = next(k for k, a in enumerate(tab.t[r][:-1]) if a < 0)
        with pytest.raises(InvariantViolation):
            tab.pivot(r, q)
        tab.pivot(r, q, dual=True)
        assert tab.t[r][-1] > 0 and tab.bc[r] > 0


class TestIntegerDet:
    def test_identity(self):
        assert integer_det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1

    def test_reflection(self):
        assert integer_det([[1, 0], [0, -1]]) == -1

    def test_smooth_cone(self):
        assert integer_det([[0, 1], [-1, -2]]) == 1

    def test_not_square(self):
        with pytest.raises(NotSquare):
            integer_det([[1, 2, 3], [4, 5, 6]])

    def test_matches_fraction_elimination(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(1, 5)
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            expect = _det_by_expansion(m) if n <= 4 else None
            got = integer_det(m)
            if expect is not None:
                assert got == expect


class TestIntegerInverse:
    def test_empty_matrix(self):
        assert integer_inverse([]) == ([], 1)

    def test_zero_leading_entry_swaps_rows(self):
        # det = -1: N = sign(det) * adj = -adj, over den = |det|
        m = [[0, 1], [1, 0]]
        assert integer_inverse(m) == ([[0, 1], [1, 0]], 1)
        assert integer_adjugate(m) == ([[0, -1], [-1, 0]], -1)

    def test_singular_returns_none(self):
        assert integer_inverse([[1, 2], [2, 4]]) is None
        assert integer_inverse([[0, 0, 1], [0, 0, 2], [3, 4, 5]]) is None
        assert integer_inverse([[0]]) is None

    def test_matches_adjugate_reference(self):
        rng = random.Random(11)
        singular = swapped = 0
        for trial in range(400):
            n = trial % 9  # sizes 0..8
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            if n > 1 and trial % 5 == 0:
                m[0][0] = 0  # a zero leading entry forces a row swap
                swapped += 1
            if n > 2 and trial % 7 == 0:
                m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]  # dependent row
            got = integer_inverse(m)
            ref = integer_adjugate(m)
            if ref is None:
                assert got is None and integer_det(m) == 0
                singular += 1
                continue
            adj, det = ref
            N, den = got
            sign = 1 if det > 0 else -1
            assert den == abs(det) == abs(integer_det(m)) > 0
            assert N == [[sign * x for x in row] for row in adj]
            # N . m == den * I
            assert all(sum(N[i][k] * m[k][j] for k in range(n)) == den * (i == j)
                       for i in range(n) for j in range(n))
        assert singular > 20 and swapped > 20  # both branches are exercised

    def test_adjugate_reference_matches_cofactors(self):
        rng = random.Random(13)
        with pytest.raises(NotSquare):
            integer_adjugate([[1, 2, 3], [4, 5, 6]])
        for trial in range(200):
            n = trial % 7
            m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            ref = integer_adjugate(m)
            if ref is None:
                assert integer_det(m) == 0
                continue
            adj, det = ref
            assert det == integer_det(m)
            cof = cofactor_matrix(m)
            assert all(adj[c][j] == cof[j][c] for j in range(n) for c in range(n))


class TestFacetTableWalk:
    """A facet tableau is unique, so the wall walk that reaches it changes
    nothing: a table built from the facets in reverse order, whose walk
    starts at the other end, gives every facet the same tableau."""

    @staticmethod
    def check_reversed(obj):
        prep = prepare(obj)
        table = prep.table
        backward = facet_table(prep.generators, table.facets[::-1])
        assert backward.facets == table.facets[::-1]
        assert dict(zip(backward.facets, backward.tableaux)) == \
            dict(zip(table.facets, table.tableaux))
        assert table.unimodular

    def test_golden_puzzles(self):
        puzzles = golden_puzzles()
        assert len(puzzles) > 50
        for puzzle in puzzles:
            self.check_reversed(puzzle.matrix)

    def test_48_ray_fans(self):
        for k in (0, 24):
            self.check_reversed(fan_48(k))


class TestRref:
    def test_every_pivot_entry_equal_with_skipped_columns(self):
        rng = random.Random(17)
        skipped = deficient = 0
        for trial in range(300):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 8)
            gens = [[rng.randint(-5, 5) for _ in range(ncols)]
                    for _ in range(rng.randint(1, nrows))]
            # combinations of fewer generators than rows: rank-deficient
            rows = [[sum(rng.randint(-2, 2) * g[c] for g in gens) for c in range(ncols)]
                    for _ in range(nrows)]
            for c in rng.sample(range(ncols), rng.randint(0, ncols // 2)):
                for row in rows:
                    row[c] = 0
            red, pivots, d = _rref(rows)
            m = QMatrix.from_rows(rows, cols=ncols)
            assert len(pivots) == len(red) == reference_rank(m)
            skipped += pivots != list(range(len(pivots)))
            deficient += len(pivots) < nrows
            assert d > 0
            for r, (row, p) in enumerate(zip(red, pivots)):
                assert row[p] == d
                assert all(other[p] == 0 for s, other in enumerate(red) if s != r)
            # the rows are the reference RREF times d
            ref, ref_pivots = _reference_rref(rows)
            assert pivots == ref_pivots
            assert all(Q(x, d) == y for row, want in zip(red, ref) for x, y in zip(row, want))
        assert skipped > 50 and deficient > 50


def _det_by_expansion(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_by_expansion(minor)
    return total
