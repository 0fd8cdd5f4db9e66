import random
from fractions import Fraction

import pytest

from toricwedge.exactmath import (
    DimensionMismatch,
    EmptyFamily,
    NotSquare,
    OnesNotInKernel,
    QMatrix,
    StrictLinearSystem,
    integer_adjugate,
    integer_det,
    kernel_basis,
    kernel_with_ones,
    relint_intersection,
    strict_feasible,
    verify_result,
)
from oracles import cofactor_matrix, fourier_motzkin_feasible, grid_relint_intersection_2d

Q = Fraction


def pentagon_weighted(d):
    # pentagon ray matrix with each column scaled to make the columns sum to zero
    return QMatrix.from_rows([[2, 0, -1, -2 * d - 1, 2 * d], [0, 1, 1, 0, -2]])


def pentagon_diagram_points(d):
    return [(Q(1), Q(-d)), (Q(-2), Q(2)), (Q(2), Q(0)), (Q(0), Q(0)), (Q(0), Q(1))]


def pentagon_cofaces(d):
    pts = pentagon_diagram_points(d)
    # maximal cones of the pentagon fan are the consecutive pairs {i, i+1}
    return [[pts[j] for j in range(5) if j not in (i, (i + 1) % 5)] for i in range(5)]


class TestKernelBasis:
    def test_full_rank_square_has_trivial_kernel(self):
        k = kernel_basis(QMatrix.from_rows([[1, 0], [0, 1]]))
        assert k.cols == 0

    def test_single_relation(self):
        k = kernel_basis(QMatrix.from_rows([[1, 1]]))
        assert k.cols == 1
        v = k.column(0)
        assert v[0] == -v[1] != 0

    def test_pentagon_kernel_contains_paper_columns(self):
        a = pentagon_weighted(2)
        k = kernel_basis(a)
        assert k.cols == 3
        assert a.mul(k).is_zero()
        b = QMatrix.from_rows([[1, -2, 1], [-2, 2, 1], [2, 0, 1], [0, 0, 1], [0, 1, 1]])
        assert a.mul(b).is_zero()

    def test_random_matrices_annihilated(self):
        rng = random.Random(7)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            m = QMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
            k = kernel_basis(m)
            assert k.cols == m.cols - m.rank()
            if k.cols:
                assert m.mul(k).is_zero()
                assert k.rank() == k.cols


class TestKernelWithOnes:
    def test_pentagon(self):
        a = pentagon_weighted(2)
        b = kernel_with_ones(a)
        assert b.cols == 3
        assert a.mul(b).is_zero()
        assert b.column(2) == (Q(1),) * 5
        assert b.rank() == 3

    def test_cp1_times_cp1(self):
        m = QMatrix.from_rows([[1, 0, -1, 0], [0, 1, 0, -1]])
        b = kernel_with_ones(m)
        assert m.mul(b).is_zero()
        assert b.cols == 2 and b.rank() == 2
        assert b.column(1) == (Q(1),) * 4
        # the kernel equals span{(1,0,1,0), ones}: check (1,0,1,0) in col span of b
        ext = QMatrix.from_rows([list(b.column(0)), list(b.column(1)), [1, 0, 1, 0]])
        assert ext.rank() == 2

    def test_degenerate_ones_only(self):
        m = QMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
        b = kernel_with_ones(m)
        assert b.cols == 1
        assert b.column(0) == (Q(1),) * 3

    def test_rejects_nonzero_row_sums(self):
        with pytest.raises(OnesNotInKernel):
            kernel_with_ones(QMatrix.from_rows([[1, 0], [0, 1]]))

    def test_random_zero_sum_matrices(self):
        rng = random.Random(11)
        for _ in range(30):
            rows = rng.randint(1, 3)
            cols = rng.randint(2, 6)
            m = []
            for _ in range(rows):
                r = [rng.randint(-3, 3) for _ in range(cols - 1)]
                r.append(-sum(r))
                m.append(r)
            q = QMatrix.from_rows(m)
            b = kernel_with_ones(q)
            assert q.mul(b).is_zero()
            assert b.column(b.cols - 1) == (Q(1),) * cols
            assert b.rank() == b.cols == cols - q.rank()


class TestStrictFeasible:
    def test_open_interval(self):
        sys = StrictLinearSystem.build(1, strict=[([-1], 0), ([1], 1)])
        res = strict_feasible(sys)
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
        sys = StrictLinearSystem.build(
            2, equalities=[([1, 1], 1)], weak=[([1, 0], Q(3, 4))], strict=[([-1, 0], 0)])
        res = strict_feasible(sys)
        assert res.feasible
        assert verify_result(sys, res)
        assert res.witness[0] + res.witness[1] == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            StrictLinearSystem.build(2, strict=[([1], 0)])

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
            sys = StrictLinearSystem.build(
                dim,
                equalities=[mk() for _ in range(n_eq)],
                weak=[mk() for _ in range(n_weak)],
                strict=[mk() for _ in range(n_strict)],
            )
            res = strict_feasible(sys)
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


class TestIntegerAdjugate:
    def test_empty_matrix(self):
        assert integer_adjugate([]) == ([], 1)

    def test_not_square(self):
        with pytest.raises(NotSquare):
            integer_adjugate([[1, 2, 3], [4, 5, 6]])

    def test_zero_leading_entry_swaps_rows(self):
        m = [[0, 1], [1, 0]]
        adj, det = integer_adjugate(m)
        assert det == -1
        assert adj == [[0, -1], [-1, 0]]

    def test_singular_returns_none(self):
        assert integer_adjugate([[1, 2], [2, 4]]) is None
        assert integer_adjugate([[0, 0, 1], [0, 0, 2], [3, 4, 5]]) is None
        assert integer_adjugate([[0]]) is None

    def test_matches_cofactor_reference(self):
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
            det = integer_det(m)
            got = integer_adjugate(m)
            if det == 0:
                assert got is None
                singular += 1
                continue
            adj, d = got
            assert d == det
            cof = cofactor_matrix(m)
            assert all(adj[c][j] == cof[j][c] for j in range(n) for c in range(n))
            # adj(m) . m == det * I
            assert all(sum(adj[i][k] * m[k][j] for k in range(n)) == det * (i == j)
                       for i in range(n) for j in range(n))
        assert singular > 20 and swapped > 20  # both branches are exercised


def _det_by_expansion(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * _det_by_expansion(minor)
    return total
