import importlib
import itertools
import math
import pkgutil
import random

import pytest

import toricwedge
from toricwedge import wedgepuzzle
from toricwedge.exactmath import InvariantViolation
from toricwedge.planefan import (
    NoOppositeRay,
    PlaneFan,
    cp2_fan,
    enumerate_fans,
    hirzebruch_fan,
    is_equivalent,
    normalize_basis,
    opposite_position,
    validate,
)
from toricwedge.wedgepuzzle import (
    CharMatrix,
    Puzzle,
    WedgeSignature,
    assemble_matrix,
    build_complex,
    enumerate_puzzles,
    enumerate_puzzles_keyed,
    gj_vertices,
    matrix_from_dict,
    matrix_to_dict,
    puzzle_canonical_key,
    puzzle_to_dict,
    shift,
    signature,
    validate_puzzle,
)
from oracles import (
    AssignedPuzzle,
    NotWedged,
    check_nonsingular,
    fan_from_matrix,
    gj_cubes,
    is_edge,
    is_irreducible,
    is_realizable,
    matrix_from_fan,
    offset_candidates,
    ordered_enumerate_puzzles_keyed,
    permutation_canonical_key,
    project_to_vertex,
    projection,
    realizable_square,
    reference_edges_valid,
    reference_validate_puzzle,
)


def pentagon(d):
    return PlaneFan(((1, 0), (0, 1), (-1, 1), (-1, 0), (d, -1)))


def constant_puzzle(sig, fan):
    return Puzzle(sig, fan, tuple((0,) * (j - 1) for j in sig.J))


def single_wedge_puzzle(base, color, e):
    J = tuple(2 if i + 1 == color else 1 for i in range(base.m))
    return Puzzle(WedgeSignature(base.m, J), base,
                  tuple((e,) if i + 1 == color else () for i in range(base.m)))


# -- direct iterated wedging, the independent oracle for build_complex --------

def _deletion_facets(facets, v):
    cands = {frozenset(f) - {v} for f in facets}
    return {f for f in cands if not any(f < g for g in cands)}


def _wedge_at(facets, v, v_new):
    """Simplicial wedge at v, reusing v as one copy and v_new as the other."""
    out = set()
    for f in facets:
        if v in f:
            out.add(frozenset(f | {v_new}))
    for d in _deletion_facets(facets, v):
        out.add(frozenset(d | {v}))
        out.add(frozenset(d | {v_new}))
    return out


def iterated_wedge_facets(sig):
    m, J = sig.m, sig.J
    facets = {frozenset({(i, 1), (i % m + 1, 1)}) for i in range(1, m + 1)}
    for i in range(1, m + 1):
        for k in range(2, J[i - 1] + 1):
            facets = _wedge_at(facets, (i, 1), (i, k))
    return facets


class TestBuildComplex:
    def test_plain_square(self):
        cx = build_complex(signature(4, (1, 1, 1, 1)))
        expect = {
            frozenset({(1, 1), (2, 1)}),
            frozenset({(2, 1), (3, 1)}),
            frozenset({(3, 1), (4, 1)}),
            frozenset({(4, 1), (1, 1)}),
        }
        assert set(cx.facets) == expect

    def test_wedged_triangle_is_simplex_boundary(self):
        cx = build_complex(signature(3, (2, 1, 1)))
        verts = {(1, 1), (1, 2), (2, 1), (3, 1)}
        expect = {frozenset(c) for c in itertools.combinations(verts, 3)}
        assert set(cx.facets) == expect

    def test_wedged_square_facet(self):
        cx = build_complex(signature(4, (2, 1, 1, 1)))
        assert all(len(f) == 3 for f in cx.facets)
        assert frozenset({(1, 1), (1, 2), (2, 1)}) in cx.facets
        assert len(cx.facets) == 6

    def test_against_iterated_wedging(self):
        rng = random.Random(61)
        sigs = [signature(3, (2, 1, 1)), signature(4, (2, 1, 1, 1)),
                signature(4, (2, 2, 1, 1)), signature(5, (2, 1, 1, 1, 1)),
                signature(5, (3, 1, 1, 1, 1)), signature(6, (2, 2, 1, 1, 1, 1))]
        for _ in range(6):
            m = rng.randint(3, 6)
            J = [1] * m
            for _ in range(rng.randint(1, 8 - m)):
                J[rng.randrange(m)] += 1
            sigs.append(signature(m, tuple(J)))
        for sig in sigs:
            cx = build_complex(sig)
            assert set(cx.facets) == iterated_wedge_facets(sig)
            assert all(len(f) == sig.d - sig.m + 2 for f in cx.facets)


class TestShift:
    def test_zero_is_identity(self):
        assert shift(pentagon(2), 1, 0) == pentagon(2)
        assert shift(cp2_fan(), 1, 0) == cp2_fan()

    def test_pentagon_color1(self):
        for d in range(3):
            for e in (-2, -1, 1, 2):
                assert shift(pentagon(d), 1, e) == pentagon(d + e)

    def test_no_opposite(self):
        with pytest.raises(NoOppositeRay):
            shift(cp2_fan(), 1, 1)

    def test_result_valid(self):
        rng = random.Random(67)
        for _ in range(40):
            base = pentagon(rng.randint(0, 3))
            for color in (1, 4):
                e = rng.randint(-3, 3)
                out = shift(base, color, e)
                assert validate(out.rays) == out

    def test_invertible(self):
        for e in (-2, 1, 3):
            f = shift(pentagon(1), 1, e)
            assert shift(f, 1, -e) == pentagon(1)


class TestIsEdge:
    def test_pentagon_shift_detected(self):
        assert is_edge(pentagon(2), pentagon(3), 1) == 1
        assert is_edge(pentagon(3), pentagon(2), 1) == -1

    def test_equal_fans(self):
        assert is_edge(pentagon(2), pentagon(2), 1) == 0

    def test_different_m(self):
        assert is_edge(cp2_fan(), hirzebruch_fan(0), 1) is None

    def test_unrelated(self):
        assert is_edge(pentagon(2), pentagon(3), 2) is None

    def test_matches_shift(self):
        rng = random.Random(71)
        for _ in range(40):
            base = hirzebruch_fan(rng.randint(0, 3))
            color = 2
            e = rng.randint(-3, 3)
            out = shift(base, color, e)
            assert is_edge(base, out, color) == e


class TestAssemble:
    def test_trivial_signature_is_base_matrix(self):
        p = constant_puzzle(signature(5, (1,) * 5), pentagon(2))
        mat = assemble_matrix(p)
        assert mat.n == 2
        assert fan_from_matrix(mat) == pentagon(2)

    def test_pentagon_wedge_projections(self):
        p = single_wedge_puzzle(pentagon(2), 1, 1)
        mat = assemble_matrix(p)
        assert mat.n == 3 and len(mat.labels) == 6
        sig = p.sig
        assert check_nonsingular(mat, build_complex(sig))
        assert project_to_vertex(mat, (1, 1, 1, 1, 1)) == pentagon(2)
        assert project_to_vertex(mat, (2, 1, 1, 1, 1)) == pentagon(3)

    def test_cp2_trivial_wedge_is_cp3_matrix(self):
        p = single_wedge_puzzle(cp2_fan(), 1, 0)
        mat = assemble_matrix(p)
        sig = p.sig
        assert check_nonsingular(mat, build_complex(sig))


class TestProjection:
    def test_projection_at_second_copy_gives_base(self):
        mat = assemble_matrix(single_wedge_puzzle(pentagon(2), 1, 1))
        out = projection(mat, (1, 2))
        assert fan_from_matrix(out) == pentagon(2)

    def test_projection_at_first_copy_gives_shift(self):
        mat = assemble_matrix(single_wedge_puzzle(pentagon(2), 1, 1))
        out = projection(mat, (1, 1))
        assert fan_from_matrix(out) == pentagon(3)

    def test_not_wedged(self):
        mat = matrix_from_fan(pentagon(2))
        with pytest.raises(NotWedged):
            projection(mat, (1, 1))

    def test_round_trip_property(self):
        rng = random.Random(73)
        for _ in range(15):
            d = rng.randint(0, 2)
            e = rng.randint(-2, 2)
            color = rng.choice((1, 4))
            p = single_wedge_puzzle(pentagon(d), color, e)
            mat = assemble_matrix(p)
            for alpha in gj_vertices(p.sig):
                got = project_to_vertex(mat, alpha)
                want = p.assignment[alpha]
                assert normalize_basis(got) == normalize_basis(want)
                assert got == want


class TestCheckNonsingular:
    def test_cp2_over_triangle(self):
        assert check_nonsingular(matrix_from_fan(cp2_fan()),
                                 build_complex(signature(3, (1, 1, 1))))

    def test_singular_rejected(self):
        mat = CharMatrix(((1, 1), (2, 1), (3, 1)), ((1, 0, -1), (0, 1, -2)))
        assert not check_nonsingular(mat, build_complex(signature(3, (1, 1, 1))))

    def test_assembled_pentagon_wedge(self):
        mat = assemble_matrix(single_wedge_puzzle(pentagon(2), 1, 1))
        assert check_nonsingular(mat, build_complex(signature(5, (2, 1, 1, 1, 1))))


class TestSquares:
    def test_constant_square_realizable(self):
        f = pentagon(2)
        assert realizable_square((f, f, f, f), (1, 2), (0, 0))

    def test_pentagon_opposite_pair_square(self):
        f00 = pentagon(2)
        f10 = shift(f00, 1, 1)
        f01 = shift(f00, 4, 1)
        f11 = shift(f10, 4, 1)
        assert realizable_square((f00, f10, f01, f11), (1, 4), (1, 1))

    def test_commuting_opposite_shifts(self):
        f00 = pentagon(1)
        for e, f in [(1, 1), (2, -1), (-1, 2)]:
            a = shift(shift(f00, 1, e), 4, f)
            b = shift(shift(f00, 4, f), 1, e)
            assert a == b

    def test_one_trivial_direction(self):
        f00 = pentagon(2)
        f10 = shift(f00, 1, 2)
        assert realizable_square((f00, f10, f00, f10), (1, 3), (2, 0))

    def test_no_irreducible_nonopposite_square_exists(self):
        # colors whose rays are not opposite cannot both shift nontrivially:
        # the first shift destroys the second color's opposite pair
        fans = [hirzebruch_fan(0),
                PlaneFan(((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)))]
        attempts = 0
        for base in fans:
            m = base.m
            for i, t in itertools.combinations(range(1, m + 1), 2):
                from toricwedge.planefan import opposite_position
                oi = opposite_position(base, i - 1)
                ot = opposite_position(base, t - 1)
                if oi is None or ot is None or oi == t - 1:
                    continue
                for e in (1, 2, -1):
                    for f in (1, 2, -1):
                        attempts += 1
                        try:
                            f10 = shift(base, i, e)
                            f01 = shift(base, t, f)
                            f11 = shift(f10, t, f)
                        except NoOppositeRay:
                            continue
                        ok = True
                        try:
                            ok = realizable_square((base, f10, f01, f11), (i, t), (e, f))
                        except Exception:
                            ok = False
                        assert not ok
        assert attempts > 0


class TestPuzzles:
    def test_constant_puzzle_valid_reducible(self):
        sig = signature(5, (2, 2, 1, 1, 1))
        p = constant_puzzle(sig, pentagon(2))
        assert validate_puzzle(p) and is_realizable(p)
        assert not is_irreducible(p)

    def test_single_edge_irreducible(self):
        p = single_wedge_puzzle(pentagon(2), 1, 1)
        assert validate_puzzle(p) and is_realizable(p)
        assert is_irreducible(p)
        mat = assemble_matrix(p)
        assert check_nonsingular(mat, build_complex(p.sig))

    def test_two_nonopposite_colors_invalid(self):
        # the composite shift does not even exist, or the puzzle is invalid
        p = Puzzle(signature(4, (2, 2, 1, 1)), hirzebruch_fan(0), ((1,), (1,), (), ()))
        assert not validate_puzzle(p)

    def test_oracle_equivalence_nonsingular_iff_valid(self):
        rng = random.Random(79)
        checked = 0
        for sig in (signature(4, (2, 2, 1, 1)), signature(5, (2, 1, 1, 1, 1)),
                    signature(4, (3, 1, 1, 1)), signature(5, (2, 2, 1, 1, 1))):
            for base in (hirzebruch_fan(0), hirzebruch_fan(1), pentagon(1))[:2 + (sig.m == 5)]:
                if base.m != sig.m:
                    continue
                for _ in range(12):
                    offsets = tuple(tuple(rng.randint(-2, 2) for _ in range(j - 1))
                                    for j in sig.J)
                    p = Puzzle(sig, base, offsets)
                    try:
                        p.assignment
                    except NoOppositeRay:
                        assert not validate_puzzle(p)
                        continue
                    mat = assemble_matrix(p)
                    valid = validate_puzzle(p) and is_realizable(p)
                    assert valid == reference_validate_puzzle(p)
                    assert check_nonsingular(mat, build_complex(sig)) == valid
                    checked += 1
        assert checked > 20

    def test_realizability_checks_far_vertices(self):
        # an irreducible puzzle shifts colors 1 and 3 along one opposite ray
        # pair; the vertex (2,1,2,1,1) differs from the base in both colors,
        # so no row of the matrix comes from it
        sig = signature(5, (2, 1, 2, 1, 1))
        p = next(p for p in enumerate_puzzles(sig, 1, 1) if is_irreducible(p))
        far = (2, 1, 2, 1, 1)
        assert is_realizable(p)
        q = AssignedPuzzle(sig, {**p.assignment, far: p.base})
        assert q.assignment[far] != p.assignment[far]
        assert validate(q.assignment[far].rays) == q.assignment[far]
        assert assemble_matrix(q) == assemble_matrix(p)
        assert not is_realizable(q)

    def test_edge_valid_puzzles_meet_the_realizability_lemma(self):
        # every edge-valid puzzle drawn here moves at most two colors, two of
        # them opposite in the base: the precondition of the lemma in
        # assemble_matrix, which enumeration enforces; and the projection
        # round trip reproduces its fan at every vertex, as the lemma says
        rng = random.Random(1717)
        bases = {m: enumerate_fans(m, 2) + enumerate_fans(m, 3) for m in range(4, 8)}
        valid = two_moved = 0
        for _ in range(1500):
            m = rng.randint(4, 7)
            base = rng.choice(bases[m])
            wedged = set(rng.sample(range(m), rng.randint(1, 3)))
            pairs = [(i, opposite_position(base, i)) for i in range(m)
                     if opposite_position(base, i) is not None]
            if pairs and rng.random() < 0.5:
                wedged |= set(rng.choice(pairs))
            J = tuple(rng.randint(2, 3) if i in wedged else 1 for i in range(m))
            offsets = tuple(tuple(rng.randint(-3, 3) if rng.random() < 0.7 else 0
                                  for _ in range(j - 1)) for j in J)
            p = Puzzle(signature(m, J), base, offsets)
            if not validate_puzzle(p):
                continue
            moved = [i for i in range(m) if any(offsets[i])]
            assert len(moved) <= 2, p
            if len(moved) == 2:
                assert opposite_position(base, moved[0]) == moved[1], p
                two_moved += 1
            assert is_realizable(p), p
            valid += 1
        assert valid >= 400 and two_moved >= 100

    def test_enumeration_raises_where_the_lemma_does_not_apply(self, monkeypatch):
        # with the edge check switched off, the first candidate over F0, the
        # one base at depth 0, moves colors 1 and 2, which are not opposite:
        # enumeration raises instead of keeping or skipping it
        monkeypatch.setattr(wedgepuzzle, "validate_puzzle", lambda p: True)
        with pytest.raises(InvariantViolation,
                           match=r"base \(\(1, 0\), \(0, 1\), \(-1, 0\), \(0, -1\)\), "
                                 r"offsets \(\(-1,\), \(-1,\), \(\), \(\)\)"):
            enumerate_puzzles_keyed(signature(4, (2, 2, 1, 1)), 0, 1)


class TestEnumerate:
    def test_wedged_triangle_single_class(self):
        out = enumerate_puzzles(signature(3, (2, 1, 1)), 2, 2)
        assert len(out) == 1
        assert not is_irreducible(out[0])

    def test_plain_square_matches_fans(self):
        out = enumerate_puzzles(signature(4, (1, 1, 1, 1)), 2, 2)
        assert len(out) == 3
        for p, d in zip(out, (0, 1, 2)):
            assert any(is_equivalent(p.base, hirzebruch_fan(dd)) for dd in (0, 1, 2))

    def test_wedged_pentagon_irreducibles_use_opposite_pair(self):
        out = enumerate_puzzles(signature(5, (2, 1, 1, 1, 1)), 1, 1)
        assert out
        from toricwedge.planefan import opposite_position
        for p in out:
            if is_irreducible(p):
                base = p.base
                wedged = [i for i in range(1, 6) if p.sig.J[i - 1] >= 2]
                moved = [i for i in wedged
                         if base != p.assignment[
                             tuple(2 if x == i - 1 else 1 for x in range(5))]]
                assert moved
                for i in moved:
                    assert opposite_position(base, i - 1) is not None

    def test_every_output_valid(self):
        for sig in (signature(4, (2, 1, 1, 1)), signature(4, (2, 2, 1, 1))):
            for p in enumerate_puzzles(sig, 2, 2):
                assert validate_puzzle(p) and is_realizable(p)
                assert reference_validate_puzzle(p)
                mat = assemble_matrix(p)
                assert check_nonsingular(mat, build_complex(sig))

    def test_no_irreducible_cube(self):
        sig = signature(6, (2, 2, 2, 1, 1, 1))
        for p in enumerate_puzzles(sig, 1, 1):
            for colors, corners in gj_cubes(sig):
                edges_equal = 0
                for a, b in itertools.combinations(corners, 2):
                    if sum(x != y for x, y in zip(a, b)) == 1:
                        if p.assignment[a] == p.assignment[b]:
                            edges_equal += 1
                assert edges_equal >= 1

    def test_deterministic(self):
        a = enumerate_puzzles(signature(4, (2, 1, 1, 1)), 2, 1)
        b = enumerate_puzzles(signature(4, (2, 1, 1, 1)), 2, 1)
        assert [p.assignment for p in a] == [p.assignment for p in b]


# signatures with j_i = 3 and 4 and with two and three wedged colours, and
# those with two wedged colours, adjacent or opposite, whose squares the
# reference validity checks one by one
KEYED_SIGNATURES = [
    (3, (2, 2, 1)),
    (4, (2, 2, 2, 1)),
    (4, (3, 1, 2, 1)),
    (4, (3, 1, 3, 1)),
    (5, (2, 1, 2, 1, 1)),
    (5, (2, 2, 1, 1, 1)),
    (5, (3, 3, 1, 1, 1)),
    (5, (4, 1, 1, 1, 1)),
    (6, (2, 1, 1, 2, 1, 1)),
    (6, (2, 1, 2, 1, 2, 1)),
]


def relabel_puzzle(p, pos_map, reflect):
    """The same puzzle over the polygon relabeled by a dihedral map (new->old)."""
    m = p.sig.m
    sig = WedgeSignature(m, tuple(p.sig.J[o] for o in pos_map))
    assignment = {}
    for alpha in gj_vertices(sig):
        old = [0] * m
        for x, o in enumerate(pos_map):
            old[o] = alpha[x]
        rays = [p.assignment[tuple(old)].rays[o] for o in pos_map]
        if reflect:
            rays = [(y, x) for x, y in rays]
        assignment[alpha] = PlaneFan(tuple(rays))
    return AssignedPuzzle(sig, assignment)


def permute_copies(p, color, perm):
    """The same puzzle with copy k of `color` renamed perm[k - 1]."""
    return AssignedPuzzle(p.sig, {a[:color - 1] + (perm[a[color - 1] - 1],) + a[color:]: f
                                  for a, f in p.assignment.items()})


class TestCanonicalKey:
    @pytest.mark.parametrize("m,J", KEYED_SIGNATURES)
    def test_enumeration_matches_ordered_reference(self, m, J):
        sig = signature(m, J)
        got = enumerate_puzzles_keyed(sig, 2, 2)
        want = ordered_enumerate_puzzles_keyed(sig, 2, 2)
        assert [k for k, _ in got] == [k for k, _ in want]
        assert [puzzle_to_dict(p) for _, p in got] == [puzzle_to_dict(p) for _, p in want]

    def test_repeated_offsets(self):
        base = pentagon(2)
        for offsets in ((1, 1), (0, 0), (-1, 1), (1, -1, 1), (0, 2, 0), (2, 2, 2)):
            sig = signature(5, (len(offsets) + 1, 1, 1, 1, 1))
            p = Puzzle(sig, base, (offsets, (), (), (), ()))
            assert puzzle_canonical_key(p) == permutation_canonical_key(p)

    def test_permuted_and_relabeled_copies(self):
        from toricwedge.wedgepuzzle import _dihedral_maps
        rng = random.Random(7)
        for m, J in ((4, (3, 1, 2, 1)), (5, (1, 3, 1, 1, 3))):
            for key, p in rng.sample(enumerate_puzzles_keyed(signature(m, J), 2, 2), 6):
                for color in range(1, m + 1):
                    perm = list(range(1, J[color - 1] + 1))
                    rng.shuffle(perm)
                    p = permute_copies(p, color, perm)
                assert puzzle_canonical_key(p) == permutation_canonical_key(p) == key
                for pos_map, reflect in rng.sample(_dihedral_maps(m), 3):
                    q = relabel_puzzle(p, pos_map, reflect)
                    assert puzzle_canonical_key(q) == permutation_canonical_key(q) == key

    def test_random_puzzles_with_repeated_offsets(self):
        # two or more colors each repeat an offset, copy 1's offset 0
        # included, so their copies tie on the single-copy fan; the key takes
        # one order of each tied run, the reference every order
        rng = random.Random(11)
        tested = 0
        while tested < 80:
            m = rng.choice((4, 5, 6))
            base = rng.choice(enumerate_fans(m, 2))
            colors = [i for i in range(m) if opposite_position(base, i) is not None]
            if len(colors) < 2:
                continue
            offsets = [()] * m
            for i in rng.sample(colors, rng.randint(2, min(3, len(colors)))):
                e, f = rng.randint(-2, 2), rng.randint(-2, 2)
                offsets[i] = rng.choice(((0,), (e, e), (0, e), (e, f, e)))
            J = tuple(len(o) + 1 for o in offsets)
            if math.prod(map(math.factorial, J)) > 72:
                continue
            p = Puzzle(signature(m, J), base, tuple(offsets))
            try:
                p.assignment
            except NoOppositeRay:
                continue
            assert puzzle_canonical_key(p) == permutation_canonical_key(p)
            tested += 1


def assert_edge_checks_agree(signatures, base_depth, e_bound):
    """validate_puzzle, which shifts by the difference of two offsets, and
    is_edge, which solves for the shift between two fans, agree on every
    candidate of the enumeration loop, kept or not."""
    candidates = rejected = 0
    for m, J in signatures:
        sig = signature(m, J)
        for base, offsets, assignment in offset_candidates(
                sig, base_depth, e_bound, itertools.combinations_with_replacement):
            got = validate_puzzle(Puzzle(sig, base, offsets))
            want = assignment is not None and reference_edges_valid(AssignedPuzzle(sig, assignment))
            assert got == want, (sig, base, offsets)
            candidates += 1
            rejected += not got
    assert 0 < rejected < candidates


class TestEdgeCheck:
    def test_offset_edge_check_matches_is_edge(self):
        assert_edge_checks_agree(KEYED_SIGNATURES, 2, 2)

    @pytest.mark.slow
    def test_offset_edge_check_matches_is_edge_wide(self):
        assert_edge_checks_agree(KEYED_SIGNATURES, 3, 3)
        assert_edge_checks_agree([(4, (2, 2, 2, 2)), (5, (2, 1, 2, 1, 1)), (5, (2, 2, 1, 1, 1)),
                                  (4, (3, 1, 3, 1))], 3, 5)


class TestJson:
    def test_matrix_round_trip(self):
        mat = assemble_matrix(single_wedge_puzzle(pentagon(2), 1, 1))
        again = matrix_from_dict(matrix_to_dict(mat))
        assert again == mat

    def test_puzzle_dict_carries_offsets(self):
        p = Puzzle(signature(5, (3, 1, 1, 2, 1)), pentagon(2), ((-1, 2), (), (), (1,), ()))
        assert puzzle_to_dict(p) == {
            "m": 5, "J": [3, 1, 1, 2, 1], "base": {"rays": [list(v) for v in pentagon(2).rays]},
            "edges": [{"color": 1, "from": [1] * 5, "to": [2, 1, 1, 1, 1], "e": -1},
                      {"color": 1, "from": [1] * 5, "to": [3, 1, 1, 1, 1], "e": 2},
                      {"color": 4, "from": [1] * 5, "to": [1, 1, 1, 2, 1], "e": 1}]}
        # the offsets are what is_edge solves from the fans they produce
        assert AssignedPuzzle(p.sig, p.assignment).offsets == p.offsets


def test_every_cache_is_bounded():
    """Every lru_cache in the toricwedge modules, the wall graphs of the
    facet tables among them, has a finite maxsize."""
    sizes = {}
    for info in pkgutil.iter_modules(toricwedge.__path__):
        if info.name == "__main__":
            continue
        mod = importlib.import_module(f"toricwedge.{info.name}")
        for obj in vars(mod).values():
            for fn in [obj, *vars(obj).values()] if isinstance(obj, type) else [obj]:
                if callable(getattr(fn, "cache_parameters", None)) and \
                        getattr(fn, "__module__", "").startswith("toricwedge"):
                    sizes[f"{fn.__module__}.{fn.__qualname__}"] = \
                        fn.cache_parameters()["maxsize"]
    assert "toricwedge.wedgepuzzle._wall_graph" in sizes
    assert "toricwedge.planefan.canonical_form" in sizes
    assert all(type(size) is int and size > 0 for size in sizes.values()), sizes
