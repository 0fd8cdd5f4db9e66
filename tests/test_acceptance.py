"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (run with -s to see
them on a green run).  Shared corpora are built once per session: the plane
fan corpus (criteria 2, 3, 9) and the full wedge-classification sweep over
m in {4,5,6}, sum(J) <= m+3, base depth 3, shift bound 3 (criteria 4-7).
Three more slow tests compare the sweep's classes with the enumeration that
checked every square of every candidate, its Shephard verdicts with one
solve of the whole coface system, and its facet tables and Gale coface
functionals with one determinant per facet and one adjugate per coface;
the last two read one pass over the sweep that shares each class's
diagram and certificate between the two references.

Certification verdicts are computed once per equivalence class across
signatures (classes over relabeled signatures share canonical keys); a
seeded sample of reused classes is re-certified directly to confirm the
verdicts transfer exactly.
"""

import random
import time
from fractions import Fraction as Q

import pytest

from toricwedge.planefan import (
    PlaneFan,
    blow_down_positions,
    blow_up,
    cp2_fan,
    enumerate_fans,
    hirzebruch_fan,
    normalize_basis,
    opposite_position,
    reduce_to_base,
    rotation_numbers,
)
from toricwedge.shephard import (
    ShephardDiagram,
    coface_indices,
    is_strongly_polytopal,
    prepare,
    s_sigma,
    shephard_diagram,
    support_function_polytopal,
)
from toricwedge.wedgepuzzle import (
    WedgeSignature,
    assemble_matrix,
    build_complex,
    enumerate_puzzles_keyed,
    facet_table,
    gj_vertices,
    puzzle_to_dict,
    signature,
)
from oracles import (
    QMatrix,
    RationalSystem,
    check_facet_table_against_reference,
    check_nonsingular,
    check_shephard_against_reference,
    fourier_motzkin_feasible,
    fractions_of,
    gj_cubes,
    gj_squares,
    is_zero,
    matmul,
    multiset_enumerate_puzzles_keyed,
    project_to_vertex,
    rank,
    reference_positive_relation,
    relint_intersection,
    solve_rational,
    verify_result,
)
from paper_lemmas import h_value, point_in_relint, radon_data, verify_wedge_shephard


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def pentagon(d):
    return PlaneFan(((1, 0), (0, 1), (-1, 1), (-1, 0), (d, -1)))


def pentagon_facets():
    return [frozenset({i, i % 5 + 1}) for i in range(1, 6)]


def paper_diagram(d):
    labels = (1, 2, 3, 4, 5)
    pts = {1: (1, -d), 2: (-2, 2), 3: (2, 0), 4: (0, 0), 5: (0, 1)}
    weights = {1: 2, 2: 1, 3: 1, 4: 2 * d + 1, 5: 2}
    gens = {i + 1: pentagon(d).rays[i] for i in range(5)}
    return ShephardDiagram(labels, pts, weights, gens, 2)


def sweep_signatures():
    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    out = []
    for m in (4, 5, 6):
        for tot in range(m, m + 4):
            out.extend(signature(m, J) for J in compositions(tot, m))
    return out


@pytest.fixture(scope="session")
def plane_corpus():
    t0 = time.perf_counter()
    fans = {m: enumerate_fans(m, 5) for m in (5, 6, 7, 8)}
    return fans, time.perf_counter() - t0


@pytest.fixture(scope="session")
def sweep():
    t0 = time.perf_counter()
    verdicts = {}  # canonical key -> (nonsingular, shephard_ok, support_ok)
    per_sig = {}
    enumeration = 0.0
    for sig in sweep_signatures():
        cx = build_complex(sig)
        records = []
        t_enum = time.perf_counter()
        classes = enumerate_puzzles_keyed(sig, 3, 3)
        enumeration += time.perf_counter() - t_enum
        for key, puzzle in classes:
            mat = assemble_matrix(puzzle)
            if key in verdicts:
                nonsingular = check_nonsingular(mat, cx)
                _, ok1, ok2 = verdicts[key]
                reused = True
            else:
                # prepare raises SingularInput unless every facet minor is +-1
                prep = prepare(mat)
                nonsingular = prep.table.unimodular
                ok1, _ = is_strongly_polytopal(prep)
                ok2, _ = support_function_polytopal(prep)
                verdicts[key] = (nonsingular, ok1, ok2)
                reused = False
            records.append({
                "key": key, "puzzle": puzzle, "nonsingular": nonsingular,
                "shephard": ok1, "support": ok2, "reused": reused,
            })
        per_sig[sig] = records
    timing = {"enumeration": enumeration,
              "certification": time.perf_counter() - t0 - enumeration}

    # confirm verdict transfer on a seeded sample of reused classes
    rng = random.Random(2024)
    reused_recs = [(sig, r) for sig, recs in per_sig.items()
                   for r in recs if r["reused"]]
    for sig, rec in rng.sample(reused_recs, min(30, len(reused_recs))):
        prep = prepare(assemble_matrix(rec["puzzle"]))
        ok1, _ = is_strongly_polytopal(prep)
        ok2, _ = support_function_polytopal(prep)
        assert (ok1, ok2) == (rec["shephard"], rec["support"]), \
            "oracle verdict did not transfer across signature relabeling"
    timing["total"] = time.perf_counter() - t0
    return per_sig, timing


def test_criterion_1_worked_example_replay():
    t0 = time.perf_counter()
    for d in range(11):
        a = QMatrix.from_rows([[2, 0, -1, -2 * d - 1, 2 * d], [0, 1, 1, 0, -2]])
        b = QMatrix.from_rows(
            [[1, -d, 1], [-2, 2, 1], [2, 0, 1], [0, 0, 1], [0, 1, 1]])
        assert is_zero(matmul(a, b)), f"A.B != 0 for d={d}"
        diag = paper_diagram(d)
        cert = s_sigma(diag, facet_table(diag.generators, pentagon_facets()))
        assert cert.kind == "interior-point", f"S empty for d={d}"
        for facet in pentagon_facets():
            fam = [diag.points[lab] for lab in sorted(coface_indices(diag, facet))]
            assert point_in_relint(fractions_of(cert.point), fam), \
                f"witness fails coface {facet}"
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 1.0,
           f"A.B = O and S nonempty with re-verified witness for d=0..10 "
           f"({elapsed:.2f}s < 1s)")


def test_criterion_2_every_large_fan_blows_down(plane_corpus):
    fans, build_time = plane_corpus
    t0 = time.perf_counter()
    n = 0
    for m in (5, 6, 7, 8):
        for fan in fans[m]:
            assert blow_down_positions(fan), f"no blow-down on {fan.rays}"
            base, trace = reduce_to_base(fan)
            assert base.m <= 4
            assert len(trace) == m - base.m
            n += 1
    elapsed = build_time + (time.perf_counter() - t0)
    report(2, elapsed < 30.0,
           f"{n} fans with 5<=m<=8 all blow down and reduce to m<=4 "
           f"({elapsed:.1f}s < 30s)")


def test_criterion_3_rotation_number_conservation(plane_corpus):
    fans, _ = plane_corpus
    n = 0
    for m, fs in fans.items():
        for fan in fs:
            assert sum(rotation_numbers(fan)) == 3 * fan.m - 12
            n += 1
    rng = random.Random(31415)
    for _ in range(1000):
        base = cp2_fan() if rng.random() < 0.25 else hirzebruch_fan(rng.randint(0, 4))
        fan = base
        for _ in range(rng.randint(1, 7)):
            fan = blow_up(fan, rng.randrange(fan.m))
        assert sum(rotation_numbers(fan)) == 3 * fan.m - 12
        n += 1
    report(3, True, f"sum(a_i) = 3m - 12 on all {n} fans (exact)")


@pytest.mark.slow
def test_criterion_4_desk_scale_projectivity_sweep(sweep):
    per_sig, timing = sweep
    elapsed = timing["total"]
    total = 0
    projective = 0
    disagreements = 0
    singular = 0
    for sig, records in per_sig.items():
        assert records, f"no puzzles enumerated for {sig}"
        for rec in records:
            total += 1
            if not rec["nonsingular"]:
                singular += 1
            if rec["shephard"] != rec["support"]:
                disagreements += 1
            if rec["shephard"] and rec["support"]:
                projective += 1
    assert singular == 0, f"{singular} assembled matrices failed the minor check"
    assert disagreements == 0, f"{disagreements} oracle disagreements"
    fraction = Q(projective, total)
    assert fraction == 1
    report(4, elapsed < 600.0,
           f"{total} puzzle classes over {len(per_sig)} signatures: "
           f"all non-singular, fraction projective = {fraction} = 1.0, "
           f"0 disagreements ({elapsed:.0f}s < 600s: enumeration "
           f"{timing['enumeration']:.0f}s, certification {timing['certification']:.0f}s)")


@pytest.mark.slow
def test_criterion_5_wedge_shephard_proposition(sweep):
    per_sig, _ = sweep
    checked = 0
    reverified = 0
    rng = random.Random(99)
    for sig, records in per_sig.items():
        if sig.J[0] != 2:
            continue
        for rec in records:
            mat = assemble_matrix(rec["puzzle"])
            assert verify_wedge_shephard(mat, 1), \
                f"wedge Shephard decomposition failed for {sig}"
            checked += 1
            if rng.random() < 0.05:
                # independent replay of the witness re-verification
                prep = prepare(mat)
                diag = shephard_diagram(prep)
                cert = s_sigma(diag, prep.table)
                assert cert.kind == "interior-point"
                small_j = tuple(1 if i == 0 else sig.J[i] for i in range(sig.m))
                small_cx = build_complex(WedgeSignature(sig.m, small_j))
                for copy in (1, 2):
                    for facet in small_cx.facets:
                        fam = []
                        for lab in sorted(set(small_cx.labels) - set(facet)):
                            big = (1, 3 - copy) if lab == (1, 1) else lab
                            fam.append(diag.points[big])
                        assert point_in_relint(fractions_of(cert.point), fam)
                reverified += 1
    report(5, checked > 0,
           f"verify_wedge_shephard true on all {checked} instances with "
           f"j_1 = 2; witness re-verified explicitly on {reverified} samples")


@pytest.mark.slow
def test_criterion_6_square_and_cube_structure(sweep):
    per_sig, _ = sweep
    irreducible_squares = 0
    cubes = 0
    for sig, records in per_sig.items():
        wedged = sum(1 for j in sig.J if j >= 2)
        if wedged < 2:
            continue
        for rec in records:
            p = rec["puzzle"]
            for (ci, ct), (c00, c10, c01, c11) in gj_squares(sig):
                f00 = p.assignment[c00]
                if p.assignment[c10] == f00 or p.assignment[c01] == f00:
                    continue  # reducible in one direction
                irreducible_squares += 1
                vi = f00.rays[ci - 1]
                vt = f00.rays[ct - 1]
                assert vt == (-vi[0], -vi[1]), \
                    f"irreducible square on non-opposite colors {ci},{ct}"
            if wedged >= 3:
                for colors, corners in gj_cubes(sig):
                    cubes += 1
                    has_trivial = False
                    for a in corners:
                        for b in corners:
                            if sum(x != y for x, y in zip(a, b)) == 1 \
                                    and p.assignment[a] == p.assignment[b]:
                                has_trivial = True
                                break
                        if has_trivial:
                            break
                    assert has_trivial, f"irreducible 3-cube in {sig}"
    report(6, irreducible_squares > 0 and cubes > 0,
           f"{irreducible_squares} irreducible squares all sit on opposite "
           f"ray pairs; {cubes} cubes all reducible")


@pytest.mark.slow
def test_criterion_7_projection_round_trip(sweep):
    per_sig, _ = sweep
    n = 0
    for sig, records in per_sig.items():
        for rec in records:
            mat = assemble_matrix(rec["puzzle"])
            for alpha in gj_vertices(sig):
                got = project_to_vertex(mat, alpha)
                want = rec["puzzle"].assignment[alpha]
                assert normalize_basis(got) == normalize_basis(want), \
                    f"projection mismatch at {alpha} over {sig}"
                n += 1
    report(7, n > 0, f"{n} projections reproduce the assigned fans exactly")


@pytest.fixture(scope="module")
def sweep_references(sweep):
    """One pass over the sweep through the two references that replay its
    Shephard certification, sharing each class's diagram and certificate
    (oracles.library_shephard caches the last object): the one-shot solve
    of the whole coface system on every class the sweep certified, and the
    facet table with its Gale coface functionals on those classes and on
    the first class of every signature.  Returns, per reference, the number
    of classes compared, the signatures covered and the assertion failures
    met, so that each test below fails on its own reference only."""
    per_sig, _ = sweep
    runs = {"shephard": [0, set(), []], "facet": [0, set(), []]}

    def run(name, sig, check):
        counts = runs[name]
        counts[0] += 1
        counts[1].add(sig)
        try:
            check()
        except AssertionError as e:
            counts[2].append(f"{sig}: {e}")

    def same_verdict(mat, want):
        assert check_shephard_against_reference(mat) == want, \
            "Shephard verdict differs from the reference"

    for sig, records in per_sig.items():
        for idx, rec in enumerate(records):
            mat = rec["puzzle"].matrix
            if not rec["reused"]:
                run("shephard", sig, lambda: same_verdict(mat, rec["shephard"]))
            if not rec["reused"] or idx == 0:
                run("facet", sig, lambda: check_facet_table_against_reference(mat))
    return runs


@pytest.mark.slow
def test_sweep_shephard_verdicts_match_reference(sweep_references):
    """Row generation gives the verdict of one solve of the whole coface
    system on every class the sweep certified, and its certificate passes
    substitution into every row."""
    n, _, failures = sweep_references["shephard"]
    assert not failures, failures[:5]
    assert n > 0


@pytest.mark.slow
def test_sweep_facet_tables_match_reference(sweep_references):
    """On every class the sweep certified and the first class of each of
    the 175 signatures, each facet tableau reached by wall pivots is the
    one integer_inverse and one integer_det of its facet give, each Gale
    coface functional equals the one
    adjugate of its coface gives, exactly, and the Shephard certificate is
    the one the per-coface route gives."""
    n, covered, failures = sweep_references["facet"]
    assert not failures, failures[:5]
    assert n > 0 and len(covered) == 175


@pytest.mark.slow
def test_sweep_weights_match_reference(sweep):
    """On every sweep class, the positive relation that prepare reads off
    the facet table is the one the LP over all m weights gives."""
    per_sig, _ = sweep
    n = 0
    for sig, records in per_sig.items():
        for rec in records:
            prep = prepare(rec["puzzle"].matrix)
            gens = [prep.generators[lab] for lab in prep.labels]
            assert prep.weights == reference_positive_relation(gens), \
                f"weights differ from the reference over {sig}"
            n += 1
    assert n == 22444


# signatures with two or more wedged colours, compared at shift bound 5 too
WIDE_BOUND_SIGNATURES = [(4, (2, 2, 2, 2)), (5, (2, 1, 2, 1, 1)), (5, (2, 2, 1, 1, 1)),
                         (6, (2, 1, 1, 2, 1, 1)), (4, (3, 1, 3, 1))]


@pytest.mark.slow
def test_sweep_classes_match_square_reference(sweep):
    """Checking only edges keeps every class, representative and order that
    checking every square of every candidate gave."""
    per_sig, _ = sweep
    cases = [(sig, 3, [(r["key"], r["puzzle"]) for r in records])
             for sig, records in per_sig.items()]
    cases += [(signature(m, J), 5, enumerate_puzzles_keyed(signature(m, J), 3, 5))
              for m, J in WIDE_BOUND_SIGNATURES]
    for sig, e_bound, got in cases:
        want = multiset_enumerate_puzzles_keyed(sig, 3, e_bound)
        assert [k for k, _ in got] == [k for k, _ in want], f"keys differ for {sig}"
        assert [puzzle_to_dict(p) for _, p in got] == \
            [puzzle_to_dict(p) for _, p in want], f"representatives differ for {sig}"


def test_criterion_8_lp_fourier_motzkin_agreement():
    t0 = time.perf_counter()
    rng = random.Random(271828)
    feasible_count = 0
    for trial in range(500):
        dim = rng.randint(1, 5)
        n_total = rng.randint(1, 10)
        n_eq = rng.randint(0, min(2, n_total - 1)) if n_total > 1 else 0
        n_strict = rng.randint(1, n_total - n_eq)
        n_weak = n_total - n_eq - n_strict

        def row():
            return ([rng.randint(-3, 3) for _ in range(dim)], rng.randint(-5, 5))

        sys_ = RationalSystem.build(
            dim,
            equalities=[row() for _ in range(n_eq)],
            weak=[row() for _ in range(n_weak)],
            strict=[row() for _ in range(n_strict)],
        )
        res = solve_rational(sys_)
        assert res.feasible == fourier_motzkin_feasible(sys_), \
            f"oracle disagreement on trial {trial}"
        if res.feasible:
            assert verify_result(sys_, res), f"witness fails re-substitution, trial {trial}"
            feasible_count += 1
    elapsed = time.perf_counter() - t0
    report(8, elapsed < 60.0,
           f"500 random systems agree with Fourier-Motzkin "
           f"({feasible_count} feasible, witnesses exact, {elapsed:.1f}s < 60s)")


def test_criterion_9_radon_lemma_suite(plane_corpus):
    fans, _ = plane_corpus
    pairs = 0
    for m in (5, 6, 7, 8):
        for fan in fans[m]:
            for i in range(fan.m):
                ell = opposite_position(fan, i)
                if ell is None:
                    continue
                rot = normalize_basis(PlaneFan(fan.rays[i:] + fan.rays[:i]))
                diag = shephard_diagram(prepare(rot))
                rd = radon_data(diag)
                upper = [diag.points[a] for a in rd.upper]
                lower = [diag.points[b] for b in rd.lower]
                res = relint_intersection([upper, lower])
                assert res.feasible and res.witness == rd.point, \
                    f"Radon intersection is not exactly R for {rot.rays}"
                hom = QMatrix.from_rows([[*p, Q(1)] for p in upper + lower])
                assert rank(hom) - 1 == m - 4, f"H has wrong dimension for {rot.rays}"
                v1 = h_value(rd, diag.points[1])
                vl = h_value(rd, diag.points[rd.ell])
                assert v1 > 0 and vl > 0, f"1 and ell not strictly on one side"
                pairs += 1
    report(9, pairs > 0,
           f"{pairs} opposite-pair configurations: Radon point exact, "
           f"dim H = m-4, same-side strict")
