import ast
import copy
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import toricwedge
from toricwedge import shephard, wedgepuzzle
from toricwedge.cli import main
from toricwedge.exactmath import InvariantViolation
from toricwedge.planefan import enumerate_fans
from toricwedge.wedgepuzzle import assemble_matrix, enumerate_puzzles, matrix_to_dict, signature

SRC = str(Path(toricwedge.__file__).resolve().parents[1])


def run_cli(args):
    return main(args)


def run_python(*args):
    """Run the interpreter on args with this tree's package importable."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def write_fan(tmp_path, name, rays):
    path = tmp_path / name
    path.write_text(json.dumps({"rays": rays}))
    return str(path)


PENTAGON = [[1, 0], [0, 1], [-1, 1], [-1, 0], [2, -1]]
# every facet minor is +-1 except det(v_4, v_1) = 2
SINGULAR_MATRIX = {"n": 2, "cols": [{"label": "1_1", "v": [1, 0]}, {"label": "2_1", "v": [0, 1]},
                                    {"label": "3_1", "v": [-1, 1]}, {"label": "4_1", "v": [1, -2]}]}


class TestCheck:
    def test_pentagon_projective(self, tmp_path, capsys):
        path = write_fan(tmp_path, "pent.json", PENTAGON)
        out = tmp_path / "cert.json"
        assert run_cli(["check", "--in", path, "--out", str(out)]) == 0
        cert = json.loads(out.read_text())
        assert cert["verdict"] == "projective"
        assert "witness" in cert and "heights" in cert and "barycentric" in cert
        for v in cert["witness"]:
            assert isinstance(v, str)  # exact p/q strings, never floats

    def test_singular_input_exit_2(self, tmp_path):
        path = write_fan(tmp_path, "bad.json", [[1, 0], [0, 1], [-1, -2]])
        assert run_cli(["check", "--in", path]) == 2

    def test_cp1_cp1(self, tmp_path, capsys):
        path = write_fan(tmp_path, "p1p1.json", [[1, 0], [0, 1], [-1, 0], [0, -1]])
        assert run_cli(["check", "--in", path]) == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["verdict"] == "projective"

    def test_matrix_input(self, tmp_path):
        from toricwedge.planefan import PlaneFan
        from toricwedge.wedgepuzzle import Puzzle, WedgeSignature
        base = PlaneFan(tuple(map(tuple, PENTAGON)))
        p = Puzzle(WedgeSignature(5, (2, 1, 1, 1, 1)), base, ((1,), (), (), (), ()))
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(matrix_to_dict(assemble_matrix(p))))
        assert run_cli(["check", "--in", str(path)]) == 0

    def test_missing_file_exit_2(self, tmp_path):
        assert run_cli(["check", "--in", str(tmp_path / "nope.json")]) == 2


class TestClassify:
    def test_wedged_triangle(self, tmp_path):
        out = tmp_path / "res.json"
        code = run_cli(["classify", "--m", "3", "--j", "2,1,1", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        assert res["classes"] == 1
        assert res["fraction_projective"] == "1"
        assert res["records"][0]["verdict"] == "projective"

    def test_plain_square_depth2(self, tmp_path):
        out = tmp_path / "res.json"
        code = run_cli(["classify", "--m", "4", "--j", "1,1,1,1",
                        "--base-depth", "2", "--e-bound", "2", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        assert res["classes"] == 3
        assert res["projective"] == 3
        assert res["oracle_disagreements"] == 0

    def test_wedged_pentagon(self, tmp_path):
        out = tmp_path / "res.json"
        code = run_cli(["classify", "--m", "5", "--j", "2,1,1,1,1",
                        "--base-depth", "1", "--e-bound", "2", "--out", str(out)])
        assert code == 0
        res = json.loads(out.read_text())
        assert res["classes"] > 1
        assert res["fraction_projective"] == "1"

    def test_bad_config(self, tmp_path):
        assert run_cli(["classify", "--m", "4", "--j", "1,1,1"]) == 2

    @pytest.mark.parametrize("flag", ["--e-bound", "--base-depth"])
    def test_negative_bound_exit_2(self, flag, capsys):
        argv = ["classify", "--m", "5", "--j", "2,1,1,1,1", "--base-depth", "2",
                "--e-bound", "2"]
        argv[argv.index(flag) + 1] = "-1"
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid config: {flag} must be non-negative, got -1\n"

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_workers_variable(self, value, tmp_path, capsys, monkeypatch):
        # only classify reads TORICWEDGE_WORKERS, and only without --workers:
        # a bad value exits 2 there and is ignored everywhere else
        monkeypatch.setenv("TORICWEDGE_WORKERS", value)
        classify = ["classify", "--m", "3", "--j", "2,1,1", "--base-depth", "1",
                    "--e-bound", "1"]
        assert run_cli(classify) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid config: TORICWEDGE_WORKERS must be a positive "
                                f"integer, got {value!r}\n")
        assert run_cli(classify + ["--workers", "1"]) == 0
        assert run_cli(["check", "--in", write_fan(tmp_path, "pent.json", PENTAGON)]) == 0

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_workers_flag(self, value, capsys, monkeypatch):
        # the flag takes the variable's check, and a good variable does not
        # excuse a bad flag
        monkeypatch.setenv("TORICWEDGE_WORKERS", "1")
        assert run_cli(["classify", "--m", "3", "--j", "2,1,1", "--base-depth", "1",
                        "--e-bound", "1", "--workers", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("invalid config: --workers must be a positive integer, "
                                f"got {value}\n")

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["classify", "--m", "4", "--j", "2,1,1,1", "--base-depth", "2",
                "--e-bound", "2"]
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_classes_prints_the_whole_document(self, capsys):
        # the records are written piece by piece after the header, and an
        # empty list must still read as json.dumps gives it
        assert run_cli(["classify", "--m", "6", "--j", "1,1,1,1,1,1",
                        "--base-depth", "0"]) == 0
        expected = {"m": 6, "J": [1, 1, 1, 1, 1, 1], "classes": 0, "projective": 0,
                    "oracle_disagreements": 0, "fraction_projective": "0", "records": []}
        assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_memory_follows_output_bytes(self, tmp_path):
        # each record is held as its final text, never as dicts or as one
        # document string: the traced peak stays within a few times the file
        run_cli(["classify", "--m", "3", "--j", "2,1,1", "--out", str(tmp_path / "warm.json")])
        out = tmp_path / "res.json"
        tracemalloc.start()
        try:
            code = run_cli(["classify", "--m", "5", "--j", "2,1,2,1,1", "--base-depth", "2",
                            "--e-bound", "2", "--out", str(out)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 5 * out.stat().st_size

    def test_parser_reused_across_calls(self, tmp_path, capsys):
        # main builds its parser once per process: a run of check, classify,
        # a bad flag and check again gives what each call gives alone
        fan = write_fan(tmp_path, "pent.json", PENTAGON)
        calls = [["check", "--in", fan],
                 ["classify", "--m", "4", "--j", "2,1,1,1", "--base-depth", "2",
                  "--e-bound", "2"],
                 ["check", "--no-such-flag", "--in", fan],
                 ["check", "--in", fan]]

        def in_process(argv):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        together = [in_process(argv) for argv in calls]
        alone = [run_python("-m", "toricwedge", *argv) for argv in calls]
        assert [code for code, _, _ in together] == [0, 0, 2, 0]
        assert together == [(p.returncode, p.stdout, p.stderr) for p in alone]


class TestInternalError:
    """A fault of the program exits 4 with one stderr line, and never with
    the code of a verdict."""

    @pytest.mark.parametrize("error", [InvariantViolation("broken coface functional"),
                                       ArithmeticError("unbounded objective in simplex phase")])
    @pytest.mark.parametrize("command", ["check", "shephard", "classify"])
    def test_oracle_failure_exits_4(self, command, error, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise error

        # the Shephard oracle of every subcommand reaches this function;
        # classify runs it in two worker processes, which inherit the patch
        monkeypatch.setattr(shephard, "_coface_functionals", broken)
        if command == "classify":
            argv = ["classify", "--m", "4", "--j", "2,1,1,1", "--base-depth", "2",
                    "--e-bound", "2", "--workers", "2"]
        else:
            argv = [command, "--in", write_fan(tmp_path, "pent.json", PENTAGON)]
        assert run_cli(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {error}\n"

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_oracle_failure_leaves_out_empty(self, workers, tmp_path, capsys, monkeypatch):
        # classify writes nothing until every class is certified
        def broken(*args):
            raise InvariantViolation("broken coface functional")

        monkeypatch.setattr(shephard, "_coface_functionals", broken)
        out = tmp_path / "res.json"
        out.write_text("stale\n")
        assert run_cli(["classify", "--m", "4", "--j", "2,1,1,1", "--base-depth", "2",
                        "--e-bound", "2", "--workers", workers, "--out", str(out)]) == 4
        assert out.read_text() == ""
        assert capsys.readouterr().err == "internal error: broken coface functional\n"

    def test_enumeration_invariant_exits_4(self, capsys, monkeypatch):
        # with the edge check switched off, enumeration meets a puzzle that
        # moves two colors which are not opposite
        monkeypatch.setattr(wedgepuzzle, "validate_puzzle", lambda p: True)
        assert run_cli(["classify", "--m", "4", "--j", "2,2,1,1", "--base-depth", "0",
                        "--e-bound", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: edge-valid puzzle over ")
        assert captured.err.count("\n") == 1


class TestReduce:
    def test_cp2(self, tmp_path, capsys):
        path = write_fan(tmp_path, "cp2.json", [[1, 0], [0, 1], [-1, -1]])
        assert run_cli(["reduce", "--in", path]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["trace"] == []
        assert res["base_id"] == {"type": "CP2"}

    def test_pentagon_one_step(self, tmp_path, capsys):
        path = write_fan(tmp_path, "pent.json", PENTAGON)
        assert run_cli(["reduce", "--in", path]) == 0
        res = json.loads(capsys.readouterr().out)
        assert len(res["trace"]) == 1
        assert res["base_id"]["type"] == "hirzebruch"

    def test_deep_blowup_round_trip(self, tmp_path, capsys):
        import random
        from toricwedge.planefan import blow_up, hirzebruch_fan
        rng = random.Random(5)
        fan = hirzebruch_fan(2)
        for _ in range(6):
            fan = blow_up(fan, rng.randrange(fan.m))
        path = write_fan(tmp_path, "deep.json", [list(v) for v in fan.rays])
        assert run_cli(["reduce", "--in", path]) == 0
        res = json.loads(capsys.readouterr().out)
        assert len(res["trace"]) == 6
        assert len(res["base"]["rays"]) == 4

    def test_invalid_exit_2(self, tmp_path):
        path = write_fan(tmp_path, "bad.json", [[1, 0], [2, 2], [-1, 0], [0, -1]])
        assert run_cli(["reduce", "--in", path]) == 2


class TestShephard:
    def test_pentagon_diagram(self, tmp_path, capsys):
        path = write_fan(tmp_path, "pent.json", PENTAGON)
        assert run_cli(["shephard", "--in", path]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["ambient_dim"] == 2
        assert res["witness"] is not None
        assert res["cofaces"]["1,2"] == ["3", "4", "5"]
        assert set(res["weights"]) == {"1", "2", "3", "4", "5"}

    def test_cp2_zero_dim(self, tmp_path, capsys):
        path = write_fan(tmp_path, "cp2.json", [[1, 0], [0, 1], [-1, -1]])
        assert run_cli(["shephard", "--in", path]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["ambient_dim"] == 0
        assert res["witness"] == []

    def test_wedge_matrix_dimension(self, tmp_path, capsys):
        from toricwedge.planefan import PlaneFan
        from toricwedge.wedgepuzzle import Puzzle, WedgeSignature
        base = PlaneFan(tuple(map(tuple, PENTAGON)))
        p = Puzzle(WedgeSignature(5, (2, 1, 1, 1, 1)), base, ((1,), (), (), (), ()))
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(matrix_to_dict(assemble_matrix(p))))
        assert run_cli(["shephard", "--in", str(path)]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["ambient_dim"] == 2  # m - 3

    def test_singular_matrix_exit_2(self, tmp_path, capsys):
        path = tmp_path / "singular.json"
        path.write_text(json.dumps(SINGULAR_MATRIX))
        for command in ("check", "shephard"):
            assert run_cli([command, "--in", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "invalid input: some facet minor is not +-1\n"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = write_fan(tmp_path, "cp2.json", [[1, 0], [0, 1], [-1, -1]])
        proc = run_python("-m", "toricwedge", "check", "--in", path)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "projective"

    def test_no_floats_anywhere(self, tmp_path):
        path = write_fan(tmp_path, "pent.json", PENTAGON)
        proc = run_python("-m", "toricwedge", "shephard", "--in", path)
        data = json.loads(proc.stdout)

        def no_floats(x):
            if isinstance(x, float):
                return False
            if isinstance(x, dict):
                return all(no_floats(v) for v in x.values())
            if isinstance(x, list):
                return all(no_floats(v) for v in x)
            return True

        assert no_floats(data)

    def test_invariants_survive_optimized_mode(self):
        # python -O strips assert statements; the invariants raise instead.
        # PlaneFan built directly skips validation: (1,0),(1,1),(0,1) breaks
        # the rotation identity v_(i-1) + v_(i+1) = a_i v_i at ray 1.
        code = ("from toricwedge.exactmath import InvariantViolation\n"
                "from toricwedge.planefan import PlaneFan, rotation_numbers\n"
                "try:\n"
                "    rotation_numbers(PlaneFan(((1, 0), (1, 1), (0, 1))))\n"
                "except InvariantViolation as e:\n"
                "    print('raised:', e)\n")
        proc = run_python("-O", "-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised: rotation identity failed on a valid fan\n"

    def test_no_assert_statements_in_package(self):
        # the rule the test above relies on: no invariant in the package is
        # an assert statement, which python -O would strip
        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(toricwedge.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []

    def test_no_unbounded_caches_in_package(self):
        # every lru_cache in the package has a fixed bound, so that a long
        # process cannot grow without limit
        def unbounded(node):
            if getattr(node.func, "attr", getattr(node.func, "id", None)) != "lru_cache":
                return False
            maxsize = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            return bool(maxsize) and isinstance(maxsize[0], ast.Constant) \
                and maxsize[0].value is None

        found = [f"{path.name}:{node.lineno}"
                 for path in sorted(Path(toricwedge.__file__).parent.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call) and unbounded(node)]
        assert found == []


SMALL = st.integers(-3, 3)
DRAWN_FANS = st.lists(st.lists(SMALL, min_size=2, max_size=2), min_size=3, max_size=6)


@st.composite
def drawn_matrices(draw):
    """A labeled matrix over some P_m(J), of the facet size or of another."""
    m = draw(st.integers(3, 5))
    J = draw(st.lists(st.integers(1, 2), min_size=m, max_size=m))
    n = draw(st.one_of(st.just(sum(J) - m + 2), st.integers(1, 3)))
    return {"n": n, "cols": [{"label": f"{i}_{k}", "v": draw(st.lists(SMALL, min_size=n, max_size=n))}
                             for i in range(1, m + 1) for k in range(1, J[i - 1] + 1)]}


VALID_INPUTS = [{"rays": [list(v) for v in f.rays]} for m in (3, 4, 5, 6)
                for f in enumerate_fans(m, 1)]
VALID_INPUTS += [matrix_to_dict(assemble_matrix(p)) for J in ((2, 1, 1, 1), (2, 1, 2, 1, 1))
                 for p in enumerate_puzzles(signature(len(J), J), 1, 1)]


@st.composite
def perturbed_valid_inputs(draw):
    """A valid fan or wedge matrix, with one entry possibly redrawn."""
    data = copy.deepcopy(draw(st.sampled_from(VALID_INPUTS)))
    vectors = data["rays"] if "rays" in data else [c["v"] for c in data["cols"]]
    if draw(st.booleans()):
        v = draw(st.sampled_from(vectors))
        v[draw(st.integers(0, len(v) - 1))] = draw(SMALL)
    return data


@settings(max_examples=60, deadline=None)
@given(data=st.one_of(DRAWN_FANS.map(lambda rays: {"rays": rays}), drawn_matrices(),
                      perturbed_valid_inputs()))
@example(data=SINGULAR_MATRIX)
def test_drawn_inputs_keep_exit_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        codes = {command: main([command, "--in", path, "--out", os.path.join(tmp, "out.json")])
                 for command in ("check", "shephard", "reduce")}
    assert set(codes.values()) <= {0, 1, 2, 3}
    if codes["check"] == 2:
        assert codes["shephard"] == 2


MALFORMED_INPUTS = ['"rays"', '{"rays": 5}', '{"cols": 5}', 'null', '{"n": 0, "cols": []}',
                    '{"n": 3, "cols": [{"label": "0_1", "v": [1, 0, 0]},'
                    ' {"label": "1_1", "v": [0, 1, 0]}]}',
                    '{"n": 2, "cols": [{"label": "x", "v": [1, 0]}]}',
                    '{"n": 2, "cols": [{"label": "1_-1", "v": [1, 0]}]}',
                    '{"n": 2, "cols": [{"label": "1_1_1", "v": [1, 0]}]}',
                    # a leading zero: read as 1_1, this certified the triangle
                    '{"n": 2, "cols": [{"label": "01_1", "v": [1, 0]},'
                    ' {"label": "2_1", "v": [0, 1]}, {"label": "3_1", "v": [-1, -1]}]}',
                    # a color index above the column count: the signature of
                    # this label once allocated a list of 10^11 entries
                    '{"n": 2, "cols": [{"label": "100000000000_1", "v": [-1, -1]},'
                    ' {"label": "1_1", "v": [1, 0]}, {"label": "2_1", "v": [0, 1]}]}',
                    '{"n": 2, "cols": [{"label": "1_4", "v": [-1, -1]},'
                    ' {"label": "1_1", "v": [1, 0]}, {"label": "2_1", "v": [0, 1]}]}',
                    # deeper than json's decoder can recurse; named, since a
                    # test id this long does not fit in the environment
                    pytest.param('[' * 100000 + ']' * 100000, id="deep-nesting"),
                    pytest.param('{"rays": ' + '[' * 100000 + ']' * 100000 + '}',
                                 id="deep-nesting-under-rays")]


@pytest.mark.parametrize("command", ["check", "reduce", "shephard"])
@pytest.mark.parametrize("text", MALFORMED_INPUTS)
def test_malformed_json_shape_exits_2(command, text, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(text)
    proc = run_python("-m", "toricwedge", command, "--in", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("invalid input:") and proc.stderr.count("\n") == 1
    # a bad column label is named in the message (the first label is the bad one)
    label = re.search(r'"label": "([^"]*)"', text)
    if label:
        assert f"'{label[1]}'" in proc.stderr


@pytest.mark.parametrize("args", [["check", "--in", "{fan}"], ["reduce", "--in", "{fan}"],
                                  ["shephard", "--in", "{fan}"],
                                  ["classify", "--m", "3", "--j", "2,1,1"]])
def test_unwritable_output_exits_2(args, tmp_path, capsys, monkeypatch):
    """An unwritable --out exits 2 with one line, and classify learns it
    before enumerating anything."""
    def never(*_):
        raise AssertionError("enumeration ran before --out was checked")

    monkeypatch.setattr(toricwedge.cli, "enumerate_puzzles", never)
    fan = write_fan(tmp_path, "pent.json", PENTAGON)
    out = tmp_path / "missing" / "out.json"
    assert main([a.format(fan=fan) for a in args] + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write output:") and err.count("\n") == 1


def columns(n, labelled):
    return {"n": n, "cols": [{"label": lab, "v": v} for lab, v in labelled]}


# inputs that prepare rejects at or before its facet table, with the one
# stderr line each gives
FACET_TABLE_FAILURES = {
    "singular": (columns(2, [("1_1", [1, 0]), ("2_1", [0, 1]), ("3_1", [-1, 0])]),
                 "some facet minor is not +-1"),
    "duplicate label": (columns(2, [("1_1", [1, 0]), ("1_1", [0, 1]), ("2_1", [0, 1]),
                                    ("3_1", [-1, -1])]),
                        "matrix labels do not match the complex"),
    "label gap": (columns(3, [("1_1", [1, 0, -1]), ("1_3", [0, 0, 1]), ("2_1", [0, 1, 0]),
                              ("3_1", [-1, -1, 0])]),
                  "matrix labels do not match the complex"),
    # three rows over a triangle, whose facets have two columns: prepare
    # names the row count before any facet matrix is built
    "wrong facet size": (columns(3, [("1_1", [1, 0, 0]), ("2_1", [0, 1, 0]),
                                     ("3_1", [-1, -1, 1])]),
                         "matrix has 3 rows where P_3(1,1,1) needs 2"),
}


@pytest.mark.parametrize("command", ["check", "shephard"])
@pytest.mark.parametrize("case", sorted(FACET_TABLE_FAILURES))
def test_facet_table_failures_exit_2(command, case, tmp_path):
    data, message = FACET_TABLE_FAILURES[case]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    proc = run_python("-m", "toricwedge", command, "--in", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"invalid input: {message}\n"
