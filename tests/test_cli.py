import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricwedge
from toricwedge.cli import main

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
        from toricwedge.wedgepuzzle import (
            Puzzle, WedgeSignature, assemble_matrix, gj_vertices, matrix_to_dict, shift)
        base = PlaneFan(tuple(map(tuple, PENTAGON)))
        sig = WedgeSignature(5, (2, 1, 1, 1, 1))
        shifted = shift(base, 1, 1)
        p = Puzzle(sig, {a: (shifted if a[0] == 2 else base) for a in gj_vertices(sig)})
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

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["classify", "--m", "4", "--j", "2,1,1,1", "--base-depth", "2",
                "--e-bound", "2"]
        assert run_cli(argv + ["--out", str(out1)]) == 0
        assert run_cli(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


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
        from toricwedge.wedgepuzzle import (
            Puzzle, WedgeSignature, assemble_matrix, gj_vertices, matrix_to_dict, shift)
        base = PlaneFan(tuple(map(tuple, PENTAGON)))
        sig = WedgeSignature(5, (2, 1, 1, 1, 1))
        shifted = shift(base, 1, 1)
        p = Puzzle(sig, {a: (shifted if a[0] == 2 else base) for a in gj_vertices(sig)})
        path = tmp_path / "mat.json"
        path.write_text(json.dumps(matrix_to_dict(assemble_matrix(p))))
        assert run_cli(["shephard", "--in", str(path)]) == 0
        res = json.loads(capsys.readouterr().out)
        assert res["ambient_dim"] == 2  # m - 3


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


MALFORMED_INPUTS = ['"rays"', '{"rays": 5}', '{"cols": 5}', 'null', '{"n": 0, "cols": []}']


@pytest.mark.parametrize("command", ["check", "reduce", "shephard"])
@pytest.mark.parametrize("text", MALFORMED_INPUTS)
def test_malformed_json_shape_exits_2(command, text, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(text)
    proc = run_python("-m", "toricwedge", command, "--in", str(path))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("invalid input:") and proc.stderr.count("\n") == 1
