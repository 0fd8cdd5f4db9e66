"""Output pins: the sha256 of the CLI's stdout on a few fixed inputs.

The digests were recorded from the tree before the integer-adjugate rewrite
of the facet and coface solves, so any change to `classify`, `check` or
`shephard` output shows here.  A deliberate output change must re-record
them and say why in CHANGES.md.  The pins of 2,1,2,1,1, 2,2,1,1,1 and the
wedge matrix were re-recorded when the Shephard LP moved to row generation
and a shift column, which changes Shephard witnesses and barycentric
coordinates.  Two tests compare every Shephard verdict on these inputs
with one solve of the whole coface system, and two more compare the facet
table and its Gale coface functionals with the per-facet determinants and
per-coface adjugates they replaced.
"""

import hashlib
import json

import pytest

from toricwedge.cli import main
from toricwedge.planefan import fan_from_dict
from toricwedge.wedgepuzzle import (
    assemble_matrix,
    build_complex,
    enumerate_puzzles,
    matrix_from_dict,
    signature,
)
from oracles import check_facet_table_against_reference, check_shephard_against_reference

PENTAGON = {"rays": [[1, 0], [0, 1], [-1, 1], [-1, 0], [2, -1]]}
TEN_RAY_FAN = {"rays": [[1, 0], [0, 1], [-1, 3], [-1, 2], [-1, 1], [0, -1],
                        [1, -3], [1, -2], [2, -3], [1, -1]]}
WEDGE_MATRIX = {"n": 4, "cols": [
    {"label": "1_1", "v": [1, 0, -1, 0]},
    {"label": "1_2", "v": [0, 0, 1, 0]},
    {"label": "2_1", "v": [0, 1, 0, 2]},
    {"label": "3_1", "v": [-1, 0, 0, -1]},
    {"label": "3_2", "v": [0, 0, 0, 1]},
    {"label": "4_1", "v": [-1, -1, -2, 0]},
    {"label": "5_1", "v": [0, -1, -2, 0]},
]}
INPUTS = {"pentagon": PENTAGON, "ten_ray_fan": TEN_RAY_FAN, "wedge_matrix": WEDGE_MATRIX}

GOLDEN_CLASSIFY = {
    "2,1,1,1,1": "942971ff8840141c2eef5f3ac3ff0cba4eefa7c1d835a5e9acc46b923d32a5b5",
    "2,1,2,1,1": "c2fac15af26ce4a4a4fb068f34beac122f20dfc500e25cdafe8dc0dd82d9e349",
    # a colour with three copies (17 classes) and two adjacent wedged colours
    # (16 classes), recorded before the integer objective row of the simplex
    "3,1,1,1,1": "f5cffc120661c1093150b6a18cdb7517fb3ad463c81641c6600bda086bf4e3b5",
    "2,2,1,1,1": "2cb1efd1fbc05e6a93468c86b6bc5b10adc99e280f0f76f09e184e11502ec82d",
}
GOLDEN_INPUT = {
    ("check", "pentagon"): "a545d08f35873129fb9d3dd4b0c4a2ee5caff1452317bf107b12eb477ec30940",
    ("check", "ten_ray_fan"): "9e4b9d7068db22c4894852fdd705b9c0f30594ffe103b95f2dce5c475a58673e",
    ("check", "wedge_matrix"): "4c7300d24fa5b0ecc6420d5b282dcb0d4d92c3efbb8c4c1266a17a433798a939",
    ("shephard", "pentagon"): "5dea8398d0c37eb0f7d464f8a772a61e33f69baa56183be65375ff8dae08a747",
    ("shephard", "ten_ray_fan"): "10712ed951a3ef80422747b5391ff9e313c311398f8a8fed14fcdc86b34f00c7",
    ("shephard", "wedge_matrix"): "490f961320806a1eaa8b237d2ba9cb37813d5d7c6bf8f8a78ed6d16071c0de0c",
}


def stdout_digest(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("j", sorted(GOLDEN_CLASSIFY))
def test_classify_output_pinned(j, capsys):
    argv = ["classify", "--m", "5", "--j", j, "--base-depth", "2", "--e-bound", "2"]
    assert stdout_digest(argv, capsys) == GOLDEN_CLASSIFY[j]


@pytest.mark.parametrize("command,name", sorted(GOLDEN_INPUT))
def test_input_output_pinned(command, name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(INPUTS[name]))
    assert stdout_digest([command, "--in", str(path)], capsys) == \
        GOLDEN_INPUT[(command, name)]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_input_shephard_verdict_matches_reference(name):
    data = INPUTS[name]
    obj = fan_from_dict(data) if "rays" in data else matrix_from_dict(data)
    assert check_shephard_against_reference(obj)


@pytest.mark.parametrize("j", sorted(GOLDEN_CLASSIFY))
def test_classify_shephard_verdicts_match_reference(j):
    sig = signature(5, tuple(map(int, j.split(","))))
    cx = build_complex(sig)
    for puzzle in enumerate_puzzles(sig, 2, 2):
        assert check_shephard_against_reference(assemble_matrix(puzzle), cx)


@pytest.mark.parametrize("j", sorted(GOLDEN_CLASSIFY))
def test_classify_facet_tables_match_reference(j):
    sig = signature(5, tuple(map(int, j.split(","))))
    cx = build_complex(sig)
    puzzles = enumerate_puzzles(sig, 2, 2)
    compared = sum(check_facet_table_against_reference(p.matrix, cx) for p in puzzles)
    assert puzzles and compared > 0


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_input_facet_table_matches_reference(name):
    data = INPUTS[name]
    obj = fan_from_dict(data) if "rays" in data else matrix_from_dict(data)
    assert check_facet_table_against_reference(obj) > 0
