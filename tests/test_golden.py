"""Output pins: the sha256 of the CLI's stdout on a few fixed inputs.

The digests were recorded from the tree before the integer-adjugate rewrite
of the facet and coface solves, so any change to `classify`, `check` or
`shephard` output shows here.  A deliberate output change must re-record
them and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from toricwedge.cli import main

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
    "2,1,2,1,1": "533ed49bb7b80d0e7f67bc9506aa7379c375487099387717b22ab85667e8055d",
    # a colour with three copies (17 classes) and two adjacent wedged colours
    # (16 classes), recorded before the integer objective row of the simplex
    "3,1,1,1,1": "f5cffc120661c1093150b6a18cdb7517fb3ad463c81641c6600bda086bf4e3b5",
    "2,2,1,1,1": "8c911db48d2a9fc93f85cd76d6a3f824400a4e43c6870ac2b20e56cee8e3bc95",
}
GOLDEN_INPUT = {
    ("check", "pentagon"): "a545d08f35873129fb9d3dd4b0c4a2ee5caff1452317bf107b12eb477ec30940",
    ("check", "ten_ray_fan"): "9e4b9d7068db22c4894852fdd705b9c0f30594ffe103b95f2dce5c475a58673e",
    ("check", "wedge_matrix"): "1f95ac29fef773f255f98f1cdf8b501d6480399dd337b612676e8eadcece03c1",
    ("shephard", "pentagon"): "5dea8398d0c37eb0f7d464f8a772a61e33f69baa56183be65375ff8dae08a747",
    ("shephard", "ten_ray_fan"): "10712ed951a3ef80422747b5391ff9e313c311398f8a8fed14fcdc86b34f00c7",
    ("shephard", "wedge_matrix"): "216dc53b3cc9d452b81cc91a2d0ea0d51c4f255c59e6ad9341f4a622ae2b9b9a",
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
