"""Tests of the benchmark's own output checks: real classify and check
output passes, and a lowered height, a singular facet minor, a broken
barycentric tuple or a wrong class count each count as a failed operation.

    python3 -m pytest benchmarks/selftest.py -q

The file name does not match pytest's test_*.py pattern, so the repository's
plain pytest run leaves it out; name it on the command line to run it.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_checks import (  # noqa: E402
    ClassifyChecker,
    Tally,
    fan_certificate_failure,
    walls,
    wedge_facets,
)
from bench_inputs import fan_key, sig_key  # noqa: E402
from run import import_program  # noqa: E402

M, J = 4, (2, 1, 2, 1)
PENTAGON = ((1, 0), (1, 1), (0, 1), (-1, 0), (0, -1))


@pytest.fixture(scope="module")
def cli():
    return import_program()


@pytest.fixture(scope="module")
def classified(cli, tmp_path_factory):
    out = tmp_path_factory.mktemp("classify") / "out.json"
    argv = ["classify", "--m", str(M), "--j", ",".join(map(str, J)), "--base-depth", "1",
            "--e-bound", "1", "--workers", "1", "--out", str(out)]
    assert cli.main(argv) == 0
    data = json.loads(out.read_text())
    assert data["classes"] >= 2
    return data


@pytest.fixture(scope="module")
def fan_cert(cli, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("check")
    (tmp / "in.json").write_text(json.dumps({"rays": [list(v) for v in PENTAGON]}))
    assert cli.main(["check", "--in", str(tmp / "in.json"), "--out", str(tmp / "out.json")]) == 0
    return json.loads((tmp / "out.json").read_text())


def tally_of(data, reference_count=None):
    count = data["classes"] if reference_count is None else reference_count
    tally = Tally()
    ClassifyChecker({sig_key(M, J): count}).check_data(data, M, J, tally)
    return tally


def test_emitted_classes_pass(classified):
    tally = tally_of(classified)
    assert (tally.attempted, tally.failed) == (classified["classes"], 0), tally.reasons


def test_lowered_height_fails(classified):
    data = copy.deepcopy(classified)
    heights = data["records"][1]["certificate"]["heights"]
    label = sorted(heights)[-1]
    heights[label] = str(int(heights[label].split("/")[0]) - 1000)
    tally = tally_of(data)
    assert tally.failed == 1
    assert "bend" in tally.reasons[0]


def test_flat_heights_fail_strictness(classified):
    data = copy.deepcopy(classified)
    heights = data["records"][0]["certificate"]["heights"]
    for label in heights:
        heights[label] = "0"
    assert tally_of(data).failed == 1


def test_singular_facet_minor_fails(classified):
    data = copy.deepcopy(classified)
    # a second copy: its column sits outside the base fan's two rows
    col = next(c for c in data["records"][0]["matrix"]["cols"] if c["label"] == "1_2")
    col["v"] = [2 * x for x in col["v"]]
    tally = tally_of(data)
    assert tally.failed == 1
    assert "minor 2" in tally.reasons[0] or "minor -2" in tally.reasons[0]


def test_nonpositive_barycentric_fails(classified):
    data = copy.deepcopy(classified)
    bary = data["records"][0]["certificate"]["barycentric"]
    key = sorted(bary)[0]
    bary[key] = ["0"] * (len(bary[key]) - 1) + ["1"]
    assert tally_of(data).failed == 1


def test_wrong_class_count_fails_every_class(classified):
    want = classified["classes"] + 1
    tally = tally_of(classified, reference_count=want)
    assert (tally.attempted, tally.failed) == (want, want)


def test_disagreement_header_fails_every_class(classified):
    data = copy.deepcopy(classified)
    data["oracle_disagreements"] = 1
    assert tally_of(data).failed == data["classes"]


def test_fan_certificate(fan_cert):
    assert fan_certificate_failure(fan_cert, PENTAGON) == ""
    lowered = copy.deepcopy(fan_cert)
    lowered["heights"]["3"] = "-1000"
    assert "bend" in fan_certificate_failure(lowered, PENTAGON)
    skewed = copy.deepcopy(fan_cert)
    key = sorted(skewed["barycentric"])[0]
    skewed["barycentric"][key][0] = "2"
    assert fan_certificate_failure(skewed, PENTAGON)


def test_wedge_facets_form_a_closed_pseudomanifold():
    facets = wedge_facets(6, (1, 4, 1, 1, 1, 1))
    # edges missing vertex 2 leave it 4 ways to drop a copy; the two that
    # contain it leave one
    assert len(facets) == 4 * 4 + 2
    assert {len(f) for f in facets} == {9 - 6 + 2}
    assert len(walls(facets)) == len(facets) * 5 // 2


def test_fan_key_identifies_equivalent_fans():
    rotated = PENTAGON[2:] + PENTAGON[:2]
    reflected = tuple((y, x) for x, y in reversed(PENTAGON))
    sheared = tuple((x + 3 * y, y) for x, y in PENTAGON)
    assert fan_key(PENTAGON) == fan_key(rotated) == fan_key(reflected) == fan_key(sheared)
    # a blow-up of the d=2 Hirzebruch fan, with a rotation number of 2
    other = ((1, 0), (0, 1), (-1, 2), (0, -1), (1, -1))
    assert fan_key(other) != fan_key(PENTAGON)
