"""Results must not depend on asserts: the CLI under `python -O`."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import splitcayley

SRC = str(pathlib.Path(splitcayley.__file__).resolve().parents[1])


def run_optimized(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-O", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_norm_one_subgroup_under_O(q, tmp_path):
    code = ("from splitcayley.galois import QuadraticField; "
            f"print(len(QuadraticField.for_q({q}).norm_one_subgroup()))")
    proc = run_optimized(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == q + 1


def test_hexagon_and_certify_round_trip_under_O(tmp_path):
    hexagon = run_optimized(["-m", "splitcayley.cli", "hexagon", "--q", "2",
                             "--export-lines", "lines.json"], tmp_path)
    assert hexagon.returncode == 0, hexagon.stderr
    report = json.loads(hexagon.stdout)
    assert report["passed"] is True
    assert report["certificate"]["girth"] == 12
    assert report["negative_control"]["failed_as_expected"] is True

    certify = run_optimized(["-m", "splitcayley.cli", "certify",
                             "lines.json"], tmp_path)
    assert certify.returncode == 0, certify.stderr
    pipeline = json.loads(certify.stdout)["pipeline"]
    assert pipeline["recovered_class_index"] == 0
    assert [s["passed"] for s in pipeline["stages"]] == [True] * 5


def test_repeated_incidence_rejected_under_O(tmp_path):
    code = ("from splitcayley.hexagon import IncidenceGeometry\n"
            "try:\n"
            "    IncidenceGeometry(((0,),), ((0,),), ((0, 0), (0, 0)))\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    proc = run_optimized(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "repeated incidence"
