"""CLI contract: exit codes, determinism, formats, round trips."""

import json
import time

import pytest

from splitcayley import hexagon as hx
from splitcayley.cli import (
    EXIT_CERTIFICATION_FAILURE,
    EXIT_INPUT_ERROR,
    EXIT_PASS,
    main,
)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def without_timings(report):
    return {k: v for k, v in report.items() if k != "timings"}


def test_hexagon_pass(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["hexagon", "--q", "2", "--class", "0", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_PASS
    report = load(out)
    assert report["passed"] is True
    assert report["certificate"]["girth"] == 12
    assert report["certificate"]["diameter"] == 6
    assert report["certificate"]["num_points"] == 63
    assert report["class_size"] == 54
    assert report["negative_control"]["failed_as_expected"] is True
    assert report["config"]["seed"] == 7
    assert report["field"]["modulus"] == [1, 1, 1]


def test_hexagon_reports_are_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["hexagon", "--q", "2", "--out", str(a)]) == EXIT_PASS
    assert main(["hexagon", "--q", "2", "--out", str(b)]) == EXIT_PASS
    capsys.readouterr()
    assert without_timings(load(a)) == without_timings(load(b))


def test_hexagon_corrupt_seed_fails_with_witness(tmp_path, capsys):
    out = tmp_path / "corrupt.json"
    code = main(["hexagon", "--q", "2", "--class", "0",
                 "--corrupt-seed", "7", "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_CERTIFICATION_FAILURE
    report = load(out)
    assert report["passed"] is False
    assert report["certificate"]["girth"] <= 10
    assert len(report["witness_cycle"]) == report["certificate"]["girth"]
    # deterministic under the seed
    out2 = tmp_path / "corrupt2.json"
    main(["hexagon", "--q", "2", "--class", "0",
          "--corrupt-seed", "7", "--out", str(out2)])
    capsys.readouterr()
    assert without_timings(load(out2)) == without_timings(report)


def test_failing_certificate_witness_costs_one_bfs(monkeypatch, capsys):
    # the witness starts from the certificate's girth source: one ball
    # pass and one breadth-first search, not a second all-vertex pass
    calls = {"_ball_analytics": 0, "_bfs": 0}

    def counted(name):
        inner = getattr(hx, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(hx, name, counted(name))
    code = main(["hexagon", "--q", "3", "--corrupt-seed", "7"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_CERTIFICATION_FAILURE
    assert len(report["witness_cycle"]) == report["certificate"]["girth"]
    assert "girth_source" not in report["certificate"]
    assert calls == {"_ball_analytics": 1, "_bfs": 1}


def test_invalid_inputs_exit_2(capsys, tmp_path):
    assert main(["hexagon", "--q", "7"]) == EXIT_INPUT_ERROR
    assert main(["hexagon", "--q", "2", "--class", "5"]) == EXIT_INPUT_ERROR
    assert main(["nonsense"]) == EXIT_INPUT_ERROR
    missing = tmp_path / "missing.json"
    assert main(["certify", str(missing)]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def test_census_json_and_csv_agree(tmp_path, capsys):
    jpath, cpath = tmp_path / "census.json", tmp_path / "census.csv"
    assert main(["census", "--q", "2", "--out", str(jpath)]) == EXIT_PASS
    assert main(["census", "--q", "2", "--format", "csv",
                 "--out", str(cpath)]) == EXIT_PASS
    capsys.readouterr()
    report = load(jpath)
    rows = [line.split(",") for line in
            cpath.read_text().strip().splitlines()]
    header, rows = rows[0], rows[1:]
    assert header == ["table", "family", "size", "expected", "match"]
    by_family = {r["family"]: r for r in report["families"]}
    for table, family, size, expected, match in rows:
        if table == "families":
            assert by_family[family]["size"] == int(size)
            assert by_family[family]["expected"] == int(expected)
            assert by_family[family]["match"] == (match == "True")
        elif table == "norm_refinement":
            mu = family.removeprefix("class_norm_")
            assert report["norm_refinement"][mu] == int(size)
        else:
            assert report["plane_census"]["census"][family] == int(size)
    assert [r["size"] for r in report["families"]] == [9, 36, 108, 162]
    assert report["plane_census"]["census"]["n0"] == 72
    assert report["plane_census"]["census"]["n_q_plus_1"] == 63


def test_census_q3_frozen_rows(tmp_path, capsys):
    out = tmp_path / "census3.json"
    assert main(["census", "--q", "3", "--out", str(out)]) == EXIT_PASS
    capsys.readouterr()
    report = load(out)
    assert [r["size"] for r in report["families"]] == [28, 252, 2016, 1344]
    assert all(r["match"] for r in report["families"])
    census = report["plane_census"]["census"]
    assert (census["n0"], census["n1"], census["n_q_plus_1"]) == (756, 0, 364)
    assert census["total_planes"] == 1120
    assert sorted(report["norm_refinement"].values()) == [336] * 4


def test_census_suite_selection(tmp_path, capsys):
    out = tmp_path / "spread.json"
    assert main(["census", "--q", "2", "--suite", "spread",
                 "--out", str(out)]) == EXIT_PASS
    capsys.readouterr()
    report = load(out)
    assert "spread" in report and "families" not in report
    assert report["spread"]["ok"] is True


def test_export_and_certify_round_trip(tmp_path, capsys):
    lines = tmp_path / "lines.json"
    out = tmp_path / "cert.json"
    assert main(["hexagon", "--q", "2", "--class", "2",
                 "--export-lines", str(lines)]) == EXIT_PASS
    code = main(["certify", str(lines), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_PASS
    report = load(out)
    assert report["passed"] is True
    assert report["pipeline"]["recovered_class_index"] == 2
    assert [s["passed"] for s in report["pipeline"]["stages"]] == [True] * 5


def test_certify_spread_union_fails_at_connectivity(tmp_path, capsys):
    lines = tmp_path / "union.json"
    out = tmp_path / "cert.json"
    assert main(["census", "--q", "2",
                 "--export-spread-union", str(lines)]) == EXIT_PASS
    code = main(["certify", str(lines), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_CERTIFICATION_FAILURE
    report = load(out)
    stage1 = report["pipeline"]["stages"][0]
    assert stage1["name"] == "pencil_planes_and_connectivity"
    assert stage1["passed"] is False
    assert stage1["details"]["concurrency_components"] == 9
    assert stage1["details"]["classification"]["verdict"] == "spread_union"


def test_certify_parse_error_distinct_exit(tmp_path, capsys):
    lines = tmp_path / "lines.json"
    assert main(["hexagon", "--q", "2",
                 "--export-lines", str(lines)]) == EXIT_PASS
    truncated = tmp_path / "trunc.json"
    truncated.write_text(lines.read_text()[:90])
    assert main(["certify", str(truncated)]) == EXIT_INPUT_ERROR
    garbage = tmp_path / "garbage.json"
    garbage.write_text('{"q": 2, "form": "parabolic-6"}')
    assert main(["certify", str(garbage)]) == EXIT_INPUT_ERROR
    capsys.readouterr()


def _first_one_to(value):
    def mutate(payload):
        line = next(l for l in payload["lines"] if 1 in l[0])
        line[0][line[0].index(1)] = value
    return mutate


@pytest.mark.parametrize("mutate, reason", [
    (lambda p: p.update(q="2"), "payload is for q='2'"),
    (lambda p: p.update(q=2.0), "payload is for q=2.0"),
    (_first_one_to(-1), "bad coordinate -1"),
    (_first_one_to(True), "bad coordinate True"),
    (_first_one_to(2), "bad coordinate 2"),
    (lambda p: p.update(lines=5), "malformed payload"),
    (lambda p: p["lines"].append(7), "each line needs exactly two vectors"),
], ids=["q_string", "q_float", "coordinate_negative", "coordinate_bool",
        "coordinate_too_large", "lines_not_a_list", "line_not_a_pair"])
def test_certify_rejects_ill_typed_payload(tmp_path, capsys, mutate, reason):
    lines = tmp_path / "lines.json"
    assert main(["hexagon", "--q", "2",
                 "--export-lines", str(lines)]) == EXIT_PASS
    payload = load(lines)
    mutate(payload)
    lines.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["certify", str(lines)]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err


def test_certify_rejects_bad_coordinate_before_building(tmp_path, capsys,
                                                        bcs3):
    # the field alone rejects the payload, so no q=3 stack is built
    payload = bcs3.export_line_set(bcs3.spread_line_ids)
    _first_one_to(-1)(payload)
    lines = tmp_path / "lines.json"
    lines.write_text(json.dumps(payload))
    capsys.readouterr()
    start = time.perf_counter()
    code = main(["certify", str(lines)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == EXIT_INPUT_ERROR
    assert captured.err == "error: bad coordinate -1: expected an integer 0..2\n"
    assert elapsed < 0.5, f"rejected after {elapsed:.2f}s"


def test_modulus_override_recorded(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["hexagon", "--q", "3", "--modulus", "2,2,1",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_PASS
    assert load(out)["field"]["modulus"] == [2, 2, 1]


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    capsys.readouterr()
