"""Golden q=2 reports: every CLI payload must match its committed copy.

The files under tests/golden/ are the reports of the commands in `RUNS`
with the wall-clock `timings` key dropped, written as
`json.dumps(report, indent=2, sort_keys=True)` (CSV reports verbatim).
Regenerate them with `PYTHONPATH=src python tests/test_golden.py` after a
deliberate change to a report, and review the diff.
"""

import contextlib
import io
import json
import os
import pathlib

from splitcayley.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# (golden file, argv); run in order in one directory, so `certify` reads
# the export of the first run and the one-line-short copy made from it.
RUNS = (
    ("hexagon.json", ["hexagon", "--q", "2", "--export-lines", "lines.json"]),
    ("hexagon_corrupt7.json", ["hexagon", "--q", "2", "--corrupt-seed", "7"]),
    ("census.json", ["census", "--q", "2"]),
    ("census.csv", ["census", "--q", "2", "--format", "csv"]),
    ("certify.json", ["certify", "lines.json"]),
    ("certify_short.json", ["certify", "short.json"]),
)


def live_reports(work_dir) -> dict:
    """Golden file name -> the live report text, run inside `work_dir`."""
    out = {}
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        for name, argv in RUNS:
            if name == "certify_short.json":
                payload = json.loads(pathlib.Path("lines.json").read_text())
                payload["lines"] = payload["lines"][:-1]
                pathlib.Path("short.json").write_text(json.dumps(payload))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(argv)
            text = buf.getvalue()
            if name.endswith(".json"):
                report = json.loads(text)
                report.pop("timings")
                text = json.dumps(report, indent=2, sort_keys=True) + "\n"
            out[name] = text
    finally:
        os.chdir(cwd)
    return out


def test_reports_match_golden_files(tmp_path):
    for name, text in live_reports(tmp_path).items():
        assert text.encode() == (GOLDEN / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in live_reports(tmp).items():
            (GOLDEN / name).write_bytes(text.encode())
