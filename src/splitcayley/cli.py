"""Command-line front end: build, census and certify with stable reports.

Three subcommands:

    splitcayley hexagon --q 2 --class 0        build one norm class, build
        the hexagon, certify girth/diameter, run the seeded negative
        control; --corrupt-seed N certifies the corrupted geometry instead
        (expected to fail, exit code 1, with an explicit witness cycle).

    splitcayley census --q 2                   the four-family line census
        with its norm refinement, the plane census of the hexagon image,
        the spread/reguli report and the dictionary row checks.

    splitcayley certify INPUT.json             run the staged certification
        pipeline on a line set in the interchange format.

Exit codes: 0 all requested checks pass, 1 a certification fails, 2 bad
input or configuration.  Reports are JSON (or CSV for census tables) with
deterministic payloads; wall-clock timings live in a separate key that is
excluded from reproducibility comparisons.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import __version__
from . import hexagon as hx
from . import quadric as qd
from . import unitary as un
from .galois import SUPPORTED_Q, FieldError, QuadraticField
from .hermitian import HermitianSurface

EXIT_PASS = 0
EXIT_CERTIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2


class _Timer:
    def __init__(self):
        self.marks = {}
        self._t0 = time.perf_counter()

    def mark(self, name):
        now = time.perf_counter()
        self.marks[name] = round(now - self._t0, 6)
        self._t0 = now


def _parse_modulus(text):
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            "modulus must be comma-separated integers, constant term first")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitcayley",
        description="Split Cayley hexagon model on the Hermitian surface: "
                    "construction, certification and censuses.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--q", type=int, default=2, choices=SUPPORTED_Q,
                       help="subfield order (hexagon: seconds up to 5; "
                            "census and certify: recommended ceiling 3)")
        p.add_argument("--modulus", type=_parse_modulus, default=None,
                       help="modulus override, comma-separated coefficients "
                            "with the constant term first")
        p.add_argument("--seed", type=int, default=7,
                       help="seed for the negative controls")
        p.add_argument("--out", default=None, help="write the report here")
        p.add_argument("--format", choices=("json", "csv"), default="json",
                       help="report format (csv applies to census tables)")

    p_hex = sub.add_parser("hexagon", help="build and certify one norm class")
    common(p_hex)
    p_hex.add_argument("--class", dest="norm_class", type=int, default=0,
                       help="norm class index (0..q)")
    p_hex.add_argument("--corrupt-seed", type=int, default=None,
                       help="certify the seeded mixed-class corruption "
                            "instead (expected to fail)")
    p_hex.add_argument("--export-lines", default=None, metavar="PATH",
                       help="write the class's Q(6,q) line set in the "
                            "interchange format")

    p_census = sub.add_parser("census", help="line and plane censuses")
    common(p_census)
    p_census.add_argument("--class", dest="norm_class", type=int, default=0,
                          help="norm class used for the plane census")
    p_census.add_argument("--suite",
                          choices=("all", "families", "planes", "spread",
                                   "dictionary"),
                          default="all", help="census suite selection")
    p_census.add_argument("--export-spread-union", default=None,
                          metavar="PATH",
                          help="write a spread-union line set (q=2 search) "
                               "in the interchange format")

    p_cert = sub.add_parser("certify",
                            help="certify a line set from a file")
    common(p_cert)
    p_cert.add_argument("input", help="line-set interchange JSON file")
    return parser


def _base_report(args, field) -> dict:
    config = {
        "q": args.q,
        "seed": args.seed,
        "format": args.format,
    }
    if getattr(args, "norm_class", None) is not None:
        config["class"] = args.norm_class
    return {
        "version": __version__,
        "command": args.command,
        "config": config,
        "field": field.spec.to_dict(),
    }


def _emit(report, args, csv_rows=None) -> None:
    payload = json.dumps(report, indent=2, sort_keys=True)
    if args.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = payload + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _census_csv_rows(report) -> list:
    rows = [("table", "family", "size", "expected", "match")]
    for fam in report["families"]:
        rows.append(("families", fam["family"], fam["size"],
                     fam["expected"], fam["match"]))
    for mu, size in sorted(report["norm_refinement"].items()):
        rows.append(("norm_refinement", f"class_norm_{mu}", size,
                     report["norm_refinement_expected"], True))
    planes = report["plane_census"]["census"]
    for key, expected_key in (("n0", "expected_n0"), ("n1", "expected_n1"),
                              ("n_q_plus_1", "expected_n_q_plus_1")):
        rows.append(("planes", key, planes[key], report[expected_key],
                     planes[key] == report[expected_key]))
    return rows


def _build_stack(args):
    field = QuadraticField.for_q(args.q, modulus=args.modulus)
    surface = HermitianSurface(field)
    action = un.UnitaryAction(surface)
    return field, surface, action


def cmd_hexagon(args) -> int:
    timer = _Timer()
    if not 0 <= args.norm_class <= args.q:
        raise FieldError(f"class index must be in 0..{args.q}")
    field, surface, action = _build_stack(args)
    timer.mark("build_group")

    omega = action.class_by_index(args.norm_class)
    expected = ((args.q ** 6 - 1) // (args.q - 1),) * 2
    report = _base_report(args, field)
    report["class_size"] = len(omega)

    corrupted = args.corrupt_seed is not None
    if corrupted:
        omega = action.mixed_class_omega(args.corrupt_seed)
        report["corrupt_seed"] = args.corrupt_seed
    geom = hx.build_hexagon(surface, omega)
    cert = hx.certify_generalized_polygon(geom, 6, expected)
    timer.mark("build_and_certify")
    report["certificate"] = cert.to_dict()
    if not cert.passed and cert.girth is not None and cert.girth < 12:
        report["witness_cycle"] = [list(map(str, c)) for c in
                                   hx.shortest_cycle_witness(geom, cert)]

    control_ok = True
    if not corrupted:
        control = hx.certify_generalized_polygon(
            hx.build_hexagon(surface, action.mixed_class_omega(args.seed)),
            6, expected)
        control_ok = not control.passed
        report["negative_control"] = {
            "seed": args.seed,
            "failed_as_expected": control_ok,
            "girth": control.girth,
        }
        timer.mark("negative_control")

    if args.export_lines:
        bcs = qd.BcsMap(surface)
        lids = sorted(list(bcs.spread_line_ids)
                      + [bcs.forward_subgenerator(k) for k in omega])
        with open(args.export_lines, "w", encoding="utf-8") as fh:
            json.dump(bcs.export_line_set(lids), fh, indent=2, sort_keys=True)
        timer.mark("export_lines")

    report["passed"] = bool(cert.passed and control_ok)
    report["timings"] = timer.marks
    _emit(report, args)
    return EXIT_PASS if report["passed"] else EXIT_CERTIFICATION_FAILURE


def cmd_census(args) -> int:
    timer = _Timer()
    if not 0 <= args.norm_class <= args.q:
        raise FieldError(f"class index must be in 0..{args.q}")
    field, surface, action = _build_stack(args)
    bcs = qd.BcsMap(surface)
    timer.mark("build")
    q = args.q
    report = _base_report(args, field)
    failures = []

    run = args.suite
    if run in ("all", "families"):
        families, refinement = qd.line_orbit_census(bcs, action)
        report["families"] = [fam.to_dict() for fam in families]
        report["norm_refinement"] = {str(mu): n for mu, n in
                                     sorted(refinement.items())}
        report["norm_refinement_expected"] = q * (q + 1) * (q ** 3 + 1)
        if not all(fam.ok for fam in families):
            failures.append("family census mismatch")
        if set(refinement.values()) != {q * (q + 1) * (q ** 3 + 1)}:
            failures.append("norm refinement mismatch")
        timer.mark("families")

    if run in ("all", "planes"):
        omega = action.class_by_index(args.norm_class)
        lids = sorted(list(bcs.spread_line_ids)
                      + [bcs.forward_subgenerator(k) for k in omega])
        result = qd.classify_line_set(bcs.quadric, lids)
        report["plane_census"] = result.to_dict()
        report["expected_n0"] = q ** 3 * (q ** 3 + 1)
        report["expected_n1"] = 0
        report["expected_n_q_plus_1"] = (q ** 3 + 1) * (q * q + q + 1)
        census = result.census
        if (result.verdict != "hexagon" or census is None
                or (census.n0, census.n1, census.n_q1)
                != (report["expected_n0"], 0, report["expected_n_q_plus_1"])):
            failures.append("plane census mismatch")
        timer.mark("planes")

    if run in ("all", "spread"):
        spread = qd.hermitian_spread_check(bcs.quadric, bcs.spread_line_ids)
        report["spread"] = spread.to_dict()
        if not spread.ok:
            failures.append("hermitian spread check failed")
        timer.mark("spread")

    if run in ("all", "dictionary"):
        dictionary = bcs.verify_dictionary(action)
        report["dictionary"] = dictionary.to_dict()
        if not dictionary.ok:
            failures.append("dictionary verification failed")
        timer.mark("dictionary")

    if args.export_spread_union:
        plane_ids = qd.plane_spread_search(bcs.quadric)
        if plane_ids is None:
            failures.append("no plane spread found")
        else:
            lids = qd.spread_union_line_set(bcs.quadric, plane_ids)
            with open(args.export_spread_union, "w", encoding="utf-8") as fh:
                json.dump(bcs.export_line_set(lids), fh, indent=2,
                          sort_keys=True)
        timer.mark("export_spread_union")

    report["failures"] = failures
    report["passed"] = not failures
    report["timings"] = timer.marks
    csv_rows = _census_csv_rows(report) if run == "all" else None
    _emit(report, args, csv_rows)
    return EXIT_PASS if not failures else EXIT_CERTIFICATION_FAILURE


def cmd_certify(args) -> int:
    timer = _Timer()
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise qd.InterchangeError(f"cannot read {args.input}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise qd.InterchangeError(f"not valid JSON: {exc}") from exc

    declared_q = payload.get("q") if isinstance(payload, dict) else None
    if declared_q in SUPPORTED_Q and declared_q != args.q:
        args.q = declared_q  # a supported payload q wins; the parser
        # re-checks payload-vs-field consistency either way
    # reject what the field alone can reject before building the stack
    qd.decode_line_set(payload,
                       QuadraticField.for_q(args.q, modulus=args.modulus))
    field, surface, action = _build_stack(args)
    bcs = qd.BcsMap(surface)
    timer.mark("build")

    line_ids = bcs.parse_line_set(payload)
    timer.mark("parse")

    cert = qd.certify_split_cayley(bcs, line_ids, action)
    timer.mark("pipeline")

    report = _base_report(args, field)
    report["input"] = args.input
    report["line_count"] = len(line_ids)
    report["pipeline"] = cert.to_dict()
    report["passed"] = cert.passed
    report["timings"] = timer.marks
    _emit(report, args)
    return EXIT_PASS if cert.passed else EXIT_CERTIFICATION_FAILURE


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        if args.command == "hexagon":
            return cmd_hexagon(args)
        if args.command == "census":
            return cmd_census(args)
        return cmd_certify(args)
    except (FieldError, qd.InterchangeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
