"""The benchmark workloads: stack set-up, seeded inputs, one job, frozen checks.

A job is one genuine certification plus one seeded negative control, as the
CLI's `hexagon` command does; a quadric job runs the certify round trip and
the census suites, each with its control.  Each job returns the list of its
mismatches against the frozen numbers (empty when it passed) and the work
counts read from the reports it got back.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import traceback
from dataclasses import dataclass
from typing import Callable

from splitcayley import cli, galois, hermitian, hexagon, quadric, unitary

# The frozen acceptance numbers, per subfield order q.  hexagon: points =
# lines = (q^6-1)/(q-1); families: the four line orbits of Q(6,q);
# refinement: size of each of the q+1 norm classes of the coplanar family;
# planes: (n0, n1, n_{q+1}) of the hexagon line set; pairs: spread pairs
# whose regulus is closed, C(q^3+1, 2).
FROZEN = {
    2: {"hexagon": 63, "families": (9, 36, 108, 162), "refinement": 54,
        "planes": (72, 0, 63), "pairs": 36},
    3: {"hexagon": 364, "families": (28, 252, 2016, 1344), "refinement": 336,
        "planes": (756, 0, 364), "pairs": 378},
}

WITNESS_KEYS = ("violations", "witness", "closure_violations", "errors",
                "pencil_violations", "join_violations", "witness_cycle",
                "failures")


@dataclass
class Stack:
    q: int
    field: object
    surface: object
    action: object
    bcs: object = None


def build_stack(q: int, with_quadric: bool) -> Stack:
    """What every CLI call builds before its first check."""
    field = galois.QuadraticField.for_q(q)
    surface = hermitian.HermitianSurface(field)
    action = unitary.UnitaryAction(surface)
    action.classes()
    bcs = None
    if with_quadric:
        space = quadric.HyperbolicSpace(field)
        bcs = quadric.BcsMap(surface, space.slice(space.canonical_hyperplane()))
    return Stack(q, field, surface, action, bcs)


def _class_line_ids(stack, keys) -> list:
    bcs = stack.bcs
    return sorted(list(bcs.spread_line_ids)
                  + [bcs.forward_subgenerator(k) for k in keys])


def _has_witness(details) -> bool:
    if isinstance(details, dict):
        return any((key in WITNESS_KEYS and bool(value)) or _has_witness(value)
                   for key, value in details.items())
    if isinstance(details, list):
        return any(_has_witness(v) for v in details)
    return False


# -- hexagon: build_hexagon + certify_generalized_polygon ---------------------


def hexagon_inputs(stack, rng, k0):
    out = []
    for i in range(stack.q + 1):
        k = (k0 + i) % (stack.q + 1)
        seed = rng.randrange(2 ** 31)
        out.append({"class": k, "genuine": stack.action.class_by_index(k),
                    "control_seed": seed,
                    "control": stack.action.mixed_class_omega(seed)})
    return out


def hexagon_job(stack, inp, exp):
    q, n = stack.q, exp["hexagon"]
    geom = hexagon.build_hexagon(stack.surface, inp["genuine"])
    cert = hexagon.certify_generalized_polygon(geom, 6, (n, n))
    got = (cert.passed, cert.num_points, cert.num_lines, cert.order,
           cert.girth, cert.diameter)
    want = (True, n, n, (q, q), 12, 6)
    failures = []
    if got != want:
        failures.append(f"class {inp['class']}: (passed, points, lines, order,"
                        f" girth, diameter) = {got}, expected {want}")
    control = hexagon.certify_generalized_polygon(
        hexagon.build_hexagon(stack.surface, inp["control"]), 6, (n, n))
    if control.passed or control.girth is None or control.girth >= 12:
        failures.append(f"mixed-class control seed {inp['control_seed']} not "
                        f"rejected (girth {control.girth})")
    vertices = (cert.num_points + cert.num_lines
                + control.num_points + control.num_lines)
    return failures, {"hexagon.vertices": vertices}


def hexagon_cli_args(stack, inputs, work_dir):
    first = inputs[0]
    return ["hexagon", "--q", str(stack.q), "--class", str(first["class"]),
            "--seed", str(first["control_seed"])]


# -- certify: parse_line_set + certify_split_cayley ---------------------------


def certify_inputs(stack, rng, k0):
    bcs, action = stack.bcs, stack.action
    group = stack.field.norm_one_subgroup()
    out = []
    for i in range(stack.q + 1):
        k = (k0 + i) % (stack.q + 1)
        keys = action.class_by_index(k)
        kind = rng.choice(("class_swap", "regulus_swap"))
        seed = rng.randrange(2 ** 31)
        if kind == "class_swap":
            twin = _class_line_ids(stack, action.class_swap_corruption(
                group[k], seed))
        else:
            spread = quadric.regulus_swap_corruption(
                bcs.quadric, bcs.spread_line_ids, seed)
            twin = sorted(list(spread)
                          + [bcs.forward_subgenerator(x) for x in keys])
        out.append({
            "class": k,
            "genuine": json.dumps(bcs.export_line_set(
                _class_line_ids(stack, keys))),
            "twin_kind": kind, "twin_seed": seed,
            "twin": json.dumps(bcs.export_line_set(twin)),
        })
    return out


def certify_job(stack, inp, exp):
    bcs, action = stack.bcs, stack.action
    cert = quadric.certify_split_cayley(
        bcs, bcs.parse_line_set(json.loads(inp["genuine"])), action)
    stages = cert.stages
    failures = []
    spread = stages[1].details["spread"] if len(stages) > 1 else {}
    got = (cert.passed, [s.passed for s in stages],
           cert.recovered_class_index, spread.get("pairs_checked"))
    want = (True, [True] * 5, inp["class"], exp["pairs"])
    if got != want:
        failures.append(f"class {inp['class']}: (passed, stages, class, "
                        f"pairs_checked) = {got}, expected {want}")
    twin = quadric.certify_split_cayley(
        bcs, bcs.parse_line_set(json.loads(inp["twin"])), action)
    if twin.passed or not _has_witness(twin.stages[-1].details):
        failures.append(f"{inp['twin_kind']} twin seed {inp['twin_seed']} "
                        "not rejected with a witness")
    counts = {}
    if cert.passed:
        cover = stages[3].details["covering"]
        hexc = stages[4].details["certificate"]
        counts = {"hexagon.vertices": hexc["num_points"] + hexc["num_lines"],
                  "unitary.pencil_checked": cover["pencil_checked"],
                  "unitary.join_checked": cover["join_checked"],
                  "quadric.pairs_checked": spread["pairs_checked"]}
    return failures, counts


def certify_cli_args(stack, inputs, work_dir):
    path = os.path.join(work_dir, "lines.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inputs[0]["genuine"])
    return ["certify", path]


# -- census: the `census` suites on one stack ---------------------------------


def census_inputs(stack, rng, k0):
    bcs = stack.bcs
    out = []
    for i in range(stack.q + 1):
        k = (k0 + i) % (stack.q + 1)
        seed = rng.randrange(2 ** 31)
        out.append({
            "class": k,
            "lines": tuple(_class_line_ids(
                stack, stack.action.class_by_index(k))),
            "swap_seed": seed,
            "swapped_spread": quadric.regulus_swap_corruption(
                bcs.quadric, bcs.spread_line_ids, seed),
        })
    return out


def census_job(stack, inp, exp):
    bcs, action = stack.bcs, stack.action
    quad = bcs.quadric
    failures = []
    families, refinement = quadric.line_orbit_census(bcs, action)
    sizes = tuple(fam.size for fam in families)
    want_refinement = {mu: exp["refinement"]
                       for mu in stack.field.norm_one_subgroup()}
    if sizes != exp["families"] or refinement != want_refinement:
        failures.append(f"families {sizes}, refinement {refinement}; expected "
                        f"{exp['families']}, {exp['refinement']} each")
    planes = quadric.classify_line_set(quad, inp["lines"])
    census = planes.census
    got = (planes.verdict,
           census and (census.n0, census.n1, census.n_q1))
    if got != ("hexagon", exp["planes"]):
        failures.append(f"class {inp['class']} plane census {got}, expected "
                        f"('hexagon', {exp['planes']})")
    spread = quadric.hermitian_spread_check(quad, bcs.spread_line_ids)
    if not spread.ok or spread.pairs_checked != exp["pairs"]:
        failures.append(f"spread ok={spread.ok} pairs={spread.pairs_checked},"
                        f" expected ok with {exp['pairs']}")
    dictionary = bcs.verify_dictionary(action)
    if not dictionary.ok:
        failures.append(f"dictionary rows {dictionary.to_dict()['rows']}")
    swapped = quadric.hermitian_spread_check(quad, inp["swapped_spread"])
    if swapped.ok:
        failures.append(f"regulus swap seed {inp['swap_seed']} not rejected")
    return failures, {"quadric.pairs_checked": (spread.pairs_checked
                                                + swapped.pairs_checked)}


# -- quadric: the certify round trip and the census suites, one stack --------


def quadric_inputs(stack, rng, k0):
    return [{"certify": c, "census": s} for c, s in zip(
        certify_inputs(stack, rng, k0), census_inputs(stack, rng, k0))]


def quadric_job(stack, inp, exp):
    failures, counts = certify_job(stack, inp["certify"], exp)
    census_failures, census_counts = census_job(stack, inp["census"], exp)
    for key, value in census_counts.items():
        counts[key] = counts.get(key, 0) + value
    return failures + census_failures, counts


def quadric_cli_args(stack, inputs, work_dir):
    return certify_cli_args(stack, [inp["certify"] for inp in inputs],
                            work_dir)


# -- the workload table --------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    with_quadric: bool
    make_inputs: Callable
    job: Callable
    cli_args: Callable
    wrong: Callable          # a deliberately wrong expectation, for the self-test


WORKLOADS = {
    w.name: w for w in (
        Workload("hexagon-q3", 3, False, hexagon_inputs, hexagon_job,
                 hexagon_cli_args,
                 lambda e: {**e, "hexagon": e["hexagon"] + 1}),
        Workload("quadric-q3", 3, True, quadric_inputs, quadric_job,
                 quadric_cli_args,
                 lambda e: {**e, "pairs": e["pairs"] + 1}),
    )
}


def run_job(w, stack, inp, exp):
    """(failures, counts) of one job; a job that raises has failed."""
    try:
        return w.job(stack, inp, exp)
    except Exception:
        return [f"raised: {traceback.format_exc()}"], {}


def run_cli(argv):
    """cli.main with its report captured; returns (exit code, report)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    text = buf.getvalue()
    return code, (json.loads(text) if text.strip() else {})


def self_test(rng_factory) -> list:
    """Each workload's job at q=2 against the closed forms, and once more
    against a deliberately wrong expectation, which must fail."""
    problems = []
    stack = build_stack(2, True)
    for w in WORKLOADS.values():
        inp = w.make_inputs(stack, rng_factory(), 0)[0]
        failures, _ = run_job(w, stack, inp, FROZEN[2])
        if failures:
            problems.append(f"{w.name} at q=2 failed: {failures}")
        wrong_failures, _ = run_job(w, stack, inp, w.wrong(FROZEN[2]))
        if not wrong_failures:
            problems.append(f"{w.name} at q=2 passed a wrong expectation")
    return problems
