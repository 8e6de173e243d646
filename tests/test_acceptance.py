"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and expected value is pinned here; timing gates follow the
stated budgets (1 s / 10 s / 5 min for the q = 2 / 3 / 4 count builds).
Run with `pytest tests/test_acceptance.py -v -s` to see the criterion
lines.
"""

import json
import time

import pytest

from splitcayley.cli import main
from splitcayley.galois import QuadraticField
from splitcayley.hermitian import HermitianSurface
from splitcayley.hexagon import (
    build_hexagon,
    certify_generalized_polygon,
    shortest_cycle_witness,
)
from splitcayley.quadric import (
    BcsMap,
    certify_split_cayley,
    classify_line_set,
    hermitian_spread_check,
    line_orbit_census,
    regulus_swap_corruption,
)
from splitcayley.unitary import (
    UnitaryAction,
    pair_stabilizer_report,
    verify_class_covering,
    verify_subplane_norm_equivalence,
)

TIME_BUDGETS = {2: 1.0, 3: 10.0, 4: 300.0}
GAMMA_SIZES = {2: 63, 3: 364, 4: 1365}
CLASS_SIZES = {2: 54, 3: 336, 4: 1300}


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="module")
def stacks():
    """Timed fresh builds for q = 2, 3, 4: field -> surface -> classes -> hexagon."""
    out = {}
    for q in (2, 3, 4):
        t0 = time.perf_counter()
        field = QuadraticField.for_q(q)
        surface = HermitianSurface(field)
        action = UnitaryAction(surface)
        omega = action.class_by_index(0)
        geom = build_hexagon(surface, omega)
        counts = (len(geom.points), len(geom.lines))
        elapsed = time.perf_counter() - t0
        out[q] = {
            "field": field, "surface": surface, "action": action,
            "geom": geom, "counts": counts, "elapsed": elapsed,
        }
    return out


def test_criterion_1_counts_and_runtime(stacks):
    for q in (2, 3, 4):
        n = GAMMA_SIZES[q]
        assert stacks[q]["counts"] == (n, n)
        assert stacks[q]["elapsed"] < TIME_BUDGETS[q], \
            f"q={q} build took {stacks[q]['elapsed']:.2f}s"
    report(1, "point/line counts 63/364/1365 at q=2/3/4 within "
              + ", ".join(f"q={q}: {stacks[q]['elapsed']:.2f}s"
                          f"<{TIME_BUDGETS[q]:.0f}s" for q in (2, 3, 4)))


def test_criterion_2_hexagon_certificates(stacks):
    lines = []
    for q in (2, 3):
        surface = stacks[q]["surface"]
        action = stacks[q]["action"]
        n = GAMMA_SIZES[q]
        for mu in stacks[q]["field"].norm_one_subgroup():
            cert = certify_generalized_polygon(
                build_hexagon(surface, action.omega(mu)), 6, (n, n))
            assert cert.passed, (q, mu, cert.failures)
            assert cert.girth == 12 and cert.diameter == 6
            assert cert.order == (q, q)
        lines.append(f"q={q} all {q + 1} classes")
    cert4 = certify_generalized_polygon(stacks[4]["geom"], 6, (1365, 1365))
    assert cert4.passed and cert4.girth == 12 and cert4.diameter == 6
    assert cert4.order == (4, 4)
    lines.append("q=4 one class")
    report(2, "biregular degree q+1, girth 12, diameter 6: "
              + "; ".join(lines))


def test_criterion_3_norm_partition(stacks):
    for q in (2, 3, 4):
        classes = stacks[q]["action"].classes()
        assert len(classes) == q + 1
        assert all(len(keys) == CLASS_SIZES[q] for keys in classes.values())
    # transporter independence on every element at q=2: a second search
    # with reversed generators plus the exhaustive pair-stabiliser oracle
    action2 = stacks[2]["action"]
    seed = stacks[2]["surface"].seed_subgenerator()
    table = action2.orbit_table()
    other = action2.orbit_with_transporters(
        seed.pids, tuple(reversed(action2.gu_gens)))
    assert set(other.parents) == set(table.parents)
    assert all(other.norms[k] == table.norms[k] for k in table.parents)
    stab = pair_stabilizer_report(action2)
    assert stab.all_special and stab.shape_ok
    report(3, "q+1 classes of sizes 54/336/1300 at q=2/3/4; norms "
              "transporter-independent on all 162 elements at q=2 "
              f"(stabiliser order {stab.size}, all special)")


def test_criterion_4_covering_suite(stacks):
    totals = []
    for q in (2, 3):
        surface = stacks[q]["surface"]
        action = stacks[q]["action"]
        pencil = joins = 0
        for mu in stacks[q]["field"].norm_one_subgroup():
            rep = verify_class_covering(surface, action.omega(mu))
            assert rep.ok, (q, mu, rep.pencil_violations[:3],
                            rep.join_violations[:3])
            assert rep.pencil_checked == q * q * (q ** 3 + 1)
            assert rep.join_checked == (q ** 3 + 1) * q * q * (q + 1)
            pencil += rep.pencil_checked
            joins += rep.join_checked
        totals.append(f"q={q}: {pencil} pencils, {joins} joins")
    report(4, "zero covering/unique-join violations (" + "; ".join(totals) + ")")


def test_criterion_5_pair_suite(stacks):
    rep2 = verify_subplane_norm_equivalence(stacks[2]["action"])
    assert rep2.checked == 972 and rep2.ok
    rep3 = verify_subplane_norm_equivalence(stacks[3]["action"],
                                            max_pairs=10_000, seed=7)
    assert rep3.checked == 10_000 and rep3.ok
    again = verify_subplane_norm_equivalence(stacks[3]["action"],
                                             max_pairs=10_000, seed=7)
    assert again.to_dict() == rep3.to_dict()
    report(5, "same-norm <=> contained-subplane on 972/972 pairs at q=2 "
              "and a deterministic 10000-pair sample at q=3")


@pytest.fixture(scope="module")
def bcs_maps(stacks):
    return {q: BcsMap(stacks[q]["surface"]) for q in (2, 3)}


def test_criterion_6_dictionary(stacks, bcs_maps):
    rep = bcs_maps[2].verify_dictionary(stacks[2]["action"])
    assert rep.ok, rep.rows
    counts = {r["row"]: r["count"] for r in rep.rows}
    assert counts["subgenerators_to_affine_lines_in_spread_planes"] == 162
    assert counts["curve_points_to_spread"] == 9
    assert counts["affine_points"] == 36
    assert counts["generators_to_planes_with_spread_line"] == 27
    assert counts["subplanes_to_planes_off_spread"] == 108
    report(6, "all dictionary rows verified with exact counts and identity "
              "round-trips on every object at q=2 "
              "(9+36+27+162 forward maps, 108 subplane images)")


def test_criterion_7_plane_census(stacks, bcs_maps):
    bcs = bcs_maps[2]
    action = stacks[2]["action"]
    lids = sorted(bcs.spread_line_ids) + sorted(
        bcs.forward_subgenerator(k) for k in action.omega(1))
    result = classify_line_set(bcs.quadric, lids)
    assert result.verdict == "hexagon"
    c = result.census
    assert (c.n0, c.n1, c.n_q1) == (72, 0, 63)
    assert c.n0 + c.n1 + c.n_q1 + c.n_full == c.total_planes == 135
    report(7, "plane census (N0, N1, N_{q+1}) = (72, 0, 63), total 135 planes")


def test_criterion_8_spread_and_reguli(bcs_maps):
    msgs = []
    for q in (2, 3):
        bcs = bcs_maps[q]
        rep = hermitian_spread_check(bcs.quadric, bcs.spread_line_ids)
        assert rep.ok
        assert rep.pairs_checked == (q ** 3 + 1) * q ** 3 // 2
        assert not rep.closure_violations
        msgs.append(f"q={q}: {rep.pairs_checked} reguli closed")
    report(8, "extracted spread valid with 100% reguli closure ("
              + "; ".join(msgs) + ")")


def test_criterion_9_family_census(stacks, bcs_maps):
    expected = {
        2: [9, 36, 108, 162],
        3: [28, 252, 2016, 1344],
    }
    for q in (2, 3):
        families, refinement = line_orbit_census(bcs_maps[q],
                                                 stacks[q]["action"])
        assert [fam.size for fam in families] == expected[q]
        assert all(fam.ok for fam in families)
        assert sorted(refinement.values()) == [q * (q + 1) * (q ** 3 + 1)] * (q + 1)
    report(9, "line families (9, 36, 108, 162) at q=2 and "
              "(28, 252, 2016, 1344) at q=3 match enumeration exactly")


def test_criterion_10_negative_controls(stacks, bcs_maps):
    surface = stacks[2]["surface"]
    action = stacks[2]["action"]
    # mixed-class corruption: deterministic, fails with an explicit cycle
    mixed_a = action.mixed_class_omega(seed=7)
    mixed_b = action.mixed_class_omega(seed=7)
    assert mixed_a == mixed_b
    geom = build_hexagon(surface, mixed_a)
    cert = certify_generalized_polygon(geom, 6, (63, 63))
    assert not cert.passed and cert.girth <= 10
    cycle = shortest_cycle_witness(geom)
    assert len(cycle) == cert.girth
    # regulus swap: deterministic, fails the spread check
    bcs = bcs_maps[2]
    swapped_a = regulus_swap_corruption(bcs.quadric, bcs.spread_line_ids, 13)
    swapped_b = regulus_swap_corruption(bcs.quadric, bcs.spread_line_ids, 13)
    assert swapped_a == swapped_b
    rep = hermitian_spread_check(bcs.quadric, swapped_a)
    assert not rep.ok
    assert not rep.disjoint or rep.closure_violations
    report(10, f"mixed-class control fails with a {cert.girth}-cycle witness; "
               "regulus-swapped spread fails; both deterministic under "
               "fixed seeds")


def test_full_pipeline_round_trip(stacks, bcs_maps):
    # end-to-end: each q=2 class exported through the quadric and recovered
    bcs = bcs_maps[2]
    action = stacks[2]["action"]
    f = stacks[2]["field"]
    for index, mu in enumerate(f.norm_one_subgroup()):
        lids = sorted(bcs.spread_line_ids) + sorted(
            bcs.forward_subgenerator(k) for k in action.omega(mu))
        cert = certify_split_cayley(bcs, lids, action)
        assert cert.passed
        assert cert.recovered_class_index == index


def test_hexagon_q5_cli_within_budget(capsys):
    # q = 5: 7812 vertices, the class certificate and the negative control
    start = time.perf_counter()
    code = main(["hexagon", "--q", "5"])
    elapsed = time.perf_counter() - start
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["passed"] is True
    cert = out["certificate"]
    assert (cert["num_points"], cert["num_lines"]) == (3906, 3906)
    assert (cert["girth"], cert["diameter"]) == (12, 6)
    assert out["negative_control"]["failed_as_expected"] is True
    assert elapsed < 10.0, f"hexagon --q 5 took {elapsed:.2f}s"
    report("q5", f"hexagon --q 5: 3906/3906, girth 12, diameter 6, negative "
                 f"control rejected, {elapsed:.2f}s<10s")
