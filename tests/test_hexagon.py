"""Hexagon geometry: structure, certificates, witnesses, negative controls."""

import pytest

from splitcayley.hexagon import (
    IncidenceGeometry,
    _ball_analytics,
    _bfs,
    _shortest_cycle_from,
    build_hexagon,
    certify_generalized_polygon,
    ordinary_subpolygon_witness,
    shortest_cycle_witness,
)


@pytest.fixture(scope="module")
def hexagon2(surface2, action2):
    return build_hexagon(surface2, action2.omega(1))


@pytest.fixture(scope="module")
def hexagon3(surface3, action3):
    return build_hexagon(surface3, action3.omega(1))


@pytest.fixture(scope="module")
def mixed2(surface2, action2):
    return build_hexagon(surface2, action2.mixed_class_omega(seed=7))


def k33():
    points = tuple(("p", i) for i in range(3))
    lines = tuple(("l", i) for i in range(3))
    inc = tuple((p, l) for p in range(3) for l in range(3))
    return IncidenceGeometry(points, lines, inc)


def chorded_8_cycle():
    # the 8-cycle p0 l1 p1 l2 p2 l3 p3 l0 with the chord p0-l2: girth 4
    points = tuple(("p", i) for i in range(4))
    lines = tuple(("l", i) for i in range(4))
    inc = [(i, i) for i in range(4)] + [(i, (i + 1) % 4) for i in range(4)]
    inc += [(0, 2)]
    return IncidenceGeometry(points, lines, tuple(inc))


def two_edges():
    points = (("p", 0), ("p", 1))
    lines = (("l", 0), ("l", 1))
    return IncidenceGeometry(points, lines, ((0, 0), (1, 1)))


def k33_and_an_edge():
    # disconnected, with a 4-cycle in the first component
    geom = k33()
    return IncidenceGeometry(geom.points + (("p", 3),),
                             geom.lines + (("l", 3),),
                             geom.incidences + ((3, 3),))


def heawood():
    # PG(2,2): lines {i, i+1, i+3} mod 7; a generalised triangle
    points = tuple(("p", i) for i in range(7))
    lines = tuple(("l", i) for i in range(7))
    inc = tuple((j % 7, i) for i in range(7) for j in (i, i + 1, i + 3))
    return IncidenceGeometry(points, lines, inc)


def with_pendant_line(geom):
    # one more line on point 0 alone: degrees 1 and q+2 join q+1
    return IncidenceGeometry(
        geom.points, geom.lines + (("pendant", 0),),
        geom.incidences + ((0, len(geom.lines)),))


def bfs_oracle(adj):
    """(girth, diameter, connected, girth source, component sample).

    The all-source reference: one breadth-first search per vertex.  The
    girth is the least dist[u]+dist[w]+1 over every source and every
    non-tree edge u-w; the first source reaching it lies on a shortest
    cycle.
    """
    n = len(adj)
    best_girth = None
    girth_source = None
    diameter = 0
    unreached_witness = None
    for s in range(n):
        dist, _, order, closing = _bfs(adj, s)
        if closing is not None and (best_girth is None
                                    or closing[0] < best_girth):
            best_girth, girth_source = closing[0], s
        if s == 0 and len(order) < n:
            unreached = sorted(set(range(n)) - set(order))
            unreached_witness = (sorted(order)[:5], unreached[:5])
        diameter = max(diameter, max(dist))
    connected = unreached_witness is None
    return best_girth, (diameter if connected else None), connected, \
        girth_source, unreached_witness


def test_hexagon_counts(hexagon2, hexagon3):
    assert len(hexagon2.points) == len(hexagon2.lines) == 63
    assert len(hexagon3.points) == len(hexagon3.lines) == 364


def test_line_structure(surface2, hexagon2):
    q = 2
    for li, (kind, key) in enumerate(hexagon2.lines):
        pis = hexagon2.line_points[li]
        assert len(pis) == q + 1
        kinds = [hexagon2.points[pi][0] for pi in pis]
        if kind == "curve_point":
            # the q+1 generators through that curve point
            assert kinds.count("generator") == q + 1
        else:
            # host generator plus the q affine points of the subgenerator
            assert kinds.count("generator") == 1
            assert kinds.count("affine_point") == q


def test_affine_points_never_on_curve_lines(hexagon2):
    for li, (kind, _) in enumerate(hexagon2.lines):
        if kind == "curve_point":
            for pi in hexagon2.line_points[li]:
                assert hexagon2.points[pi][0] == "generator"


def test_partial_linear_space(hexagon2, hexagon3):
    assert hexagon2.is_partial_linear()
    assert hexagon3.is_partial_linear()


def test_curve_lines_form_a_spread(hexagon2):
    # type (i) lines are pairwise non-concurrent: every point lies on at
    # most one of them, and generator points on exactly one
    counts = [0] * len(hexagon2.points)
    for li, (kind, _) in enumerate(hexagon2.lines):
        if kind == "curve_point":
            for pi in hexagon2.line_points[li]:
                counts[pi] += 1
    for pi, (kind, _) in enumerate(hexagon2.points):
        assert counts[pi] == (1 if kind == "generator" else 0)


@pytest.mark.parametrize("q", [2, 3])
def test_certificate_passes_for_all_classes(q, surface2, surface3,
                                            action2, action3):
    surface = surface2 if q == 2 else surface3
    action = action2 if q == 2 else action3
    expected = (q ** 6 - 1) // (q - 1)
    for mu in action.field.norm_one_subgroup():
        geom = build_hexagon(surface, action.omega(mu))
        cert = certify_generalized_polygon(geom, 6, (expected, expected))
        assert cert.passed, cert.failures
        assert cert.girth == 12 and cert.diameter == 6
        assert cert.order == (q, q)


def test_k33_fails_with_girth_4():
    cert = certify_generalized_polygon(k33(), 6)
    assert not cert.passed
    assert cert.girth == 4
    assert cert.biregular and cert.connected


def test_k33_witnesses():
    geom = k33()
    cycle = shortest_cycle_witness(geom)
    assert len(cycle) == 4
    # alternating point/line labels, consecutive ones incident
    kinds = [c[0] for c in cycle]
    assert kinds in (["point", "line"] * 2, ["line", "point"] * 2)


def test_mixed_class_control_fails_short(mixed2):
    cert = certify_generalized_polygon(mixed2, 6, (63, 63))
    assert not cert.passed
    assert cert.girth is not None and cert.girth <= 10
    assert cert.num_points == 63 and cert.num_lines == 63
    assert cert.biregular  # the corruption preserves degrees, not girth


def test_mixed_class_witness_cycle(mixed2):
    cert = certify_generalized_polygon(mixed2, 6)
    cycle = shortest_cycle_witness(mixed2)
    assert len(cycle) == cert.girth
    # the witness is a genuine closed path in the incidence graph
    labels = {("point",) + p: i for i, p in enumerate(mixed2.points)}
    labels.update({("line",) + l: len(mixed2.points) + i
                   for i, l in enumerate(mixed2.lines)})
    adj = mixed2.adjacency()
    ids = [labels[c] for c in cycle]
    for a, b in zip(ids, ids[1:] + ids[:1]):
        assert b in adj[a]


def test_subpolygon_witness_none_for_valid(hexagon2):
    for k in (3, 4, 5):
        assert ordinary_subpolygon_witness(hexagon2, k) is None


def test_subpolygon_witness_found_for_mixed(mixed2):
    cert = certify_generalized_polygon(mixed2, 6)
    k = cert.girth // 2
    cycle = ordinary_subpolygon_witness(mixed2, k)
    assert cycle is not None and len(cycle) == 2 * k
    with pytest.raises(ValueError):
        ordinary_subpolygon_witness(mixed2, 6)


def test_exact_length_dfs_branch():
    # girth 4 but an 8-cycle exists, so the k=4 witness must come from
    # the depth-bounded search
    geom = chorded_8_cycle()
    cert = certify_generalized_polygon(geom, 6)
    assert cert.girth == 4
    cycle = ordinary_subpolygon_witness(geom, 4)
    assert cycle is not None and len(cycle) == 8
    assert len(set(cycle)) == 8


def test_disconnected_reported_with_witness():
    geom = two_edges()
    cert = certify_generalized_polygon(geom, 6)
    assert not cert.passed
    assert not cert.connected
    assert cert.witness_components
    assert cert.diameter is None


def test_certificate_dict_shape(hexagon2):
    cert = certify_generalized_polygon(hexagon2, 6, (63, 63))
    d = cert.to_dict()
    assert d["passed"] is True
    assert d["order"] == [2, 2]
    assert d["girth"] == 12 and d["diameter"] == 6


def test_repeated_incidence_rejected():
    with pytest.raises(ValueError, match="repeated incidence"):
        IncidenceGeometry((("p", 0),), (("l", 0),), ((0, 0), (0, 0)))


def assert_matches_oracle(geom):
    adj = geom.adjacency()
    got = _ball_analytics(adj)
    assert got == bfs_oracle(adj)
    girth, _, _, source, _ = got
    if girth is not None:
        assert len(_shortest_cycle_from(adj, source)) == girth
    return got


@pytest.mark.parametrize("q", [2, 3])
def test_ball_pass_matches_bfs_on_classes_and_controls(q, surface2, surface3,
                                                       action2, action3):
    surface = surface2 if q == 2 else surface3
    action = action2 if q == 2 else action3
    for mu in action.field.norm_one_subgroup():
        got = assert_matches_oracle(build_hexagon(surface, action.omega(mu)))
        assert got[:3] == (12, 6, True)
    for seed in range(10):
        geom = build_hexagon(surface, action.mixed_class_omega(seed))
        girth, diameter, connected, _, _ = assert_matches_oracle(geom)
        assert connected and girth < 12


@pytest.mark.parametrize("make, expected", [
    (k33, (4, 2, True)),
    (chorded_8_cycle, (4, 4, True)),
    (two_edges, (None, None, False)),
    (k33_and_an_edge, (4, None, False)),
    (heawood, (6, 3, True)),
], ids=["k33", "chorded_8_cycle", "disconnected", "disconnected_cycle",
        "heawood"])
def test_ball_pass_matches_bfs_on_small_graphs(make, expected):
    got = assert_matches_oracle(make())
    assert got[:3] == expected


def test_ball_pass_matches_bfs_off_biregular(hexagon2):
    geom = with_pendant_line(hexagon2)
    got = assert_matches_oracle(geom)
    assert got[:3] == (12, 7, True)
    cert = certify_generalized_polygon(geom, 6)
    assert not cert.biregular and cert.girth == 12 and cert.diameter == 7
