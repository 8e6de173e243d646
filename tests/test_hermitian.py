"""Hermitian surface: counts, polarity, Baer machinery, dual matrices."""

import itertools

import pytest

from splitcayley import projective as pr
from splitcayley.hermitian import (
    LINE_GENERATOR,
    LINE_HYPERBOLIC,
    LINE_TANGENT,
    HermitianSurface,
)


def test_counts_q2(surface2):
    s, q = surface2, 2
    assert len(s.points) == (q * q + 1) * (q ** 3 + 1) == 45
    assert len(s.generators) == (q ** 3 + 1) * (q + 1) == 27
    assert len(s.o_pids) == q ** 3 + 1 == 9
    assert len(s.affine_pids) == q * q * (q ** 3 + 1) == 36


def test_counts_q3(surface3):
    s, q = surface3, 3
    assert len(s.points) == 280
    assert len(s.generators) == 112
    assert len(s.o_pids) == 28


def test_curve_points_pairwise_non_collinear(surface2):
    s = surface2
    for a, b in itertools.combinations(s.o_pids, 2):
        assert s.field.herm(s.points[a], s.points[b]) != 0


def test_every_point_on_q_plus_1_generators(surface2, surface3):
    for s in (surface2, surface3):
        for pid in range(len(s.points)):
            assert len(s.gens_by_point[pid]) == s.q + 1


def test_polar_basics(surface2):
    s, f = surface2, surface2.field
    w = f.canonical_omega()
    x = pr.normalize_point(f, (1, w, 0, 0))
    plane = s.polar(x)
    assert len(plane) == 3
    assert pr.point_in_subspace(f, x, plane)  # isotropic <=> on own polar
    # polarity is involutive: the polar planes of polar(x)'s points all meet in x
    duals = [tuple(f.conj(c) for c in p) for p in pr.subspace_points(f, plane)]
    assert pr.nullspace(f, pr.rref(f, duals)) == pr.rref(f, [x])


def test_polar_of_surface_point_cuts_generators(surface2):
    # polar(x) ^ surface = union of the q+1 generators through x, all x
    s = surface2
    for pid, x in enumerate(s.points):
        plane = s.polar(x)
        on_plane = {p for p in s.point_id
                    if pr.point_in_subspace(s.field, p, plane)}
        union = set()
        for gid in s.gens_by_point[pid]:
            union.update(s.points[i] for i in s.generators[gid].pids)
        assert on_plane == union


def test_line_type_census_pg34(surface2):
    s, f = surface2, surface2.field
    counts = {LINE_GENERATOR: 0, LINE_TANGENT: 0, LINE_HYPERBOLIC: 0}
    for basis in pr.enumerate_subspaces(f, 3, 1):
        counts[s.line_type(basis)] += 1
    assert sum(counts.values()) == 357
    assert counts[LINE_GENERATOR] == 27
    # through each surface point: q+1 generators and q^2-q tangents (the
    # other lines of its polar plane); every line off the polar plane is
    # hyperbolic.  Each tangent touches exactly one surface point.
    q = 2
    assert counts[LINE_TANGENT] == 45 * (q * q - q) == 90
    assert counts[LINE_HYPERBOLIC] == 357 - 27 - 90


def test_generator_line_example(surface2):
    s, f = surface2, surface2.field
    w = f.canonical_omega()
    basis = pr.rref(f, [(1, w, 0, 0), (0, 0, 1, w)])
    assert s.line_type(basis) == LINE_GENERATOR
    assert basis in s.generator_id


def test_curve_joins_are_hyperbolic(surface2):
    s, f = surface2, surface2.field
    a, b = s.o_pids[0], s.o_pids[1]
    basis = pr.rref(f, [s.points[a], s.points[b]])
    assert s.line_type(basis) == LINE_HYPERBOLIC


def test_baer_subline_small_case(surface2):
    # q = 2: the subline through three collinear points is exactly that set
    s, f = surface2, surface2.field
    gen = s.generators[0]
    p, a, b = (s.points[i] for i in gen.pids[:3])
    host = pr.rref(f, [p, a])
    if not pr.point_in_subspace(f, b, host):
        b = next(s.points[i] for i in gen.pids[3:]
                 if pr.point_in_subspace(f, s.points[i], host))
    pts = s.baer_subline_through(p, a, b)
    assert set(pts) == {p, a, b}


def test_baer_subline_contains_inputs_and_reorder_invariance(surface3):
    s = surface3
    gen = s.generators[0]
    pts = [s.points[i] for i in gen.pids]
    for trip in itertools.islice(itertools.combinations(pts, 3), 0, 120, 7):
        base = s.baer_subline_through(*trip)
        assert set(trip) <= set(base)
        for perm in itertools.permutations(trip):
            assert s.baer_subline_through(*perm) == base


def test_baer_subline_rejects_bad_input(surface2):
    s = surface2
    p, a = s.points[0], s.points[1]
    with pytest.raises(ValueError):
        s.baer_subline_through(p, a, p)
    non_collinear = next(x for x in s.points
                         if not pr.point_in_subspace(
                             s.field, x, pr.rref(s.field, [p, a])))
    with pytest.raises(ValueError):
        s.baer_subline_through(p, a, non_collinear)


@pytest.mark.parametrize("q", [2, 3])
def test_subgenerator_counts(q, surface2, surface3):
    s = surface2 if q == 2 else surface3
    with_o = s.enumerate_baer_subgenerators(True)
    assert len(with_o) == q * (q + 1) ** 2 * (q ** 3 + 1)
    assert all(b.o_pid is not None for b in with_o)
    without = s.enumerate_baer_subgenerators(False)
    assert len(without) == q * q * (q * q - 1) * (q ** 3 + 1)
    assert all(b.o_pid is None for b in without)


def test_q2_subgenerator_counts_frozen(surface2):
    assert len(surface2.enumerate_baer_subgenerators(True)) == 162
    assert len(surface2.enumerate_baer_subgenerators(False)) == 108


def test_subplane_span_q2(surface2):
    s = surface2
    subs = s.enumerate_baer_subgenerators(True)
    by_affine = {}
    for b in subs:
        for pid in b.pids:
            if pid != b.o_pid:
                by_affine.setdefault(pid, []).append(b)
    pid, through = next(iter(sorted(by_affine.items())))
    b1 = through[0]
    b2 = next(b for b in through[1:] if b.host != b1.host)
    plane = s.baer_subplane_span(b1, b2)
    assert len(plane.points) == 7  # q^2+q+1
    assert set(b1.points) <= set(plane.points)
    assert set(b2.points) <= set(plane.points)


def test_subplane_span_errors(surface2):
    s = surface2
    subs = s.enumerate_baer_subgenerators(True)
    same_host = [b for b in subs if b.host == subs[0].host]
    with pytest.raises(ValueError):
        s.baer_subplane_span(same_host[0], same_host[1])
    other = next(b for b in subs
                 if not set(b.pids) & set(subs[0].pids))
    with pytest.raises(ValueError):
        s.baer_subplane_span(subs[0], other)


def test_seed_subgenerator(surface2, surface3):
    for s in (surface2, surface3):
        b = s.seed_subgenerator()
        assert len(b.points) == s.q + 1
        assert b.o_pid is not None
        w = s.field.canonical_omega()
        assert s.points[b.o_pid] == pr.normalize_point(s.field, (1, w, 0, 0))
        # regenerating from any three of its points gives back the same set
        pts = s.baer_subline_through(*b.points[:3])
        assert pts == b.points


def test_dual_matrix_of_seed_matches_base_matrix(surface2, surface3):
    for s in (surface2, surface3):
        dm = s.dual_matrix_of(s.seed_subgenerator())
        assert dm.matrix == s.base_dual_matrix()
        w = s.field.canonical_omega()
        assert dm.vertex == pr.normalize_point(s.field, (1, w, 0))


def test_dual_matrix_rank_and_injectivity_q2(surface2):
    s, f = surface2, surface2.field
    subs = s.enumerate_baer_subgenerators(True)
    seen = {}
    for b in subs:
        dm = s.dual_matrix_of(b)
        assert len(pr.rref(f, dm.matrix)) == 2
        assert dm.matrix == s.canonical_dual_matrix(dm.matrix)
        # injective (up to the canonical scale) per host generator
        assert seen.setdefault((b.host, dm.matrix), b.pids) == b.pids
    assert len(seen) == 162


def test_dual_matrix_requires_curve_point(surface2):
    s = surface2
    b = s.enumerate_baer_subgenerators(False)[0]
    with pytest.raises(ValueError):
        s.dual_matrix_of(b)
