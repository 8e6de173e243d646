"""Unitary action: reflections, orbits, norms, stabilisers, class suites."""

import pytest

from splitcayley import projective as pr
from splitcayley.unitary import (
    UnitaryAction,
    mat_det,
    mat_identity,
    mat_mul,
    pair_stabilizer_report,
    qualifying_pairs,
    reflection,
    verify_class_covering,
    verify_subplane_norm_equivalence,
)


def test_reflection_identity_and_determinant(field3):
    f = field3
    v = (1, 0, 0)
    assert reflection(f, v, 1) == mat_identity()
    for lam in f.norm_one_subgroup():
        m = reflection(f, v, lam)
        assert mat_det(f, m) == lam
    for lam in f.norm_one_subgroup():
        m = reflection(f, (1, 1, 0), lam)  # another non-isotropic axis
        assert mat_det(f, m) == lam


def test_reflection_rejects_bad_input(field2):
    f = field2
    with pytest.raises(ValueError):
        reflection(f, (1, 1, 0), 1)  # isotropic in characteristic 2
    with pytest.raises(ValueError):
        reflection(f, (1, 0, 0), f.g if f.norm(f.g) != 1 else 0)


def test_reflection_rejects_non_norm_one(field3):
    f = field3
    bad = next(x for x in f.elements if x and f.norm(x) != 1)
    with pytest.raises(ValueError):
        reflection(f, (1, 0, 0), bad)


def test_full_orbit_and_classes_q2(action2):
    classes = action2.classes()
    assert len(classes) == 3
    assert all(len(keys) == 54 for keys in classes.values())
    assert len(action2.orbit_table()) == 162
    # classes partition the enumerated subgenerators exactly
    enumerated = {b.pids for b in
                  action2.surface.enumerate_baer_subgenerators(True)}
    union = set()
    for keys in classes.values():
        union.update(keys)
    assert union == enumerated


def test_full_orbit_and_classes_q3(action3):
    classes = action3.classes()
    assert len(classes) == 4
    assert all(len(keys) == 336 for keys in classes.values())
    assert len(action3.orbit_table()) == 1344


def test_seed_has_norm_one_and_empty_word(action2):
    seed = action2.surface.seed_subgenerator()
    table = action2.orbit_table()
    assert table.word(seed.pids) == ()
    assert action2.norm_of(seed.pids) == 1


def test_transporter_words_reproduce_elements(action2):
    table = action2.orbit_table()
    perms = [action2.point_perm(g.matrix) for g in table.gens]
    for key in table.parents:
        current = table.seed
        for gidx in table.word(key):
            current = action2.apply_perm(perms[gidx], current)
        assert current == key


def test_norms_are_transporter_independent(action2):
    # a second breadth-first search with the generator list reversed gives
    # different words but must give identical norms
    seed = action2.surface.seed_subgenerator()
    gens = tuple(reversed(action2.gu_gens))
    other = action2.orbit_with_transporters(seed.pids, gens)
    table = action2.orbit_table()
    assert set(other.parents) == set(table.parents)
    for key in table.parents:
        assert other.norms[key] == table.norms[key]


def test_su_orbits_match_norm_classes(action2):
    orbits = {frozenset(o) for o in action2.su_orbits()}
    classes = {frozenset(keys) for keys in action2.classes().values()}
    assert orbits == classes


def test_omega_fibres(action2):
    f = action2.field
    mus = f.norm_one_subgroup()
    seen = set()
    for mu in mus:
        om = action2.omega(mu)
        assert len(om) == 54
        assert not seen & set(om)
        seen.update(om)
    assert len(seen) == 162
    with pytest.raises(ValueError):
        action2.omega(0)


def test_norm_value_distribution(action2):
    table = action2.orbit_table()
    tally = {}
    for mu in table.norms.values():
        tally[mu] = tally.get(mu, 0) + 1
    assert sorted(tally.values()) == [54, 54, 54]


def test_one_element_per_class_per_point_per_generator(action2):
    # inside a generator, each class partitions the affine points
    s = action2.surface
    for mu, keys in action2.classes().items():
        for gen in s.generators:
            hosted = [k for k in keys
                      if s.subgenerator_from_pids(k).host == gen.gid]
            assert len(hosted) == s.q
            covered = []
            for k in hosted:
                covered.extend(p for p in k if p != gen.o_pid)
            assert sorted(covered) == sorted(
                p for p in gen.pids if p != gen.o_pid)


def test_brute_force_group_size(action2):
    group = action2.brute_force_group()
    assert len(group) == 648  # |GU_3(2)|


def test_pair_stabilizer_is_special_with_rigid_shape(action2):
    report = pair_stabilizer_report(action2)
    assert report.size > 0
    assert report.all_special
    assert report.shape_ok
    d = report.to_dict()
    assert d["size"] == report.size


def test_norm_is_multiplicative_under_group(action2):
    # |b^M| = |b| * det(M) for sampled group elements and every b
    f = action2.field
    table = action2.orbit_table()
    samples = [action2.gu_gens[0], action2.gu_gens[5]]
    samples.append(type(samples[0])(
        mat_mul(f, samples[0].matrix, samples[1].matrix),
        f.mul(samples[0].det, samples[1].det)))
    for gen in samples:
        perm = action2.point_perm(gen.matrix)
        for key, mu in table.norms.items():
            img = action2.apply_perm(perm, key)
            assert table.norms[img] == f.mul(mu, gen.det)


@pytest.mark.parametrize("q", [2, 3])
def test_class_covering_no_violations(q, action2, action3):
    action = action2 if q == 2 else action3
    for mu in action.field.norm_one_subgroup():
        report = verify_class_covering(action.surface, action.omega(mu))
        assert report.ok
        assert report.pencil_checked == q * q * (q ** 3 + 1)
        assert report.join_checked == (q ** 3 + 1) * q * q * (q + 1)


def test_pencil_subplane_lies_in_polar_plane(action2):
    # the union of the q+1 class elements through an affine point sits
    # inside that point's polar plane (and is a subplane by the suite)
    s = action2.surface
    omega = action2.omega(1)
    by_point = {}
    for key in omega:
        for pid in key:
            if s.points[pid][3] != 0:
                by_point.setdefault(pid, []).append(key)
    for pid in s.affine_pids:
        plane = s.polar(s.points[pid])
        union = set()
        for key in by_point[pid]:
            union.update(key)
        for other in union:
            assert pr.point_in_subspace(s.field, s.points[other], plane)


def test_class_covering_detects_corruption(action2):
    mu = action2.field.norm_one_subgroup()[0]
    corrupted = action2.class_swap_corruption(mu, seed=11)
    assert corrupted != action2.omega(mu)
    report = verify_class_covering(action2.surface, corrupted)
    assert not report.ok
    assert report.pencil_violations
    # deterministic under the seed
    assert corrupted == action2.class_swap_corruption(mu, seed=11)
    # the report serialises with flat violation records
    import json
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["ok"] is False
    for violation in payload["pencil_violations"]:
        assert isinstance(violation[0], str)


def test_subplane_norm_equivalence_exhaustive_q2(action2):
    report = verify_subplane_norm_equivalence(action2)
    assert report.checked == 972  # 36 affine points x 27 qualifying pairs
    assert report.ok
    assert report.same_norm_contained + report.diff_norm_not_contained == 972
    assert report.same_norm_contained > 0
    assert report.diff_norm_not_contained > 0


def test_qualifying_pair_count_q2(action2):
    assert len(qualifying_pairs(action2)) == 972


def test_subplane_norm_equivalence_sample_is_deterministic(action3):
    r1 = verify_subplane_norm_equivalence(action3, max_pairs=500, seed=3)
    r2 = verify_subplane_norm_equivalence(action3, max_pairs=500, seed=3)
    assert r1.checked == r2.checked == 500
    assert r1.ok and r2.ok
    assert r1.to_dict() == r2.to_dict()


def test_mixed_class_omega_deterministic_and_mixed(action2):
    m1 = action2.mixed_class_omega(seed=7)
    m2 = action2.mixed_class_omega(seed=7)
    assert m1 == m2
    assert len(m1) == 54
    norms = {action2.norm_of(k) for k in m1}
    assert len(norms) > 1
