"""Unitary groups acting on H(3,q^2) fixing the Hermitian curve.

The stabiliser of the curve pi ^ H(3,q^2) inside PGU_4(q) consists of the
collineations (x0,x1,x2,x3) -> ((x0,x1,x2)A, x3) with A in GU_3(q); the
determinant of A lies in the norm-one subgroup of GF(q^2)*.  The group is
generated here by unitary reflections

    r(v, lam): x -> x - (1-lam) (<x,v>/<v,v>) v

for non-isotropic v and norm-one lam (det r = lam); special-unitary
generators are the det-balanced products r(v, lam) r(w, lam^-1).  Nothing
is assumed about what these sets generate abstractly: orbit sizes are
asserted at construction (transitivity on the curve, on affine points, and
on Baer subgenerators with a curve point), which is all the downstream
theory uses.

Orbits are computed as breadth-first searches on canonical subgenerator
keys with a Schreier-style transporter word per element; the norm of a
subgenerator is the determinant of any transporter taking the base
subgenerator to it.  Transporter-independence of that value (equivalently:
pair stabilisers sit inside the special unitary part) is checked
exhaustively at q=2 against a brute-force enumeration of the full group.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dfield

from .galois import Record
from .projective import normalize_point, rref
from .hermitian import HermitianSurface


# -- small dense 3x3 matrix helpers (tuples of row tuples) ----------------

def mat_identity():
    return ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def mat_mul(f, a, b):
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = 0
            for k in range(3):
                acc = f.add(acc, f.mul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def mat_conj_transpose(f, a):
    return tuple(tuple(f.conj(a[j][i]) for j in range(3)) for i in range(3))


def mat_scale(f, c, a):
    return tuple(tuple(f.mul(c, x) for x in row) for row in a)


def mat_det(f, a):
    pos = 0
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        pos = f.add(pos, f.mul(a[0][i], f.mul(a[1][j], a[2][k])))
    neg = 0
    for (i, j, k) in ((2, 1, 0), (0, 2, 1), (1, 0, 2)):
        neg = f.add(neg, f.mul(a[0][i], f.mul(a[1][j], a[2][k])))
    return f.sub(pos, neg)


def vec_mat(f, v, a):
    return tuple(
        f.add(f.add(f.mul(v[0], a[0][j]), f.mul(v[1], a[1][j])),
              f.mul(v[2], a[2][j]))
        for j in range(3))


def is_unitary(f, a) -> bool:
    return mat_mul(f, a, mat_conj_transpose(f, a)) == mat_identity()


def reflection(f, v, lam):
    """Unitary reflection r(v, lam); v non-isotropic, N(lam) = 1, det = lam."""
    vv = f.herm(v, v)
    if vv == 0:
        raise ValueError("reflection axis must be non-isotropic")
    if f.norm(lam) != 1:
        raise ValueError("reflection multiplier must have norm one")
    c = f.div(f.sub(1, lam), vv)
    rows = []
    for i in range(3):
        row = []
        for j in range(3):
            delta = 1 if i == j else 0
            row.append(f.sub(delta, f.mul(c, f.mul(f.conj(v[i]), v[j]))))
        rows.append(tuple(row))
    m = tuple(rows)
    assert is_unitary(f, m)
    return m


@dataclass(frozen=True)
class UnitaryMatrix3:
    """A matrix of GU_3(q) with its determinant cached."""

    matrix: tuple
    det: int

    @classmethod
    def build(cls, f, matrix) -> "UnitaryMatrix3":
        if not is_unitary(f, matrix):
            raise ValueError("matrix is not unitary for the standard form")
        d = mat_det(f, matrix)
        assert f.norm(d) == 1
        return cls(matrix, d)


@dataclass
class OrbitTable:
    """Orbit of a subgenerator key with Schreier transporter data.

    For each element: the parent key and generator index used to first
    reach it (None for the seed), plus the accumulated determinant of the
    transporter word, which is the norm invariant.
    """

    seed: tuple
    gens: tuple                      # tuple of UnitaryMatrix3
    parents: dict = dfield(default_factory=dict)
    norms: dict = dfield(default_factory=dict)

    def __contains__(self, key):
        return key in self.parents

    def __len__(self):
        return len(self.parents)

    def word(self, key) -> tuple:
        """Generator-index list whose product maps the seed to `key`."""
        out = []
        while True:
            parent, gidx = self.parents[key]
            if parent is None:
                break
            out.append(gidx)
            key = parent
        return tuple(reversed(out))


# Axis candidates for the reflection generating set, in the order tried;
# entries are patterns over {0, 1, g}.  Non-isotropic ones are kept.
_AXIS_PATTERNS = (
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (1, 1, 1), (1, "g", 0), (0, 1, "g"), ("g", 0, 1),
    (1, 1, "g"), (1, "g", 1), ("g", 1, 1), (1, "g", "gg"),
)


class UnitaryAction:
    """GU_3(q) and SU_3(q) acting on the surface through point permutations."""

    def __init__(self, surface: HermitianSurface):
        self.surface = surface
        self.field = surface.field
        f, q = self.field, surface.q

        axes = []
        for pattern in _AXIS_PATTERNS:
            v = tuple({"g": f.g, "gg": f.mul(f.g, f.g)}.get(c, c) for c in pattern)
            if f.herm(v, v) != 0:
                axes.append(v)
            if len(axes) == 6:
                break
        self.axes = tuple(axes)

        lams = [lam for lam in f.norm_one_subgroup() if lam != 1]
        self.gu_gens = tuple(
            UnitaryMatrix3.build(f, reflection(f, v, lam))
            for v in self.axes for lam in lams)
        self.su_gens = tuple(
            UnitaryMatrix3.build(
                f, mat_mul(f, reflection(f, self.axes[i], lam),
                           reflection(f, self.axes[(i + 1) % len(self.axes)],
                                      f.inv(lam))))
            for i in range(len(self.axes)) for lam in lams)
        assert all(g.det == 1 for g in self.su_gens)

        self._gu_perms = tuple(self.point_perm(g.matrix) for g in self.gu_gens)
        self._su_perms = tuple(self.point_perm(g.matrix) for g in self.su_gens)

        # Generating-set certification by orbit sizes.
        o_orbit = self._point_orbit(surface.o_pids[0], self._gu_perms)
        assert len(o_orbit) == q ** 3 + 1, "reflections miss curve transitivity"
        affine_orbit = self._point_orbit(surface.affine_pids[0], self._su_perms)
        assert len(affine_orbit) == q * q * (q ** 3 + 1), \
            "special unitary generators miss affine transitivity"

        self._class_cache = None

    # -- action plumbing -------------------------------------------------

    def point_perm(self, matrix) -> tuple:
        """Permutation of surface point ids induced by a 3x3 unitary block."""
        s, f = self.surface, self.field
        perm = []
        for p in s.points:
            img = vec_mat(f, p[:3], matrix) + (p[3],)
            perm.append(s.point_id[normalize_point(f, img)])
        assert len(set(perm)) == len(perm)
        return tuple(perm)

    @staticmethod
    def apply_perm(perm, key) -> tuple:
        return tuple(sorted(perm[pid] for pid in key))

    def _point_orbit(self, pid, perms):
        seen = {pid}
        frontier = [pid]
        while frontier:
            new = []
            for x in frontier:
                for perm in perms:
                    y = perm[x]
                    if y not in seen:
                        seen.add(y)
                        new.append(y)
            frontier = new
        return seen

    # -- orbits of subgenerators ------------------------------------------

    def orbit_with_transporters(self, seed_key, gens, perms=None) -> OrbitTable:
        f = self.field
        if perms is None:
            perms = tuple(self.point_perm(g.matrix) for g in gens)
        table = OrbitTable(seed=seed_key, gens=tuple(gens))
        table.parents[seed_key] = (None, None)
        table.norms[seed_key] = 1
        frontier = [seed_key]
        while frontier:
            new = []
            for key in frontier:
                base_norm = table.norms[key]
                for gidx, perm in enumerate(perms):
                    img = self.apply_perm(perm, key)
                    if img not in table.parents:
                        table.parents[img] = (key, gidx)
                        table.norms[img] = f.mul(base_norm, gens[gidx].det)
                        new.append(img)
            frontier = new
        return table

    def classes(self) -> dict:
        """Norm value -> sorted tuple of subgenerator keys (the q+1 classes)."""
        if self._class_cache is None:
            s, f, q = self.surface, self.field, self.surface.q
            seed = s.seed_subgenerator()
            table = self.orbit_with_transporters(
                seed.pids, self.gu_gens, self._gu_perms)
            total = q * (q + 1) ** 2 * (q ** 3 + 1)
            assert len(table) == total, \
                "reflection set does not reach every subgenerator with a curve point"
            classes = {}
            for key, mu in table.norms.items():
                classes.setdefault(mu, []).append(key)
            assert sorted(classes) == sorted(f.norm_one_subgroup())
            for mu, keys in classes.items():
                keys.sort()
                assert len(keys) == q * (q + 1) * (q ** 3 + 1)
            self._orbit_table = table
            self._class_cache = {mu: tuple(keys) for mu, keys in classes.items()}
        return self._class_cache

    def orbit_table(self) -> OrbitTable:
        self.classes()
        return self._orbit_table

    def norm_of(self, key) -> int:
        """Determinant invariant of a subgenerator with a curve point."""
        table = self.orbit_table()
        try:
            return table.norms[key]
        except KeyError:
            raise ValueError("key is not a subgenerator with a curve point") from None

    def omega(self, mu) -> tuple:
        """The norm class {b : |b| = mu}, one special-unitary orbit."""
        if self.field.norm(mu) != 1:
            raise ValueError("class label must lie in the norm-one subgroup")
        return self.classes()[mu]

    def class_by_index(self, index: int) -> tuple:
        """Norm class by position in the canonical norm-one ordering."""
        group = self.field.norm_one_subgroup()
        if not 0 <= index < len(group):
            raise ValueError(f"class index must be in 0..{len(group) - 1}")
        return self.omega(group[index])

    def su_orbits(self) -> list:
        """Orbits under the special-unitary generators; must equal the classes."""
        q = self.surface.q
        remaining = set()
        for keys in self.classes().values():
            remaining.update(keys)
        orbits = []
        while remaining:
            seed = min(remaining)
            table = self.orbit_with_transporters(seed, self.su_gens, self._su_perms)
            orbit = frozenset(table.parents)
            assert orbit <= remaining
            remaining -= orbit
            orbits.append(orbit)
        assert len(orbits) == q + 1
        assert all(len(o) == q * (q + 1) * (q ** 3 + 1) for o in orbits)
        return orbits

    # -- negative controls --------------------------------------------------

    def mixed_class_omega(self, seed: int) -> tuple:
        """Per-generator random class choice: a corrupted line set.

        Keeps every affine point on exactly q+1 elements but (except for
        astronomically unlucky seeds) mixes the classes, so the resulting
        geometry is not a generalised hexagon.
        """
        rng = random.Random(seed)
        by_host = {}
        for mu, keys in sorted(self.classes().items()):
            for key in keys:
                host = self.surface.subgenerator_from_pids(key).host
                by_host.setdefault(host, {}).setdefault(mu, []).append(key)
        labels = sorted(self.classes())
        out = []
        mixed = set()
        for host in sorted(by_host):
            mu = rng.choice(labels)
            mixed.add(mu)
            out.extend(by_host[host][mu])
        if len(mixed) == 1:  # make the control deterministic AND corrupted
            host = max(by_host)
            other = next(m for m in labels if m not in mixed)
            out = [k for k in out if k not in set(by_host[host][mixed.pop()])]
            out.extend(by_host[host][other])
        return tuple(sorted(out))

    def class_swap_corruption(self, mu, seed: int) -> tuple:
        """omega(mu) with one element swapped for a same-host other-class one."""
        rng = random.Random(seed)
        keys = list(self.omega(mu))
        victim = keys[rng.randrange(len(keys))]
        host = self.surface.subgenerator_from_pids(victim).host
        other_mu = next(m for m in sorted(self.classes()) if m != mu)
        replacement = next(
            k for k in self.omega(other_mu)
            if self.surface.subgenerator_from_pids(k).host == host)
        keys.remove(victim)
        keys.append(replacement)
        return tuple(sorted(keys))

    # -- exhaustive small-q oracles -----------------------------------------

    def brute_force_group(self) -> list:
        """Every matrix of GU_3(q) by direct search (meant for q = 2)."""
        f, q = self.field, self.surface.q
        vectors = [(a, b, c) for a in f.elements for b in f.elements
                   for c in f.elements]
        units = [v for v in vectors if f.herm(v, v) == 1]
        group = []
        for r0 in units:
            partners = [v for v in units if f.herm(v, r0) == 0]
            for r1 in partners:
                for r2 in partners:
                    if f.herm(r2, r1) == 0:
                        group.append((r0, r1, r2))
        expected = q ** 3 * (q + 1) * (q * q - 1) * (q ** 3 + 1)
        assert len(group) == expected
        return group


@dataclass
class StabilizerReport(Record):
    """Exhaustive stabiliser of the base (Gram matrix, generator) pair."""

    size: int
    all_special: bool
    shape_ok: bool
    matrices: list


def pair_stabilizer_report(action: UnitaryAction) -> StabilizerReport:
    """Search the whole group for elements fixing the base pair (q=2 scale).

    An element fixes the pair when it fixes the base generator setwise and
    centralises the base Gram matrix up to a GF(q)* scalar k.  Each such
    matrix must have determinant one and the rigid parametric shape

        [[1/k - b w^q,            b,          -g w^2 / k],
         [(1/k - k - b w^q) w^q,  k + b w^q,   g w / k  ],
         [g,                      g w,         1        ]]

    with T(g w) = 0 and N(g) = k^2 + T(b^q w) - 1, where N(w) = -1.
    The same matrices must also be exactly the stabiliser of the base
    subgenerator's point set; both facts are verified.
    """
    s, f = action.surface, action.field
    w = f.canonical_omega()
    wq = f.conj(w)
    u0 = ((0, 0, f.neg(w)), (0, 0, 1), (f.neg(wq), 1, 0))
    seed = s.seed_subgenerator()
    host_points = set(s.generators[seed.host].pids)

    matrices = []
    shape_ok = True
    for a in action.brute_force_group():
        img0 = normalize_point(f, vec_mat(f, (1, w, 0), a) + (0,))
        img1 = normalize_point(f, vec_mat(f, (0, 0, 1), a) + (w,))
        if s.point_id.get(img0) not in host_points:
            continue
        if s.point_id.get(img1) not in host_points:
            continue
        conj_u = mat_mul(f, mat_mul(f, mat_conj_transpose(f, a), u0), a)
        scaled = {mat_scale(f, c, u0) for c in f.subfield if c}
        if conj_u not in scaled:
            continue
        matrices.append(a)
        # the scalar k with U0 A = k A U0
        p_mat = mat_mul(f, u0, a)
        q_mat = mat_mul(f, a, u0)
        i, j = next((i, j) for i in range(3) for j in range(3) if q_mat[i][j])
        k = f.div(p_mat[i][j], q_mat[i][j])
        if p_mat != mat_scale(f, k, q_mat) or not f.in_subfield(k) or k == 0:
            shape_ok = False
            continue
        kinv = f.inv(k)
        b, g = a[0][1], a[2][0]
        bwq = f.mul(b, wq)
        shape = (
            (f.sub(kinv, bwq), b, f.neg(f.mul(kinv, f.mul(g, f.mul(w, w))))),
            (f.mul(f.sub(f.sub(kinv, k), bwq), wq), f.add(k, bwq),
             f.mul(kinv, f.mul(g, w))),
            (g, f.mul(g, w), 1),
        )
        if a != shape:
            shape_ok = False
        if f.trace(f.mul(g, w)) != 0:
            shape_ok = False
        rhs = f.sub(f.add(f.mul(k, k), f.trace(f.mul(f.conj(b), w))), 1)
        if f.norm(g) != rhs:
            shape_ok = False

    # cross-check against the stabiliser of the subgenerator point set
    point_stab = [a for a in action.brute_force_group()
                  if action.apply_perm(action.point_perm(a), seed.pids)
                  == seed.pids]
    assert sorted(point_stab) == sorted(matrices)

    all_special = all(mat_det(f, a) == 1 for a in matrices)
    return StabilizerReport(len(matrices), all_special, shape_ok, matrices)


# -- verification suites (surface-level, group-free) -----------------------


@dataclass
class CoverReport(Record):
    """Pencil covering and unique-join checks for a candidate class."""

    pencil_checked: int = 0
    join_checked: int = 0
    pencil_violations: list = dfield(default_factory=list)
    join_violations: list = dfield(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.pencil_violations and not self.join_violations


def verify_class_covering(surface: HermitianSurface, omega_keys) -> CoverReport:
    """Check the two defining covering properties of a norm class.

    (i) every affine point lies on exactly q+1 elements whose hosts are
    distinct generators and whose union of points is a Baer subplane
    (automatically fully contained in the surface);
    (ii) for every curve point X and affine point Y of its polar plane
    there is exactly one element through both.
    """
    s, q = surface, surface.q
    report = CoverReport()
    by_point = {}
    subgens = {}
    for key in omega_keys:
        subgens[key] = s.subgenerator_from_pids(key)
        for pid in key:
            by_point.setdefault(pid, []).append(key)

    for pid in s.affine_pids:
        report.pencil_checked += 1
        keys = by_point.get(pid, ())
        if len(keys) != q + 1:
            report.pencil_violations.append(
                ("pencil_size", pid, len(keys)))
            continue
        hosts = {subgens[k].host for k in keys}
        if len(hosts) != q + 1:
            report.pencil_violations.append(("repeated_host", pid))
            continue
        union = set()
        for k in keys:
            union.update(subgens[k].points)
        if len(union) != q * q + q + 1:
            report.pencil_violations.append(("union_size", pid, len(union)))
            continue
        try:
            plane = s.baer_subplane_span(subgens[keys[0]], subgens[keys[1]])
        except ValueError:
            report.pencil_violations.append(("no_subplane", pid))
            continue
        if set(plane.points) != union or not plane.fully_contained:
            report.pencil_violations.append(("not_a_subplane", pid))

    for x_pid in s.o_pids:
        through_x = [k for k in by_point.get(x_pid, ())]
        neighbours = set()
        for gid in s.gens_by_point[x_pid]:
            neighbours.update(s.generators[gid].pids)
        neighbours.discard(x_pid)
        for y_pid in sorted(neighbours):
            report.join_checked += 1
            hits = sum(1 for k in through_x if y_pid in k)
            if hits != 1:
                report.join_violations.append((x_pid, y_pid, hits))
    return report


@dataclass
class PairReport(Record):
    """Same-norm <=> fully-contained-subplane biconditional over pairs."""

    checked: int = 0
    same_norm_contained: int = 0
    diff_norm_not_contained: int = 0
    violations: list = dfield(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def qualifying_pairs(action: UnitaryAction):
    """All pairs of curve-point subgenerators meeting in an affine point
    with distinct host generators, in deterministic order."""
    s = action.surface
    by_point = {}
    for keys in action.classes().values():
        for key in keys:
            for pid in key:
                if s.points[pid][3] != 0:
                    by_point.setdefault(pid, []).append(key)
    pairs = []
    for pid in s.affine_pids:
        keys = sorted(by_point.get(pid, ()))
        for i in range(len(keys)):
            host_i = s.subgenerator_from_pids(keys[i]).host
            for j in range(i + 1, len(keys)):
                if s.subgenerator_from_pids(keys[j]).host != host_i:
                    pairs.append((keys[i], keys[j]))
    return pairs


def verify_subplane_norm_equivalence(action: UnitaryAction, max_pairs=None,
                                     seed: int = 0) -> PairReport:
    """Exhaustive (or seeded-sample) check of the norm/subplane biconditional."""
    s = action.surface
    pairs = qualifying_pairs(action)
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = random.Random(seed)
        pairs = [pairs[i] for i in sorted(rng.sample(range(len(pairs)), max_pairs))]
    report = PairReport()
    for ka, kb in pairs:
        report.checked += 1
        same = action.norm_of(ka) == action.norm_of(kb)
        plane = s.baer_subplane_span(
            s.subgenerator_from_pids(ka), s.subgenerator_from_pids(kb))
        if same and plane.fully_contained:
            report.same_norm_contained += 1
        elif not same and not plane.fully_contained:
            report.diff_norm_not_contained += 1
        else:
            report.violations.append((list(ka), list(kb), same,
                                      plane.fully_contained))
    return report
