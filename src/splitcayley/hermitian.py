"""The Hermitian surface H(3,q^2), its Baer substructures and dual matrices.

The surface is the set of isotropic points of the standard Hermitian form

    <X, Y> = X0*Y0^q + X1*Y1^q + X2*Y2^q + X3*Y3^q

on PG(3,q^2).  The hyperplane pi: X3 = 0 is fixed throughout; it meets the
surface in a Hermitian curve of q^3+1 pairwise non-collinear points, and
every generator (totally isotropic line) meets that curve in exactly one
point.  Surface points, generators and the curve are enumerated eagerly and
cached with integer ids; every derived object (Baer subline, subgenerator,
subplane, rank-2 Hermitian dual matrix) is produced in a canonical hashable
form so that set-heavy downstream algorithms can treat them as keys.

A Baer subline is the GF(q)-projective span of two suitably scaled
representative vectors; three distinct collinear points determine it
uniquely.  A Baer subgenerator is a Baer subline whose host line is a
generator.  For a subgenerator b with its point L on the curve, the polar
planes of the points of b cut the q+1 lines of a dual Baer subline of pi
with vertex L; those lines support a degenerate Hermitian variety whose
Gram matrix U is Hermitian of rank 2 with left nullspace L.  U is pinned
down here by solving, over GF(q), for all Hermitian matrices vanishing on
the union of the q+1 lines, and canonicalised to the lexicographically
smallest of its GF(q)* multiples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .projective import (
    add_vec,
    normalize_point,
    nullspace,
    point_in_subspace,
    rref,
    scale_vec,
    solve_combination,
    subspace_points,
    enumerate_points,
)

LINE_GENERATOR = "generator"
LINE_TANGENT = "tangent"
LINE_HYPERBOLIC = "hyperbolic"


@dataclass(frozen=True)
class Generator:
    """A totally isotropic line: echelon basis, point ids, curve point id."""

    gid: int
    basis: tuple
    pids: tuple
    o_pid: int


@dataclass(frozen=True)
class BaerSubgenerator:
    """A Baer subline on a generator, as canonical point data.

    `points` is the sorted tuple of q+1 canonical coordinate tuples,
    `pids` the matching sorted surface point ids (the orbit key used
    everywhere downstream), `o_pid` the id of the curve point if any.
    """

    points: tuple
    pids: tuple
    host: int
    o_pid: int | None

    @property
    def has_curve_point(self) -> bool:
        return self.o_pid is not None


@dataclass(frozen=True)
class BaerSubplane:
    """Point set of a Baer subplane plus its containment-in-surface flag."""

    points: tuple
    fully_contained: bool


@dataclass(frozen=True)
class DualBaerMatrix:
    """Rank-2 Hermitian Gram matrix of a dual Baer subline, with its vertex."""

    matrix: tuple
    vertex: tuple


class HermitianSurface:
    """H(3,q^2) with cached points, generators and the curve pi ^ H."""

    def __init__(self, field):
        self.field = field
        self.q = field.q
        q = self.q

        self.points = tuple(p for p in enumerate_points(field, 3)
                            if field.herm(p, p) == 0)
        self.point_id = {p: i for i, p in enumerate(self.points)}
        assert len(self.points) == (q * q + 1) * (q ** 3 + 1)

        self.o_pids = tuple(i for i, p in enumerate(self.points) if p[3] == 0)
        self.affine_pids = tuple(i for i, p in enumerate(self.points) if p[3] != 0)
        assert len(self.o_pids) == q ** 3 + 1

        self._build_generators()

    # -- construction ---------------------------------------------------

    def _build_generators(self):
        f, q = self.field, self.q
        generators = []
        gens_by_point = [[] for _ in self.points]
        for o_pid in self.o_pids:
            x = self.points[o_pid]
            buckets = {}
            for pid, p in enumerate(self.points):
                if pid != o_pid and f.herm(p, x) == 0:
                    buckets.setdefault(rref(f, [x, p]), []).append(pid)
            assert len(buckets) == q + 1
            for basis in sorted(buckets):
                pids = buckets[basis]
                assert len(pids) == q * q  # q^2 affine points per generator
                gid = len(generators)
                all_pids = tuple(sorted(pids + [o_pid]))
                generators.append(Generator(gid, basis, all_pids, o_pid))
                for pid in all_pids:
                    gens_by_point[pid].append(gid)
        self.generators = tuple(generators)
        self.generator_id = {g.basis: g.gid for g in generators}
        self.gens_by_point = tuple(tuple(v) for v in gens_by_point)
        assert len(generators) == (q ** 3 + 1) * (q + 1)
        assert all(len(v) == q + 1 for v in self.gens_by_point)

    # -- polarity and elementary classification ---------------------------

    def polar(self, x):
        """The polar plane {Y : <x, Y> = 0} of a point, as an echelon basis."""
        f = self.field
        dual = tuple(f.conj(c) for c in x)
        return nullspace(f, [dual])

    def line_type(self, basis) -> str:
        """Classify a line of PG(3,q^2) by its surface intersection size."""
        q = self.q
        hits = sum(1 for p in subspace_points(self.field, basis)
                   if p in self.point_id)
        if hits == q * q + 1:
            return LINE_GENERATOR
        if hits == 1:
            return LINE_TANGENT
        if hits == q + 1:
            return LINE_HYPERBOLIC
        raise ValueError(f"impossible section size {hits}")

    def host_generator(self, pid_a: int, pid_b: int) -> int | None:
        common = set(self.gens_by_point[pid_a]) & set(self.gens_by_point[pid_b])
        if not common:
            return None
        assert len(common) == 1
        return common.pop()

    # -- Baer sublines and subgenerators ----------------------------------

    def baer_subline_through(self, p, a, b) -> tuple:
        """The unique Baer subline through three distinct collinear points.

        With representatives chosen so that b = p' + a', the subline is the
        GF(q)-projective span of {p', a'}: the point <a'> together with
        <p' + t a'> for t in GF(q).
        """
        f = self.field
        if len({p, a, b}) != 3:
            raise ValueError("Baer subline needs three distinct points")
        coeffs = solve_combination(f, [p, a], b)
        if coeffs is None:
            raise ValueError("points are not collinear")
        s, t = coeffs
        assert s != 0 and t != 0
        p2 = scale_vec(f, s, p)
        a2 = scale_vec(f, t, a)
        pts = {normalize_point(f, a2)}
        for c in f.subfield:
            pts.add(normalize_point(f, add_vec(f, p2, scale_vec(f, c, a2))))
        assert len(pts) == self.q + 1
        return tuple(sorted(pts))

    def subgenerator(self, points) -> BaerSubgenerator:
        """Wrap a Baer subline lying on a generator as a BaerSubgenerator."""
        points = tuple(sorted(points))
        try:
            pids = tuple(sorted(self.point_id[p] for p in points))
        except KeyError:
            raise ValueError("subline has points off the surface") from None
        host = self.host_generator(pids[0], pids[1])
        if host is None:
            raise ValueError("host line is not a generator")
        o_pid = next((pid for pid in pids if self.points[pid][3] == 0), None)
        return BaerSubgenerator(points, pids, host, o_pid)

    def subgenerator_from_pids(self, pids) -> BaerSubgenerator:
        return self.subgenerator([self.points[i] for i in pids])

    def enumerate_baer_subgenerators(self, with_o_point: bool):
        """All Baer subgenerators, split by whether they meet the curve.

        Counts: q(q+1)^2(q^3+1) with a curve point, q^2(q^2-1)(q^3+1)
        without.
        """
        q = self.q
        out = []
        for gen in self.generators:
            affine = [pid for pid in gen.pids if pid != gen.o_pid]
            seen = {}
            if with_o_point:
                base = self.points[gen.o_pid]
                for a, b in itertools.combinations(affine, 2):
                    pts = self.baer_subline_through(
                        base, self.points[a], self.points[b])
                    key = tuple(sorted(self.point_id[p] for p in pts))
                    if key not in seen:
                        seen[key] = BaerSubgenerator(pts, key, gen.gid, gen.o_pid)
                assert len(seen) == q * (q + 1)
            else:
                for a, b, c in itertools.combinations(affine, 3):
                    pts = self.baer_subline_through(
                        self.points[a], self.points[b], self.points[c])
                    key = tuple(sorted(self.point_id[p] for p in pts))
                    if gen.o_pid in key or key in seen:
                        continue
                    seen[key] = BaerSubgenerator(pts, key, gen.gid, None)
                assert len(seen) == q * q * (q - 1)
            out.extend(seen[k] for k in sorted(seen))
        expected = (q * (q + 1) ** 2 * (q ** 3 + 1) if with_o_point
                    else q * q * (q * q - 1) * (q ** 3 + 1))
        assert len(out) == expected
        return out

    # -- Baer subplanes ----------------------------------------------------

    def baer_subplane_span(self, b1, b2) -> BaerSubplane:
        """The unique Baer subplane containing two sublines sharing one point.

        Found by quadrangle closure: representatives v1, v2, v3 of three of
        the points are rescaled so that the fourth is v1+v2+v3, and the
        subplane is the GF(q)-projective span of {v1, v2, v3}.  Raises on
        equal host lines or disjoint inputs.
        """
        f, q = self.field, self.q
        b1 = tuple(getattr(b1, "points", b1))
        b2 = tuple(getattr(b2, "points", b2))
        host1 = rref(f, [b1[0], b1[1]])
        host2 = rref(f, [b2[0], b2[1]])
        if host1 == host2:
            raise ValueError("sublines share their host line")
        shared = set(b1) & set(b2)
        if not shared:
            raise ValueError("sublines are disjoint")
        assert len(shared) == 1  # distinct lines meet in at most one point
        p = shared.pop()
        a1, a2 = [x for x in b1 if x != p][:2]
        c1, c2 = [x for x in b2 if x != p][:2]
        coeffs = solve_combination(f, [a1, a2, c1], c2)
        assert coeffs is not None and all(coeffs)
        basis = [scale_vec(f, c, v) for c, v in zip(coeffs, (a1, a2, c1))]
        assert len(rref(f, basis)) == 3
        pts = set(subspace_points(f, tuple(basis), f.subfield))
        assert len(pts) == q * q + q + 1
        assert set(b1) <= pts and set(b2) <= pts
        fully = all(pt in self.point_id for pt in pts)
        return BaerSubplane(tuple(sorted(pts)), fully)

    # -- dual Baer sublines as rank-2 Hermitian matrices -------------------

    def _hermitian_basis(self):
        """A GF(q)-basis of the 9-dimensional space of Hermitian 3x3 matrices."""
        f = self.field
        g, gq = f.g, f.conj(f.g)
        basis = []
        for i in range(3):
            m = [[0] * 3 for _ in range(3)]
            m[i][i] = 1
            basis.append(tuple(map(tuple, m)))
        for i, j in ((0, 1), (0, 2), (1, 2)):
            m = [[0] * 3 for _ in range(3)]
            m[i][j], m[j][i] = 1, 1
            basis.append(tuple(map(tuple, m)))
            m = [[0] * 3 for _ in range(3)]
            m[i][j], m[j][i] = g, gq
            basis.append(tuple(map(tuple, m)))
        return basis

    def _evaluate_hermitian(self, m, x):
        """X M (X^q)^T for a 3x3 matrix and a length-3 coordinate tuple."""
        f = self.field
        acc = 0
        for i in range(3):
            if not x[i]:
                continue
            row = m[i]
            inner = 0
            for j in range(3):
                if row[j] and x[j]:
                    inner = f.add(inner, f.mul(row[j], f.conj(x[j])))
            acc = f.add(acc, f.mul(x[i], inner))
        return acc

    def dual_matrix_of(self, b: BaerSubgenerator) -> DualBaerMatrix:
        """Gram matrix of the dual Baer subline of a subgenerator with curve point.

        The polar-trace lines of the q+1 points of b all pass through the
        curve point; the Hermitian matrices vanishing on their union form a
        one-dimensional GF(q)-space whose canonical generator is returned.
        """
        f, q = self.field, self.q
        if b.o_pid is None:
            raise ValueError("subgenerator has no point on the curve")
        hbasis = self._hermitian_basis()
        rows = []
        for p in b.points:
            dual3 = tuple(f.conj(c) for c in p[:3])
            assert any(dual3)
            for x in subspace_points(f, nullspace(f, [dual3])):
                rows.append(tuple(self._evaluate_hermitian(m, x) for m in hbasis))
        kernel = nullspace(f, rows)
        assert len(kernel) == 1, "dual variety does not pin down a unique matrix"
        coeffs = kernel[0]
        assert all(f.in_subfield(c) for c in coeffs)
        u = [[0] * 3 for _ in range(3)]
        for c, m in zip(coeffs, hbasis):
            if c:
                for i in range(3):
                    for j in range(3):
                        if m[i][j]:
                            u[i][j] = f.add(u[i][j], f.mul(c, m[i][j]))
        u = tuple(map(tuple, u))
        assert all(u[j][i] == f.conj(u[i][j]) for i in range(3) for j in range(3))
        assert len(rref(f, u)) == 2, "dual Gram matrix must have rank 2"
        vertex = normalize_point(f, self.points[b.o_pid][:3])
        left_null = nullspace(f, tuple(zip(*u)))  # {x : x U = 0}
        assert left_null == rref(f, [vertex])
        return DualBaerMatrix(self.canonical_dual_matrix(u), vertex)

    def canonical_dual_matrix(self, matrix) -> tuple:
        """Canonical GF(q)*-scale representative of a Hermitian matrix."""
        f = self.field
        flat = min(
            (tuple(f.mul(c, e) for row in matrix for e in row)
             for c in f.subfield if c),
        )
        return tuple(tuple(flat[3 * i + j] for j in range(3)) for i in range(3))

    # -- the canonical base subgenerator -----------------------------------

    def seed_subgenerator(self) -> BaerSubgenerator:
        """The base subgenerator on <(1,w,0,0), (0,0,1,w)> with N(w) = -1.

        Its points are (0,0,1,w) together with (1,w,t,tw) for the q values
        of t with w^q t + w t^q = 0; this is the member of the pencil whose
        dual Gram matrix is [[0,0,-w],[0,0,1],[-w^q,1,0]] up to GF(q)* scale.
        """
        f = self.field
        w = f.canonical_omega()
        a = normalize_point(f, (0, 0, 1, w))
        pts = [a]
        wq = f.conj(w)
        for t in f.elements:
            if f.add(f.mul(wq, t), f.mul(w, f.conj(t))) == 0:
                pts.append(normalize_point(f, (1, w, t, f.mul(t, w))))
        assert len(pts) == self.q + 1
        return self.subgenerator(pts)

    def base_dual_matrix(self) -> tuple:
        """[[0,0,-w],[0,0,1],[-w^q,1,0]] in canonical scale."""
        f = self.field
        w = f.canonical_omega()
        u0 = ((0, 0, f.neg(w)), (0, 0, 1), (f.neg(f.conj(w)), 1, 0))
        return self.canonical_dual_matrix(u0)

    def __repr__(self):
        return (f"HermitianSurface(q={self.q}, points={len(self.points)}, "
                f"generators={len(self.generators)})")
