"""Field reduction of H(3,q^2) and the Barlotti-Cofman-Segre dictionary.

Writing GF(q^2) = GF(q)[g] with basis {1, g} turns GF(q^2)^4 into GF(q)^8
and sends each point of PG(3,q^2) to a line of PG(7,q); the Hermitian norm
becomes the hyperbolic quadratic form Q(x) = sum N(x_i) on GF(q)^8, with
polarisation B(x, y) = T(<x, y>).  Slicing with a hyperplane containing
the reduction of pi: X3 = 0 (here T(x_3) = 0, validated non-degenerate)
produces a parabolic quadric Q(6,q) whose hyperplane at infinity carries
an elliptic Q^-(5,q).

The induced dictionary is built and checked object by object:

    curve point          -> line of the Hermitian spread of Q^-(5,q)
    affine surface point -> affine point of Q(6,q)
    generator            -> plane through a spread line
    subgenerator with a  -> affine line spanning a totally singular
    curve point             plane with a spread line

together with round-trip inverses, the spread/reguli-closure checks, the
plane census that separates spread-unions from hexagonal line sets, the
four-family line census with its norm-class refinement, and the staged
certification pipeline taking an arbitrary line set of Q(6,q) back to a
norm class and a certified hexagon.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field as dfield

from . import hexagon as hx
from . import unitary as un
from .galois import Record
from .projective import (
    enumerate_points,
    normalize_point,
    nullspace,
    point_in_subspace,
    rref,
    subspace_points,
)


class SectionError(ValueError):
    """A requested hyperplane section is degenerate."""


class InterchangeError(ValueError):
    """A line-set interchange payload is malformed or inconsistent."""


class FieldReduction:
    """GF(q^2)^4 <-> GF(q)^8 with the induced quadratic and bilinear forms."""

    def __init__(self, field):
        self.field = field

    def to8(self, vec4):
        f = self.field
        out = []
        for x in vec4:
            a, b = f.to_pair(x)
            out.extend((a, b))
        return tuple(out)

    def from8(self, vec8):
        f = self.field
        return tuple(f.from_pair(vec8[2 * i], vec8[2 * i + 1]) for i in range(4))

    def quad(self, vec8):
        """Q(x) = <x, x> = sum N(x_i): the hyperbolic form on GF(q)^8."""
        x = self.from8(vec8)
        return self.field.herm(x, x)

    def bil(self, u8, v8):
        """Polarisation B(u, v) = Q(u+v) - Q(u) - Q(v) = T(<x, y>)."""
        f = self.field
        return f.trace(f.herm(self.from8(u8), self.from8(v8)))

    def reduce_point(self, p4):
        """The spread line of PG(7,q) carried by a point of PG(3,q^2)."""
        f = self.field
        gx = tuple(f.mul(f.g, c) for c in p4)
        basis = rref(f, [self.to8(p4), self.to8(gx)])
        assert len(basis) == 2
        return basis


class HyperbolicSpace:
    """Q+(7,q): the image of the Hermitian surface under field reduction."""

    def __init__(self, field):
        self.field = field
        self.reduction = FieldReduction(field)
        q = field.q
        self.points = tuple(p for p in enumerate_points(field, 7, field.subfield)
                            if self.reduction.quad(p) == 0)
        assert len(self.points) == (q ** 3 + 1) * (q * q + 1) * (q + 1)

    def infinity_hyperplanes(self):
        """The q+1 hyperplane functionals vanishing on the reduction of pi."""
        f = self.field
        out = []
        for a, b in itertools.product(f.subfield, repeat=2):
            if (a, b) == (0, 0):
                continue
            d = (0, 0, 0, 0, 0, 0, a, b)
            d = normalize_point(f, d)
            if d not in out:
                out.append(d)
        assert len(out) == f.q + 1
        return out

    def canonical_hyperplane(self):
        """The functional of {x : T(x_3) = 0}."""
        f = self.field
        two = f.add(1, 1)
        return normalize_point(f, (0, 0, 0, 0, 0, 0, two, f.trace(f.g)))

    def slice(self, functional) -> "ParabolicQuadric":
        return ParabolicQuadric(self.field, functional)


@dataclass(frozen=True)
class TsLine:
    lid: int
    basis: tuple
    pids: tuple
    at_infinity: bool
    infinity_pid: int | None


@dataclass(frozen=True)
class TsPlane:
    plid: int
    basis: tuple
    pids: tuple
    line_ids: tuple


class ParabolicQuadric:
    """Q(6,q) as the slice of Q+(7,q) with a hyperplane over the infinity part.

    Everything lives in ambient 8-coordinate vectors over the subfield; the
    hyperplane section is validated non-degenerate (every radical vector of
    the restricted bilinear form must be non-singular) with a witness on
    failure.  Singular points, totally singular lines and planes are
    enumerated eagerly with canonical keys; a line through two singular
    points is totally singular exactly when they are B-orthogonal.
    """

    def __init__(self, field, functional):
        self.field = field
        self.reduction = FieldReduction(field)
        self.functional = tuple(functional)
        f, q = field, field.q
        red = self.reduction

        hyper_basis = nullspace(f, [self.functional])
        assert len(hyper_basis) == 7
        self._check_nondegenerate(hyper_basis)

        self.points = tuple(p for p in subspace_points(f, hyper_basis, f.subfield)
                            if red.quad(p) == 0)
        assert len(self.points) == (q ** 3 + 1) * (q * q + q + 1)
        self.point_id = {p: i for i, p in enumerate(self.points)}
        self.infinite = tuple(p[6] == 0 and p[7] == 0 for p in self.points)
        self.sigma_pids = tuple(i for i, inf in enumerate(self.infinite) if inf)
        assert len(self.sigma_pids) == (q + 1) * (q ** 3 + 1)
        self.affine_pids = tuple(i for i, inf in enumerate(self.infinite)
                                 if not inf)
        self.sigma_basis = rref(f, [tuple(1 if j == i else 0 for j in range(8))
                                    for i in range(6)])

        self._build_lines()
        self._build_planes()

    def _check_nondegenerate(self, hyper_basis):
        f = self.field
        gram = [[self.reduction.bil(u, v) for v in hyper_basis]
                for u in hyper_basis]
        radical_coeffs = nullspace(f, [tuple(r) for r in gram])
        for coeffs in (subspace_points(f, radical_coeffs, f.subfield)
                       if radical_coeffs else ()):
            vec = [0] * 8
            for c, b in zip(coeffs, hyper_basis):
                for j in range(8):
                    vec[j] = f.add(vec[j], f.mul(c, b[j]))
            r = normalize_point(f, vec)
            if self.reduction.quad(r) == 0:
                raise SectionError(f"degenerate section: radical point {r}")

    def _build_lines(self):
        f, q = self.field, self.field.q
        red = self.reduction
        n = len(self.points)
        neighbours = [0] * n  # bitmasks of collinear point ids
        for a in range(n):
            pa = self.points[a]
            for b in range(a + 1, n):
                if red.bil(pa, self.points[b]) == 0:
                    neighbours[a] |= 1 << b
                    neighbours[b] |= 1 << a
        self._neighbours = neighbours

        lines = []
        line_id = {}
        lines_by_point = [[] for _ in range(n)]
        for a in range(n):
            mask = neighbours[a] >> (a + 1)
            b = a + 1
            while mask:
                if mask & 1:
                    basis = rref(f, [self.points[a], self.points[b]])
                    if basis not in line_id:
                        pids = tuple(sorted(
                            self.point_id[p]
                            for p in subspace_points(f, basis, f.subfield)))
                        assert len(pids) == q + 1
                        at_inf = all(self.infinite[p] for p in pids)
                        inf_pid = None
                        if not at_inf:
                            inf = [p for p in pids if self.infinite[p]]
                            assert len(inf) == 1
                            inf_pid = inf[0]
                        lid = len(lines)
                        lines.append(TsLine(lid, basis, pids, at_inf, inf_pid))
                        line_id[basis] = lid
                        for p in pids:
                            lines_by_point[p].append(lid)
                mask >>= 1
                b += 1
        self.lines = tuple(lines)
        self.line_id = line_id
        self.lines_by_point = tuple(tuple(v) for v in lines_by_point)
        expected = (q ** 3 + 1) * (q * q + q + 1) * (q * q + 1)
        assert len(lines) == expected
        self.sigma_line_ids = tuple(l.lid for l in lines if l.at_infinity)
        assert len(self.sigma_line_ids) == (q * q + 1) * (q ** 3 + 1)

    def _build_planes(self):
        f, q = self.field, self.field.q
        planes = []
        plane_id = {}
        for line in self.lines:
            pa, pb = line.pids[0], line.pids[1]
            common = self._neighbours[pa] & self._neighbours[pb]
            common >>= line.pids[-1] + 1
            z = line.pids[-1] + 1
            while common:
                if common & 1:
                    basis = rref(f, [self.points[pa], self.points[pb],
                                     self.points[z]])
                    if basis not in plane_id:
                        pids = tuple(sorted(
                            self.point_id[p]
                            for p in subspace_points(f, basis, f.subfield)))
                        assert len(pids) == q * q + q + 1
                        plane_id[basis] = len(planes)
                        planes.append((basis, pids))
                common >>= 1
                z += 1
        # attach the contained lines to every plane
        out = []
        for plid, (basis, pids) in enumerate(planes):
            pid_set = set(pids)
            line_ids = sorted({
                lid for p in pids for lid in self.lines_by_point[p]
                if set(self.lines[lid].pids) <= pid_set})
            assert len(line_ids) == q * q + q + 1
            out.append(TsPlane(plid, basis, pids, tuple(line_ids)))
        self.planes = tuple(out)
        self.plane_id = {pl.basis: pl.plid for pl in out}
        assert len(out) == (q + 1) * (q * q + 1) * (q ** 3 + 1)
        # the elliptic hyperplane at infinity carries no planes
        assert all(not set(pl.pids) <= set(self.sigma_pids) for pl in out)

    # -- helpers ----------------------------------------------------------

    def line_of_pair(self, pid_a: int, pid_b: int) -> int | None:
        if not (self._neighbours[pid_a] >> pid_b) & 1:
            return None
        basis = rref(self.field, [self.points[pid_a], self.points[pid_b]])
        return self.line_id.get(basis)

    def span_is_ts_plane(self, vectors) -> int | None:
        basis = rref(self.field, vectors)
        if len(basis) != 3:
            return None
        return self.plane_id.get(basis)


# -- the dictionary ---------------------------------------------------------


@dataclass
class DictionaryReport(Record):
    rows: list = dfield(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.rows)


FAMILY_SPREAD = "hermitian_spread"
FAMILY_INFINITY = "infinity_off_spread"
FAMILY_AFFINE_SKEW = "affine_skew"
FAMILY_AFFINE_COPLANAR = "affine_spread_coplanar"


class BcsMap:
    """Forward/inverse dictionaries of the Barlotti-Cofman-Segre model."""

    def __init__(self, surface, quadric: ParabolicQuadric | None = None):
        self.surface = surface
        self.field = surface.field
        f = self.field
        if quadric is None:
            space = HyperbolicSpace(f)
            quadric = space.slice(space.canonical_hyperplane())
        self.quadric = quadric
        red = quadric.reduction

        # curve points -> spread lines
        self.spread_of_opid = {}
        self.opid_of_spread = {}
        for o_pid in surface.o_pids:
            basis = red.reduce_point(surface.points[o_pid])
            lid = quadric.line_id[basis]
            assert quadric.lines[lid].at_infinity
            self.spread_of_opid[o_pid] = lid
            self.opid_of_spread[lid] = o_pid
        self.spread_line_ids = tuple(sorted(self.opid_of_spread))
        covered = [p for lid in self.spread_line_ids
                   for p in quadric.lines[lid].pids]
        assert sorted(covered) == list(quadric.sigma_pids)  # partition

        self.spread_of_inf_pid = {}
        for lid in self.spread_line_ids:
            for p in quadric.lines[lid].pids:
                self.spread_of_inf_pid[p] = lid

        # affine surface points <-> affine quadric points
        self.q6_of_affine = {}
        self.affine_of_q6 = {}
        for pid in surface.affine_pids:
            x = surface.points[pid]
            for c in f.elements:
                if c and f.trace(f.mul(c, x[3])) == 0:
                    img = normalize_point(
                        f, red.to8(tuple(f.mul(c, t) for t in x)))
                    break
            qpid = quadric.point_id[img]
            assert not quadric.infinite[qpid]
            self.q6_of_affine[pid] = qpid
            self.affine_of_q6[qpid] = pid
        assert len(self.affine_of_q6) == len(surface.affine_pids)
        assert sorted(self.affine_of_q6) == list(quadric.affine_pids)

        # generators <-> planes through spread lines
        self.plane_of_gen = {}
        self.gen_of_plane = {}
        for gen in surface.generators:
            u, v = gen.basis
            gu = tuple(f.mul(f.g, c) for c in u)
            gv = tuple(f.mul(f.g, c) for c in v)
            vecs = [red.to8(w) for w in (u, gu, v, gv)]
            vals = [self._functional(w) for w in vecs]
            coeff_kernel = nullspace(f, [tuple(vals)])
            assert len(coeff_kernel) == 3
            rows = []
            for coeffs in coeff_kernel:
                w = [0] * 8
                for c, vec in zip(coeffs, vecs):
                    for j in range(8):
                        w[j] = f.add(w[j], f.mul(c, vec[j]))
                rows.append(tuple(w))
            plid = quadric.plane_id[rref(f, rows)]
            self.plane_of_gen[gen.gid] = plid
            self.gen_of_plane[plid] = gen.gid
            # the plane passes through the spread line of the generator's
            # curve point
            spread_lid = self.spread_of_opid[gen.o_pid]
            assert spread_lid in quadric.planes[plid].line_ids
        assert len(self.gen_of_plane) == len(surface.generators)

        self._sub_forward_cache = {}

    def _functional(self, vec8):
        f = self.field
        acc = 0
        for a, b in zip(self.quadric.functional, vec8):
            acc = f.add(acc, f.mul(a, b))
        return acc

    # -- object maps -------------------------------------------------------

    def forward_curve_point(self, o_pid: int) -> int:
        return self.spread_of_opid[o_pid]

    def inverse_spread_line(self, lid: int) -> int:
        return self.opid_of_spread[lid]

    def forward_affine_point(self, pid: int) -> int:
        return self.q6_of_affine[pid]

    def inverse_affine_point(self, qpid: int) -> int:
        return self.affine_of_q6[qpid]

    def forward_generator(self, gid: int) -> int:
        return self.plane_of_gen[gid]

    def inverse_plane(self, plid: int) -> int:
        return self.gen_of_plane[plid]

    def forward_subgenerator(self, key) -> int:
        """Image line of a subgenerator with a curve point, collinearity checked."""
        if key in self._sub_forward_cache:
            return self._sub_forward_cache[key]
        s, f, quadric = self.surface, self.field, self.quadric
        sub = s.subgenerator_from_pids(key)
        if sub.o_pid is None:
            raise ValueError("only subgenerators with a curve point are mapped")
        imgs = [self.q6_of_affine[pid] for pid in key if pid != sub.o_pid]
        lid = quadric.line_of_pair(imgs[0], imgs[1])
        if lid is None:
            raise ValueError("affine images are not collinear on the quadric")
        line = quadric.lines[lid]
        if not all(i in line.pids for i in imgs):
            raise ValueError("affine images are not collinear on the quadric")
        assert not line.at_infinity
        # the point at infinity must land on the curve point's spread line
        spread_lid = self.spread_of_inf_pid[line.infinity_pid]
        if spread_lid != self.spread_of_opid[sub.o_pid]:
            raise ValueError("image line misses its spread line")
        self._sub_forward_cache[key] = lid
        return lid

    def inverse_affine_line(self, lid: int):
        """Subgenerator key recovered from an affine quadric line."""
        quadric, s = self.quadric, self.surface
        line = quadric.lines[lid]
        if line.at_infinity:
            raise ValueError("line lies in the infinity hyperplane")
        o_pid = self.opid_of_spread[self.spread_of_inf_pid[line.infinity_pid]]
        affine = [self.affine_of_q6[p] for p in line.pids
                  if p != line.infinity_pid]
        pts = s.baer_subline_through(
            s.points[o_pid], s.points[affine[0]], s.points[affine[1]])
        expected = {s.points[o_pid]} | {s.points[p] for p in affine}
        if set(pts) != expected:
            raise ValueError("pullback points do not form one Baer subline")
        return s.subgenerator(pts).pids

    # -- line families (the four orbits) ------------------------------------

    def line_family(self, lid: int) -> str:
        quadric = self.quadric
        line = quadric.lines[lid]
        if line.at_infinity:
            return (FAMILY_SPREAD if lid in self.opid_of_spread
                    else FAMILY_INFINITY)
        spread_lid = self.spread_of_inf_pid[line.infinity_pid]
        spread_line = quadric.lines[spread_lid]
        vectors = [quadric.points[p] for p in (line.pids[0], line.pids[1])]
        vectors += [quadric.points[p] for p in spread_line.pids[:2]]
        if self.quadric.span_is_ts_plane(vectors) is not None:
            return FAMILY_AFFINE_COPLANAR
        return FAMILY_AFFINE_SKEW

    # -- dictionary verification --------------------------------------------

    def verify_dictionary(self, action=None) -> DictionaryReport:
        """Check every dictionary row: counts, bijectivity, round trips.

        With a UnitaryAction supplied, also verifies the row taking fully
        contained Baer subplanes that meet the curve in a subline to the
        planes not incident with any spread element.
        """
        s, q = self.surface, self.field.q
        quadric = self.quadric
        report = DictionaryReport()

        spread = set(self.spread_line_ids)
        report.rows.append({
            "row": "curve_points_to_spread",
            "count": len(spread),
            "expected": q ** 3 + 1,
            "ok": (len(spread) == q ** 3 + 1
                   and all(self.inverse_spread_line(self.forward_curve_point(o))
                           == o for o in s.o_pids)),
        })

        affine_ok = all(self.inverse_affine_point(self.forward_affine_point(p))
                        == p for p in s.affine_pids)
        report.rows.append({
            "row": "affine_points",
            "count": len(self.q6_of_affine),
            "expected": q * q * (q ** 3 + 1),
            "ok": affine_ok and len(self.q6_of_affine) == q * q * (q ** 3 + 1)
            and len(self.q6_of_affine) == len(quadric.affine_pids),
        })

        gens_ok = all(self.inverse_plane(self.forward_generator(g.gid)) == g.gid
                      for g in s.generators)
        planes_with_spread = {pl.plid for pl in quadric.planes
                              if spread & set(pl.line_ids)}
        report.rows.append({
            "row": "generators_to_planes_with_spread_line",
            "count": len(self.gen_of_plane),
            "expected": (q ** 3 + 1) * (q + 1),
            "ok": gens_ok and set(self.gen_of_plane) == planes_with_spread,
        })

        subs = s.enumerate_baer_subgenerators(True)
        images = {}
        round_trip_ok = True
        for b in subs:
            lid = self.forward_subgenerator(b.pids)
            images[lid] = b.pids
            if self.inverse_affine_line(lid) != b.pids:
                round_trip_ok = False
        coplanar = {lid for lid in range(len(quadric.lines))
                    if self.line_family(lid) == FAMILY_AFFINE_COPLANAR}
        report.rows.append({
            "row": "subgenerators_to_affine_lines_in_spread_planes",
            "count": len(images),
            "expected": q * (q + 1) ** 2 * (q ** 3 + 1),
            "ok": (round_trip_ok and len(images) == len(subs)
                   and set(images) == coplanar),
        })

        if action is not None:
            row = self._verify_subplane_row(action, planes_with_spread)
            report.rows.append(row)
        return report

    def _verify_subplane_row(self, action, planes_with_spread) -> dict:
        """Fully contained Baer subplanes <-> planes off the spread."""
        s, f, q = self.surface, self.field, self.field.q
        quadric = self.quadric
        by_point = {}
        for mu in f.norm_one_subgroup():
            for key in action.omega(mu):
                for pid in key:
                    if s.points[pid][3] != 0:
                        by_point.setdefault((pid, mu), []).append(key)
        plane_images = {}
        ok = True
        for (pid, mu), keys in sorted(by_point.items()):
            if len(keys) != q + 1:
                ok = False
                continue
            union = set()
            for k in keys:
                union.update(k)
            img_vecs = [quadric.points[self.q6_of_affine[p]]
                        for p in union if s.points[p][3] != 0]
            plid = quadric.span_is_ts_plane(img_vecs)
            if plid is None:
                ok = False
                continue
            plane_images.setdefault(plid, set()).add((pid, mu))
        # a fully contained subplane is the cone over a unique affine
        # vertex, so (vertex, class) -> subplane -> plane is injective
        expected = (q + 1) * q * q * (q ** 3 + 1)
        off_spread = {pl.plid for pl in quadric.planes} - planes_with_spread
        ok = ok and set(plane_images) == off_spread
        ok = ok and all(len(v) == 1 for v in plane_images.values())
        return {
            "row": "subplanes_to_planes_off_spread",
            "count": len(plane_images),
            "expected": expected,
            "ok": ok and len(plane_images) == expected,
        }

    # -- interchange --------------------------------------------------------

    def export_line_set(self, line_ids) -> dict:
        f = self.field
        quadric = self.quadric

        def enc(vec):
            return [f.sub_index(c) for c in vec]

        return {
            "q": f.q,
            "form": "parabolic-6",
            "field": f.spec.to_dict(),
            "hyperplane": enc(quadric.functional),
            "lines": [[enc(quadric.lines[lid].basis[0]),
                       enc(quadric.lines[lid].basis[1])]
                      for lid in sorted(line_ids)],
        }

    def parse_line_set(self, payload) -> tuple:
        f = self.field
        quadric = self.quadric
        hyperplane, pairs = decode_line_set(payload, f)
        if hyperplane != quadric.functional:
            raise InterchangeError("hyperplane does not match the canonical slice")
        out = []
        for pair, vectors in zip(payload["lines"], pairs):
            basis = rref(f, list(vectors))
            if len(basis) != 2:
                raise InterchangeError(f"degenerate line {pair}")
            lid = quadric.line_id.get(basis)
            if lid is None:
                raise InterchangeError(
                    f"{pair} is not a totally singular line of Q(6,q)")
            out.append(lid)
        if len(set(out)) != len(out):
            raise InterchangeError("duplicate lines in payload")
        return tuple(sorted(out))


def decode_line_set(payload, f) -> tuple:
    """Check an interchange payload as far as the field alone allows.

    `f` is the payload's field.  Returns the decoded hyperplane and the
    decoded vector pair of each line.  Raises `InterchangeError` for
    another form, q or field, a part that is missing or not a JSON array,
    a vector whose length is not 8 or a coordinate that is not an integer
    in 0..q-1.
    """
    try:
        if payload["form"] != "parabolic-6":
            raise InterchangeError(f"unsupported form {payload['form']!r}")
        if type(payload["q"]) is not int or payload["q"] != f.q:
            raise InterchangeError(
                f"payload is for q={payload['q']!r}, expected q={f.q}")
        if payload["field"] != f.spec.to_dict():
            raise InterchangeError("field specification mismatch")
        raw_lines = list(payload["lines"])
        hyper = payload["hyperplane"]
    except (KeyError, TypeError) as exc:
        raise InterchangeError(f"malformed payload: {exc}") from exc

    def dec(coords):
        if not isinstance(coords, (list, tuple)) or len(coords) != 8:
            raise InterchangeError("coordinate vectors must have length 8")
        for c in coords:
            if type(c) is not int or not 0 <= c < f.q:
                raise InterchangeError(
                    f"bad coordinate {c!r}: expected an integer "
                    f"0..{f.q - 1}")
        return tuple(f.sub_element(c) for c in coords)

    hyperplane = dec(hyper)
    pairs = []
    for pair in raw_lines:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise InterchangeError("each line needs exactly two vectors")
        pairs.append((dec(pair[0]), dec(pair[1])))
    return hyperplane, pairs


# -- spreads and reguli ------------------------------------------------------


@dataclass
class SpreadReport(Record):
    size: int
    size_ok: bool
    disjoint: bool
    covering: bool
    pairs_checked: int = 0
    closure_violations: list = dfield(default_factory=list)
    witness: tuple | None = None

    @property
    def ok(self) -> bool:
        return (self.size_ok and self.disjoint and self.covering
                and not self.closure_violations)


def regulus(quadric: ParabolicQuadric, lid_a: int, lid_b: int):
    """Regulus and opposite regulus of two disjoint lines of Q^-(5,q).

    Their solid meets the elliptic quadric in a hyperbolic Q+(3,q) carrying
    2(q+1) lines; the regulus is the family containing the two inputs.
    """
    f, q = quadric.field, quadric.field.q
    la, lb = quadric.lines[lid_a], quadric.lines[lid_b]
    assert not set(la.pids) & set(lb.pids)
    solid = rref(f, [quadric.points[p] for p in la.pids[:2] + lb.pids[:2]])
    assert len(solid) == 4
    inside = [p for p in quadric.sigma_pids
              if point_in_subspace(f, quadric.points[p], solid)]
    assert len(inside) == (q + 1) ** 2  # hyperbolic section
    line_ids = set()
    for a, b in itertools.combinations(inside, 2):
        lid = quadric.line_of_pair(a, b)
        if lid is not None and set(quadric.lines[lid].pids) <= set(inside):
            line_ids.add(lid)
    assert len(line_ids) == 2 * (q + 1)
    reg = sorted(l for l in line_ids
                 if l == lid_a or not set(quadric.lines[l].pids) & set(la.pids))
    opp = sorted(line_ids - set(reg))
    assert len(reg) == q + 1 and lid_b in reg
    return reg, opp


def hermitian_spread_check(quadric: ParabolicQuadric, line_ids) -> SpreadReport:
    """Spread-of-Q^-(5,q) checks plus closure under taking reguli."""
    q = quadric.field.q
    line_ids = sorted(set(line_ids))
    report = SpreadReport(
        size=len(line_ids),
        size_ok=len(line_ids) == q ** 3 + 1,
        disjoint=True,
        covering=False,
    )
    seen = {}
    for lid in line_ids:
        line = quadric.lines[lid]
        if not line.at_infinity:
            report.disjoint = False
            report.witness = ("not_in_elliptic_quadric", lid)
            return report
        for p in line.pids:
            if p in seen:
                report.disjoint = False
                report.witness = ("shared_point", p, seen[p], lid)
                return report
            seen[p] = lid
    report.covering = set(seen) == set(quadric.sigma_pids)
    if not report.covering:
        missing = sorted(set(quadric.sigma_pids) - set(seen))
        report.witness = ("uncovered_point", missing[0])
        return report
    spread = set(line_ids)
    for lid_a, lid_b in itertools.combinations(line_ids, 2):
        report.pairs_checked += 1
        reg, _ = regulus(quadric, lid_a, lid_b)
        stray = [l for l in reg if l not in spread]
        if stray:
            report.closure_violations.append(
                {"pair": [lid_a, lid_b], "missing": stray})
    return report


def regulus_swap_corruption(quadric, spread_ids, seed: int):
    """Swap one regulus line for an opposite-regulus line (negative control)."""
    rng = random.Random(seed)
    ids = sorted(spread_ids)
    a, b = sorted(rng.sample(range(len(ids)), 2))
    reg, opp = regulus(quadric, ids[a], ids[b])
    victim = next(l for l in reg if l in set(ids) and l not in (ids[a], ids[b]))
    replacement = opp[rng.randrange(len(opp))]
    out = [l for l in ids if l != victim]
    out.append(replacement)
    return tuple(sorted(out))


# -- the plane census and line-set classification ---------------------------


@dataclass
class LineSetCensus(Record):
    """Plane counts by the number of contained lines of the given set."""

    json_names = {"n_q1": "n_q_plus_1"}

    n0: int
    n1: int
    n_q1: int
    n_full: int
    total_planes: int


@dataclass
class ClassifyResult(Record):
    verdict: str  # "spread_union" | "hexagon" | "reject"
    census: LineSetCensus | None
    violations: list = dfield(default_factory=list)
    pencil_counts: dict = dfield(default_factory=dict)  # lines/point -> #points
    pencil_span_dims: dict = dfield(default_factory=dict)  # span dim -> #points


def classify_line_set(quadric: ParabolicQuadric, line_ids) -> ClassifyResult:
    """Spread-union versus hexagon dichotomy, with the full plane census.

    Precondition (checked, Reject with witness otherwise): every singular
    point lies on exactly q+1 lines of the set and they span a totally
    singular plane.
    """
    f, q = quadric.field, quadric.field.q
    line_set = set(line_ids)
    violations = []
    pencil_counts = {}
    pencil_span_dims = {}
    per_point = [[] for _ in quadric.points]
    for lid in line_set:
        for p in quadric.lines[lid].pids:
            per_point[p].append(lid)
    for pid, lids in enumerate(per_point):
        pencil_counts[len(lids)] = pencil_counts.get(len(lids), 0) + 1
        if len(lids) != q + 1:
            violations.append({"point": pid, "lines_through": len(lids)})
            continue
        vectors = [quadric.points[p] for lid in lids
                   for p in quadric.lines[lid].pids[:2]]
        basis = rref(f, vectors)
        dim = len(basis)
        pencil_span_dims[dim] = pencil_span_dims.get(dim, 0) + 1
        if dim != 3 or quadric.plane_id.get(basis) is None:
            violations.append({"point": pid, "pencil_not_planar": True})
    if violations:
        return ClassifyResult("reject", None, violations[:10],
                              pencil_counts, pencil_span_dims)

    counts = {0: 0, 1: 0, q + 1: 0, q * q + q + 1: 0}
    for plane in quadric.planes:
        inside = len(line_set & set(plane.line_ids))
        if inside not in counts:
            return ClassifyResult(
                "reject", None,
                [{"plane": plane.plid, "lines_inside": inside}])
        counts[inside] += 1
    census = LineSetCensus(counts[0], counts[1], counts[q + 1],
                           counts[q * q + q + 1], len(quadric.planes))
    verdict = "spread_union" if census.n_full else "hexagon"
    return ClassifyResult(verdict, census, [], pencil_counts, pencil_span_dims)


def concurrency_components(quadric: ParabolicQuadric, line_ids) -> int:
    """Number of connected components of the concurrency graph of a line set."""
    line_ids = sorted(set(line_ids))
    index = {lid: i for i, lid in enumerate(line_ids)}
    by_point = {}
    for lid in line_ids:
        for p in quadric.lines[lid].pids:
            by_point.setdefault(p, []).append(lid)
    seen = set()
    components = 0
    for start in line_ids:
        if start in seen:
            continue
        components += 1
        frontier = [start]
        seen.add(start)
        while frontier:
            lid = frontier.pop()
            for p in quadric.lines[lid].pids:
                for other in by_point[p]:
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
    return components


# -- the four-family line census --------------------------------------------


@dataclass
class FamilyCensus(Record):
    json_names = {"name": "family", "ok": "match"}

    name: str
    size: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.size == self.expected


def line_orbit_census(bcs: BcsMap, action=None):
    """Sizes of the four line families, plus the norm-class refinement.

    The four families partition all lines of Q(6,q); with a UnitaryAction
    the family of affine lines spanning a singular plane with a spread
    element is refined by pulling each line back and taking its norm.
    """
    q = bcs.field.q
    tallies = {FAMILY_SPREAD: 0, FAMILY_INFINITY: 0,
               FAMILY_AFFINE_SKEW: 0, FAMILY_AFFINE_COPLANAR: 0}
    coplanar = []
    for lid in range(len(bcs.quadric.lines)):
        family = bcs.line_family(lid)
        tallies[family] += 1
        if family == FAMILY_AFFINE_COPLANAR:
            coplanar.append(lid)
    expected = {
        FAMILY_SPREAD: q ** 3 + 1,
        FAMILY_INFINITY: q * q * (q ** 3 + 1),
        FAMILY_AFFINE_SKEW: q * q * (q * q - 1) * (q ** 3 + 1),
        FAMILY_AFFINE_COPLANAR: (q + 1) * q * (q + 1) * (q ** 3 + 1),
    }
    families = [FamilyCensus(name, tallies[name], expected[name])
                for name in (FAMILY_SPREAD, FAMILY_INFINITY,
                             FAMILY_AFFINE_SKEW, FAMILY_AFFINE_COPLANAR)]
    refinement = None
    if action is not None:
        refinement = {}
        for lid in coplanar:
            mu = action.norm_of(bcs.inverse_affine_line(lid))
            refinement[mu] = refinement.get(mu, 0) + 1
    return families, refinement


# -- the certification pipeline ----------------------------------------------


@dataclass
class StageResult(Record):
    name: str
    passed: bool
    details: dict = dfield(default_factory=dict)


@dataclass
class PipelineCertificate(Record):
    stages: list
    passed: bool
    recovered_class_index: int | None = None
    recovered_class: int | None = None


def certify_split_cayley(bcs: BcsMap, line_ids, action=None) -> PipelineCertificate:
    """Staged certification of a line set of Q(6,q) as a hexagon line set.

    Stages: (1) pencil-plane hypothesis, concurrency-graph connectivity and
    the plane census; (2) Hermitian-spread extraction on the infinity
    section with reguli closure; (3) pullback of the affine lines to Baer
    subgenerators; (4) covering properties and a single recovered norm
    class; (5) hexagon build with the exact girth/diameter certificate.
    The pipeline stops at the first failing stage and carries a witness.
    """
    quadric = bcs.quadric
    surface = bcs.surface
    f, q = bcs.field, bcs.field.q
    stages = []

    def fail(cert=None):
        return PipelineCertificate(stages, False) if cert is None else cert

    # stage 1: local pencils, connectivity, plane census
    classification = classify_line_set(quadric, line_ids)
    components = concurrency_components(quadric, line_ids)
    expected_census = (q ** 3 * (q ** 3 + 1), 0,
                       (q ** 3 + 1) * (q * q + q + 1))
    census_ok = (classification.verdict == "hexagon"
                 and classification.census is not None
                 and (classification.census.n0, classification.census.n1,
                      classification.census.n_q1) == expected_census)
    ok1 = (classification.verdict == "hexagon" and components == 1
           and census_ok)
    stages.append(StageResult(
        "pencil_planes_and_connectivity", ok1,
        {"classification": classification.to_dict(),
         "concurrency_components": components}))
    if not ok1:
        return fail()

    # stage 2: spread extraction and reguli closure
    infinity_lids = {lid for lid in line_ids
                     if quadric.lines[lid].at_infinity}
    pencil_spread = set()
    for pid in quadric.sigma_pids:
        lids = [lid for lid in line_ids if pid in quadric.lines[lid].pids]
        vectors = [quadric.points[p] for lid in lids
                   for p in quadric.lines[lid].pids[:2]]
        plid = quadric.span_is_ts_plane(vectors)
        plane = quadric.planes[plid]
        cut = [lid for lid in plane.line_ids
               if quadric.lines[lid].at_infinity]
        assert len(cut) == 1  # a singular plane meets the elliptic part in a line
        pencil_spread.add(cut[0])
    spread_report = hermitian_spread_check(quadric, pencil_spread)
    ok2 = spread_report.ok and pencil_spread == infinity_lids
    stages.append(StageResult(
        "spread_extraction", ok2,
        {"spread": spread_report.to_dict(),
         "matches_infinity_lines": pencil_spread == infinity_lids}))
    if not ok2:
        return fail()

    # stage 3: pullback to Baer subgenerators
    omega_keys = []
    pull_errors = []
    for lid in sorted(set(line_ids) - infinity_lids):
        try:
            omega_keys.append(bcs.inverse_affine_line(lid))
        except ValueError as exc:
            pull_errors.append({"line": lid, "error": str(exc)})
    ok3 = not pull_errors and len(omega_keys) == len(set(omega_keys))
    stages.append(StageResult(
        "pullback", ok3,
        {"subgenerators": len(omega_keys), "errors": pull_errors}))
    if not ok3:
        return fail()

    # stage 4: covering properties and the recovered norm class
    cover = un.verify_class_covering(surface, omega_keys)
    if action is None:
        action = un.UnitaryAction(surface)
    norms = sorted({action.norm_of(k) for k in omega_keys})
    ok4 = cover.ok and len(norms) == 1
    stages.append(StageResult(
        "class_verification", ok4,
        {"covering": cover.to_dict(), "norm_values": norms}))
    if not ok4:
        return fail()
    mu = norms[0]
    mu_index = list(f.norm_one_subgroup()).index(mu)

    # stage 5: hexagon certificate
    geom = hx.build_hexagon(surface, omega_keys)
    expected = (q ** 6 - 1) // (q - 1)
    cert = hx.certify_generalized_polygon(geom, 6, (expected, expected))
    details = {"certificate": cert.to_dict()}
    if not cert.passed and cert.girth is not None and cert.girth < 12:
        details["witness_cycle"] = hx.shortest_cycle_witness(geom, cert)
    stages.append(StageResult("hexagon_certificate", cert.passed, details))
    if not cert.passed:
        return fail()

    return PipelineCertificate(stages, True, mu_index, mu)


# -- spread-union construction (the other branch of the dichotomy) ----------


def plane_spread_search(quadric: ParabolicQuadric):
    """A spread of planes of Q(6,q) by exact-cover backtracking, or None."""
    q = quadric.field.q
    target = q ** 3 + 1
    planes_by_point = [[] for _ in quadric.points]
    for plane in quadric.planes:
        for p in plane.pids:
            planes_by_point[p].append(plane.plid)

    chosen = []
    covered = set()

    def step():
        if len(chosen) == target:
            return True
        pid = next(p for p in range(len(quadric.points)) if p not in covered)
        for plid in planes_by_point[pid]:
            pids = quadric.planes[plid].pids
            if covered & set(pids):
                continue
            chosen.append(plid)
            covered.update(pids)
            if step():
                return True
            chosen.pop()
            covered.difference_update(pids)
        return False

    if step():
        assert len(covered) == len(quadric.points)
        return tuple(chosen)
    return None


def spread_union_line_set(quadric: ParabolicQuadric, plane_ids) -> tuple:
    """All lines contained in the planes of a plane spread."""
    out = set()
    for plid in plane_ids:
        out.update(quadric.planes[plid].line_ids)
    return tuple(sorted(out))
