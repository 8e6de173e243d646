"""The hexagon geometry built from a class of Baer subgenerators.

Points are the generators of H(3,q^2) together with its affine points;
lines are the curve points together with the chosen subgenerator set;
incidence is inclusion (a curve point lies on a generator, an affine point
lies on a subgenerator, a subgenerator spans a generator) and affine
points are never incident with curve-point lines.  For a genuine norm
class the result is a generalised hexagon of order (q,q): the bipartite
incidence graph is connected, biregular of degree q+1, has girth exactly
12 and diameter exactly 6, with (q^6-1)/(q-1) points and as many lines.

Certification grows the ball around every vertex at once, each ball an
int bitset: girth comes from the first sphere that falls short of its
tree count, diameter from the first radius at which every ball is full.
A failing input yields an explicit short cycle, rebuilt by one
breadth-first search from a vertex on it, rather than a bare flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

from .galois import Record


@dataclass
class IncidenceGeometry:
    """A bipartite point-line structure with provenance-tagged elements.

    `points` and `lines` are tuples of (kind, key) labels where the key is
    enough to recover the underlying coordinates; `incidences` is a tuple
    of (point index, line index) pairs with no repetitions.
    """

    points: tuple
    lines: tuple
    incidences: tuple
    meta: dict = dfield(default_factory=dict)

    def __post_init__(self):
        # a repeated incidence would be a double edge, miscounting the
        # degrees and the tree counts the certificate rests on
        if len(set(self.incidences)) != len(self.incidences):
            raise ValueError("repeated incidence")
        self.point_lines = [[] for _ in self.points]
        self.line_points = [[] for _ in self.lines]
        for pi, li in self.incidences:
            self.point_lines[pi].append(li)
            self.line_points[li].append(pi)

    def adjacency(self):
        """Adjacency lists of the incidence graph: points, then lines."""
        np_ = len(self.points)
        adj = [None] * (np_ + len(self.lines))
        for pi, lis in enumerate(self.point_lines):
            adj[pi] = [np_ + li for li in lis]
        for li, pis in enumerate(self.line_points):
            adj[np_ + li] = list(pis)
        return adj

    def vertex_label(self, v: int):
        if v < len(self.points):
            return ("point",) + self.points[v]
        return ("line",) + self.lines[v - len(self.points)]

    def is_partial_linear(self) -> bool:
        """Any two points lie on at most one common line."""
        seen = set()
        for pis in self.line_points:
            ordered = sorted(pis)
            for i in range(len(ordered)):
                for j in range(i + 1, len(ordered)):
                    pair = (ordered[i], ordered[j])
                    if pair in seen:
                        return False
                    seen.add(pair)
        return True


def build_hexagon(surface, omega_keys) -> IncidenceGeometry:
    """Assemble the point-line geometry for a candidate subgenerator set."""
    points = []
    point_index = {}
    for gen in surface.generators:
        point_index[("generator", gen.gid)] = len(points)
        points.append(("generator", gen.basis))
    for pid in surface.affine_pids:
        point_index[("affine", pid)] = len(points)
        points.append(("affine_point", surface.points[pid]))

    lines = []
    incidences = []
    for o_pid in surface.o_pids:
        li = len(lines)
        lines.append(("curve_point", surface.points[o_pid]))
        for gid in surface.gens_by_point[o_pid]:
            incidences.append((point_index[("generator", gid)], li))
    for key in sorted(omega_keys):
        li = len(lines)
        sub = surface.subgenerator_from_pids(key)
        lines.append(("subgenerator", sub.points))
        incidences.append((point_index[("generator", sub.host)], li))
        for pid in key:
            if pid != sub.o_pid:
                incidences.append((point_index[("affine", pid)], li))

    return IncidenceGeometry(
        tuple(points), tuple(lines), tuple(incidences),
        meta={"q": surface.q})


@dataclass
class PolygonCertificate(Record):
    """Exact incidence-graph analytics against the 2n-gon target."""

    target_n: int
    num_points: int
    num_lines: int
    connected: bool
    biregular: bool
    order: tuple | None
    girth: int | None
    diameter: int | None
    passed: bool
    failures: tuple
    witness_components: tuple = ()
    # a vertex on a shortest cycle, for `shortest_cycle_witness`; an
    # internal index, so it stays out of the report
    girth_source: int | None = dfield(default=None,
                                      metadata={"report": False})


def _bfs(adj, source):
    """Breadth-first search from `source`: (dist, parent, order, closing).

    `dist` is -1 on unreached vertices and `order` lists the reached ones
    in visiting order.  `closing` is the first (length, u, w) minimising
    dist[u]+dist[w]+1 over the non-tree edges u-w met, or None for a tree.
    """
    n = len(adj)
    dist = [-1] * n
    parent = [-1] * n
    dist[source] = 0
    order = [source]
    closing = None
    for u in order:
        du = dist[u]
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                parent[w] = u
                order.append(w)
            elif parent[u] != w:
                cand = du + dist[w] + 1
                if closing is None or cand < closing[0]:
                    closing = (cand, u, w)
    return dist, parent, order, closing


def _ball_analytics(adj):
    """(girth, diameter, connected, girth source, component sample).

    Grows the balls of all vertices together, each an int bitset:
    ball_r(v) is ball_{r-1}(v) OR ball_{r-1}(u) over the neighbours u of v.
    The graph must be bipartite, as every incidence graph is.

    Girth: while ball_{r-1}(v) spans a tree, each vertex u of the sphere
    S_{r-1}(v) has one parent and deg(u)-1 children, none shared, so
    |S_r(v)| = sum over u in S_{r-1}(v) of (deg u - 1) for r >= 2.  The
    first sphere to fall short has two parents sharing a child, closing a
    cycle of length 2r through v; so the girth is 2j for the first radius
    j with a shortfall anywhere, and the first vertex short at j lies on a
    shortest cycle.  The count is taken per degree, one vertex mask each,
    so no regularity is assumed.  A bipartite graph's girth is at most
    twice its diameter, so it is known by the time every ball is full.

    Diameter: the first radius at which every ball is full.  A round that
    changes no ball leaves the graph disconnected; the sample is then the
    first five vertices in and out of the component of vertex 0.
    """
    n = len(adj)
    full = (1 << n) - 1
    masks = {}
    for v, nbrs in enumerate(adj):
        if len(nbrs) > 1:
            masks[len(nbrs) - 1] = masks.get(len(nbrs) - 1, 0) | 1 << v
    weights = sorted(masks.items())
    balls = [1 << v for v in range(n)]
    # the tree count of each vertex's next sphere; S_1(v) holds deg v
    # vertices, as incidences never repeat
    tree = [len(nbrs) for nbrs in adj]
    girth = source = None
    radius = 0
    while any(ball != full for ball in balls):
        grown = []
        for ball, nbrs in zip(balls, adj):
            for u in nbrs:
                ball |= balls[u]
            grown.append(ball)
        if grown == balls:
            reached = balls[0]
            inside = [v for v in range(n) if reached >> v & 1]
            outside = [v for v in range(n) if not reached >> v & 1]
            return girth, None, False, source, (inside[:5], outside[:5])
        radius += 1
        if girth is None:
            for v, (new, old) in enumerate(zip(grown, balls)):
                sphere = new ^ old
                if sphere.bit_count() < tree[v]:
                    girth, source = 2 * radius, v
                    break
                tree[v] = sum(w * (sphere & m).bit_count()
                              for w, m in weights)
        balls = grown
    return girth, radius, True, source, None


def _shortest_cycle_from(adj, source):
    """A simple shortest cycle through `source`'s BFS tree, as vertex list."""
    _, parent, _, closing = _bfs(adj, source)
    if closing is None:
        return None
    _, u, w = closing

    def path(v):
        out = [v]
        while parent[out[-1]] >= 0:
            out.append(parent[out[-1]])
        return out

    pu, pw = path(u), path(w)  # vertex .. source
    # strip the common suffix down to the lowest common ancestor
    i, j = len(pu) - 1, len(pw) - 1
    while i > 0 and j > 0 and pu[i - 1] == pw[j - 1]:
        i -= 1
        j -= 1
    if pu[i] != pw[j]:
        raise RuntimeError(f"tree paths from {u} and {w} do not meet")
    cycle = pu[:i + 1] + list(reversed(pw[:j]))
    if len(cycle) != len(set(cycle)):
        raise RuntimeError(f"closed walk {cycle} is not a simple cycle")
    return cycle


def certify_generalized_polygon(geom: IncidenceGeometry, n: int,
                                expected_counts=None) -> PolygonCertificate:
    """Girth/diameter/biregularity certificate for the 2n-gon property.

    A disconnected graph fails with a witness sample from two components.
    """
    failures = []
    p_degs = {len(v) for v in geom.point_lines}
    l_degs = {len(v) for v in geom.line_points}
    biregular = len(p_degs) == 1 and len(l_degs) == 1
    order = None
    if biregular:
        order = (next(iter(l_degs)) - 1, next(iter(p_degs)) - 1)
    else:
        failures.append(f"not biregular: point degrees {sorted(p_degs)}, "
                        f"line degrees {sorted(l_degs)}")

    adj = geom.adjacency()
    girth, diameter, connected, source, components = _ball_analytics(adj)
    if not connected:
        failures.append("incidence graph is disconnected")
    if girth != 2 * n:
        failures.append(f"girth {girth} != {2 * n}")
    if diameter != n:
        failures.append(f"diameter {diameter} != {n}")
    if expected_counts is not None:
        if (len(geom.points), len(geom.lines)) != tuple(expected_counts):
            failures.append(
                f"counts ({len(geom.points)}, {len(geom.lines)}) != "
                f"{tuple(expected_counts)}")

    witness_components = ()
    if components:
        witness_components = tuple(
            tuple(geom.vertex_label(v) for v in side) for side in components)
    return PolygonCertificate(
        target_n=n,
        num_points=len(geom.points),
        num_lines=len(geom.lines),
        connected=connected,
        biregular=biregular,
        order=order,
        girth=girth,
        diameter=diameter,
        passed=not failures,
        failures=tuple(failures),
        witness_components=witness_components,
        girth_source=source,
    )


def shortest_cycle_witness(geom: IncidenceGeometry,
                           cert: PolygonCertificate | None = None):
    """An explicit shortest cycle, as alternating element labels, or None.

    Given the certificate of `geom`, its girth and girth source are used
    and the witness costs one breadth-first search; without one the ball
    pass runs first.
    """
    adj = geom.adjacency()
    if cert is None:
        girth, _, _, source, _ = _ball_analytics(adj)
    else:
        girth, source = cert.girth, cert.girth_source
    if girth is None:
        return None
    cycle = _shortest_cycle_from(adj, source)
    if cycle is None or len(cycle) != girth:
        raise RuntimeError(f"no {girth}-cycle through vertex {source}")
    return [geom.vertex_label(v) for v in cycle]


def ordinary_subpolygon_witness(geom: IncidenceGeometry, k: int):
    """An ordinary k-gon (a 2k-cycle of the incidence graph), or None.

    k must be 3, 4 or 5.  When the girth exceeds 2k no such cycle can
    exist; when it equals 2k a shortest cycle is returned; otherwise a
    depth-bounded search looks for a cycle of the exact length.
    """
    if k not in (3, 4, 5):
        raise ValueError("k must be 3, 4 or 5")
    adj = geom.adjacency()
    girth, _, _, source, _ = _ball_analytics(adj)
    target = 2 * k
    if girth is None or girth > target:
        return None
    if girth == target:
        cycle = _shortest_cycle_from(adj, source)
        return [geom.vertex_label(v) for v in cycle]

    # exact-length simple cycle, canonicalised by its smallest vertex
    n = len(adj)
    on_path = [False] * n
    for start in range(n):
        stack = [(start, iter(adj[start]), 1)]
        path = [start]
        on_path[start] = True
        while stack:
            v, it, depth = stack[-1]
            advanced = False
            for w in it:
                if w < start:
                    continue
                if depth == target:
                    break
                if depth == target - 1:
                    if w == path[0]:
                        continue
                    if not on_path[w] and path[0] in adj[w]:
                        cycle = path + [w]
                        return [geom.vertex_label(x) for x in cycle]
                    continue
                if not on_path[w]:
                    path.append(w)
                    on_path[w] = True
                    stack.append((w, iter(adj[w]), depth + 1))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                dropped = path.pop()
                on_path[dropped] = False
                if dropped == start:
                    break
    return None
