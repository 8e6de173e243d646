"""The hexagon geometry built from a class of Baer subgenerators.

Points are the generators of H(3,q^2) together with its affine points;
lines are the curve points together with the chosen subgenerator set;
incidence is inclusion (a curve point lies on a generator, an affine point
lies on a subgenerator, a subgenerator spans a generator) and affine
points are never incident with curve-point lines.  For a genuine norm
class the result is a generalised hexagon of order (q,q): the bipartite
incidence graph is connected, biregular of degree q+1, has girth exactly
12 and diameter exactly 6, with (q^6-1)/(q-1) points and as many lines.

Certification is by exact breadth-first search from every vertex: girth
and diameter come with reconstructible witnesses, so a failing input
yields an explicit short cycle rather than a bare flag.
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
        assert len(set(self.incidences)) == len(self.incidences)
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


def _bfs_analytics(adj):
    """(girth, diameter, connected, girth witness source, component sample).

    One breadth-first search per vertex.  The girth is the minimum over
    all sources and all non-tree edges of dist[u]+dist[w]+1; scanning
    every source makes this exact (each candidate bounds a genuine cycle
    from below by trimming at the lowest common ancestor, and a shortest
    cycle is hit with equality from any of its own vertices), and the
    minimising source admits a simple cycle of exactly that length.
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
    assert pu[i] == pw[j]
    cycle = pu[:i + 1] + list(reversed(pw[:j]))
    assert len(cycle) == len(set(cycle))
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
    girth, diameter, connected, _, components = _bfs_analytics(adj)
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
    )


def shortest_cycle_witness(geom: IncidenceGeometry):
    """An explicit shortest cycle, as alternating element labels, or None."""
    adj = geom.adjacency()
    girth, _, _, source, _ = _bfs_analytics(adj)
    if girth is None:
        return None
    cycle = _shortest_cycle_from(adj, source)
    assert cycle is not None and len(cycle) == girth
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
    girth, _, _, source, _ = _bfs_analytics(adj)
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
