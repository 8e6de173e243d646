"""Points and subspaces of PG(d, F) for the table-driven fields.

A point is a canonical coordinate tuple of field-element indices whose
first nonzero entry is 1; a subspace is the tuple of rows of the reduced
row echelon basis of its underlying vector space.  Both forms are unique
per object, so they double as hashable dictionary keys, which is what
every enumeration-heavy algorithm in this package leans on.

All routines take the field as first argument and work equally over the
full field GF(q^2) or over its Frobenius-fixed subfield GF(q): passing
``scalars=field.subfield`` to the enumeration helpers restricts the
coordinate alphabet, and Gaussian elimination stays inside the subfield
automatically because it is closed under the four operations.
"""

from __future__ import annotations

import itertools

Point = tuple
Basis = tuple


def normalize_point(f, vec) -> Point:
    """Canonical representative of a projective point (leading entry 1)."""
    for c in vec:
        if c:
            if c == 1:
                return tuple(vec)
            inv = f.inv(c)
            return tuple(f.mul(inv, x) for x in vec)
    raise ValueError("zero vector does not define a projective point")


def scale_vec(f, c, vec):
    return tuple(f.mul(c, x) for x in vec)


def add_vec(f, u, v):
    return tuple(f.add(a, b) for a, b in zip(u, v))


def rref(f, rows) -> Basis:
    """Reduced row echelon basis of the span of `rows` (zero rows dropped)."""
    mat = [list(r) for r in rows]
    if not mat:
        return ()
    width = len(mat[0])
    pivot_row = 0
    for col in range(width):
        pivot = None
        for i in range(pivot_row, len(mat)):
            if mat[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        inv = f.inv(mat[pivot_row][col])
        if inv != 1:
            mat[pivot_row] = [f.mul(inv, x) for x in mat[pivot_row]]
        for i in range(len(mat)):
            if i != pivot_row and mat[i][col]:
                c = mat[i][col]
                mat[i] = [f.sub(x, f.mul(c, y))
                          for x, y in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row] if any(r))


def span(f, points) -> Basis:
    """Smallest subspace containing the given points, as an echelon basis."""
    if not points:
        raise ValueError("span of an empty point list is undefined")
    return rref(f, points)


def point_in_subspace(f, point, basis) -> bool:
    vec = list(point)
    for row in basis:
        col = next(i for i, x in enumerate(row) if x)
        if vec[col]:
            c = vec[col]
            vec = [f.sub(x, f.mul(c, y)) for x, y in zip(vec, row)]
    return not any(vec)


def subspace_contains(f, outer: Basis, inner: Basis) -> bool:
    return all(point_in_subspace(f, row, outer) for row in inner)


def incident(f, x, y) -> bool:
    """Containment test between a point/subspace and a subspace, by rank."""
    a = (x,) if x and not isinstance(x[0], tuple) else x
    b = (y,) if y and not isinstance(y[0], tuple) else y
    if len(a) > len(b):
        a, b = b, a
    return subspace_contains(f, rref(f, b), rref(f, a))


def nullspace(f, rows) -> Basis:
    """Echelon basis of {x : M x^T = 0} for the matrix with the given rows."""
    mat = rref(f, rows)
    if not rows:
        raise ValueError("nullspace needs at least the ambient width")
    width = len(rows[0])
    pivots = [next(i for i, x in enumerate(row) if x) for row in mat]
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * width
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = f.neg(mat[r][fc])
        basis.append(tuple(vec))
    return rref(f, basis)


def intersect(f, a: Basis, b: Basis) -> Basis:
    """Intersection of two subspaces via the nullspace of stacked duals."""
    width = len(a[0]) if a else len(b[0])
    dual_a = nullspace(f, a) if a else ()
    dual_b = nullspace(f, b) if b else ()
    stacked = list(dual_a) + list(dual_b)
    if not stacked:
        return rref(f, [tuple(1 if i == j else 0 for j in range(width))
                        for i in range(width)])
    return nullspace(f, stacked)


def solve_combination(f, rows, target):
    """Coefficients c with sum(c_i * rows[i]) = target, or None.

    `rows` need not be independent; any one solution is returned.
    """
    nrows = len(rows)
    width = len(target)
    # augmented system over the columns: A c = t with A[j][i] = rows[i][j]
    aug = [[rows[i][j] for i in range(nrows)] + [target[j]]
           for j in range(width)]
    pivots = []
    pivot_row = 0
    for col in range(nrows):
        pivot = None
        for i in range(pivot_row, width):
            if aug[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        aug[pivot_row], aug[pivot] = aug[pivot], aug[pivot_row]
        inv = f.inv(aug[pivot_row][col])
        if inv != 1:
            aug[pivot_row] = [f.mul(inv, x) for x in aug[pivot_row]]
        for i in range(width):
            if i != pivot_row and aug[i][col]:
                c = aug[i][col]
                aug[i] = [f.sub(x, f.mul(c, y))
                          for x, y in zip(aug[i], aug[pivot_row])]
        pivots.append(col)
        pivot_row += 1
    for i in range(pivot_row, width):
        if aug[i][nrows]:
            return None  # inconsistent
    coeffs = [0] * nrows
    for r, col in enumerate(pivots):
        coeffs[col] = aug[r][nrows]
    return tuple(coeffs)


def enumerate_points(f, dim: int, scalars=None):
    """All canonical points of PG(dim, .), deterministically ordered.

    With ``scalars=f.subfield`` this walks the subgeometry PG(dim, q)
    inside PG(dim, q^2).
    """
    if scalars is None:
        scalars = range(f.n)
    scalars = list(scalars)
    for lead in range(dim + 1):
        prefix = (0,) * lead + (1,)
        for tail in itertools.product(scalars, repeat=dim - lead):
            yield prefix + tail


def subspace_points(f, basis: Basis, scalars=None):
    """Canonical points of the projective subspace spanned by `basis`.

    With restricted scalars this yields the Baer-subgeometry points of the
    basis (the rows must stay independent over the full field for the
    count to be correct; callers assert that).
    """
    for coeffs in enumerate_points(f, len(basis) - 1, scalars):
        vec = [0] * len(basis[0])
        for c, row in zip(coeffs, basis):
            if c:
                for j, x in enumerate(row):
                    if x:
                        vec[j] = f.add(vec[j], f.mul(c, x))
        yield normalize_point(f, vec)


def enumerate_subspaces(f, dim: int, k: int, scalars=None):
    """All projective k-subspaces of PG(dim, .) as echelon bases (k < dim).

    Generation is by reduced-echelon pattern: pick the pivot columns, then
    fill the free entries; every subspace appears exactly once and already
    in canonical form.
    """
    if scalars is None:
        scalars = range(f.n)
    scalars = list(scalars)
    width = dim + 1
    nrows = k + 1
    for pivots in itertools.combinations(range(width), nrows):
        free_cells = []
        for r in range(nrows):
            for c in range(pivots[r] + 1, width):
                if c not in pivots:
                    free_cells.append((r, c))
        for values in itertools.product(scalars, repeat=len(free_cells)):
            rows = [[0] * width for _ in range(nrows)]
            for r in range(nrows):
                rows[r][pivots[r]] = 1
            for (r, c), v in zip(free_cells, values):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


def gaussian_binomial(n: int, k: int, order: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over GF(order)."""
    num = den = 1
    for i in range(k):
        num *= order ** (n - i) - 1
        den *= order ** (i + 1) - 1
    assert num % den == 0
    return num // den
