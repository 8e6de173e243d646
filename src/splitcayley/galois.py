"""Exact arithmetic in the quadratic extension GF(q^2) over GF(q).

An element of GF(p^(2e)) is an integer index: ``sum(c_i * p**i)`` stands
for the residue class ``sum(c_i * x**i)`` modulo a monic irreducible
polynomial of degree 2e over GF(p).  The fields in play are tiny (q <= 5,
so at most 625 elements), which makes it practical to precompute every
table (addition, exp/log, Frobenius, relative norm and trace) once at
construction and keep all inner loops branch free.

The subfield GF(q) is recognised inside GF(q^2) as the fixed set of the
relative Frobenius x -> x^q; there is no second field object.  The
relative norm is N(x) = x^(q+1) and the relative trace is T(x) = x + x^q;
both land in the subfield.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

# Monic default moduli, constant coefficient first.  Each is primitive,
# so the class of x (index p) generates the multiplicative group.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (3, 2): (2, 1, 1),        # x^2 + x + 2
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (5, 2): (2, 1, 1),        # x^2 + x + 2
}

SUPPORTED_Q = (2, 3, 4, 5)


class FieldError(ValueError):
    """Invalid field parameters (bad modulus, non-primitive element, ...)."""


def _digits(index: int, p: int, width: int) -> list[int]:
    out = []
    for _ in range(width):
        out.append(index % p)
        index //= p
    return out


def _index(digits, p: int) -> int:
    out = 0
    for c in reversed(list(digits)):
        out = out * p + c
    return out


def _poly_mul_mod(a, b, modulus, p):
    """Product of coefficient lists, reduced modulo the monic `modulus`."""
    deg = len(modulus) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    for k in range(len(prod) - 1, deg - 1, -1):
        c = prod[k]
        if c:
            for j in range(deg + 1):
                prod[k - deg + j] = (prod[k - deg + j] - c * modulus[j]) % p
    return prod[:deg] + [0] * (deg - len(prod))


def _poly_divmod(a, b, p):
    """Quotient and remainder of coefficient lists over GF(p), b monic-led."""
    a = list(a)
    db, da = len(b) - 1, len(a) - 1
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * max(da - db + 1, 1)
    for k in range(da - db, -1, -1):
        c = (a[k + db] * inv_lead) % p
        quot[k] = c
        if c:
            for j in range(db + 1):
                a[k + j] = (a[k + j] - c * b[j]) % p
    return quot, a[:db] if db else [0]


def _is_irreducible(modulus, p) -> bool:
    deg = len(modulus) - 1
    if modulus[-1] != 1:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = list(tail) + [1]
            _, rem = _poly_divmod(modulus, divisor, p)
            if not any(rem):
                return False
    return True


class Record:
    """Mixin giving a dataclass its JSON-ready `to_dict`.

    The dict holds every dataclass field, except those whose metadata sets
    `report` to False, and then every `@property` of the class, under its
    attribute name or under the key `json_names` maps it to.  Nested
    records become dicts, tuples become lists and dict keys become
    strings, so `json.dumps` of the result is the report format.
    """

    json_names = {}

    def to_dict(self) -> dict:
        names = [f.name for f in dataclasses.fields(self)
                 if f.metadata.get("report", True)]
        names += [name for name, attr in vars(type(self)).items()
                  if isinstance(attr, property)]
        return {self.json_names.get(name, name): _plain(getattr(self, name))
                for name in names}


def _plain(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass(frozen=True)
class FieldSpec(Record):
    """Descriptor of GF(p^degree): characteristic, modulus, primitive element.

    ``degree`` is the full extension degree 2e over the prime field, so the
    field has p^degree elements and the distinguished subfield has order
    q = p^(degree/2).
    """

    p: int
    degree: int
    modulus: tuple[int, ...]
    primitive: int


class QuadraticField:
    """GF(q^2) with table-driven arithmetic and its Frobenius-fixed GF(q)."""

    def __init__(self, p: int, degree: int, modulus=None, primitive=None):
        if p < 2 or any(p % d == 0 for d in range(2, p)):
            raise FieldError(f"characteristic {p} is not prime")
        if degree % 2 != 0 or degree <= 0:
            raise FieldError("extension degree must be even and positive")
        if modulus is None:
            try:
                modulus = DEFAULT_MODULI[(p, degree)]
            except KeyError:
                raise FieldError(f"no default modulus for GF({p}^{degree})")
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != degree + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of the declared degree")
        if not _is_irreducible(modulus, p):
            raise FieldError(f"modulus {modulus} is reducible over GF({p})")

        self.p = p
        self.degree = degree
        self.e = degree // 2
        self.n = p ** degree          # element count of GF(q^2)
        self.q = p ** self.e          # order of the distinguished subfield
        self.modulus = modulus

        self._build_mul_tables(primitive)
        self._build_add_tables()
        self._build_unary_tables()
        self.spec = FieldSpec(p, degree, modulus, self.g)

    # -- construction -------------------------------------------------

    def _build_mul_tables(self, primitive):
        p, n, deg = self.p, self.n, self.degree
        if primitive is None:
            candidates = range(p, n)  # constants are never generators
        else:
            candidates = [primitive]
        for g in candidates:
            exp = [1]
            gd = _digits(g, p, deg)
            acc = [1] + [0] * (deg - 1)
            for _ in range(n - 2):
                acc = _poly_mul_mod(acc, gd, self.modulus, p)
                exp.append(_index(acc, p))
            if len(set(exp)) == n - 1:
                break
        else:
            raise FieldError(f"{primitive} does not generate GF({p}^{deg})*")
        self.g = g
        self._exp = exp
        self._log = [0] * n
        for k, v in enumerate(exp):
            self._log[v] = k

    def _build_add_tables(self):
        p, n, deg = self.p, self.n, self.degree
        digit = [_digits(i, p, deg) for i in range(n)]
        add = []
        for i in range(n):
            di = digit[i]
            row = []
            for j in range(n):
                dj = digit[j]
                row.append(_index([(a + b) % p for a, b in zip(di, dj)], p))
            add.append(row)
        self._add = add
        self._neg = [_index([(-c) % p for c in digit[i]], p) for i in range(n)]

    def _build_unary_tables(self):
        n, q = self.n, self.q
        self._frob = [self.power(x, q) for x in range(n)]
        self._norm = [self.power(x, q + 1) for x in range(n)]
        self._trace = [self._add[x][self._frob[x]] for x in range(n)]
        assert all(self._frob[self._frob[x]] == x for x in range(n))

        self.subfield = tuple(x for x in range(n) if self._frob[x] == x)
        assert len(self.subfield) == q
        self._sub_pos = {x: i for i, x in enumerate(self.subfield)}

        self.zero, self.one = 0, 1
        self.neg_one = self._neg[1]

        # Norm-one subgroup, listed as successive powers of g^(q-1).
        h = self.power(self.g, q - 1)
        group = [1]
        for _ in range(q + 1):
            group.append(self.mul(group[-1], h))
        if group.pop() != 1:
            raise FieldError(f"g^(q-1) does not have order q+1 = {q + 1}")
        self.norm_one = tuple(group)

        # {1, g} is a GF(q)-basis of GF(q^2); tabulate both directions.
        self._from_pair = {}
        self._to_pair = [None] * n
        for a in self.subfield:
            for b in self.subfield:
                x = self.add(a, self.mul(b, self.g))
                self._from_pair[(a, b)] = x
                self._to_pair[x] = (a, b)
        assert all(v is not None for v in self._to_pair)

    # -- arithmetic -----------------------------------------------------

    @property
    def elements(self):
        return range(self.n)

    def add(self, x, y):
        return self._add[x][y]

    def neg(self, x):
        return self._neg[x]

    def sub(self, x, y):
        return self._add[x][self._neg[y]]

    def mul(self, x, y):
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.n - 1)]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("0 has no inverse")
        return self._exp[(-self._log[x]) % (self.n - 1)]

    def div(self, x, y):
        return self.mul(x, self.inv(y))

    def power(self, x, k: int):
        if x == 0:
            if k == 0:
                return 1
            if k < 0:
                raise ZeroDivisionError("0 has no inverse")
            return 0
        return self._exp[(self._log[x] * k) % (self.n - 1)]

    def conj(self, x):
        """Relative Frobenius x -> x^q."""
        return self._frob[x]

    def norm(self, x):
        """Relative norm x -> x^(q+1), valued in the subfield."""
        return self._norm[x]

    def trace(self, x):
        """Relative trace x -> x + x^q, valued in the subfield."""
        return self._trace[x]

    def herm(self, x, y):
        """Hermitian form <x, y> = sum x_i * y_i^q, any vector length."""
        add, mul, frob = self._add, self.mul, self._frob
        acc = 0
        for a, b in zip(x, y):
            acc = add[acc][mul(a, frob[b])]
        return acc

    def in_subfield(self, x) -> bool:
        return self._frob[x] == x

    # -- distinguished elements and coordinates ------------------------

    def norm_one_subgroup(self) -> tuple:
        """The q+1 elements with N(x) = 1, as successive powers of g^(q-1)."""
        return self.norm_one

    def canonical_omega(self):
        """A fixed element with N(omega) = -1: 1 when q is even, else g^((q-1)/2)."""
        if self.q % 2 == 0:
            return 1
        omega = self.power(self.g, (self.q - 1) // 2)
        assert self.norm(omega) == self.neg_one
        return omega

    def sub_index(self, x) -> int:
        """Position of a subfield element in sorted ambient order (0..q-1)."""
        return self._sub_pos[x]

    def sub_element(self, i: int):
        return self.subfield[i]

    def to_pair(self, x):
        """Coordinates (a, b) of x = a + b*g over the subfield basis {1, g}."""
        return self._to_pair[x]

    def from_pair(self, a, b):
        return self._from_pair[(a, b)]

    @classmethod
    def for_q(cls, q: int, modulus=None) -> "QuadraticField":
        """GF(q^2) for a supported subfield order q in {2, 3, 4, 5}."""
        if q not in SUPPORTED_Q:
            raise FieldError(f"q must be one of {SUPPORTED_Q}, got {q}")
        for p in (2, 3, 5):
            e = 0
            t = q
            while t % p == 0:
                t //= p
                e += 1
            if t == 1:
                return cls(p, 2 * e, modulus=modulus)
        raise FieldError(f"unsupported q={q}")

    def __repr__(self):
        return f"QuadraticField(GF({self.q}^2), modulus={self.modulus})"
