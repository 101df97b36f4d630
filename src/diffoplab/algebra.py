"""Finite-dimensional unital associative algebras given by structure constants.

An algebra is a table c[i][j][k] with e_i e_j = sum_k c[i][j][k] e_k over an
exact field, an explicit unit vector, and an optional Z2 grading.  The module
also ships a catalog of named constructions used throughout the test corpus
and a JSON spec format with exact round-trip.
"""

from __future__ import annotations

import json
from itertools import compress, count, product

from .fields import Field, QQ
from .linalg import Matrix, Subspace, kernel, vstack


class AlgebraError(ValueError):
    pass


def flat_parities(row_parity, col_parity):
    """Parity of each row-major flat coordinate (r, c) of a map between graded
    spaces: [r] + [c].  A map is homogeneous of parity π iff it is supported
    on the coordinates of parity π."""
    return [(r + c) % 2 for r in row_parity for c in col_parity]


class ValidationReport:
    """Outcome of structural validation; failures carry witness indices."""

    def __init__(self):
        self.failures = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, kind: str, witness):
        self.failures.append({"kind": kind, "witness": witness})

    def to_dict(self):
        return {"ok": self.ok, "failures": self.failures}

    def __repr__(self):
        return "valid" if self.ok else f"invalid: {self.failures!r}"


class FiniteAlgebra:
    """Unital associative algebra of finite dimension over an exact field."""

    def __init__(self, field: Field, dim: int, basis_names, structure_constants,
                 unit, parity=None, name: str = "algebra"):
        if dim < 1:
            raise AlgebraError(f"dimension must be >= 1 (a unital algebra of "
                               f"dimension 0 has 1 = 0), got {dim}")
        self.field = field
        self.dim = dim
        self.basis_names = tuple(basis_names)
        self.sc = [[[field.coerce(structure_constants[i][j][k]) for k in range(dim)]
                    for j in range(dim)] for i in range(dim)]
        self.unit = [field.coerce(x) for x in unit]
        self.parity = None if parity is None else tuple(int(p) % 2 for p in parity)
        self.name = name
        if len(self.basis_names) != dim or len(self.unit) != dim:
            raise AlgebraError("basis/unit length does not match dimension")
        # left/right multiplication operators in the chosen basis: each
        # e_i e_j = Σ c_k e_k puts c_k at (k, j) of L(e_i) and (k, i) of R(e_j)
        left = [[[] for _ in range(dim)] for _ in range(dim)]
        right = [[[] for _ in range(dim)] for _ in range(dim)]
        for i, row in enumerate(self.sc):
            for j, prod in enumerate(row):
                for k in compress(count(), prod):
                    left[i][k].append((j, prod[k]))
                    right[j][k].append((i, prod[k]))
        self._left = [Matrix.from_pairs(field, rows, dim) for rows in left]
        self._right = [Matrix.from_pairs(field, rows, dim) for rows in right]
        self._center = None

    # -- basic structure ------------------------------------------------------

    @property
    def graded(self) -> bool:
        return self.parity is not None

    def zero_vector(self):
        return [self.field.zero()] * self.dim

    def basis_vector(self, i: int):
        v = self.zero_vector()
        v[i] = self.field.one()
        return v

    def left_mult(self, coords) -> Matrix:
        """Matrix of b ↦ a·b for a with the given coordinates."""
        return Matrix.combination(self._left, coords)

    def right_mult(self, coords) -> Matrix:
        """Matrix of b ↦ b·a."""
        return Matrix.combination(self._right, coords)

    def left_mult_basis(self, i: int) -> Matrix:
        return self._left[i]

    def right_mult_basis(self, i: int) -> Matrix:
        return self._right[i]

    def multiply(self, a, b):
        """Product of two coordinate vectors."""
        f = self.field
        out = self.zero_vector()
        for i, x in enumerate(a):
            if x == 0:
                continue
            for j, y in enumerate(b):
                if y == 0:
                    continue
                xy = f.mul(x, y)
                sc_ij = self.sc[i][j]
                for k in range(self.dim):
                    if sc_ij[k] != 0:
                        out[k] = f.add(out[k], f.mul(xy, sc_ij[k]))
        return out

    def element(self, coords) -> "AlgebraElement":
        return AlgebraElement(self, [self.field.coerce(x) for x in coords])

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, self.basis_vector(i))

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, list(self.unit))

    # -- validation ------------------------------------------------------------

    def validate(self) -> ValidationReport:
        rep = ValidationReport()
        f = self.field
        n = self.dim
        if all(x == 0 for x in self.unit):
            rep.fail("unit_is_zero", None)
        for j in range(n):
            ej = self.basis_vector(j)
            if self.multiply(self.unit, ej) != ej:
                rep.fail("left_unit_law", {"j": j})
            if self.multiply(ej, self.unit) != ej:
                rep.fail("right_unit_law", {"j": j})
        for i, j, k in product(range(n), repeat=3):
            lhs = self.multiply(self.multiply(self.basis_vector(i), self.basis_vector(j)),
                                self.basis_vector(k))
            rhs = self.multiply(self.basis_vector(i),
                                self.multiply(self.basis_vector(j), self.basis_vector(k)))
            if lhs != rhs:
                bad_l = next(l for l in range(n) if lhs[l] != rhs[l])
                rep.fail("associativity", {"i": i, "j": j, "k": k, "l": bad_l})
        if self.graded:
            for i, j in product(range(n), repeat=2):
                want = (self.parity[i] + self.parity[j]) % 2
                for k in range(n):
                    if self.sc[i][j][k] != 0 and self.parity[k] != want:
                        rep.fail("grading_multiplicative", {"i": i, "j": j, "k": k})
            for k in range(n):
                if self.unit[k] != 0 and self.parity[k] != 0:
                    rep.fail("unit_parity", {"k": k})
        return rep

    # -- derived structure -------------------------------------------------------

    def center(self) -> Subspace:
        """The center as a subspace of coordinate vectors; contains the unit."""
        if self._center is None:
            ads = [self._left[i] - self._right[i] for i in range(self.dim)]
            self._center = kernel(vstack(ads))
        return self._center

    def is_commutative(self) -> bool:
        n = self.dim
        return all(self.sc[i][j] == self.sc[j][i]
                   for i in range(n) for j in range(i + 1, n))

    def is_graded_commutative(self) -> bool:
        if not self.graded:
            raise AlgebraError("algebra carries no grading")
        f = self.field
        n = self.dim
        for i in range(n):
            for j in range(n):
                sign = -1 if (self.parity[i] and self.parity[j]) else 1
                lhs = self.sc[i][j]
                rhs = self.sc[j][i]
                for k in range(n):
                    want = rhs[k] if sign == 1 else f.neg(rhs[k])
                    if lhs[k] != want:
                        return False
        return True

    def opposite(self) -> "FiniteAlgebra":
        """Same space with reversed multiplication."""
        n = self.dim
        sc = [[[self.sc[j][i][k] for k in range(n)] for j in range(n)]
              for i in range(n)]
        return FiniteAlgebra(self.field, n, self.basis_names, sc, self.unit,
                             self.parity, name=self.name + "^op")

    # -- JSON spec format ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        f = self.field
        sc = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    if self.sc[i][j][k] != 0:
                        sc.append([i, j, k, f.fmt(self.sc[i][j][k])])
        out = {
            "name": self.name,
            "char": self.field.char,
            "dim": self.dim,
            "basis": list(self.basis_names),
            "unit": [f.fmt(x) for x in self.unit],
            "sc": sc,
        }
        if self.graded:
            out["parity"] = list(self.parity)
        return out

    @staticmethod
    def from_json_dict(d: dict) -> "FiniteAlgebra":
        if not isinstance(d, dict):
            raise AlgebraError("algebra spec must be a JSON object")
        field = Field(int(d.get("char", 0)))
        n = int(d["dim"])
        zero = field.zero()
        sc = [[[zero] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, v in d["sc"]:
            i, j, k = int(i), int(j), int(k)
            if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
                raise AlgebraError(f"structure constant [{i}, {j}, {k}] out of range "
                                   f"for a {n}-dim algebra")
            sc[i][j][k] = field.coerce(v)
        parity = d.get("parity")
        if parity is not None and not (isinstance(parity, list) and len(parity) == n):
            raise AlgebraError(f"parity must be a list of {n} entries, got {parity!r}")
        return FiniteAlgebra(field, n, d["basis"], sc, d["unit"],
                             parity, name=d.get("name", "algebra"))

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "FiniteAlgebra":
        with open(path, encoding="utf-8") as fh:
            return FiniteAlgebra.from_json_dict(json.load(fh))

    def __repr__(self):
        return f"FiniteAlgebra({self.name}, dim {self.dim}, {self.field!r})"


class AlgebraElement:
    """Coordinate vector bound to its algebra, with ring operations."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: FiniteAlgebra, coords):
        if len(coords) != algebra.dim:
            raise AlgebraError("coordinate length does not match algebra dimension")
        self.algebra = algebra
        self.coords = list(coords)

    def _same(self, other):
        if self.algebra is not other.algebra:
            raise AlgebraError("elements of different algebras")

    def __add__(self, other):
        self._same(other)
        f = self.algebra.field
        return AlgebraElement(self.algebra,
                              [f.add(a, b) for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._same(other)
        f = self.algebra.field
        return AlgebraElement(self.algebra,
                              [f.sub(a, b) for a, b in zip(self.coords, other.coords)])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._same(other)
            return AlgebraElement(self.algebra,
                                  self.algebra.multiply(self.coords, other.coords))
        c = self.algebra.field.coerce(other)
        f = self.algebra.field
        return AlgebraElement(self.algebra, [f.mul(c, a) for a in self.coords])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.algebra is other.algebra
                and self.coords == other.coords)

    def is_zero(self):
        return all(x == 0 for x in self.coords)

    def parity(self):
        alg = self.algebra
        if not alg.graded:
            raise AlgebraError("algebra carries no grading")
        pars = {alg.parity[i] for i, c in enumerate(self.coords) if c != 0}
        if not pars:
            return 0
        if len(pars) > 1:
            raise AlgebraError("element is not homogeneous")
        return pars.pop()

    def __repr__(self):
        f = self.algebra.field
        terms = [f"{f.fmt(c)}*{nm}" for c, nm in zip(self.coords, self.algebra.basis_names)
                 if c != 0]
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------
#
# Basis-index orderings are fixed:
#   trunc_poly n: 1, x, x^2, ..., x^(n-1)
#   square_zero g: 1, x_1, ..., x_g (all products of the x_i vanish)
#   matrix k: row-major matrix units e_{rs} at index r*k + s
#   quaternion: 1, i, j, k
#   grassmann g: subsets of {θ_1..θ_g} in (size, lexicographic) order
#   group_z m: group elements g^0, ..., g^(m-1)
#   product: blocks of the two factors in order


def _empty_sc(field: Field, n: int):
    z = field.zero()
    return [[[z] * n for _ in range(n)] for _ in range(n)]


def trunc_poly(n: int, field: Field = QQ) -> FiniteAlgebra:
    """K[x]/(x^n) with basis 1, x, ..., x^(n-1)."""
    if n < 1:
        raise AlgebraError(f"truncated polynomial size must be >= 1, got {n}")
    sc = _empty_sc(field, n)
    one = field.one()
    for i in range(n):
        for j in range(n):
            if i + j < n:
                sc[i][j][i + j] = one
    unit = [one] + [field.zero()] * (n - 1)
    names = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, n)]
    return FiniteAlgebra(field, n, names, sc, unit, name=f"trunc_poly:{n}")


def square_zero(g: int = 2, field: Field = QQ) -> FiniteAlgebra:
    """K[x_1..x_g] with every product x_i x_j = 0; dim g+1."""
    if g < 0:
        raise AlgebraError(f"square_zero generator count must be >= 0, got {g}")
    n = g + 1
    sc = _empty_sc(field, n)
    one = field.one()
    for i in range(n):
        sc[0][i][i] = one
        if i:
            sc[i][0][i] = one
    unit = [one] + [field.zero()] * g
    names = ["1"] + [f"x{i}" for i in range(1, g + 1)]
    return FiniteAlgebra(field, n, names, sc, unit, name=f"square_zero:{g}")


def matrix_algebra(k: int, field: Field = QQ) -> FiniteAlgebra:
    """Full matrix algebra M_k with units e_{rs} at index r*k + s."""
    if k < 1:
        raise AlgebraError(f"matrix algebra size must be >= 1, got {k}")
    n = k * k
    sc = _empty_sc(field, n)
    one = field.one()
    for r in range(k):
        for s in range(k):
            for t in range(k):
                for u in range(k):
                    if s == t:
                        sc[r * k + s][t * k + u][r * k + u] = one
    unit = [field.zero()] * n
    for r in range(k):
        unit[r * k + r] = one
    names = [f"e{r+1}{s+1}" for r in range(k) for s in range(k)]
    return FiniteAlgebra(field, n, names, sc, unit, name=f"matrix:{k}")


def quaternion(field: Field = QQ) -> FiniteAlgebra:
    """Hamilton quaternions, basis 1, i, j, k."""
    if field.char == 2:
        raise AlgebraError("quaternions need characteristic != 2")
    one = field.one()
    m1 = field.neg(one)
    z = field.zero()
    # multiplication table rows/cols in order 1, i, j, k; entries coord vectors
    table = {
        (0, 0): (0, one), (0, 1): (1, one), (0, 2): (2, one), (0, 3): (3, one),
        (1, 0): (1, one), (1, 1): (0, m1), (1, 2): (3, one), (1, 3): (2, m1),
        (2, 0): (2, one), (2, 1): (3, m1), (2, 2): (0, m1), (2, 3): (1, one),
        (3, 0): (3, one), (3, 1): (2, one), (3, 2): (1, m1), (3, 3): (0, m1),
    }
    sc = _empty_sc(field, 4)
    for (i, j), (k, v) in table.items():
        sc[i][j][k] = v
    unit = [one, z, z, z]
    return FiniteAlgebra(field, 4, ["1", "i", "j", "k"], sc, unit, name="quaternion")


def grassmann(g: int, field: Field = QQ) -> FiniteAlgebra:
    """Exterior algebra on g odd generators; graded, dim 2^g."""
    if g < 0:
        raise AlgebraError(f"grassmann generator count must be >= 0, got {g}")
    if field.char == 2:
        raise AlgebraError("grassmann algebra needs characteristic != 2 for grading")
    subsets = []
    for size in range(g + 1):
        level = [s for s in _subsets(g) if len(s) == size]
        subsets.extend(sorted(level))
    index = {s: i for i, s in enumerate(subsets)}
    n = len(subsets)
    sc = _empty_sc(field, n)
    one = field.one()
    for a in subsets:
        for b in subsets:
            if set(a) & set(b):
                continue
            sign, merged = _merge_sign(a, b)
            sc[index[a]][index[b]][index[merged]] = one if sign > 0 else field.neg(one)
    unit = [field.zero()] * n
    unit[index[()]] = one
    names = ["1"] + ["".join(f"θ{i+1}" for i in s) for s in subsets[1:]]
    parity = [len(s) % 2 for s in subsets]
    return FiniteAlgebra(field, n, names, sc, unit, parity, name=f"grassmann:{g}")


def _subsets(g: int):
    out = [()]
    for i in range(g):
        out += [s + (i,) for s in out]
    return out


def _merge_sign(a, b):
    """Sign of sorting the concatenation of two disjoint increasing tuples."""
    merged = list(a) + list(b)
    sign = 1
    # bubble sort counting transpositions
    for i in range(len(merged)):
        for j in range(len(merged) - 1 - i):
            if merged[j] > merged[j + 1]:
                merged[j], merged[j + 1] = merged[j + 1], merged[j]
                sign = -sign
    return sign, tuple(merged)


def group_z(m: int, field: Field = QQ) -> FiniteAlgebra:
    """Group algebra of Z/m, basis g^0..g^(m-1)."""
    if m < 1:
        raise AlgebraError(f"group_z order must be >= 1, got {m}")
    sc = _empty_sc(field, m)
    one = field.one()
    for i in range(m):
        for j in range(m):
            sc[i][j][(i + j) % m] = one
    unit = [one] + [field.zero()] * (m - 1)
    names = [f"g^{i}" if i else "1" for i in range(m)]
    return FiniteAlgebra(field, m, names, sc, unit, name=f"group_z:{m}")


def direct_product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """A × B with componentwise operations; blocks of A first."""
    if a.field != b.field:
        raise AlgebraError("factors over different fields")
    n = a.dim + b.dim
    field = a.field
    sc = _empty_sc(field, n)
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                sc[i][j][k] = a.sc[i][j][k]
    o = a.dim
    for i in range(b.dim):
        for j in range(b.dim):
            for k in range(b.dim):
                sc[o + i][o + j][o + k] = b.sc[i][j][k]
    unit = list(a.unit) + list(b.unit)
    names = [f"a.{x}" for x in a.basis_names] + [f"b.{x}" for x in b.basis_names]
    parity = None
    if a.graded or b.graded:
        pa = a.parity if a.graded else (0,) * a.dim
        pb = b.parity if b.graded else (0,) * b.dim
        parity = list(pa) + list(pb)
    return FiniteAlgebra(field, n, names, sc, unit, parity,
                         name=f"product({a.name},{b.name})")


def _int_arg(name: str, args, default: int = None) -> int:
    """The one integer parameter N of the shorthand ``name:N``."""
    try:
        (text,) = args or ([] if default is None else [str(default)])
        return int(text)
    except ValueError:
        raise AlgebraError(f"{name}:N needs one integer N, got "
                           f"{':'.join([name, *args])!r}") from None


def _no_args(name: str, args):
    raise AlgebraError(f"{name} takes no parameter, got {':'.join([name, *args])!r}")


_CATALOG = {
    "trunc_poly": lambda field, args: trunc_poly(_int_arg("trunc_poly", args), field),
    "square_zero": lambda field, args: square_zero(_int_arg("square_zero", args, 2), field),
    "matrix": lambda field, args: matrix_algebra(_int_arg("matrix", args), field),
    "quaternion": lambda field, args: (_no_args("quaternion", args) if args
                                       else quaternion(field)),
    "grassmann": lambda field, args: grassmann(_int_arg("grassmann", args), field),
    "group_z": lambda field, args: group_z(_int_arg("group_z", args), field),
}


def catalog(spec: str, field: Field = QQ) -> FiniteAlgebra:
    """Build a catalog algebra from a shorthand such as ``"trunc_poly:3"``.

    Direct products use ``+``: ``"trunc_poly:2+matrix:2"``.
    """
    parts = spec.split("+")
    algs = []
    for part in parts:
        bits = part.strip().split(":")
        name, args = bits[0], bits[1:]
        if name not in _CATALOG:
            raise AlgebraError(f"unknown catalog algebra {name!r}")
        algs.append(_CATALOG[name](field, args))
    out = algs[0]
    for more in algs[1:]:
        out = direct_product(out, more)
    return out


def catalog_names():
    return sorted(_CATALOG)
