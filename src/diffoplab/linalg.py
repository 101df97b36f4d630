"""Dense exact linear algebra: matrices, canonical subspaces, linear solves.

Everything is computed exactly.  Over the rationals the elimination core
works on integer rows (cleared denominators, gcd-normalized) so that the
bulk of the arithmetic is fast Python-int work; reduced row echelon bases
are produced at the end in the integer-first form of :mod:`.fields` (an
``int`` wherever the pivot divides the entry, a ``Fraction`` otherwise).
Subspaces are always stored through their reduced row echelon basis with
zero rows dropped, so two equal subspaces have bitwise identical
representations.

Matrices are stored dense, but products visit only pairs of non-zero
entries.  ``m.apply(v)`` takes each non-zero ``v[j]`` against the cached
non-zero entries of column j of ``m``; ``a @ b`` takes each non-zero
``a[i][k]`` against the cached non-zero entries of row k of ``b``.  The
Kronecker-structured operators of the higher layers, and the sparse vectors
they act on, make that a small fraction of the dense work.

Besides ``kernel`` and ``closure``, the constructions of the higher layers
rest on four helpers: ``preimage`` (the vectors that a family of operators
sends into a subspace), ``inverse``, ``quotient_projection`` (coset
representatives of K^n/S and the projection onto their coordinates), and
``factor_through`` (write Δ = F∘J with F in a given space of maps).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import Field, _q


class Matrix:
    """Dense matrix over a :class:`Field`; immutable once constructed.

    ``data`` must not be written after construction: ``apply`` caches the
    non-zero entries of every column and ``other @ self`` those of every
    row, and a later write would silently leave those caches stale.  Build
    the rows first, then construct the matrix.
    """

    __slots__ = ("field", "rows", "cols", "data", "_nzr", "_nzc")

    def __init__(self, field: Field, data, cols: int = None):
        self.field = field
        self._nzr = None
        self._nzc = None
        self.data = [list(r) for r in data]
        self.rows = len(self.data)
        if self.data:
            self.cols = len(self.data[0])
            if cols is not None and cols != self.cols:
                raise ValueError("explicit column count contradicts data")
        else:
            self.cols = 0 if cols is None else cols
        for r in self.data:
            if len(r) != self.cols:
                raise ValueError("ragged matrix rows")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        return Matrix(field, [[field.coerce(x) for x in r] for r in rows])

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        z = field.zero()
        return Matrix(field, [[z] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        z, o = field.zero(), field.one()
        return Matrix(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    # -- basics ---------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.data == other.data
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.field!r})"

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def row(self, i):
        return list(self.data[i])

    def col(self, j):
        return [r[j] for r in self.data]

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [[self.data[i][j] for i in range(self.rows)]
                                   for j in range(self.cols)])

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        red = self._reduced
        return Matrix(self.field, [red([a + b for a, b in zip(r1, r2)])
                                   for r1, r2 in zip(self.data, other.data)], self.cols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        red = self._reduced
        return Matrix(self.field, [red([a - b for a, b in zip(r1, r2)])
                                   for r1, r2 in zip(self.data, other.data)], self.cols)

    def __neg__(self) -> "Matrix":
        red = self._reduced
        return Matrix(self.field, [red([-a for a in r]) for r in self.data], self.cols)

    def scale(self, c) -> "Matrix":
        red = self._reduced
        return Matrix(self.field, [red([c * a for a in r]) for r in self.data], self.cols)

    def _nonzero_rows(self):
        """Per row, the ``(col, value)`` pairs of its non-zero entries."""
        if self._nzr is None:
            self._nzr = [[(j, x) for j, x in enumerate(r) if x] for r in self.data]
        return self._nzr

    def _nonzero_cols(self):
        """Per column, the ``(row, value)`` pairs of its non-zero entries."""
        if self._nzc is None:
            cols = [[] for _ in range(self.cols)]
            for i, r in enumerate(self.data):
                for j, x in enumerate(r):
                    if x:
                        cols[j].append((i, x))
            self._nzc = cols
        return self._nzc

    def _reduced(self, sums):
        """Entries computed with plain ``+``/``*``, back in the field's scalar form."""
        p = self.field.char
        if p:
            return [x % p for x in sums]
        return [x if type(x) is int else _q(x) for x in sums]

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        right = other._nonzero_rows()
        n = other.cols
        out = []
        for r in self.data:
            acc = [0] * n
            for k, a in enumerate(r):
                if a:
                    for j, b in right[k]:
                        acc[j] += a * b
            out.append(self._reduced(acc))
        return Matrix(self.field, out, n)

    def apply(self, vec):
        """Matrix times column vector (a plain list of scalars)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        cols = self._nonzero_cols()
        out = [0] * self.rows
        for j, x in enumerate(vec):
            if x:
                for i, a in cols[j]:
                    out[i] += a * x
        return self._reduced(out)

    def _check_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape mismatch")


def vstack(mats) -> Matrix:
    mats = list(mats)
    field = mats[0].field
    cols = mats[0].cols
    data = []
    for m in mats:
        if m.cols != cols:
            raise ValueError("vstack column mismatch")
        data.extend(m.data)
    return Matrix(field, data, cols)


def hstack(mats) -> Matrix:
    mats = list(mats)
    rows = mats[0].rows
    data = [[] for _ in range(rows)]
    for m in mats:
        if m.rows != rows:
            raise ValueError("hstack row mismatch")
        for i in range(rows):
            data[i].extend(m.data[i])
    return Matrix(mats[0].field, data)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; with row-major flattening, vec(AXB) = (A ⊗ Bᵀ) vec(X)."""
    f = a.field
    mul = f.mul
    zero = f.zero()
    one = f.one()
    bcols = b.cols
    zeros = [zero] * bcols
    out = []
    for ra in a.data:
        for rb in b.data:
            row = []
            for x in ra:
                if x == 0:
                    row.extend(zeros)
                elif x == one:
                    row.extend(rb)
                else:
                    row.extend(mul(x, y) if y else zero for y in rb)
            out.append(row)
    return Matrix(a.field, out, a.cols * bcols)


# ---------------------------------------------------------------------------
# Elimination core
# ---------------------------------------------------------------------------


class Echelon:
    """Incremental row echelon basis; the workhorse behind rref/kernel/closure.

    Over the rationals rows are held as gcd-normalized integer vectors so the
    reduction loop runs on Python ints; ``finalize`` back-substitutes and
    rescales pivots to 1, yielding the canonical reduced echelon basis.
    """

    __slots__ = ("field", "width", "pivots")

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.pivots = {}  # pivot col -> int row (char 0) / scalar row (char p)

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _int_row(self, vec):
        dens = [x.denominator for x in vec if type(x) is not int]
        if not dens:
            return list(vec)
        den = lcm(*dens)
        return [(x * den).numerator for x in vec]

    def _reduce_int(self, row):
        pivots = self.pivots
        width = self.width
        j = 0
        while j < width:
            if row[j]:
                brow = pivots.get(j)
                if brow is None:
                    return row, j
                a, b = brow[j], row[j]
                g = gcd(a, b)
                am, bm = a // g, b // g
                # brow leads at j, row is zero before j: the prefix stays zero
                row[j:] = [am * x - bm * y for x, y in zip(row[j:], brow[j:])]
            j += 1
        return row, None

    def _reduce_modp(self, row):
        p = self.field.char
        pivots = self.pivots
        width = self.width
        j = 0
        while j < width:
            if row[j]:
                brow = pivots.get(j)
                if brow is None:
                    return row, j
                c = row[j]  # brow[j] == 1
                row[j:] = [(x - c * y) % p for x, y in zip(row[j:], brow[j:])]
            j += 1
        return row, None

    def add(self, vec) -> bool:
        """Reduce ``vec`` against the basis; insert the residual. True if rank grew."""
        if self.field.char == 0:
            row, lead = self._reduce_int(self._int_row(vec))
            if lead is None:
                return False
            g = 0
            for v in row:
                g = gcd(g, v)
            if row[lead] < 0:
                g = -g
            self.pivots[lead] = [v // g for v in row]
            return True
        p = self.field.char
        row, lead = self._reduce_modp([int(x) % p for x in vec])
        if lead is None:
            return False
        inv = pow(row[lead], p - 2, p)
        self.pivots[lead] = [(x * inv) % p for x in row]
        return True

    def contains(self, vec) -> bool:
        if self.field.char == 0:
            _, lead = self._reduce_int(self._int_row(vec))
        else:
            p = self.field.char
            _, lead = self._reduce_modp([int(x) % p for x in vec])
        return lead is None

    def basis_rows(self):
        """Canonical reduced echelon rows (pivot 1, zeros above pivots)."""
        cols = sorted(self.pivots)
        if self.field.char == 0:
            rows = {c: self.pivots[c][:] for c in cols}
            for c in reversed(cols):
                rc = rows[c]
                for c2 in cols:
                    if c2 >= c:
                        break
                    r2 = rows[c2]
                    if r2[c]:
                        a, b = rc[c], r2[c]
                        g = gcd(a, b)
                        am, bm = a // g, b // g
                        new = [am * x - bm * y for x, y in zip(r2, rc)]
                        g2 = 0
                        for v in new:
                            g2 = gcd(g2, v)
                        lead = next(j for j, v in enumerate(new) if v)
                        if new[lead] < 0:
                            g2 = -g2
                        rows[c2] = [v // g2 for v in new]
            out = []
            for c in cols:
                r = rows[c]
                piv = r[c]
                out.append(tuple(v // piv if v % piv == 0 else Fraction(v, piv)
                                 for v in r))
            return out
        p = self.field.char
        rows = {c: self.pivots[c][:] for c in cols}
        for c in reversed(cols):
            rc = rows[c]
            for c2 in cols:
                if c2 >= c:
                    break
                r2 = rows[c2]
                if r2[c]:
                    f = r2[c]
                    rows[c2] = [(x - f * y) % p for x, y in zip(r2, rc)]
        return [tuple(rows[c]) for c in cols]


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form; zero rows are kept at the bottom."""
    ech = Echelon(m.field, m.cols)
    for r in m.data:
        ech.add(r)
    rows = [list(r) for r in ech.basis_rows()]
    z = m.field.zero()
    while len(rows) < m.rows:
        rows.append([z] * m.cols)
    return Matrix(m.field, rows) if rows else Matrix.zeros(m.field, 0, m.cols)


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of K^n held by its canonical reduced echelon basis.

    Equality is literal equality of bases: equal subspaces have identical
    representations.  The basis rows never include zero rows.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivot_cols", "_constraints")

    def __init__(self, field: Field, ambient_dim: int, canonical_rows, pivot_cols):
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in canonical_rows)
        self.pivot_cols = tuple(pivot_cols)
        self._constraints = None

    @staticmethod
    def from_spanning(field: Field, ambient_dim: int, vectors) -> "Subspace":
        ech = Echelon(field, ambient_dim)
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("spanning vector has wrong length")
            ech.add(v)
        rows = ech.basis_rows()
        return Subspace(field, ambient_dim, rows, sorted(ech.pivots))

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, [], [])

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        eye = Matrix.identity(field, ambient_dim)
        return Subspace(field, ambient_dim, [tuple(r) for r in eye.data],
                        range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def basis_matrix(self) -> Matrix:
        return Matrix(self.field, [list(r) for r in self.basis], self.ambient_dim)

    def to_echelon(self) -> Echelon:
        ech = Echelon(self.field, self.ambient_dim)
        for r in self.basis:
            ech.add(r)
        return ech

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return self.to_echelon().contains(vec)

    def contains_space(self, other: "Subspace") -> bool:
        ech = self.to_echelon()
        return all(ech.contains(r) for r in other.basis)

    def coords_of(self, vec):
        """Coordinates w.r.t. the canonical basis (raises if vec not inside)."""
        coords = [vec[p] for p in self.pivot_cols]
        f = self.field
        residual = list(vec)
        for c, row in zip(coords, self.basis):
            if c != 0:
                residual = [f.sub(x, f.mul(c, y)) for x, y in zip(residual, row)]
        if any(x != 0 for x in residual):
            raise ValueError("vector not in subspace")
        return coords

    def linear_combination(self, coords):
        f = self.field
        out = [f.zero()] * self.ambient_dim
        for c, row in zip(coords, self.basis):
            if c != 0:
                out = [f.add(x, f.mul(c, y)) for x, y in zip(out, row)]
        return out

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_spanning(self.field, self.ambient_dim,
                                      list(self.basis) + list(other.basis))

    def constraint_matrix(self) -> Matrix:
        """Rows span the annihilator: v ∈ self iff constraint_matrix @ v = 0."""
        if self._constraints is None:
            if self.dim == 0:
                self._constraints = Matrix.identity(self.field, self.ambient_dim)
            else:
                ker = kernel(self.basis_matrix())
                self._constraints = ker.basis_matrix()
        return self._constraints

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient_dim)
        stacked = vstack([self.constraint_matrix(), other.constraint_matrix()])
        return kernel(stacked)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise ValueError("ambient space mismatch")


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m v = 0} as a canonical subspace."""
    ech = Echelon(m.field, m.cols)
    seen = set()
    for row in m.data:
        key = tuple(row)
        if key in seen:
            continue
        seen.add(key)
        ech.add(row)
    rows = ech.basis_rows()
    pivot_of_row = [next(j for j, v in enumerate(row) if v != 0) for row in rows]
    pivot_set = set(pivot_of_row)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    f = m.field
    vectors = []
    for fc in free_cols:
        v = [f.zero()] * m.cols
        v[fc] = f.one()
        for i, pc in enumerate(pivot_of_row):
            v[pc] = f.neg(rows[i][fc])
        vectors.append(v)
    return Subspace.from_spanning(f, m.cols, vectors)


def rank(m: Matrix) -> int:
    ech = Echelon(m.field, m.cols)
    for r in m.data:
        ech.add(r)
    return ech.rank


def quotient_basis(ambient: Subspace, sub: Subspace):
    """Vectors of ``ambient`` whose cosets form a basis of ambient/sub."""
    ambient._check_ambient(sub)
    if not ambient.contains_space(sub):
        raise ValueError("sub is not contained in ambient")
    ech = sub.to_echelon()
    reps = []
    for r in ambient.basis:
        if ech.add(r):
            reps.append(list(r))
    return reps


class AffineSolution:
    """Solution set of a stacked linear system: empty, or point + kernel."""

    __slots__ = ("consistent", "point", "homogeneous")

    def __init__(self, consistent: bool, point=None, homogeneous: Subspace = None):
        self.consistent = consistent
        self.point = point
        self.homogeneous = homogeneous

    def __repr__(self):
        if not self.consistent:
            return "AffineSolution(inconsistent)"
        return f"AffineSolution(dim {self.homogeneous.dim})"

    @property
    def is_unique(self) -> bool:
        return self.consistent and self.homogeneous.dim == 0


def solve_affine(constraints) -> AffineSolution:
    """Solve a list of (Matrix, target vector) blocks as one stacked system."""
    blocks = list(constraints)
    if not blocks:
        raise ValueError("no constraints given")
    field = blocks[0][0].field
    cols = blocks[0][0].cols
    aug_rows = []
    seen = set()
    for m, t in blocks:
        if m.cols != cols:
            raise ValueError("constraint width mismatch")
        if len(t) != m.rows:
            raise ValueError("target length mismatch")
        for row, ti in zip(m.data, t):
            key = (tuple(row), ti)
            if key in seen:
                continue
            seen.add(key)
            aug_rows.append(list(row) + [ti])
    aug = rref(Matrix(field, aug_rows, cols + 1))
    pivot_cols = []
    point = [field.zero()] * cols
    for row in aug.data:
        lead = next((j for j, v in enumerate(row) if v != 0), None)
        if lead == cols:
            return AffineSolution(False)
        if lead is None:
            break
        pivot_cols.append(lead)
        point[lead] = row[cols]
    # dropping the rhs column of a consistent augmented rref leaves a reduced
    # echelon form of the coefficient block, so the kernel reads off directly
    pivot_set = set(pivot_cols)
    vectors = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [field.zero()] * cols
        v[fc] = field.one()
        for i, pc in enumerate(pivot_cols):
            v[pc] = field.neg(aug.data[i][fc])
        vectors.append(v)
    hom = Subspace.from_spanning(field, cols, vectors)
    return AffineSolution(True, point, hom)


def solve_unique(m: Matrix, target):
    """Solve m x = target, requiring a unique solution."""
    sol = solve_affine([(m, target)])
    if not sol.consistent:
        raise ValueError("inconsistent linear system")
    if sol.homogeneous.dim != 0:
        raise ValueError("solution not unique")
    return sol.point


def preimage(ops, target: Subspace) -> Subspace:
    """{v : m v ∈ target for every m in ops}, through the target's annihilator."""
    ops = list(ops)
    if any(m.rows != target.ambient_dim for m in ops):
        raise ValueError("operator/target dimension mismatch")
    if target.dim == 0:  # the annihilator is the identity: skip the products
        return kernel(vstack(ops))
    cons = target.constraint_matrix()
    return kernel(vstack(cons @ m for m in ops))


def inverse(m: Matrix) -> Matrix:
    """Inverse of a square matrix, by elimination on the block [m | I]."""
    n = m.rows
    if m.cols != n:
        raise ValueError("matrix is not square")
    red = rref(hstack([m, Matrix.identity(m.field, n)]))
    if any(red.data[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is singular")
    return Matrix(m.field, [r[n:] for r in red.data], n)


def quotient_projection(sub: Subspace):
    """Coset representatives of K^n/sub and the projection onto their coordinates.

    Returns ``(reps, proj)``: ``reps`` extend the basis of ``sub`` to a basis
    of K^n, and ``proj`` maps v to the coordinates of v + sub in the basis
    of the cosets of ``reps``.
    """
    n = sub.ambient_dim
    reps = quotient_basis(Subspace.full(sub.field, n), sub)
    columns = Matrix(sub.field, list(sub.basis) + reps, n).transpose()
    return reps, Matrix(sub.field, inverse(columns).data[sub.dim:], n)


class Factorization:
    """Outcome of ``factor_through``: F (or None), and whether it is exact and unique."""

    __slots__ = ("f_matrix", "residual_zero", "unique")

    def __init__(self, f_matrix, residual_zero, unique):
        self.f_matrix = f_matrix
        self.residual_zero = residual_zero
        self.unique = unique

    @property
    def ok(self):
        return self.residual_zero and self.unique


def factor_through(maps: Subspace, j: Matrix, delta: Matrix) -> Factorization:
    """Solve F @ j = delta for F in ``maps``.

    ``maps`` holds (delta.rows)×(j.rows) matrices, flattened row-major; the
    system is solved in the coordinates of its canonical basis.
    """
    f = j.field
    rows, width = delta.rows, j.rows

    def unflatten(flat):
        return Matrix(f, [list(flat[r * width:(r + 1) * width]) for r in range(rows)], width)

    images = [unflatten(row) @ j for row in maps.basis]
    system = [[img.data[m][i] for img in images]
              for i in range(delta.cols) for m in range(rows)]
    rhs = [delta.data[m][i] for i in range(delta.cols) for m in range(rows)]
    sol = solve_affine([(Matrix(f, system, maps.dim), rhs)])
    if not sol.consistent:
        return Factorization(None, False, False)
    fmat = unflatten(maps.linear_combination(sol.point))
    return Factorization(fmat, (fmat @ j - delta).is_zero(), sol.homogeneous.dim == 0)


def closure(field: Field, ambient_dim: int, seeds, operators) -> Subspace:
    """Smallest operator-invariant subspace containing ``seeds``.

    Fixed-point generator loop: repeatedly apply every operator to newly
    added vectors until the dimension stabilizes.  Terminates because the
    ambient dimension is finite.
    """
    ech = Echelon(field, ambient_dim)
    frontier = []
    for s in seeds:
        if ech.add(s):
            frontier.append(list(s))
    while frontier:
        new_frontier = []
        for v in frontier:
            for op in operators:
                w = op.apply(v)
                if ech.add(w):
                    new_frontier.append(w)
        frontier = new_frontier
    rows = ech.basis_rows()
    return Subspace(field, ambient_dim, rows, sorted(ech.pivots))


def restrict_operator(m: Matrix, space: Subspace) -> Matrix:
    """Matrix of ``m`` restricted to an invariant subspace, in basis coords."""
    cols = []
    for row in space.basis:
        img = m.apply(list(row))
        cols.append(space.coords_of(img))
    d = space.dim
    f = space.field
    return Matrix(f, [[cols[j][i] for j in range(d)] for i in range(d)])
