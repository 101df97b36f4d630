"""Exact linear algebra: matrices, canonical subspaces, linear solves.

Everything is computed exactly.  The elimination core, :class:`Echelon`, is
sparse: it holds each pivot row as its sorted ``(col, value)`` pairs and
reduces an incoming row as a ``{col: value}`` dict, visiting its non-zero
columns in order through a heap.  Over the rationals rows are held as
gcd-normalized integer vectors (cleared denominators, fraction-free
cross-multiplication) so that the bulk of the arithmetic is Python-int
work; over GF(p) each pivot row is monic.  Reduced row echelon bases are
back-substituted sparsely and produced at the end in the integer-first
form of :mod:`.fields` (an ``int`` wherever the pivot divides the entry, a
``Fraction`` otherwise).  A :class:`Subspace` stores that basis, zero rows
dropped, as the ``(col, value)`` pairs of each row, so equal subspaces have
identical representations; ``closure``, restrictions, sums and membership
work on the pairs, and ``basis`` is a dense view built when first read.

A :class:`Matrix` stores each row only as its sorted non-zero
``(col, value)`` pairs (``m.row_entries()``), in the field's scalar form,
and every operation works pair to pair: ``a @ b`` takes each non-zero
``a[i][k]`` against the entries of row k of ``b``; ``m.apply(v)`` takes the
``(col, value)`` pairs of v against the entries of each column of ``m``
(``m.column_entries()``, built from the rows when first read); sums,
scaling, transposes, stacks and ``kron`` never write a zero entry.
``Matrix.combination(mats, coords)`` sums Σ c_i·M_i in one pass over the
non-zero entries of the M_i: it is how every action a ↦ Σ a_i·L(e_i) of
an algebra element is built.  Wide, very sparse constraint systems are
filled row by row through ``Matrix.from_entries`` from ``{col: value}``
rows, and ``kernel``, ``rank``, ``rref`` and ``solve_affine`` read a system
through its row entries.
``kron_difference(a, b)`` builds a ⊗ I − I ⊗ b (the flat commutator
Φ ↦ AΦ − ΦBᵀ) row by row from the non-zero entries of a and b, without
materializing the two Kronecker products it stands for.  ``m.data`` is a
dense view for reports, built anew on each read.  The Kronecker-structured
operators of the higher layers are almost entirely zero, so this keeps both
their storage and their arithmetic to a small fraction of the dense size.

Besides ``kernel`` and ``closure``, the constructions of the higher layers
rest on five helpers: ``kernel_on`` (the kernel among the vectors supported
on given columns, which is how every graded space takes its homogeneous
part of one parity), ``preimage`` (the vectors that a family of operators
sends into a subspace), ``restrict_operator`` (the matrix of m from a
subspace S into a subspace T, in their basis coordinates; T is S itself
unless given), ``quotient_projection`` (the free columns of K^n/S and the
projection onto their coordinates), and ``factor_through`` (write
Δ = F∘J with F in a given space of maps).  ``quotient_projection``
reduces S with its columns reversed; its free columns are those that are
not trailing pivots of S (the unit vectors there represent the cosets), and
the projection is read off that echelon form; nothing is inverted.  How a
map is flattened is decided here alone: ``Subspace.basis_maps`` and
``combination_matrix`` give a space of flattened maps back as Matrices.

A subspace whose dimension equals its ambient dimension is all of K^n, and
the primitives stop there: ``closure`` and ``image_span`` return as soon as
their span reaches rank n, ``Echelon.subspace`` at full rank is
``Subspace.full`` without back-substitution, ``preimage`` of a full target
is the whole domain, and ``Subspace.sum``, ``intersect``, ``contains`` and
``contains_space`` answer from the dimensions when an operand is full (or,
for the first two, zero); the ``constraint_matrix`` of a full subspace has
no rows.  ``Subspace.full`` is the canonical basis that elimination would
give, so no result changes.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress, count
from math import gcd, lcm

from .fields import Field, _q


def _nonzero_pairs(vec):
    """The ``(col, value)`` pairs of a dense vector's non-zero entries, in column order."""
    return [(j, vec[j]) for j in compress(count(), vec)]


def _dense(pairs, n, zero=0):
    """The dense vector of length n with the entries ``(col, value)`` and ``zero`` elsewhere."""
    vec = [zero] * n
    for j, x in pairs:
        vec[j] = x
    return vec


def _normal_pairs(p, items):
    """Sorted ``(index, value)`` pairs of values computed with plain ``+``/``*``.

    The values are brought back into the field's scalar form (integer-first
    over Q, ``range(p)`` over GF(p)) and the zeros are dropped.
    """
    if p:
        out = [(j, r) for j, v in items if (r := v % p)]
    else:
        out = [(j, v if type(v) is int else _q(v)) for j, v in items if v]
    out.sort()
    return out


def _unflatten(pairs, rows, cols):
    """Sorted row-major flat ``(index, value)`` pairs, as the sorted pairs of each row."""
    out = [[] for _ in range(rows)]
    for j, x in pairs:
        out[j // cols].append((j % cols, x))
    return out


def _in_range(rows, cols):
    """``rows`` of sorted ``(col, value)`` pairs, checked to lie in columns 0..cols-1."""
    for r in rows:
        if r and (r[0][0] < 0 or r[-1][0] >= cols):
            raise ValueError("matrix entry column out of range")
    return rows


class Matrix:
    """Sparse matrix over a :class:`Field`; immutable once constructed.

    Each row is held only as its sorted non-zero ``(col, value)`` pairs, in
    the field's scalar form; every operation works pair to pair.  The
    column pairs (``column_entries``) are built from the rows when first
    read.  ``data`` is a dense view, built anew on each read and never
    stored: it is for reports and tests, not for inner loops, which read
    ``row_entries`` or ``column_entries`` instead.
    """

    __slots__ = ("field", "rows", "cols", "_nzr", "_nzc")

    def __init__(self, field: Field, data, cols: int = None):
        """The matrix with the given dense rows, lists of scalars in the field's
        form (as :class:`Field` arithmetic returns them; ``from_rows`` coerces)."""
        data = list(data)
        if data:
            width = len(data[0])
            if cols is not None and cols != width:
                raise ValueError("explicit column count contradicts data")
            cols = width
            if any(len(r) != cols for r in data):
                raise ValueError("ragged matrix rows")
        elif cols is None:
            cols = 0
        self.field = field
        self.rows = len(data)
        self.cols = cols
        self._nzr = [list(zip(compress(count(), r), compress(r, r))) for r in data]
        self._nzc = None

    @classmethod
    def _from_pairs(cls, field: Field, rows, cols: int) -> "Matrix":
        """The matrix holding ``rows`` as its storage: per row, sorted non-zero
        ``(col, value)`` pairs in the field's scalar form.  Nothing is checked
        or copied; the lists must not be changed afterwards."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = len(rows)
        m.cols = cols
        m._nzr = rows
        m._nzc = None
        return m

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_rows(field: Field, rows) -> "Matrix":
        return Matrix(field, [[field.coerce(x) for x in r] for r in rows])

    @staticmethod
    def from_pairs(field: Field, rows, cols: int) -> "Matrix":
        """The matrix with the storage ``rows``: per row, the list of its
        non-zero entries as ``(col, value)`` pairs sorted by column, with
        values in the field's form.  The lists are taken over, not copied, and
        must not change afterwards; only the column range is checked."""
        return Matrix._from_pairs(field, _in_range(list(rows), cols), cols)

    @staticmethod
    def from_entries(field: Field, rows, cols: int) -> "Matrix":
        """The matrix whose row i has the entries ``rows[i]``: ``(col, value)``
        pairs in any order, each column at most once, with values computed by
        plain ``+``/``*`` from field scalars.  The values are brought into the
        field's form and the zeros dropped."""
        p = field.char
        return Matrix._from_pairs(field, _in_range([_normal_pairs(p, r) for r in rows], cols),
                                  cols)

    @staticmethod
    def from_flat(field: Field, flat, rows: int, cols: int) -> "Matrix":
        """The rows×cols matrix whose row-major flattening is the dense vector
        ``flat``, of scalars in the field's form."""
        if len(flat) != rows * cols:
            raise ValueError("flat vector length does not match the shape")
        return Matrix._from_pairs(field, _unflatten(_nonzero_pairs(flat), rows, cols), cols)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Matrix":
        return Matrix._from_pairs(field, [[] for _ in range(rows)], cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Matrix":
        return Matrix._from_pairs(field, [[(i, 1)] for i in range(n)], n)

    # -- basics ---------------------------------------------------------------

    @property
    def data(self):
        """Dense rows, built on each read; the storage is ``row_entries()``."""
        return [_dense(r, self.cols) for r in self._nzr]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._nzr == other._nzr
        )

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.field!r})"

    def is_zero(self) -> bool:
        return not any(self._nzr)

    def row(self, i):
        return _dense(self._nzr[i], self.cols)

    def col(self, j):
        return _dense(self.column_entries()[j], self.rows)

    def formatted(self):
        """Dense rows of ``Field.fmt`` strings; only the non-zero entries are formatted."""
        fmt = self.field.fmt
        return [_dense([(j, fmt(x)) for j, x in r], self.cols, "0") for r in self._nzr]

    def flatten(self):
        """The row-major flattening, as a dense vector of length rows·cols."""
        out = [0] * (self.rows * self.cols)
        for i, r in enumerate(self._nzr):
            base = i * self.cols
            for j, x in r:
                out[base + j] = x
        return out

    def transpose(self) -> "Matrix":
        t = Matrix._from_pairs(self.field, self.column_entries(), self.rows)
        t._nzc = self._nzr
        return t

    # -- arithmetic -----------------------------------------------------------

    def _combine(self, other: "Matrix", sign) -> "Matrix":
        """self + sign·other, row by row over the non-zero entries of both."""
        self._check_shape(other)
        p = self.field.char
        out = []
        for r1, r2 in zip(self._nzr, other._nzr):
            if not r2:
                out.append(r1)
                continue
            acc = dict(r1)
            for j, y in r2:
                acc[j] = acc.get(j, 0) + sign * y
            out.append(_normal_pairs(p, acc.items()))
        return Matrix._from_pairs(self.field, out, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        return Matrix.combination([self], [c])

    @staticmethod
    def combination(mats, coords) -> "Matrix":
        """Σ c_i·M_i for matrices of one shape, summed once over their non-zero entries.

        ``mats`` must not be empty: the first matrix gives the shape.  For a
        unit vector of coordinates the result is the matrix it picks, as is.
        """
        mats = list(mats)
        first = mats[0]
        terms = [(c, m) for c, m in zip(coords, mats) if c]
        for _, m in terms:
            first._check_shape(m)
        if len(terms) == 1 and terms[0][0] == 1:
            return terms[0][1]
        acc = [{} for _ in range(first.rows)]
        for c, m in terms:
            for row, pairs in zip(acc, m._nzr):
                for j, x in pairs:
                    row[j] = row.get(j, 0) + c * x
        p = first.field.char
        return Matrix._from_pairs(first.field, [_normal_pairs(p, row.items()) if row else []
                                                for row in acc], first.cols)

    def row_entries(self):
        """Per row, the sorted ``(col, value)`` pairs of its non-zero entries: the storage."""
        return self._nzr

    def column_entries(self):
        """Per column, the ``(row, value)`` pairs of its non-zero entries (a shared
        cache, built from the rows when first read)."""
        if self._nzc is None:
            cols = [[] for _ in range(self.cols)]
            for i, r in enumerate(self._nzr):
                for j, x in r:
                    cols[j].append((i, x))
            self._nzc = cols
        return self._nzc

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        right = other._nzr
        p = self.field.char
        out = []
        for r in self._nzr:
            acc = {}
            for k, a in r:
                for j, b in right[k]:
                    acc[j] = acc.get(j, 0) + a * b
            out.append(_normal_pairs(p, acc.items()))
        return Matrix._from_pairs(self.field, out, other.cols)

    def _apply_pairs(self, pairs):
        """The product with the vector of ``(col, value)`` pairs, as its sorted non-zero pairs."""
        cols = self.column_entries()
        acc = {}
        for j, x in pairs:
            for i, a in cols[j]:
                acc[i] = acc.get(i, 0) + a * x
        return _normal_pairs(self.field.char, acc.items())

    def apply(self, vec):
        """Matrix times column vector (a plain list of scalars)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return _dense(self._apply_pairs(_nonzero_pairs(vec)), self.rows)

    def _check_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape mismatch")


def vstack(mats) -> Matrix:
    mats = list(mats)
    cols = mats[0].cols
    rows = []
    for m in mats:
        if m.cols != cols:
            raise ValueError("vstack column mismatch")
        rows.extend(m._nzr)
    return Matrix._from_pairs(mats[0].field, rows, cols)


def hstack(mats) -> Matrix:
    mats = list(mats)
    n = mats[0].rows
    rows = [[] for _ in range(n)]
    offset = 0
    for m in mats:
        if m.rows != n:
            raise ValueError("hstack row mismatch")
        for out, r in zip(rows, m._nzr):
            out.extend((offset + j, x) for j, x in r)
        offset += m.cols
    return Matrix._from_pairs(mats[0].field, rows, offset)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; with row-major flattening, vec(AXB) = (A ⊗ Bᵀ) vec(X)."""
    p = a.field.char
    bcols = b.cols
    rows = []
    # the columns come out in order, and a product of non-zero scalars is
    # non-zero: only its scalar form needs restoring
    for ra in a._nzr:
        for rb in b._nzr:
            row = []
            for j, x in ra:
                base = j * bcols
                if x == 1:
                    row += [(base + l, y) for l, y in rb]
                elif p:
                    row += [(base + l, x * y % p) for l, y in rb]
                else:
                    row += [(base + l, _q(x * y)) for l, y in rb]
            rows.append(row)
    return Matrix._from_pairs(a.field, rows, a.cols * bcols)


def kron_difference(a: Matrix, b: Matrix) -> Matrix:
    """a ⊗ I − I ⊗ b for square a (m×m) and b (n×n): vec(AX − XBᵀ) on m×n matrices X.

    Equal to ``kron(a, I_n) - kron(I_m, b)``, but each row is filled from the
    non-zero entries of one row of a and one row of b, so neither Kronecker
    product is built.
    """
    if a.rows != a.cols or b.rows != b.cols:
        raise ValueError("kron_difference needs square factors")
    p = a.field.char
    m, n = a.rows, b.rows
    rows = []
    for i, ra in enumerate(a._nzr):
        base = i * n
        for k, rb in enumerate(b._nzr):
            acc = {j * n + k: x for j, x in ra}
            for l, y in rb:
                acc[base + l] = acc.get(base + l, 0) - y
            rows.append(_normal_pairs(p, acc.items()))
    return Matrix._from_pairs(a.field, rows, m * n)


# ---------------------------------------------------------------------------
# Elimination core
# ---------------------------------------------------------------------------


class Echelon:
    """Incremental sparse row echelon basis; the workhorse behind rref/kernel/closure.

    Each pivot row is held as its sorted ``(col, value)`` pairs, leading
    entry first.  Over the rationals the values are gcd-normalized integers
    with a positive lead, and rows are reduced by fraction-free integer
    cross-multiplication; over GF(p) the lead is 1.  An incoming row is
    reduced as a ``{col: value}`` dict, taking the next column to eliminate
    from a heap of its non-zero columns, so the work follows the non-zero
    entries.  ``basis_rows`` back-substitutes sparsely and only then emits
    the canonical reduced echelon rows as dense tuples.
    """

    __slots__ = ("field", "width", "pivots")

    def __init__(self, field: Field, width: int):
        self.field = field
        self.width = width
        self.pivots = {}  # pivot col -> sorted (col, value) pairs, lead first

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _entries(self, pairs):
        """``(col, scalar)`` pairs as a new ``{col: value}`` dict in elimination form.

        Zeros are dropped; over Q the denominators are cleared, giving
        integers, and over GF(p) the values are reduced into ``range(p)``.
        """
        p = self.field.char
        if p:
            return {j: r for j, x in pairs if (r := x % p)}
        dens = [x.denominator for _, x in pairs if type(x) is not int]
        if not dens:
            return {j: x for j, x in pairs if x}
        den = lcm(*dens)
        return {j: (x * den).numerator for j, x in pairs if x}

    def _reduce(self, row):
        """Reduce an elimination-form dict in place; its lead column, or None if zero."""
        pivots = self.pivots
        p = self.field.char
        heap = list(row)
        heapify(heap)
        while heap:
            j = heappop(heap)
            b = row.get(j)
            if b is None:  # a stale heap entry: the column was eliminated
                continue
            prow = pivots.get(j)
            if prow is None:
                return j
            # every entry left in row sits at a column >= j, and prow leads at
            # j, so the update zeroes column j and touches only later columns
            if p:
                for c, y in prow:
                    v = row.get(c)
                    if v is None:
                        row[c] = (-b * y) % p
                        heappush(heap, c)
                    else:
                        v = (v - b * y) % p
                        if v:
                            row[c] = v
                        else:
                            del row[c]
            else:
                a = prow[0][1]
                g = gcd(a, b)
                am, bm = a // g, b // g
                if am != 1:
                    for c in row:
                        row[c] *= am
                for c, y in prow:
                    v = row.get(c)
                    if v is None:
                        row[c] = -bm * y
                        heappush(heap, c)
                    else:
                        v -= bm * y
                        if v:
                            row[c] = v
                        else:
                            del row[c]
        return None

    def _insert(self, row) -> bool:
        """Reduce an elimination-form dict; store the residual as a pivot row."""
        lead = self._reduce(row)
        if lead is None:
            return False
        p = self.field.char
        if p:
            inv = pow(row[lead], p - 2, p)
            self.pivots[lead] = sorted((j, (x * inv) % p) for j, x in row.items())
        else:
            g = gcd(*row.values())
            if row[lead] < 0:
                g = -g
            self.pivots[lead] = sorted((j, v // g) for j, v in row.items())
        return True

    def add(self, vec) -> bool:
        """Reduce ``vec`` against the basis; insert the residual. True if rank grew."""
        return self.add_entries(_nonzero_pairs(vec))

    def add_entries(self, pairs) -> bool:
        """``add`` for a row given by its ``(col, value)`` pairs, each column once."""
        return self._insert(self._entries(pairs))

    def contains(self, vec) -> bool:
        return self.contains_entries(_nonzero_pairs(vec))

    def contains_entries(self, pairs) -> bool:
        """``contains`` for a vector given by its ``(col, value)`` pairs, each column once."""
        return self._reduce(self._entries(pairs)) is None

    def reduced_rows(self):
        """The canonical reduced echelon rows, sparse: ``(pivot col, pairs)`` in pivot order.

        ``pairs`` are the sorted ``(col, scalar)`` entries of the row in
        the field's scalar form, led by ``(pivot col, 1)``.
        """
        cols = sorted(self.pivots)
        rows = {c: dict(self.pivots[c]) for c in cols}
        # back-substitution adds only non-pivot columns to a row, so the rows
        # holding each pivot column can be listed before it starts
        holders = {}
        for c2 in cols:
            for c, _ in self.pivots[c2][1:]:
                if c in rows:
                    holders.setdefault(c, []).append(c2)
        p = self.field.char
        for c in reversed(cols):
            rc = rows[c]
            a = rc[c]
            for c2 in holders.get(c, ()):
                r2 = rows[c2]
                b = r2[c]
                if p:
                    for k, y in rc.items():
                        v = (r2.get(k, 0) - b * y) % p
                        if v:
                            r2[k] = v
                        else:
                            del r2[k]
                    continue
                g = gcd(a, b)
                am, bm = a // g, b // g
                if am != 1:
                    for k in r2:
                        r2[k] *= am
                for k, y in rc.items():
                    v = r2.get(k, 0) - bm * y
                    if v:
                        r2[k] = v
                    else:
                        del r2[k]
                g2 = gcd(*r2.values())
                if r2[c2] < 0:
                    g2 = -g2
                if g2 != 1:
                    for k in r2:
                        r2[k] //= g2
        out = []
        for c in cols:
            r = rows[c]
            if p:
                out.append((c, sorted(r.items())))
                continue
            piv = r[c]
            out.append((c, sorted((k, v // piv if v % piv == 0 else Fraction(v, piv))
                                  for k, v in r.items())))
        return out

    def basis_rows(self):
        """Canonical reduced echelon rows (pivot 1, zeros above pivots), dense."""
        return [tuple(_dense(pairs, self.width)) for _, pairs in self.reduced_rows()]

    def subspace(self) -> "Subspace":
        """The span of the rows added so far, as a canonical subspace.

        At full rank this is ``Subspace.full``, with no back-substitution;
        otherwise the sparse reduced rows become the subspace's storage.
        """
        if self.rank == self.width:
            return Subspace.full(self.field, self.width)
        reduced = self.reduced_rows()
        return Subspace(self.field, self.width, [pairs for _, pairs in reduced],
                        [c for c, _ in reduced])


def rref(m: Matrix) -> Matrix:
    """Reduced row echelon form; zero rows are kept at the bottom."""
    ech = Echelon(m.field, m.cols)
    for pairs in m.row_entries():
        ech.add_entries(pairs)
    rows = [pairs for _, pairs in ech.reduced_rows()]
    rows += [[] for _ in range(m.rows - len(rows))]
    return Matrix._from_pairs(m.field, rows, m.cols)


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


class Subspace:
    """A subspace of K^n held by its canonical reduced echelon basis.

    Each basis row is stored as its sorted non-zero ``(col, value)`` pairs
    (taken over, not copied), led by ``(pivot col, 1)``; ``basis`` is a dense
    view built when first read.  Equality is literal equality of pivots and
    pairs: equal subspaces have identical representations, and hash alike
    however they were built.
    """

    __slots__ = ("field", "ambient_dim", "pivot_cols", "_rows", "_basis", "_constraints",
                 "_pivot_index", "_hash")

    def __init__(self, field: Field, ambient_dim: int, rows, pivot_cols):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivot_cols = tuple(pivot_cols)
        self._rows = rows
        self._basis = None
        self._constraints = None
        self._pivot_index = None
        self._hash = None

    @staticmethod
    def from_spanning(field: Field, ambient_dim: int, vectors) -> "Subspace":
        ech = Echelon(field, ambient_dim)
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("spanning vector has wrong length")
            ech.add(v)
        return ech.subspace()

    @staticmethod
    def zero(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, [], [])

    @staticmethod
    def full(field: Field, ambient_dim: int) -> "Subspace":
        return Subspace(field, ambient_dim, [[(i, 1)] for i in range(ambient_dim)],
                        range(ambient_dim))

    @property
    def basis(self):
        """The canonical basis rows as dense tuples: a view built when first read."""
        if self._basis is None:
            self._basis = tuple(tuple(_dense(r, self.ambient_dim)) for r in self._rows)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def is_full(self) -> bool:
        """Whether this is all of K^n."""
        return len(self._rows) == self.ambient_dim

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.pivot_cols == other.pivot_cols
            and self._rows == other._rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ambient_dim, self.pivot_cols, tuple(map(tuple, self._rows))))
        return self._hash

    def __repr__(self):
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"

    def basis_matrix(self) -> Matrix:
        return Matrix._from_pairs(self.field, self._rows, self.ambient_dim)

    def to_echelon(self) -> Echelon:
        """An :class:`Echelon` holding this basis as its pivot rows, not reduced again:
        monic over GF(p); over Q a row led by 1 with its denominators cleared
        is primitive with a positive lead, as elimination stores it."""
        ech = Echelon(self.field, self.ambient_dim)
        if self.field.char:
            ech.pivots = dict(zip(self.pivot_cols, self._rows))
        else:
            ech.pivots = {c: list(ech._entries(pairs).items())
                          for c, pairs in zip(self.pivot_cols, self._rows)}
        return ech

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return self.is_full or self.to_echelon().contains(vec)

    def contains_space(self, other: "Subspace") -> bool:
        if self.is_full:
            return True
        ech = self.to_echelon()
        return all(ech.contains_entries(pairs) for pairs in other._rows)

    def _basis_entries(self):
        """Per basis row, the ``(col, value)`` pairs of its non-zero entries: the storage."""
        return self._rows

    def _coord_entries(self, pairs):
        """The non-zero coordinates, as ``(index, value)`` pairs, of the vector with
        the sorted non-zero pairs ``pairs``: its entries at the pivots, looked up
        pair by pair (the pivot columns increase, so the indices do too).  The
        residual vec − Σ c_i b_i, summed with plain ``+``/``*``, must vanish
        (mod p over GF(p))."""
        if self._pivot_index is None:
            self._pivot_index = {pc: k for k, pc in enumerate(self.pivot_cols)}
        index = self._pivot_index
        residual = dict(pairs)
        coords = [(index[j], c) for j, c in residual.items() if j in index]
        for k, c in coords:
            for j, y in self._rows[k]:
                residual[j] = residual.get(j, 0) - c * y
        p = self.field.char
        if any(v % p if p else v for v in residual.values()):
            raise ValueError("vector not in subspace")
        return coords

    def coords_of(self, vec):
        """Coordinates w.r.t. the canonical basis (raises if vec not inside)."""
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return _dense(self._coord_entries(_nonzero_pairs(vec)), self.dim)

    def _combination_entries(self, coords):
        """Σ c_i b_i over the canonical basis, as its sorted non-zero ``(col, value)`` pairs."""
        acc = {}
        for c, pairs in zip(coords, self._rows):
            if c:
                for j, y in pairs:
                    acc[j] = acc.get(j, 0) + c * y
        return _normal_pairs(self.field.char, acc.items())

    def linear_combination(self, coords):
        """Σ c_i b_i over the canonical basis, as a dense vector."""
        return _dense(self._combination_entries(coords), self.ambient_dim)

    def _as_matrices(self, flats, rows: int, cols: int):
        """The rows×cols matrices whose row-major flattenings have the sorted pairs ``flats``."""
        if rows * cols != self.ambient_dim:
            raise ValueError("matrix shape does not match the ambient dimension")
        return [Matrix._from_pairs(self.field, _unflatten(pairs, rows, cols), cols)
                for pairs in flats]

    def basis_maps(self, rows: int, cols: int):
        """The basis of a space of rows×cols matrices flattened row-major, as Matrices."""
        return self._as_matrices(self._rows, rows, cols)

    def combination_matrix(self, coords, rows: int, cols: int) -> Matrix:
        """Σ c_i b_i in a space of rows×cols matrices flattened row-major, as a Matrix."""
        return self._as_matrices([self._combination_entries(coords)], rows, cols)[0]

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.is_full or other.dim == 0:
            return self
        if other.is_full or self.dim == 0:
            return other
        ech = self.to_echelon()
        for pairs in other._rows:
            ech.add_entries(pairs)
        return ech.subspace()

    def constraint_matrix(self) -> Matrix:
        """Rows span the annihilator: v ∈ self iff constraint_matrix @ v = 0."""
        if self._constraints is None:
            if self.is_full:
                self._constraints = Matrix.zeros(self.field, 0, self.ambient_dim)
            elif self.dim == 0:
                self._constraints = Matrix.identity(self.field, self.ambient_dim)
            else:
                ker = kernel(self.basis_matrix())
                self._constraints = ker.basis_matrix()
        return self._constraints

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.dim == 0 or other.is_full:
            return self
        if other.dim == 0 or self.is_full:
            return other
        if other == self:
            return self
        stacked = vstack([self.constraint_matrix(), other.constraint_matrix()])
        return kernel(stacked)

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise ValueError("ambient space mismatch")


def kernel(m) -> Subspace:
    """Null space {v : m v = 0} as a canonical subspace, read through ``m.row_entries()``.

    Repeated rows are eliminated once; an all-zero row constrains nothing.
    """
    ech = Echelon(m.field, m.cols)
    seen = set()
    for pairs in m.row_entries():
        key = tuple(pairs)
        if key in seen:
            continue
        seen.add(key)
        ech.add_entries(pairs)
    return _null_space(ech, ech.reduced_rows(), m.cols)


def kernel_on(m, cols) -> Subspace:
    """{v : m v = 0 and v_j = 0 for every j outside ``cols``}, canonical.

    The kernel of m's columns ``cols`` alone, with each basis row put back at
    those columns; the columns keep their order, so the basis stays reduced.
    """
    cols = sorted(cols)
    at = {j: i for i, j in enumerate(cols)}
    rows = [[(at[j], x) for j, x in pairs if j in at] for pairs in m.row_entries()]
    ker = kernel(Matrix._from_pairs(m.field, rows, len(cols)))
    return Subspace(m.field, m.cols, [[(cols[i], x) for i, x in pairs] for pairs in ker._rows],
                    [cols[i] for i in ker.pivot_cols])


def _null_space(ech: Echelon, reduced, n: int) -> Subspace:
    """{v in K^n : R v = 0} for the reduced rows R of ``ech`` cut to the first n columns.

    One vector per free column fc: e_fc - Σ_i R[i][fc] e_{pivot i}.
    """
    f = ech.field
    by_free = {}
    for pc, pairs in reduced:
        for j, x in pairs[1:]:
            if j < n:
                by_free.setdefault(j, []).append((pc, f.neg(x)))
    span = Echelon(f, n)
    one = f.one()
    for fc in range(n):
        if fc not in ech.pivots:
            span.add_entries(by_free.get(fc, []) + [(fc, one)])
    return span.subspace()


def rank(m: Matrix) -> int:
    ech = Echelon(m.field, m.cols)
    for pairs in m.row_entries():
        ech.add_entries(pairs)
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
    ech = Echelon(field, cols + 1)
    seen = set()
    for m, t in blocks:
        if m.cols != cols:
            raise ValueError("constraint width mismatch")
        if len(t) != m.rows:
            raise ValueError("target length mismatch")
        for pairs, ti in zip(m.row_entries(), t):
            key = (tuple(pairs), ti)
            if key in seen:
                continue
            seen.add(key)
            ech.add_entries(pairs + [(cols, ti)])
    if cols in ech.pivots:
        return AffineSolution(False)
    reduced = ech.reduced_rows()
    point = [field.zero()] * cols
    for pc, pairs in reduced:
        last, x = pairs[-1]
        if last == cols:
            point[pc] = x
    # dropping the rhs column of a consistent augmented rref leaves a reduced
    # echelon form of the coefficient block, so the kernel reads off directly
    return AffineSolution(True, point, _null_space(ech, reduced, cols))


def solve_unique(m: Matrix, target):
    """Solve m x = target, requiring a unique solution."""
    sol = solve_affine([(m, target)])
    if not sol.consistent:
        raise ValueError("inconsistent linear system")
    if sol.homogeneous.dim != 0:
        raise ValueError("solution not unique")
    return sol.point


def preimage(ops, target: Subspace) -> Subspace:
    """{v : m v ∈ target for every m in ops}, through the target's annihilator.

    A full target is met by every v: the result is the whole domain K^cols,
    with no products or kernel.
    """
    ops = list(ops)
    if any(m.rows != target.ambient_dim for m in ops):
        raise ValueError("operator/target dimension mismatch")
    if target.is_full:
        return Subspace.full(target.field, ops[0].cols)
    if target.dim == 0:  # the annihilator is the identity: skip the products
        return kernel(vstack(ops))
    cons = target.constraint_matrix()
    return kernel(vstack(cons @ m for m in ops))


def quotient_projection(sub: Subspace):
    """The free columns of K^n/sub and the projection onto their coordinates.

    Returns ``(free, proj)``: the unit vectors e_f at the columns f of
    ``free``, in increasing order, extend the basis of ``sub`` to a basis of
    K^n, and ``proj`` maps v to the coordinates of v + sub in the basis of
    their cosets.  Nothing is inverted: ``sub`` is reduced with its columns
    reversed, whose pivots are its trailing pivots t (the last non-zero
    column of some vector of sub), with basis rows c_t.  The free columns
    are the others, and since e_t ≡ e_t − c_t modulo sub, row f of ``proj``
    is e_f − Σ_t c_t[f] e_t.
    """
    f, n = sub.field, sub.ambient_dim
    ech = Echelon(f, n)
    for pairs in sub._basis_entries():
        ech.add_entries([(n - 1 - j, x) for j, x in pairs])
    proj = {}  # free column -> {col: value} of its row of proj, in increasing order
    for j in range(n):
        if n - 1 - j not in ech.pivots:
            proj[j] = {j: 1}
    for pc, pairs in ech.reduced_rows():
        for j, x in pairs[1:]:
            proj[n - 1 - j][n - 1 - pc] = -x
    return list(proj), Matrix.from_entries(f, [r.items() for r in proj.values()], n)


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
    # one equation per entry (m, i) of delta, at index i·rows + m; its
    # unknowns are the coordinates k of F in the basis of ``maps``
    system = [[] for _ in range(delta.cols * rows)]
    for k, fmap in enumerate(maps.basis_maps(rows, width)):
        for m, pairs in enumerate((fmap @ j)._nzr):
            for i, x in pairs:
                system[i * rows + m].append((k, x))
    rhs = [0] * (delta.cols * rows)
    for m, pairs in enumerate(delta._nzr):
        for i, x in pairs:
            rhs[i * rows + m] = x
    sol = solve_affine([(Matrix._from_pairs(f, system, maps.dim), rhs)])
    if not sol.consistent:
        return Factorization(None, False, False)
    fmat = maps.combination_matrix(sol.point, rows, width)
    return Factorization(fmat, (fmat @ j - delta).is_zero(), sol.homogeneous.dim == 0)


def closure(field: Field, ambient_dim: int, seeds, operators) -> Subspace:
    """Smallest operator-invariant subspace containing ``seeds``.

    Fixed-point generator loop: apply every operator to each newly added
    vector, breadth first, until no vector adds to the span.  Terminates
    because the ambient dimension is finite, and stops as soon as the span
    is all of K^n: the result is then ``Subspace.full``.  The dense seeds
    become ``(col, value)`` pairs once; every image stays in pairs.
    """
    if any(op.rows != ambient_dim or op.cols != ambient_dim for op in operators):
        raise ValueError("operator/ambient dimension mismatch")
    ech = Echelon(field, ambient_dim)
    added = [s for s in map(_nonzero_pairs, seeds)
             if ech.rank < ambient_dim and ech.add_entries(s)]
    for v in added:  # the list grows while it is walked
        for op in operators:
            if ech.rank == ambient_dim:
                return ech.subspace()
            w = op._apply_pairs(v)
            if ech.add_entries(w):
                added.append(w)
    return ech.subspace()


def image_span(ops, space: Subspace) -> Subspace:
    """The span of m v for every operator m in ``ops`` on K^n and every v in ``space``.

    Stops as soon as the span is all of K^n: the result is then ``Subspace.full``.
    """
    ech = Echelon(space.field, space.ambient_dim)
    for v in space.basis:
        for m in ops:
            if ech.rank == ech.width:
                return ech.subspace()
            ech.add(m.apply(v))
    return ech.subspace()


def restrict_operator(m: Matrix, space: Subspace, target: Subspace = None) -> Matrix:
    """The matrix of ``m`` from ``space`` into ``target``, in their basis coordinates.

    ``target`` defaults to ``space``, which must then be invariant under m.
    Column k holds the coordinates of m·b_k in the basis of ``target``, read
    off its pairs; raises ValueError if some m·b_k leaves ``target``.
    """
    if target is None:
        target = space
    if m.cols != space.ambient_dim or m.rows != target.ambient_dim:
        raise ValueError("operator/subspace dimension mismatch")
    cols = [target._coord_entries(m._apply_pairs(row)) for row in space._basis_entries()]
    return Matrix._from_pairs(space.field, cols, target.dim).transpose()
