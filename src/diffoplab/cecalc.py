"""Chevalley–Eilenberg differential calculus over a (not necessarily
commutative) algebra.

Degree-k forms are center-multilinear alternating maps from k-tuples of
derivations to the algebra, stored as flat vectors indexed by (basis tuple,
value coordinate).  The coboundary is the usual alternating sum

    dφ(u_0..u_k) = Σ (−1)^i u_i(φ(..û_i..)) + Σ (−1)^{i+j} φ([u_i,u_j],..û_i..û_j..)

and the product is the shuffle wedge.  The minimal calculus is the
bimodule-and-wedge closure of the exact one-forms.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, product

from .algebra import FiniteAlgebra
from .bimodule import Bimodule, regular_bimodule
from .derivations import DerivationSpace, derivations, lie_bracket
from .homspace import HomSpace
from .linalg import (
    Matrix,
    Subspace,
    closure,
    factor_through,
    kernel,
    kron,
    restrict_operator,
)

DEGREE_CAP = 3


class DegreeCapError(ValueError):
    pass


def _tuple_index(t, d: int) -> int:
    """Position of the basis tuple ``t`` among all k-tuples of range(d)."""
    idx = 0
    for x in t:
        idx = idx * d + x
    return idx


def _value_at(flat, t, n: int, d: int):
    """φ(u_{t_0}, …) as algebra coordinates, basis tuple arguments."""
    base = _tuple_index(t, d) * n
    return flat[base:base + n]


class FormSpace:
    """Alternating center-multilinear k-forms on the derivation module."""

    def __init__(self, algebra: FiniteAlgebra, der: DerivationSpace, degree: int,
                 space: Subspace):
        self.algebra = algebra
        self.der = der
        self.degree = degree
        self.space = space

    @property
    def dim(self):
        return self.space.dim

    @property
    def ambient_dim(self):
        return self.algebra.dim * (self.der.dim ** self.degree)

    def value_at(self, flat, t):
        """φ(u_{t_0}, …) as algebra coordinates, basis tuple arguments."""
        return _value_at(flat, t, self.algebra.dim, self.der.dim)

    def evaluate(self, flat, args):
        """Multilinear evaluation at arbitrary derivation-coordinate tuples."""
        n = self.algebra.dim
        d = self.der.dim
        f = self.algebra.field
        out = [f.zero()] * n
        for t in product(range(d), repeat=self.degree):
            coeff = f.one()
            for slot, arg in zip(t, args):
                coeff = f.mul(coeff, arg[slot])
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            val = self.value_at(flat, t)
            for m in range(n):
                if val[m] != 0:
                    out[m] = f.add(out[m], f.mul(coeff, val[m]))
        return out

    def contains(self, flat) -> bool:
        return self.space.contains(flat)


def ce_forms(algebra: FiniteAlgebra, degree: int,
             der: DerivationSpace = None) -> FormSpace:
    """Solve the alternating + center-linearity constraints at one degree."""
    if degree > DEGREE_CAP:
        raise DegreeCapError(f"degree {degree} exceeds cap {DEGREE_CAP}")
    if der is None:
        der = derivations(algebra, regular_bimodule(algebra))
    n = algebra.dim
    d = der.dim
    f = algebra.field
    if degree == 0:
        return FormSpace(algebra, der, 0, Subspace.full(f, n))
    z_mults = [algebra.left_mult(list(z)) for z in algebra.center().basis]
    # coordinates of z·u_t in the derivation basis, per center basis z
    z_coords = [[der.coords_of(lz @ u) for u in der.basis_maps()] for lz in z_mults]

    def rows():
        """The constraint rows one at a time, as ``(col, value)`` pairs with plain sums."""
        # alternating: adjacent swaps negate; repeated adjacent arguments vanish
        for t in product(range(d), repeat=degree):
            ti = _tuple_index(t, d)
            for s in range(degree - 1):
                if t[s] == t[s + 1]:
                    for m in range(n):
                        yield [(ti * n + m, 1)]
                elif t[s] < t[s + 1]:
                    swapped = list(t)
                    swapped[s], swapped[s + 1] = swapped[s + 1], swapped[s]
                    si = _tuple_index(swapped, d)
                    for m in range(n):
                        yield [(ti * n + m, 1), (si * n + m, 1)]
        # center-multilinearity in every slot
        for zrow, lz in zip(z_coords, z_mults):
            lz = lz.row_entries()
            for t in product(range(d), repeat=degree):
                ti = _tuple_index(t, d)
                for s in range(degree):
                    for m in range(n):
                        row = {}
                        for r, c in enumerate(zrow[t[s]]):
                            if c != 0:
                                replaced = list(t)
                                replaced[s] = r
                                k = _tuple_index(replaced, d) * n + m
                                row[k] = row.get(k, 0) + c
                        for m2, v in lz[m]:
                            k = ti * n + m2
                            row[k] = row.get(k, 0) - v
                        # a row that sums to zero, as each row for z = 1 does,
                        # constrains nothing and is not stored
                        if any(row.values()):
                            yield row.items()

    cons = Matrix.from_entries(f, rows(), n * (d ** degree))
    return FormSpace(algebra, der, degree, kernel(cons))


def ce_coboundary_matrix(algebra: FiniteAlgebra, der: DerivationSpace,
                         degree: int) -> Matrix:
    """Ambient coboundary: multilinear k-cochains to (k+1)-cochains."""
    n = algebra.dim
    d = der.dim
    f = algebra.field
    rows_dim = n * (d ** (degree + 1))
    cols_dim = n * (d ** degree)
    maps = der.basis_maps()
    bracket_coords = [[der.coords_of(lie_bracket(maps[i], maps[j]))
                       for j in range(d)] for i in range(d)]
    map_rows = [u.row_entries() for u in maps]
    out = [{} for _ in range(rows_dim)]  # {col: value} per row, plain sums
    for t in product(range(d), repeat=degree + 1):
        ti = _tuple_index(t, d)
        for i in range(degree + 1):
            omit = t[:i] + t[i + 1:]
            oi = _tuple_index(omit, d)
            sign = 1 if i % 2 == 0 else -1
            u = map_rows[t[i]]
            for m in range(n):
                row = out[ti * n + m]
                for m2, v in u[m]:
                    k = oi * n + m2
                    row[k] = row.get(k, 0) + sign * v
        for i in range(degree + 1):
            for j in range(i + 1, degree + 1):
                rest = tuple(x for s, x in enumerate(t) if s not in (i, j))
                sign = 1 if (i + j) % 2 == 0 else -1
                for r, c in enumerate(bracket_coords[t[i]][t[j]]):
                    if c == 0:
                        continue
                    ai = _tuple_index((r,) + rest, d)
                    for m in range(n):
                        row = out[ti * n + m]
                        row[ai * n + m] = row.get(ai * n + m, 0) + sign * c
    return Matrix.from_entries(f, [row.items() for row in out], cols_dim)


def exact_one_form(algebra: FiniteAlgebra, der: DerivationSpace, a_coords):
    """da as a flat one-form: (da)(u) = u(a)."""
    return [x for u in der.basis_maps() for x in u.apply(list(a_coords))]


def wedge(algebra: FiniteAlgebra, der: DerivationSpace,
          phi_flat, r: int, psi_flat, s: int):
    """Shuffle product of an r-form and an s-form (degree r+s flat vector)."""
    n = algebra.dim
    d = der.dim
    f = algebra.field
    if r == 0:
        out = []
        for t in product(range(d), repeat=s):
            out.extend(algebra.multiply(phi_flat, _value_at(psi_flat, t, n, d)))
        return out
    if s == 0:
        out = []
        for t in product(range(d), repeat=r):
            out.extend(algebra.multiply(_value_at(phi_flat, t, n, d), psi_flat))
        return out
    total = r + s
    out = []
    for t in product(range(d), repeat=total):
        acc = [f.zero()] * n
        for subset in combinations(range(total), r):
            comp = [x for x in range(total) if x not in subset]
            inversions = sum(1 for a in subset for b in comp if a > b)
            sign = 1 if inversions % 2 == 0 else -1
            val = algebra.multiply(_value_at(phi_flat, [t[x] for x in subset], n, d),
                                   _value_at(psi_flat, [t[x] for x in comp], n, d))
            for m in range(n):
                if val[m] != 0:
                    acc[m] = f.add(acc[m], val[m] if sign > 0 else f.neg(val[m]))
        out.extend(acc)
    return out


def form_multiplication_ops(algebra: FiniteAlgebra, der: DerivationSpace, degree: int):
    """Flat left/right algebra-multiplication operators on k-cochains."""
    f = algebra.field
    d = der.dim
    eye = Matrix.identity(f, d ** degree)
    left = [kron(eye, algebra.left_mult_basis(i)) for i in range(algebra.dim)]
    right = [kron(eye, algebra.right_mult_basis(i)) for i in range(algebra.dim)]
    return left, right


def form_bimodule(algebra: FiniteAlgebra, der: DerivationSpace, degree: int,
                  space: Subspace, name: str) -> Bimodule:
    """A form subspace as a bimodule in its own coordinates."""
    left, right = form_multiplication_ops(algebra, der, degree)
    return Bimodule(algebra, space.dim,
                    [restrict_operator(m, space) for m in left],
                    [restrict_operator(m, space) for m in right],
                    name=name)


class CochainComplex:
    """O^0 → O^1 → … with restricted coboundaries; d∘d = 0 exactly."""

    def __init__(self, algebra: FiniteAlgebra, cap: int = DEGREE_CAP,
                 der: DerivationSpace = None):
        if cap > DEGREE_CAP:
            raise DegreeCapError(f"degree {cap} exceeds cap {DEGREE_CAP}")
        self.algebra = algebra
        self.der = der if der is not None else derivations(algebra, regular_bimodule(algebra))
        self.cap = cap
        self.forms = [ce_forms(algebra, k, self.der) for k in range(cap + 1)]
        self.ambient_d = [ce_coboundary_matrix(algebra, self.der, k)
                          for k in range(cap)]
        # restrict_operator raises if d leaves the subcomplex
        self.d = [restrict_operator(self.ambient_d[k], self.forms[k].space,
                                    self.forms[k + 1].space) for k in range(cap)]

    def d_squared_is_zero(self) -> bool:
        return all((self.d[k + 1] @ self.d[k]).is_zero()
                   for k in range(len(self.d) - 1))

    def betti_data(self):
        from .linalg import rank
        ranks = [rank(m) for m in self.d]
        out = []
        for k in range(self.cap + 1):
            dim_k = self.forms[k].dim
            ker_dim = dim_k - ranks[k] if k < len(ranks) else dim_k
            img_below = ranks[k - 1] if k > 0 else 0
            out.append({"degree": k, "dim": dim_k, "kernel": ker_dim,
                        "image_from_below": img_below,
                        "betti": ker_dim - img_below})
        return out

    def to_dict(self):
        return {
            "algebra": self.algebra.name,
            "dims": [fs.dim for fs in self.forms],
            "d_matrices": [m.formatted() for m in self.d],
            "d_squared_zero": self.d_squared_is_zero(),
            "betti": self.betti_data(),
        }


class MinimalCalculus:
    """The differential subalgebra generated by the exact one-forms.

    Degree 1 is the bimodule closure of {da}; degree 2 is spanned by wedges
    of degree-1 elements (already closed under both multiplications), and
    is only built when first read.
    """

    def __init__(self, algebra: FiniteAlgebra, der: DerivationSpace = None):
        self.algebra = algebra
        self.der = der if der is not None else derivations(algebra, regular_bimodule(algebra))
        f = algebra.field
        n = algebra.dim
        d = self.der.dim
        left1, right1 = form_multiplication_ops(algebra, self.der, 1)
        gens = [exact_one_form(algebra, self.der, algebra.basis_vector(i))
                for i in range(n)]
        self.one_forms = closure(f, n * d, gens, left1 + right1)

    @cached_property
    def two_forms(self) -> Subspace:
        algebra, der = self.algebra, self.der
        pair_wedges = [wedge(algebra, der, list(w1), 1, list(w2), 1)
                       for w1 in self.one_forms.basis for w2 in self.one_forms.basis]
        left2, right2 = form_multiplication_ops(algebra, der, 2)
        return closure(algebra.field, algebra.dim * der.dim ** 2, pair_wedges,
                       left2 + right2)

    def one_forms_bimodule(self) -> Bimodule:
        return form_bimodule(self.algebra, self.der, 1, self.one_forms,
                             f"O1({self.algebra.name})")

    def d0_matrix(self) -> Matrix:
        """d: A → O^1 in minimal-calculus coordinates."""
        cols = [self.one_forms.coords_of(
            exact_one_form(self.algebra, self.der, self.algebra.basis_vector(i)))
            for i in range(self.algebra.dim)]
        return Matrix(self.algebra.field, cols, self.one_forms.dim).transpose()

    def d1_matrix(self) -> Matrix:
        """d: O^1 → O^2 in minimal-calculus coordinates."""
        amb = ce_coboundary_matrix(self.algebra, self.der, 1)
        return restrict_operator(amb, self.one_forms, self.two_forms)


class DualityReport:
    def __init__(self, der_dim, hom_dim, round_trip_ok):
        self.der_dim = der_dim
        self.hom_dim = hom_dim
        self.round_trip_ok = round_trip_ok

    @property
    def ok(self):
        return self.der_dim == self.hom_dim and self.round_trip_ok

    def to_dict(self):
        return {"derivations": self.der_dim, "bimodule_dual": self.hom_dim,
                "round_trip": self.round_trip_ok, "ok": self.ok}


def ce_duality_check(algebra: FiniteAlgebra, minimal: MinimalCalculus = None) -> DualityReport:
    """Derivations ≅ bimodule maps O^1 → A via u ↦ (da ↦ u(a))."""
    if minimal is None:
        minimal = MinimalCalculus(algebra)
    der = minimal.der
    # Hom_{A-A}(O^1, A): maps that commute with both actions
    hom = HomSpace(minimal.one_forms_bimodule(), regular_bimodule(algebra))
    hom_space = hom.common_kernel("delta", "bar_delta")
    gen_coords = minimal.d0_matrix()  # columns: coords of d(e_i) in O^1 basis
    round_trip = True
    # u ↦ φ_u ↦ u (on the derivation basis): φ_u is the bimodule map with
    # φ_u(d e_i) = u(e_i), unique because the d e_i generate O^1
    for u in der.basis_maps():
        if not factor_through(hom_space, gen_coords, u).ok:
            round_trip = False
    # φ ↦ u_φ ↦ φ (on the bimodule-dual basis): u_φ = φ∘d is a derivation,
    # and factoring it back through d must return φ itself
    for fmat in hom.basis_maps(hom_space):
        u = fmat @ gen_coords
        if not der.contains(u):
            round_trip = False
            continue
        back = factor_through(hom_space, gen_coords, u)
        if not back.ok or back.f_matrix != fmat:
            round_trip = False
    return DualityReport(der.dim, hom_space.dim, round_trip)
