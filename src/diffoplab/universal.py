"""The universal differential calculus: one-forms inside A ⊗ A.

Ω¹ is the sub-bimodule of A ⊗ A generated by the elements 1⊗a − a⊗1 (it
coincides with the kernel of the multiplication map, which is verified,
not assumed), with the derivation d(a) = 1⊗a − a⊗1.  Degree 2, the balanced
square Ω¹ ⊗_A Ω¹, is read off its image a⊗bc⊗d in A⊗A⊗A (Ω² ≅ A⊗Ā⊗Ā, for A
unital and associative; others are refused).  Every derivation into a
bimodule factors through d by a unique bimodule map; algebra maps extend to
calculus morphisms degree by degree.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

from .algebra import AlgebraError, FiniteAlgebra
from .bimodule import Bimodule
from .homspace import HomSpace
from .linalg import (
    Echelon,
    Factorization,
    Matrix,
    Subspace,
    factor_through,
    kernel,
    kron,
)

# Forms are materialized up to this degree.
UNIVERSAL_DEGREE_CAP = 2


class Calculus:
    """A differential calculus truncated at degree 2: spaces, products, d.

    ``dims[k]`` is the coordinate dimension of degree k; ``d[k]`` maps
    degree k to k+1; ``mul(r, s, x, y)`` multiplies coordinates.
    """

    def __init__(self, algebra, dims, d_mats, mul):
        self.algebra = algebra
        self.dims = dims
        self.d = d_mats
        self.mul = mul


def zero_calculus(algebra: FiniteAlgebra) -> Calculus:
    """The calculus that is the algebra in degree 0 and zero above."""
    f = algebra.field
    n = algebra.dim

    def mul(r, s, x, y):
        if r == 0 and s == 0:
            return algebra.multiply(x, y)
        return []

    return Calculus(algebra, [n, 0, 0],
                    [Matrix.zeros(f, 0, n), Matrix.zeros(f, 0, 0)], mul)


class UniversalCalculus:
    """Ω⁰ = A, Ω¹ ⊂ A⊗A, Ω² = Ω¹ ⊗_A Ω¹, with d and the products."""

    def __init__(self, algebra: FiniteAlgebra, cap: int = UNIVERSAL_DEGREE_CAP):
        if cap < 1 or cap > UNIVERSAL_DEGREE_CAP:
            raise ValueError("universal calculus is materialized at degrees "
                             f"1..{UNIVERSAL_DEGREE_CAP}")
        if cap >= 2:
            _require_unital_associative(algebra)
        self.algebra = algebra
        self.cap = cap
        f = algebra.field
        n = algebra.dim
        eye = Matrix.identity(f, n)
        # A⊗A under a(x⊗y)b = ax⊗yb
        self.ambient = Bimodule(algebra, n * n,
                                [kron(algebra.left_mult_basis(i), eye) for i in range(n)],
                                [kron(eye, algebra.right_mult_basis(i)) for i in range(n)],
                                name=f"{algebra.name}⊗{algebra.name}", derived_from=())
        gens = [exact_form_ambient(algebra, algebra.basis_vector(i)) for i in range(n)]
        self.omega1 = self.ambient.generated(gens)
        self._omega1_module = self.ambient.restrict(self.omega1, f"Omega1({algebra.name})")
        self.left1, self.right1 = self._omega1_module.left, self._omega1_module.right
        d0_cols = [self.omega1.coords_of(g) for g in gens]
        self.d0 = Matrix(f, d0_cols, self.omega1.dim).transpose()
        if cap >= 2:
            self._build_degree2()

    # -- degree 1 ---------------------------------------------------------------

    def multiplication_matrix(self) -> Matrix:
        """m: A⊗A → A, e_i⊗e_j ↦ e_i e_j."""
        sc = self.algebra.sc
        cols = [col for row in sc for col in row]  # column i·n + j: e_i e_j
        return Matrix(self.algebra.field, cols, self.algebra.dim).transpose()

    def omega1_equals_multiplication_kernel(self) -> bool:
        return self.omega1 == kernel(self.multiplication_matrix())

    def omega1_bimodule(self) -> Bimodule:
        """Ω¹ as a bimodule in its own coordinates: one module per calculus."""
        return self._omega1_module

    def leibniz_holds(self) -> bool:
        """d(ab) = da·b + a·db on all basis pairs, in ambient coordinates."""
        n = self.algebra.dim
        for i, j in product(range(n), repeat=2):
            dab = exact_form_ambient(self.algebra, self.algebra.sc[i][j])
            da = exact_form_ambient(self.algebra, self.algebra.basis_vector(i))
            db = exact_form_ambient(self.algebra, self.algebra.basis_vector(j))
            rhs_da_b = self.ambient.right[j].apply(da)
            rhs_a_db = self.ambient.left[i].apply(db)
            f = self.algebra.field
            rhs = [f.add(x, y) for x, y in zip(rhs_da_b, rhs_a_db)]
            if dab != rhs:
                return False
        return True

    # -- degree 2 ---------------------------------------------------------------

    def _build_degree2(self):
        f = self.algebra.field
        n = self.algebra.dim
        t = self.omega1.dim
        # Ω¹ ⊗_A Ω¹ embeds in A⊗A⊗A by (a⊗b)⊗(c⊗d) ↦ a⊗bc⊗d: the middle relations
        # (ωa)⊗η − ω⊗(aη) span ker Φ.  rref(Φ) is 1 at its leading pivots, 0 at
        # the others and kills ker Φ, so its pivots and rows are free2 and proj2
        ws = self.omega1._basis_entries()
        terms = [(x, *divmod(ij, n), a) for x, wx in enumerate(ws) for ij, a in wx]
        phi = {}  # row (i·n + m)·n + l of Φ -> {column x·t + y: value}, plain sums
        for y, wy in enumerate(ws):
            # Φ(w_x ⊗ w_y) = Σ w_x[i·n + j]·e_i ⊗ (e_j·w_y)
            e_w = [self.ambient.left[j]._apply_pairs(wy) for j in range(n)]
            for x, i, j, a in terms:
                for ml, c in e_w[j]:
                    row = phi.setdefault(i * n * n + ml, {})
                    row[x * t + y] = row.get(x * t + y, 0) + a * c
        ech = Echelon(f, t * t)
        for key in sorted(phi):
            ech.add_entries(phi[key].items())
        reduced = ech.reduced_rows()
        self.free2 = [c for c, _ in reduced]
        self.proj2 = Matrix._from_pairs(f, [pairs for _, pairs in reduced], t * t)
        self.omega2_dim = len(self.free2)

    @cached_property
    def d1(self) -> Matrix:
        """d: Ω¹ → Ω², built when first read.

        On basis vectors of Ω¹ via their ambient A⊗A coordinates:
        Σ x_{ij} e_i d e_j  ↦  Σ x_{ij} d e_i · d e_j, with row i·n + j of
        ``de_de`` holding d e_i · d e_j.
        """
        n = self.algebra.dim
        des = self.d0.column_entries()
        de_de = Matrix(self.algebra.field,
                       [self._project2(self._add_tensor({}, des[i], des[j]))
                        for i, j in product(range(n), repeat=2)], self.omega2_dim)
        return (self.omega1.basis_matrix() @ de_de).transpose()

    def mu11(self, w_coords, e_coords):
        """Product Ω¹ × Ω¹ → Ω² in quotient coordinates."""
        return self._project2(self._add_tensor({}, _pairs(w_coords), _pairs(e_coords)))

    def _project2(self, tensor):
        """The class in Ω² (dense quotient coordinates) of an Ω¹⊗Ω¹ tensor
        given as ``{flat index: value}`` with plain sums."""
        out = [0] * self.omega2_dim
        for i, x in self.proj2._apply_pairs(tensor.items()):
            out[i] = x
        return out

    def _add_tensor(self, tensor, w_pairs, e_pairs):
        """tensor += ω⊗η in flat Ω¹⊗Ω¹ coordinates, as ``{index: value}``
        with plain sums, for ω and η given by the ``(index, value)`` pairs of
        their non-zero Ω¹ coordinates; returns tensor."""
        t = self.omega1.dim
        for x, a in w_pairs:
            base = x * t
            for y, b in e_pairs:
                tensor[base + y] = tensor.get(base + y, 0) + a * b
        return tensor

    def left2(self, a_coords, w2):
        """a · (class of ω⊗η) = class of (aω)⊗η."""
        t = self.omega1.dim
        l1_cols = Matrix.combination(self.left1, a_coords).column_entries()
        # the representative of class r is the unit tensor at free2[r]
        lifted = {k: c for k, c in zip(self.free2, w2) if c}
        # (l1 ⊗ I)·lifted: entry x·t + y moves to x2·t + y with weight l1[x2][x]
        t2 = {}
        for k, v in lifted.items():
            x, y = divmod(k, t)
            for x2, c in l1_cols[x]:
                t2[x2 * t + y] = t2.get(x2 * t + y, 0) + c * v
        return self._project2(t2)

    # -- identities ---------------------------------------------------------------

    def juxtaposition_rule_holds(self) -> bool:
        """(a₀da₁)(b₀db₁) = a₀d(a₁b₀)db₁ − a₀a₁db₀db₁ in Ω²."""
        if self.cap < 2:
            raise ValueError("needs degree 2")
        alg = self.algebra
        n = alg.dim
        de_pairs = self.d0.column_entries()
        # a·db for basis elements a, b, as the pairs of its coordinates
        a_db = [[self.left1[a]._apply_pairs(de_pairs[b]) for b in range(n)] for a in range(n)]
        for a0, a1, b0 in product(range(n), repeat=3):
            # μ₁₁ is bilinear, so the right side is (a₀d(a₁b₀) − a₀a₁db₀)·db₁;
            # its negative is added to the left side, and the sum projected once
            a0a1 = alg.multiply(alg.basis_vector(a0), alg.basis_vector(a1))
            d_a1b0 = self.d0._apply_pairs(_pairs(alg.sc[a1][b0]))
            minus_rhs = dict(Matrix.combination(self.left1, a0a1)._apply_pairs(de_pairs[b0]))
            for i, x in self.left1[a0]._apply_pairs(d_a1b0):
                minus_rhs[i] = minus_rhs.get(i, 0) - x
            for b1 in range(n):
                diff = self._add_tensor({}, a_db[a0][a1], a_db[b0][b1])
                if self.proj2._apply_pairs(
                        self._add_tensor(diff, minus_rhs.items(), de_pairs[b1]).items()):
                    return False
        return True

    def _left1_coords(self, a_coords, w_coords):
        return Matrix.combination(self.left1, a_coords).apply(w_coords)

    def _right1_coords(self, w_coords, a_coords):
        return Matrix.combination(self.right1, a_coords).apply(w_coords)

    def central_commutation_witness(self):
        """Central a, a' with a·da' ≠ da'·a, or None after exhaustive search.

        Returns (a_index, aprime_index, difference in ambient coords).
        """
        alg = self.algebra
        f = alg.field
        center = alg.center()
        for z in center.basis:
            left = self.ambient.left_action(z)
            right = self.ambient.right_action(z)
            for zp in center.basis:
                da = exact_form_ambient(alg, list(zp))
                diff = [f.sub(x, y) for x, y in
                        zip(left.apply(da), right.apply(da))]
                if any(x != 0 for x in diff):
                    return {"central": list(z), "argument": list(zp),
                            "difference": diff}
        return None

    def as_calculus(self) -> Calculus:
        products = {(0, 0): self.algebra.multiply, (0, 1): self._left1_coords,
                    (1, 0): self._right1_coords, (1, 1): self.mu11, (0, 2): self.left2}

        def mul(r, s, x, y):
            if (r, s) not in products:
                raise ValueError(f"product at degrees ({r},{s}) not materialized")
            return products[r, s](x, y)

        dims = [self.algebra.dim, self.omega1.dim]
        d_mats = [self.d0]
        if self.cap >= 2:
            dims.append(self.omega2_dim)
            d_mats.append(self.d1)
        return Calculus(self.algebra, dims, d_mats, mul)


def exact_form_ambient(algebra: FiniteAlgebra, a_coords):
    """da = 1⊗a − a⊗1 as a flat A⊗A vector."""
    f = algebra.field
    n = algebra.dim
    out = [f.zero()] * (n * n)
    for (j, c), (i, u) in product(_pairs(a_coords), _pairs(algebra.unit)):
        out[i * n + j] = f.add(out[i * n + j], f.mul(u, c))
        out[j * n + i] = f.sub(out[j * n + i], f.mul(u, c))
    return out


def formatted_witness(field, witness):
    """A central commutation witness with each coordinate formatted, or None."""
    if witness is None:
        return None
    return {key: [field.fmt(x) for x in vec] for key, vec in witness.items()}


def universal_factorize(uc: UniversalCalculus, target: Bimodule,
                        derivation: Matrix) -> Factorization:
    """Factor a target-valued derivation through d as a bimodule map on Ω¹.

    Solves f(d a) = Δ(a) inside Hom_{A-A}(Ω¹, target), which is solved once
    per calculus and target (``HomSpace.between``); the system must be
    consistent (universality) with a unique solution (Ω¹ is generated by
    the exact forms).
    """
    hom = HomSpace.between(uc.omega1_bimodule(), target)
    return factor_through(hom.common_kernel("delta", "bar_delta"), uc.d0, derivation)


class ExtensionResult:
    def __init__(self, maps, intertwining_ok, well_defined):
        self.maps = maps
        self.intertwining_ok = intertwining_ok
        self.well_defined = well_defined

    @property
    def ok(self):
        return self.intertwining_ok and self.well_defined


def extend_hom(uc: UniversalCalculus, rho: Matrix, target: Calculus) -> ExtensionResult:
    """Extend an algebra map to a degree-wise calculus morphism.

    ρ*(a₀ da₁ ⋯ da_k) = ρ(a₀)·d'ρ(a₁)⋯d'ρ(a_k).  In degrees 1 and 2 the map
    F solves F∘J = Δ through ``factor_through`` over all linear maps, where
    the columns of J are a spanning family and those of Δ their values
    (well-definedness = consistency of the solve); it is then verified to
    intertwine the differentials.
    """
    alg = uc.algebra
    f = alg.field
    n = alg.dim
    if not _is_algebra_map(alg, target.algebra, rho):
        raise AlgebraError("map is not a unital algebra homomorphism")
    maps = [rho]
    # degree 1 on the spanning family e_i d e_j
    des = [uc.d0.col(i) for i in range(n)]
    dvs = [target.d[0].apply(rho.col(j)) for j in range(n)]
    span1 = [uc._left1_coords(alg.basis_vector(i), des[j]) for i, j in product(range(n), repeat=2)]
    values1 = [target.mul(0, 1, rho.col(i), dvs[j]) for i, j in product(range(n), repeat=2)]
    m1 = _solve_on_span(f, uc.omega1.dim, target.dims[1], span1, values1)
    maps.append(m1)
    well = m1 is not None
    inter = well and (m1 @ uc.d0) == (target.d[0] @ rho)
    if uc.cap >= 2 and len(target.d) >= 2 and well:
        # degree 2 on the spanning family e_i d e_j d e_k
        span2 = [uc.mu11(span1[i * n + j], des[k]) for i, j, k in product(range(n), repeat=3)]
        values2 = [target.mul(1, 1, values1[i * n + j], dvs[k])
                   for i, j, k in product(range(n), repeat=3)]
        m2 = _solve_on_span(f, uc.omega2_dim, target.dims[2], span2, values2)
        maps.append(m2)
        well = m2 is not None
        if well:
            inter = inter and (m2 @ uc.d1) == (target.d[1] @ m1)
    return ExtensionResult(maps, inter, well)


def _solve_on_span(f, src_dim, dst_dim, span, values):
    """The least linear map sending each spanning vector to its value, or None."""
    j = Matrix(f, span, src_dim).transpose()
    delta = Matrix(f, values, dst_dim).transpose()
    return factor_through(Subspace.full(f, dst_dim * src_dim), j, delta).f_matrix


def _is_algebra_map(src: FiniteAlgebra, dst: FiniteAlgebra, rho: Matrix) -> bool:
    """ρ(1) = 1 and ρ·L_i = L(ρ e_i)·ρ for each basis element e_i."""
    if rho.apply(list(src.unit)) != list(dst.unit):
        return False
    return all(rho @ src.left_mult_basis(i) == dst.left_mult(rho.col(i)) @ rho
               for i in range(src.dim))


def _require_unital_associative(alg: FiniteAlgebra):
    """Raise unless L(1) = R(1) = I and L(e_i e_j) = L_i·L_j for all i, j: the
    unit and associativity laws that embed Ω¹ ⊗_A Ω¹ in A⊗A⊗A."""
    eye, lm = Matrix.identity(alg.field, alg.dim), alg.left_mult_basis
    if (alg.left_mult(alg.unit) != eye or alg.right_mult(alg.unit) != eye
            or any(alg.left_mult(alg.sc[i][j]) != lm(i) @ lm(j)
                   for i, j in product(range(alg.dim), repeat=2))):
        raise AlgebraError(f"{alg.name} is not unital and associative; degree 2 needs both")


def _pairs(coords):
    """The ``(index, value)`` pairs of the non-zero entries of a coordinate list."""
    return [(i, c) for i, c in enumerate(coords) if c]
