"""Jet modules: quotients of tensor ambients that represent operator spaces.

The order-k jet of P is (A ⊗ P)/μ^{k+1}, where μ^{k+1} is the submodule
generated by all (k+1)-fold images of δ^b(x⊗p) = (bx)⊗p − x⊗(bp); the map
J_k(p) = class(1 ⊗ p) is then itself an order-k operator, and composing
with module maps out of the quotient enumerates operators out of P.  The
two-sided first jet does the same inside A ⊗ P ⊗ A with an outer action on
each side.  Both builders find μ with ``Bimodule.generated`` on the
ambient, and :class:`JetModule` realizes either quotient from μ, the
ambient and the unit tensors.

Over a commutative algebra the one-sided μ is built from the generators of
A alone (``bimodule.condition_indices``): the two actions and the δ's then
commute and δ^{gh} = g·δ^h + δ^g∙h, so the generators' (k+1)-fold images,
closed under the generators' actions, give the same submodule.  The
two-sided μ¹ is seeded on pairs of generators and closed under their outer
actions, over any algebra, where P follows its laws: with L^out and L^mid
the outer and middle left actions, δ_{gh} = L^out_g·δ_h + δ_g·L^mid_h, and
L^mid_h commutes with every δ̄_c and sends 1⊗p⊗1 to 1⊗hp⊗1, again a unit
tensor; δ̄_{hg} = R^out_g·δ̄_h + δ̄_g·R^mid_h likewise on the right.
"""

from __future__ import annotations

from itertools import product

from .algebra import AlgebraError, FiniteAlgebra
from .bimodule import (
    Bimodule,
    SandwichModule,
    condition_indices,
    regular_bimodule,
    tensor_algebra_module,
)
from .diffops import dv_first_order
from .homspace import HomSpace, LinMap
from .linalg import (
    Matrix,
    Subspace,
    composition_image,
    image_span,
    quotient_projection,
)

JET_ORDER_CAP = 2


class JetModule:
    """A realized jet quotient with its module structures and J map.

    Its coordinates sit at the free columns ``free`` of ``mu``, a
    sub-bimodule of the ``ambient`` module; an action m of the ambient acts
    as proj∘m∘lift, where the lift is the selection matrix of ``free``, and
    keeps the ambient's second action kind; J sends e_l to the class of
    units[l].
    """

    def __init__(self, source, order, mu, ambient: Bimodule, units, two_sided=False):
        f = ambient.field
        n = mu.ambient_dim
        self.algebra = ambient.algebra
        self.source = source
        self.order = order
        self.ambient_dim = n
        self.mu = mu
        self.second_kind = ambient.second_kind
        self.free, self.proj = quotient_projection(mu)
        lift = Matrix.from_pairs(f, [[(c, 1)] for c in self.free], n).transpose()
        self.left_ops = [self.proj @ m @ lift for m in ambient.left]
        self.second_ops = [self.proj @ m @ lift for m in ambient.right]
        self.jk = self.proj @ Matrix(f, units, n).transpose()
        self.two_sided = two_sided

    @property
    def dim(self):
        return len(self.free)

    def quotient_bimodule(self) -> Bimodule:
        return Bimodule(self.algebra, self.dim, self.left_ops, self.second_ops,
                        second_kind=self.second_kind,
                        name=f"Jet{self.order}({self.source.name})",
                        derived_from=(self.source,))

    def to_dict(self):
        return {
            "order": self.order,
            "ambient_dim": self.ambient_dim,
            "relations_dim": self.mu.dim,
            "jet_dim": self.dim,
            "two_sided": self.two_sided,
        }


def _unit_tensors(algebra: FiniteAlgebra, p: Bimodule, sandwich: bool = False):
    """Flat 1 ⊗ e_l in A ⊗ P, or 1 ⊗ e_l ⊗ 1 in A ⊗ P ⊗ A, for each basis vector e_l of P."""
    f = algebra.field
    out = []
    for l in range(p.dim):
        vec = [f.mul(u, x) for u in algebra.unit for x in p.basis_vector(l)]
        if sandwich:
            vec = [f.mul(x, u) for x in vec for u in algebra.unit]
        out.append(vec)
    return out


def jet_module(algebra: FiniteAlgebra, p: Bimodule, k: int,
               allow_noncommutative: bool = False) -> JetModule:
    """(A ⊗ P)/μ^{k+1} with both quotient structures and the J map.

    Over a noncommutative algebra the construction still makes sense
    verbatim (the second structure is then a commuting left action), but
    the representation property is expected to fail; building it requires
    the explicit flag.
    """
    if k < 0:
        raise AlgebraError(f"jet order {k} is negative")
    if k > JET_ORDER_CAP:
        raise AlgebraError(f"jet order {k} exceeds cap {JET_ORDER_CAP}")
    if not algebra.is_commutative() and not allow_noncommutative:
        raise AlgebraError("one-sided jets need a commutative algebra "
                           "(pass allow_noncommutative=True to build anyway)")
    f = algebra.field
    ambient = tensor_algebra_module(algebra, p)
    # the generators suffice over a commutative A (see the module docstring)
    gens = condition_indices(p) if algebra.is_commutative() else range(algebra.dim)
    deltas = [ambient.left[i] - ambient.right[i] for i in gens]
    # μ^{k+1} is generated by the span of the (k+1)-fold images, so each
    # level is cut down to the canonical basis of its span before the next δ
    level = Subspace.full(f, ambient.dim)
    for _ in range(k + 1):
        level = image_span(deltas, level)
    return JetModule(p, k, ambient.generated(level.basis), ambient, _unit_tensors(algebra, p))


def jk_is_diffop(jm: JetModule) -> bool:
    """The canonical map J_k is an order-k operator into the jet module."""
    target = jm.quotient_bimodule()
    hom = HomSpace(jm.source, target)
    return hom.iterated_delta_vanishes(LinMap(jm.source, target, jm.jk), jm.order)


def hom_space_out_of_jet(jm: JetModule, q: Bimodule) -> Subspace:
    """Module maps from the jet quotient to Q, in flat coordinates.

    Maps out of a two-sided jet intertwine the right structures as well.
    """
    kinds = ("delta", "bar_delta") if jm.two_sided else ("delta",)
    return HomSpace(jm.quotient_bimodule(), q).common_kernel(*kinds)


def two_sided_jet(algebra: FiniteAlgebra, p: Bimodule) -> JetModule:
    """First-order two-sided jet: (A ⊗ P ⊗ A)/μ¹ with outer actions.

    μ¹ is the sub-bimodule that the seeds δ_bδ̄_c(1⊗p⊗1) generate under the
    outer actions, for b and c on the basis indices of ``condition_indices``
    (see the module docstring): the generators where P follows its laws.
    """
    sw = SandwichModule(algebra, p)
    gens = condition_indices(p, sw.bimodule)
    deltas = [sw.bimodule.left[i] - sw.middle("left", i) for i in gens]
    bar_deltas = [sw.bimodule.right[i] - sw.middle("right", i) for i in gens]
    units = _unit_tensors(algebra, p, sandwich=True)
    seeds = []
    for vec in units:
        for delta in deltas:
            inner = delta.apply(vec)
            seeds.extend(bar.apply(inner) for bar in bar_deltas)
    return JetModule(p, 1, sw.bimodule.generated(seeds), sw.bimodule, units, two_sided=True)


def two_sided_representability(jm: JetModule, q: Bimodule) -> dict:
    """dim Hom_{A-A}(jet, Q) versus the bimodule first-order operator space,
    with the two explicit correspondences checked to invert each other."""
    if not jm.two_sided:
        raise ValueError("needs a two-sided jet")
    hom = hom_space_out_of_jet(jm, q)
    dv = dv_first_order(jm.source, q)
    # F ↦ F∘J maps into the operators, and each operator is F∘J for one F
    injective, image = composition_image(hom, q.dim, jm.jk)
    forward_ok = dv.space.contains_space(image)
    backward_ok = dv.dim == 0 or (injective and image.contains_space(dv.space))
    return {
        "hom_dim": hom.dim,
        "operator_dim": dv.dim,
        "dims_equal": hom.dim == dv.dim,
        "forward_ok": forward_ok,
        "backward_ok": backward_ok,
        "ok": hom.dim == dv.dim and forward_ok and backward_ok,
    }


def left_jet_identity_witness(algebra: FiniteAlgebra, p: Bimodule):
    """A module map f out of A ⊗ P together with (b_0, b_1, p) where the
    order-1 iterated-delta compatibility of f∘J with f∘(the ambient deltas)
    breaks.

    Over a commutative algebra the two sides agree identically; over a
    noncommutative one the mismatch is f(1 ⊗ (b_1 b_0 − b_0 b_1)p), and the
    first nonzero instance over a basis of left-linear maps is returned.
    """
    f = algebra.field
    n = algebra.dim
    ambient = tensor_algebra_module(algebra, p)
    # left-linear maps f: A⊗P → A, i.e. f ∘ L(b) = L_A(b) ∘ f
    hom = HomSpace(ambient, regular_bimodule(algebra))
    maps = hom.common_kernel("delta")
    deltas = [ambient.left[i] - ambient.right[i] for i in range(n)]
    units = _unit_tensors(algebra, p)
    unit_cols = Matrix(f, units, ambient.dim).transpose()
    for fmat in hom.basis_maps(maps):
        fj = fmat @ unit_cols
        for b0, b1 in product(range(n), repeat=2):
            lhs = (algebra.left_mult_basis(b0) @ algebra.left_mult_basis(b1) @ fj
                   - algebra.left_mult_basis(b0) @ fj @ p.left[b1]
                   - algebra.left_mult_basis(b1) @ fj @ p.left[b0]
                   + fj @ p.left[b1] @ p.left[b0])
            for l in range(p.dim):
                img = deltas[b0].apply(deltas[b1].apply(units[l]))
                rhs_col = fmat.apply(img)
                if lhs.col(l) != rhs_col:
                    diff = [f.sub(x, y) for x, y in zip(lhs.col(l), rhs_col)]
                    return {"b0": b0, "b1": b1, "p": l,
                            "difference": [f.fmt(x) for x in diff]}
    return None
