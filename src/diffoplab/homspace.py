"""Hom_K(P, Q) as a flat coordinate space with its four module actions.

A K-linear map Φ: P → Q is a (dim Q)×(dim P) matrix, flattened row-major.
The four actions

    (aΦ)(p) = a·Φ(p)      (Φ∙a)(p) = Φ(a·p)      [left pair]
    (Φa)(p) = Φ(p)·a      (a∙Φ)(p) = Φ(p·a)      [right pair]

become flat operators, and the difference operators

    δ_a Φ  = aΦ − Φ∙a          δ̄_a Φ = Φa − a∙Φ

generate every linear condition the definition checkers solve.  The graded
variant inserts the Koszul sign (−1)^{[a][Φ]} in front of Φ∙a.

Each action family is a Kronecker product with an identity (``kron``).  The
δ family is built directly as ``kron_difference(Q_a, P_aᵀ)`` =
Q_a ⊗ I − I ⊗ P_aᵀ from the small left action matrices of the target and
the source, and δ̄ likewise from the right actions, so neither the two
action families nor their difference are materialized for them.

Each family has one member per basis element of A, built when first asked
for.  A condition stated for every a ∈ A is imposed only for the basis
elements of ``bimodule.condition_indices``, the generators of A where the
two modules follow their laws: a map commuting with the actions of g and h
commutes with that of gh, so ``common_kernel`` and ``action_closure`` take
the generators' members.  A preimage is solved on them only when the
target is invariant under both actions of the family's side, because
δ_{gh}Φ = g·(δ_hΦ) + (δ_gΦ)∙h and δ̄_{gh}Φ = (δ̄_gΦ)h + g∙(δ̄_hΦ) put the
generators' conditions back inside such a target only; that is checked on
the target's basis, under the generators' members of those two actions
(the center-form Lunts terms, the δ kernel under the right actions, and
the Grothendieck chain over a commutative A pass it).
``iterated_delta_vanishes`` takes the generators for the plain δ over a
commutative A, where every level is a submodule.
Families, the common kernel ``common_kernel(*kinds)`` of the named
families stacked, the preimages ``preimage(kind, target)`` that every
filtration is a chain of, their ``action_closure`` and their
``action_span`` (the span of their images under one action family, which
is their closure under the generators' members where the modules follow
their laws, since L(1) = I and L(gh) = L(g)L(h)) are built on first
use and cached on the instance, under the family and the target's value
(so equal targets built apart share one solve).  A family whose factors
equal those of another, basis element by basis element, is that family's
alias and shares its operators, kernels, preimages and closures: δ̄ is δ
when R_i = L_i on both modules, ``right`` is ``left`` when R_i = L_i on the
target, ``right_bullet`` is ``left_bullet`` when R_i = L_i on the source,
and the graded δ is δ when A has no odd basis element.  This is read off
the modules, so no Kronecker family is built only to be compared; families
equal for another reason are kept apart, with the same results.
``HomSpace.between(P, Q)`` keeps one instance per module pair on P, so every
builder on the same two module objects shares it, and the caches go with
the modules.  Every
module-map space is a common kernel: left A-linear maps ("delta"), right
A-linear maps ("bar_delta"), bimodule maps (both), and the one-sided duals
of Q inside Hom_K(Q, A) (``right_dual``, ``left_dual``).
"""

from __future__ import annotations

from functools import cached_property

from .algebra import AlgebraError, flat_parities, homogeneous_parity
from .bimodule import Bimodule, condition_indices, regular_bimodule
from .linalg import (
    Matrix,
    Subspace,
    closure,
    image_span,
    is_invariant,
    kernel,
    kron,
    kron_difference,
    preimage,
    vstack,
)


class LinMap:
    """A K-linear map between module coordinate spaces."""

    __slots__ = ("source", "target", "matrix", "parity")

    def __init__(self, source: Bimodule, target: Bimodule, matrix: Matrix,
                 parity=None):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError(
                f"map matrix is {matrix.rows}x{matrix.cols}, need "
                f"{target.dim}x{source.dim}")
        self.source = source
        self.target = target
        self.matrix = matrix
        self.parity = parity

    def flatten(self):
        return self.matrix.flatten()

    def __call__(self, vec):
        return self.matrix.apply(vec)

    def compose(self, other: "LinMap") -> "LinMap":
        """self ∘ other."""
        if other.target is not self.source:
            raise ValueError("composition target/source mismatch")
        par = None
        if self.parity is not None and other.parity is not None:
            par = (self.parity + other.parity) % 2
        return LinMap(other.source, self.target, self.matrix @ other.matrix, par)

    def __add__(self, other):
        return LinMap(self.source, self.target, self.matrix + other.matrix)

    def __sub__(self, other):
        return LinMap(self.source, self.target, self.matrix - other.matrix)

    def is_zero(self):
        return self.matrix.is_zero()

    def __eq__(self, other):
        return (isinstance(other, LinMap) and self.matrix == other.matrix
                and self.source is other.source and self.target is other.target)

    def __repr__(self):
        return f"LinMap({self.source.name} -> {self.target.name})"


ACTION_KINDS = ("left", "left_bullet", "right", "right_bullet")
# the two actions of each δ family's side
SIDE_ACTIONS = {"delta": ("left", "left_bullet"), "bar_delta": ("right", "right_bullet")}


class HomSpace:
    """Hom_K(P, Q) with precomputed flat action operators."""

    def __init__(self, source: Bimodule, target: Bimodule):
        if source.algebra is not target.algebra:
            raise ValueError("modules over different algebras")
        self.source = source
        self.target = target
        self.algebra = source.algebra
        self.dim = source.dim * target.dim
        self._ops = {}
        self._families = {}
        self._alias = {}
        self._kernels = {}
        self._preimages = {}
        self._closures = {}
        self._spans = {}
        self._sign = None

    @classmethod
    def between(cls, source: Bimodule, target: Bimodule) -> "HomSpace":
        """The one HomSpace of (source, target), kept on ``source`` under the
        identity of ``target`` (which it holds, so the id stays its own)."""
        homs = source.hom_spaces
        hom = homs.get(id(target))
        if hom is None:
            hom = homs[id(target)] = cls(source, target)
        return hom

    # -- flat operators -------------------------------------------------------

    @cached_property
    def _generators(self):
        """The basis indices that the "for every a" systems are solved on."""
        return condition_indices(self.source, self.target)

    def _family(self, kind: str, indices=None):
        """The operators of ``kind`` for the basis elements at ``indices``,
        each built when first asked for; all of them, as one list kept for
        the family, when ``indices`` is None."""
        kind = self._canonical(kind)
        if indices is None:
            ops = self._families.get(kind)
            if ops is None:
                ops = self._families[kind] = self._family(kind, range(self.algebra.dim))
            return ops
        return [self._member(kind, i) for i in indices]

    def _member(self, kind: str, i: int) -> Matrix:
        ops = self._ops.setdefault(kind, {})
        op = ops.get(i)
        if op is None:
            op = ops[i] = self._build(kind, i)
        return op

    def _build(self, kind: str, i: int) -> Matrix:
        f = self.algebra.field
        src, tgt = self.source, self.target
        if kind == "left":
            return kron(tgt.left[i], Matrix.identity(f, src.dim))
        if kind == "left_bullet":
            return kron(Matrix.identity(f, tgt.dim), src.left[i].transpose())
        if kind == "right":
            return kron(tgt.right[i], Matrix.identity(f, src.dim))
        if kind == "right_bullet":
            return kron(Matrix.identity(f, tgt.dim), src.right[i].transpose())
        if kind == "delta":
            return kron_difference(tgt.left[i], src.left[i].transpose())
        if kind == "bar_delta":
            return kron_difference(tgt.right[i], src.right[i].transpose())
        if kind == "graded_delta":
            lb = self._member("left_bullet", i)
            if self.algebra.parity[i]:
                lb = lb @ self.sign_matrix()
            return self._member("left", i) - lb
        raise ValueError(f"unknown operator family {kind!r}")

    def _canonical(self, kind: str) -> str:
        """The family under which the operators and solves of ``kind`` are kept:
        itself, or the family it equals because their factors are equal for
        every basis element (see the module docstring).  Only the module
        and algebra data are read; no Kronecker family is built."""
        alias = self._alias.get(kind)
        if alias is None:
            src, tgt = self.source, self.target
            if kind == "bar_delta":
                same = tgt.right == tgt.left and src.right == src.left
                other = "delta"
            elif kind == "right":
                same, other = tgt.right == tgt.left, "left"
            elif kind == "right_bullet":
                same, other = src.right == src.left, "left_bullet"
            elif kind == "graded_delta":
                self._require_graded()
                same, other = not any(self.algebra.parity), "delta"
            else:
                same = False
            alias = self._alias[kind] = other if same else kind
        return alias

    def common_kernel(self, *kinds: str) -> Subspace:
        """{Φ : mΦ = 0 for every m of the named families}, solved once per
        set of distinct families from one stacked system of the generators'
        members."""
        kinds = tuple(sorted({self._canonical(kind) for kind in kinds}))
        ker = self._kernels.get(kinds)
        if ker is None:
            ops = [m for kind in kinds for m in self._family(kind, self._generators)]
            ker = self._kernels[kinds] = kernel(vstack(ops))
        return ker

    def preimage(self, kind: str, target: Subspace) -> Subspace:
        """{Φ : mΦ ∈ target for every m of the family}, solved once per family
        and target value; a zero target gives ``common_kernel(kind)``.  It is
        solved on the generators' members alone when the target is stable
        (``_stable``), with the same result, and on every member otherwise.
        """
        if target.dim == 0:
            return self.common_kernel(kind)
        kind = self._canonical(kind)
        key = (kind, target)
        pre = self._preimages.get(key)
        if pre is None:
            ops = self._family(kind, self._generators if self._stable(kind, target) else None)
            pre = self._preimages[key] = preimage(ops, target)
        return pre

    def _stable(self, kind: str, target: Subspace) -> bool:
        """Whether ``target`` is invariant under both actions of the side of
        the δ family ``kind`` (``SIDE_ACTIONS``; never for the graded δ),
        and there are fewer generators than basis elements.  The generators'
        members are checked: where the modules follow their laws every
        action of A is a sum of products of theirs."""
        gens = self._generators
        actions = SIDE_ACTIONS.get(kind)
        return actions is not None and len(gens) < self.algebra.dim and is_invariant(
            target, [m for name in actions for m in self._family(name, gens)])

    def action_closure(self, kind: str, target: Subspace, actions) -> Subspace:
        """The closure of the preimage of ``target`` under the named action
        families, taken on the generators' members: where the modules follow
        their laws, a space invariant under those is invariant under every
        member."""
        key = (self._canonical(kind), target) + tuple(map(self._canonical, actions))
        if key not in self._closures:
            pre = self.preimage(kind, target)
            ops = [m for name in actions for m in self._family(name, self._generators)]
            hull = closure(self.algebra.field, self.dim, pre.basis, ops)
            # an invariant preimage is kept once: a HomSpace and its source
            # module form a cycle, so its caches live until the cyclic collector runs
            self._closures[key] = pre if hull == pre else hull
        return self._closures[key]

    def action_span(self, kind: str, target: Subspace, action: str) -> Subspace:
        """span{mΦ : m in the action family ``action``, Φ in the preimage of
        ``target``}, taken once per family, target value and action family.

        Where there are fewer generators than basis elements the modules
        follow their laws: L(1) = I puts the preimage inside the span and
        L(gh) = L(g)L(h) makes the span its ``action_closure`` under the
        generators' members of ``action``.  Otherwise the images under every
        member are spanned.
        """
        if len(self._generators) < self.algebra.dim:
            return self.action_closure(kind, target, (action,))
        key = (self._canonical(kind), target, self._canonical(action))
        span = self._spans.get(key)
        if span is None:
            span = self._spans[key] = image_span(self._family(action),
                                                 self.preimage(kind, target))
        return span

    def delta_ops(self):
        return self._family("delta")

    def bar_delta_ops(self):
        return self._family("bar_delta")

    def graded_delta_ops(self):
        self._require_graded()
        return self._family("graded_delta")

    def action_ops(self, kind: str):
        if kind not in ACTION_KINDS:
            raise ValueError(f"unknown action kind {kind!r}")
        return self._family(kind)

    # -- grading ---------------------------------------------------------------

    def _require_graded(self):
        if self.source.parity is None or self.target.parity is None:
            raise AlgebraError("graded operation needs graded modules")
        if not self.algebra.graded:
            raise AlgebraError("graded operation needs a graded algebra")
        if self.algebra.field.char == 2:
            raise AlgebraError("graded operations refuse characteristic 2")

    def coordinate_parity(self):
        """Parity of each flat coordinate (see ``flat_parities``)."""
        self._require_graded()
        return flat_parities(self.target.parity, self.source.parity)

    def sign_matrix(self) -> Matrix:
        if self._sign is None:
            f = self.algebra.field
            pars = self.coordinate_parity()
            self._sign = Matrix.from_entries(f, [[(i, -1 if par else 1)]
                                               for i, par in enumerate(pars)], self.dim)
        return self._sign

    def map_parity(self, phi: LinMap):
        """Parity of a homogeneous map, or raise if mixed."""
        return homogeneous_parity(self.coordinate_parity(), enumerate(phi.flatten()), "map")

    # -- actions and deltas ------------------------------------------------------

    def linmap(self, matrix_rows) -> LinMap:
        return LinMap(self.source, self.target,
                      Matrix.from_rows(self.algebra.field, matrix_rows))

    def basis_maps(self, space: Subspace):
        """The basis of a subspace of this Hom space, as (dim Q)×(dim P) matrices."""
        return space.basis_maps(self.target.dim, self.source.dim)

    def act(self, kind: str, a_coords, phi: LinMap) -> LinMap:
        """One of the four module actions of an algebra element on a map."""
        m = phi.matrix
        if kind == "left":
            out = self.target.left_action(a_coords) @ m
        elif kind == "left_bullet":
            out = m @ self.source.left_action(a_coords)
        elif kind == "right":
            out = self.target.right_action(a_coords) @ m
        elif kind == "right_bullet":
            out = m @ self.source.right_action(a_coords)
        else:
            raise ValueError(f"unknown action kind {kind!r}")
        return LinMap(self.source, self.target, out)

    def delta(self, a_coords, phi: LinMap) -> LinMap:
        out = (self.target.left_action(a_coords) @ phi.matrix
               - phi.matrix @ self.source.left_action(a_coords))
        return LinMap(self.source, self.target, out)

    def bar_delta(self, a_coords, phi: LinMap) -> LinMap:
        out = (self.target.right_action(a_coords) @ phi.matrix
               - phi.matrix @ self.source.right_action(a_coords))
        return LinMap(self.source, self.target, out)

    def graded_delta(self, a, phi: LinMap) -> LinMap:
        """δ_a with the Koszul sign; both arguments must be homogeneous."""
        self._require_graded()
        a_coords = a.coords if hasattr(a, "coords") else list(a)
        apar = homogeneous_parity(self.algebra.parity, enumerate(a_coords), "element")
        ppar = phi.parity if phi.parity is not None else self.map_parity(phi)
        bullet = phi.matrix @ self.source.left_action(a_coords)
        if apar and ppar:
            out = self.target.left_action(a_coords) @ phi.matrix + bullet
        else:
            out = self.target.left_action(a_coords) @ phi.matrix - bullet
        return LinMap(self.source, self.target, out, (apar + ppar) % 2)

    def iterated_delta_vanishes(self, phi: LinMap, k: int) -> bool:
        """True iff every (k+1)-fold basis-indexed composite of the plain
        deltas kills phi.

        Checking on basis elements suffices: δ is linear in its algebra slot.
        Over a commutative A the generators suffice (each δ
        then commutes with both left actions, so φ is killed by every
        composite exactly when it is by the generators' composites).  Each
        level of images is cut down to the canonical basis of its span
        before the next δ is applied; the span is all the next level needs.
        """
        ops = self._family("delta", self._generators if self.algebra.is_commutative() else None)
        f = self.algebra.field
        level = Subspace.from_spanning(f, self.dim, [phi.flatten()])
        for _ in range(k + 1):
            level = image_span(ops, level)
        return level.dim == 0


class DualModule:
    """A space of A-valued functionals on Q realized inside Hom_K(Q, A).

    ``space`` is the common kernel of the family ``kind`` of ``hom``,
    in the flat coordinates of (dim A)×(dim Q) matrices (row-major);
    ``bimodule`` is Hom_K(Q, A) under the two action families ``actions``,
    restricted to it, and is built when first read.
    """

    def __init__(self, hom: HomSpace, kind: str, actions, name: str):
        self.hom = hom
        self.space = hom.common_kernel(kind)
        self._actions = actions
        self._name = name

    @cached_property
    def bimodule(self) -> Bimodule:
        hom = self.hom
        left, right = (hom.action_ops(kind) for kind in self._actions)
        ambient = Bimodule(hom.algebra, hom.dim, left, right,
                           name=f"Hom({hom.source.name}, {hom.target.name})",
                           derived_from=(hom.source, hom.target))
        return ambient.restrict(self.space, self._name)

    @property
    def dim(self):
        return self.space.dim

    def as_map(self, coords) -> Matrix:
        """The functional with the given dual coordinates, as an n×(dim Q) matrix."""
        return self.space.combination_matrix(coords, self.hom.target.dim, self.hom.source.dim)

    def basis_maps(self):
        """The canonical basis functionals, as n×(dim Q) matrices."""
        return self.hom.basis_maps(self.space)


def right_dual(q: Bimodule) -> DualModule:
    """Right A-linear functionals u(qa) = u(q)a with (bu)(x)=b·u(x), (ub)(x)=u(bx)."""
    return DualModule(HomSpace(q, regular_bimodule(q.algebra)), "bar_delta",
                      ("left", "left_bullet"), f"{q.name}*R")


def left_dual(q: Bimodule) -> DualModule:
    """Left A-linear functionals u(aq) = a·u(q) with (ub)(x)=u(x)b, (bu)(x)=u(xb)."""
    return DualModule(HomSpace(q, regular_bimodule(q.algebra)), "delta",
                      ("right_bullet", "right"), f"{q.name}*L")

