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
Families, the common kernel ``common_kernel(*kinds)`` of the named
families stacked, and the preimages ``preimage(kind, target)`` that every
filtration is a chain of, are built on first use and cached on the
instance: a preimage under the family and the target's value, so equal
targets built as different objects share one solve.  A family equal to one
built before (δ̄ = δ when both modules act alike on either side) becomes its
alias and shares its kernels and preimages.  ``HomSpace.between(P, Q)``
keeps one instance per module pair on P, so every builder on the same two
module objects shares it, and the caches go with the modules.  Every
module-map space is a common kernel: left A-linear maps ("delta"), right
A-linear maps ("bar_delta"), bimodule maps (both), and the one-sided duals
of Q inside Hom_K(Q, A) (``right_dual``, ``left_dual``,
``two_sided_dual_space``).
"""

from __future__ import annotations

from functools import cached_property

from .algebra import AlgebraError, flat_parities
from .bimodule import Bimodule, regular_bimodule
from .linalg import (
    Matrix,
    Subspace,
    image_span,
    kernel,
    kron,
    kron_difference,
    preimage,
    restrict_operator,
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
        self._alias = {}
        self._kernels = {}
        self._preimages = {}
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

    def _family(self, kind: str):
        ops = self._ops.get(kind)
        if ops is not None:
            return ops
        f = self.algebra.field
        n = self.algebra.dim
        eye_p = Matrix.identity(f, self.source.dim)
        eye_q = Matrix.identity(f, self.target.dim)
        if kind == "left":
            ops = [kron(self.target.left[i], eye_p) for i in range(n)]
        elif kind == "left_bullet":
            ops = [kron(eye_q, self.source.left[i].transpose()) for i in range(n)]
        elif kind == "right":
            ops = [kron(self.target.right[i], eye_p) for i in range(n)]
        elif kind == "right_bullet":
            ops = [kron(eye_q, self.source.right[i].transpose()) for i in range(n)]
        elif kind == "delta":
            ops = [kron_difference(self.target.left[i], self.source.left[i].transpose())
                   for i in range(n)]
        elif kind == "bar_delta":
            ops = [kron_difference(self.target.right[i], self.source.right[i].transpose())
                   for i in range(n)]
        elif kind == "graded_delta":
            sign = self.sign_matrix()
            ops = []
            for i in range(n):
                lb = self._family("left_bullet")[i]
                if self.algebra.parity[i]:
                    lb = lb @ sign
                ops.append(self._family("left")[i] - lb)
        else:
            raise ValueError(f"unknown operator family {kind!r}")
        # the first equal family met is the first built, never an alias
        for other, other_ops in self._ops.items():
            if other_ops == ops:
                self._alias[kind] = other
                ops = other_ops
                break
        self._ops[kind] = ops
        return ops

    def _canonical(self, kind: str) -> str:
        """The first-built family equal to ``kind``, under which its solves are kept."""
        self._family(kind)
        return self._alias.get(kind, kind)

    def common_kernel(self, *kinds: str) -> Subspace:
        """{Φ : mΦ = 0 for every m of the named families}, solved once per
        set of distinct families from one stacked system."""
        kinds = tuple(sorted({self._canonical(kind) for kind in kinds}))
        ker = self._kernels.get(kinds)
        if ker is None:
            ops = [m for kind in kinds for m in self._family(kind)]
            ker = self._kernels[kinds] = kernel(vstack(ops))
        return ker

    def preimage(self, kind: str, target: Subspace) -> Subspace:
        """{Φ : mΦ ∈ target for every m of the family}, solved once per family
        and target value; a zero target gives ``common_kernel(kind)``."""
        if target.dim == 0:
            return self.common_kernel(kind)
        key = (self._canonical(kind), target)
        pre = self._preimages.get(key)
        if pre is None:
            pre = self._preimages[key] = preimage(self._family(kind), target)
        return pre

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
        pars = self.coordinate_parity()
        flat = phi.flatten()
        seen = {pars[i] for i, x in enumerate(flat) if x != 0}
        if not seen:
            return 0
        if len(seen) > 1:
            raise AlgebraError("map is not homogeneous")
        return seen.pop()

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
        apar = _coords_parity(self.algebra, a_coords)
        ppar = phi.parity if phi.parity is not None else self.map_parity(phi)
        bullet = phi.matrix @ self.source.left_action(a_coords)
        if apar and ppar:
            out = self.target.left_action(a_coords) @ phi.matrix + bullet
        else:
            out = self.target.left_action(a_coords) @ phi.matrix - bullet
        return LinMap(self.source, self.target, out, (apar + ppar) % 2)

    def iterated_delta_vanishes(self, phi: LinMap, k: int, flavor: str = "plain") -> bool:
        """True iff every (k+1)-fold basis-indexed composite of deltas kills phi.

        Checking on basis elements suffices: δ is linear in its algebra slot.
        Each level of images is cut down to the canonical basis of its span
        before the next δ is applied; the span is all the next level needs.
        """
        if flavor == "plain":
            ops = self.delta_ops()
        elif flavor == "bar":
            ops = self.bar_delta_ops()
        elif flavor == "graded":
            ops = self.graded_delta_ops()
        else:
            raise ValueError(f"unknown delta flavor {flavor!r}")
        f = self.algebra.field
        level = Subspace.from_spanning(f, self.dim, [phi.flatten()])
        for _ in range(k + 1):
            level = image_span(ops, level)
        return level.dim == 0


class DualModule:
    """A space of A-valued functionals on Q realized inside Hom_K(Q, A).

    ``space`` is the common kernel of the family ``kind`` of ``hom``,
    in the flat coordinates of (dim A)×(dim Q) matrices (row-major);
    ``bimodule`` carries the actions ``actions`` restricted to it, and is
    built when first read.
    """

    def __init__(self, hom: HomSpace, kind: str, actions, name: str):
        self.hom = hom
        self.space = hom.common_kernel(kind)
        self._actions = actions
        self._name = name

    @cached_property
    def bimodule(self) -> Bimodule:
        left, right = ([restrict_operator(m, self.space) for m in self.hom.action_ops(kind)]
                       for kind in self._actions)
        return Bimodule(self.hom.algebra, self.space.dim, left, right, name=self._name)

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


def two_sided_dual_space(q: Bimodule) -> Subspace:
    """Functionals that are simultaneously left and right A-linear (flat coords)."""
    return HomSpace(q, regular_bimodule(q.algebra)).common_kernel("delta", "bar_delta")


def _coords_parity(algebra, coords):
    pars = {algebra.parity[i] for i, c in enumerate(coords) if c != 0}
    if not pars:
        return 0
    if len(pars) > 1:
        raise AlgebraError("element is not homogeneous")
    return pars.pop()
