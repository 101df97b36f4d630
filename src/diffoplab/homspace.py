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
Families are built on first use and cached on the instance, so callers
that need several definitions on one Hom space share one ``HomSpace``.
"""

from __future__ import annotations

from .algebra import AlgebraError
from .bimodule import Bimodule
from .linalg import Matrix, Subspace, image_span, kernel, kron, kron_difference, vstack


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

    @staticmethod
    def from_flat(source: Bimodule, target: Bimodule, flat, parity=None) -> "LinMap":
        matrix = Matrix.from_flat(source.field, flat, target.dim, source.dim)
        return LinMap(source, target, matrix, parity)

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
        self._kernels = {}
        self._sign = None

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
        self._ops[kind] = ops
        return ops

    def common_kernel(self, kind: str) -> Subspace:
        """{Φ : mΦ = 0 for every m of the family ``kind``}, solved once per family."""
        ker = self._kernels.get(kind)
        if ker is None:
            ker = self._kernels[kind] = kernel(vstack(self._family(kind)))
        return ker

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
        """Parity of each flat coordinate: a map is homogeneous of parity π
        iff it is supported on coordinates of parity π."""
        self._require_graded()
        pq, pp = self.target.parity, self.source.parity
        return [(pq[r] + pp[c]) % 2
                for r in range(self.target.dim) for c in range(self.source.dim)]

    def sign_matrix(self) -> Matrix:
        if self._sign is None:
            f = self.algebra.field
            pars = self.coordinate_parity()
            self._sign = Matrix.from_entries(f, [[(i, -1 if par else 1)]
                                               for i, par in enumerate(pars)], self.dim)
        return self._sign

    def parity_subspace(self, par: int) -> Subspace:
        pars = self.coordinate_parity()
        f = self.algebra.field
        vecs = []
        for i, p in enumerate(pars):
            if p == par:
                v = [f.zero()] * self.dim
                v[i] = f.one()
                vecs.append(v)
        return Subspace.from_spanning(f, self.dim, vecs)

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

    def from_flat(self, flat) -> LinMap:
        return LinMap.from_flat(self.source, self.target, flat)

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
        f = self.algebra.field
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


def _coords_parity(algebra, coords):
    pars = {algebra.parity[i] for i, c in enumerate(coords) if c != 0}
    if not pars:
        return 0
    if len(pars) > 1:
        raise AlgebraError("element is not homogeneous")
    return pars.pop()
