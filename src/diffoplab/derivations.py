"""Derivation modules: Leibniz solvers, Lie (super)brackets, order-1 splits.

A Q-valued derivation is a linear map u: A → Q with u(ab) = u(a)b + a·u(b);
the graded variant inserts (−1)^{[a][u]} before a·u(b).  Maps are matrices
of shape (dim Q) × (dim A), flattened row-major for subspace work.  The
rule is imposed with a generator of A as the first factor, plus u(1) = 0,
where the target follows its laws, and on every pair of basis elements
otherwise (``_leibniz_rows``).  ``derivations`` solves it once per target and
grading, kept on the target; ``is_derivation`` applies the rows to one map.
"""

from __future__ import annotations

from itertools import product

from .algebra import AlgebraError, FiniteAlgebra, flat_parities, homogeneous_parity
from .bimodule import Bimodule, condition_indices, regular_bimodule
from .linalg import Matrix, Subspace, kernel, kernel_on


class DerivationSpace:
    """All Q-valued derivations of A, as a subspace of Hom_K(A, Q)."""

    def __init__(self, algebra: FiniteAlgebra, target: Bimodule,
                 space: Subspace, graded: bool):
        self.algebra = algebra
        self.target = target
        self.space = space
        self.graded = graded
        self._maps = None

    @property
    def dim(self) -> int:
        return self.space.dim

    def as_map(self, coords) -> Matrix:
        return self.space.combination_matrix(coords, self.target.dim, self.algebra.dim)

    def basis_maps(self):
        """The canonical basis derivations as matrices, built on the first call."""
        if self._maps is None:
            self._maps = tuple(self.space.basis_maps(self.target.dim, self.algebra.dim))
        return self._maps

    def basis_parities(self):
        """Parity of each canonical basis derivation (graded solver only)."""
        if not self.graded:
            raise AlgebraError("ungraded derivation space has no parities")
        flat = flat_parities(self.target.parity, self.algebra.parity)
        return [homogeneous_parity(flat, row, "derivation basis vector")
                for row in self.space.basis_matrix().row_entries()]

    def contains(self, m: Matrix) -> bool:
        return self.space.contains(m.flatten())

    def coords_of(self, m: Matrix):
        return self.space.coords_of(m.flatten())


def _leibniz_rows(algebra, target, parity=0):
    """Constraint blocks U·(e_g e_j) − R_Q(e_j)(U e_g) − s(g)·L_Q(e_g)(U e_j) = 0
    for each g in ``condition_indices`` for Hom_K(A, Q) and every basis index
    j, with s(g) = −1 where g and ``parity`` are odd and 1 otherwise, and
    U(1) = 0 unless those g are every index.

    Where the target follows its laws, the x with U(xy) = U(x)y + s(x)·x·U(y)
    for every y form a subalgebra (the signs multiply in the graded case),
    which holds 1 once U(1) = 0; holding for the generators of A, the rule
    then holds for all of A.  On every pair, x = y = 1 gives U(1) = 0 already.
    """
    n = algebra.dim
    mq = target.dim
    gens = condition_indices(regular_bimodule(algebra), target)
    right = [m.row_entries() for m in target.right]
    left = [m.row_entries() for m in target.left]
    rows = []
    for i, j in product(gens, range(n)):
        mcol = [(m, x) for m, x in enumerate(algebra.sc[i][j]) if x]
        sgn = -1 if parity and algebra.parity[i] else 1
        rq, lq = right[j], left[i]
        for r in range(mq):
            row = {r * n + m: x for m, x in mcol}
            for s, x in rq[r]:
                row[s * n + i] = row.get(s * n + i, 0) - x
            for s, x in lq[r]:
                row[s * n + j] = row.get(s * n + j, 0) - sgn * x
            rows.append(row.items())
    if len(gens) < n:
        unit = [(m, x) for m, x in enumerate(algebra.unit) if x]
        rows.extend([(r * n + m, x) for m, x in unit] for r in range(mq))
    return Matrix.from_entries(algebra.field, rows, mq * n)


def is_derivation(algebra: FiniteAlgebra, target: Bimodule, m: Matrix) -> bool:
    """Whether the (dim Q)×(dim A) matrix m is a Q-valued derivation, read
    off the Leibniz rows applied to it: no system is solved."""
    if target.algebra is not algebra:
        raise AlgebraError("target module is over a different algebra")
    return ((m.rows, m.cols) == (target.dim, algebra.dim)
            and not any(_leibniz_rows(algebra, target).apply(m.flatten())))


def derivations(algebra: FiniteAlgebra, target: Bimodule,
                graded: bool = False) -> DerivationSpace:
    """The solutions of the Leibniz system, as maps A → Q, solved once per
    target and grading and kept on the target."""
    if target.algebra is not algebra:
        raise AlgebraError("target module is over a different algebra")
    if graded in target.derivation_spaces:
        return target.derivation_spaces[graded]
    if not graded:
        space = kernel(_leibniz_rows(algebra, target))
    else:
        if not algebra.graded or target.parity is None:
            raise AlgebraError("graded derivations need a graded algebra and module")
        if algebra.field.char == 2:
            raise AlgebraError("graded operations refuse characteristic 2")
        flat = flat_parities(target.parity, algebra.parity)
        even, odd = (kernel_on(_leibniz_rows(algebra, target, par),
                               [j for j, p in enumerate(flat) if p == par]) for par in (0, 1))
        space = even.sum(odd)
    target.derivation_spaces[graded] = DerivationSpace(algebra, target, space, graded)
    return target.derivation_spaces[graded]


def lie_bracket(u: Matrix, v: Matrix) -> Matrix:
    """u∘v − v∘u for endomorphism-valued derivations (Q = A)."""
    return u @ v - v @ u


def super_bracket(u: Matrix, pu: int, v: Matrix, pv: int) -> Matrix:
    """u∘v − (−1)^{[u][v]} v∘u."""
    if pu and pv:
        return u @ v + v @ u
    return u @ v - v @ u


def inner_derivation(reg: Bimodule, q_coords) -> Matrix:
    """a ↦ qa − aq on the regular bimodule."""
    return reg.algebra.right_mult(q_coords) - reg.algebra.left_mult(q_coords)


class FirstOrderSplit:
    """Order-1 operators on A as zero-order part ⊕ derivations."""

    def __init__(self, zero_part: Subspace, derivation_part: Subspace,
                 total: Subspace):
        self.zero_part = zero_part
        self.derivation_part = derivation_part
        self.total = total
        self.direct = (zero_part.intersect(derivation_part).dim == 0
                       and zero_part.sum(derivation_part) == total)

    @property
    def dims(self):
        return {"zero": self.zero_part.dim, "derivation": self.derivation_part.dim,
                "total": self.total.dim}


def first_order_decomposition(algebra: FiniteAlgebra, target: Bimodule,
                              diff1: Subspace, graded: bool = False,
                              side: str = None) -> FirstOrderSplit:
    """Split Diff_1(A, Q) as zero-order operators ⊕ derivations.

    The zero-order part is Δ_q(a) = a·q (side "left", the ungraded default)
    or Δ_q(a) = q·a (side "right", the graded convention); over a
    noncommutative base the two splits differ exactly by the inner
    derivations, and both are direct.
    """
    if side is None:
        side = "right" if graded else "left"
    vecs = [_zero_order(target, target.basis_vector(qi), side).flatten()
            for qi in range(target.dim)]
    zero_part = Subspace.from_spanning(algebra.field, target.dim * algebra.dim, vecs)
    return FirstOrderSplit(zero_part, derivations(algebra, target, graded).space, diff1)


def split_operator(algebra: FiniteAlgebra, target: Bimodule, delta: Matrix,
                   graded: bool = False):
    """Decompose one order-1 operator as (value at 1, derivation remainder)."""
    q = delta.apply(list(algebra.unit))
    zero_matrix = _zero_order(target, q, "right" if graded else "left")
    return q, zero_matrix, delta - zero_matrix


def _zero_order(target: Bimodule, q, side: str) -> Matrix:
    """The zero-order operator a ↦ a·q (side "left") or a ↦ q·a (side "right")."""
    acts = target.right if side == "right" else target.left
    return Matrix(target.field, [m.apply(q) for m in acts], target.dim).transpose()
