"""Chevalley–Eilenberg complex of the graded derivation superalgebra.

Cochains at degree k are K-linear maps from the graded exterior power of
the derivation space to the algebra.  Monomial normal form: even-parity
generators first with strictly increasing indices (they anticommute), then
odd generators with weakly increasing indices (they commute); mixed swaps
cost a sign of −1.  A-linearity is imposed in the first slot by one block of
rows per generator of A among its basis vectors
(:meth:`FiniteAlgebra.generators`), not per basis vector; an algebra on
which that reduction fails, a non-associative one, is refused.  The
coboundary is ``cecalc.coboundary``, the one
builder that the ungraded complex shares, with the superbracket; its
docstring holds the normal-form sign expansion.
"""

from __future__ import annotations

from .algebra import AlgebraError, FiniteAlgebra, flat_parities
from .bimodule import regular_bimodule
from .cecalc import (
    DegreeCapError,
    SuperExterior,
    bracket_table,
    coboundary,
    form_scalings,
    linearity_rows,
)
from .derivations import derivations
from .linalg import Matrix, Subspace, kernel_on, restrict_operator

GRADED_DEGREE_CAP = 2


class GradedCochainComplex:
    """A → C^1 → C^2 → … restricted to the algebra-linear subcomplex."""

    def __init__(self, algebra: FiniteAlgebra, cap: int = GRADED_DEGREE_CAP):
        if not algebra.graded:
            raise AlgebraError("graded complex needs a graded algebra")
        if algebra.field.char == 2:
            raise AlgebraError("graded operations refuse characteristic 2")
        if not 0 <= cap <= GRADED_DEGREE_CAP:
            raise DegreeCapError(f"degree {cap} outside 0..{GRADED_DEGREE_CAP}")
        self.algebra = algebra
        self.cap = cap
        self.der = derivations(algebra, regular_bimodule(algebra), graded=True)
        self.ext = SuperExterior(self.der.basis_parities())
        self.maps = self.der.basis_maps()
        # per generator a of A, its left multiplication and the derivation
        # coordinates of a·u_i, read by the A-linearity rows
        self._scalings = form_scalings(self.der, algebra.generators(
            map(algebra.basis_vector, range(algebra.dim))))
        bracket = bracket_table(self.der, self.ext.parities)
        self.ambient_delta = [coboundary(self.der, self.ext, bracket, k) for k in range(cap + 1)]
        self.forms = [self._a_linear_subspace(k) for k in range(cap + 1)]
        self.d = [restrict_operator(self.ambient_delta[k], self.forms[k], self.forms[k + 1])
                  for k in range(cap)]
        self._d_squared = None

    # -- flat spaces -----------------------------------------------------------

    def flat_dim(self, k: int) -> int:
        return self.algebra.dim * len(self.ext.monomials(k))

    # -- algebra-linear subcomplex ---------------------------------------------------

    def _a_linear_subspace(self, k: int) -> Subspace:
        algebra = self.algebra
        f = algebra.field
        n = algebra.dim
        if k == 0:
            return Subspace.full(f, n)
        ext = self.ext
        # rows from the first slot and normal-form tails only: a·v_t in slot
        # t crosses the earlier factors to the front with the sign
        # (−1)^{[a]([v_1]+…+[v_{t−1}])} that A-linearity asks for there, so
        # the rows of every other slot and every permuted tuple are ± these;
        # tails that repeat an even b still give rows (see linearity_rows)
        shared = Matrix.from_entries(f, linearity_rows(ext, k, n, self._scalings),
                                     self.flat_dim(k))
        flat = flat_parities([ext.monomial_parity(mono) for mono in ext.monomials(k)],
                             algebra.parity)
        even, odd = (kernel_on(shared, [j for j, p in enumerate(flat) if p == par])
                     for par in (0, 1))
        return even.sum(odd)

    # -- reports -----------------------------------------------------------------

    def d_squared_is_zero(self) -> bool:
        """δ∘δ = 0 on the algebra-linear subcomplex, checked in ambient coords:
        δ_{k+1}·(δ_k·Bᵀ) vanishes for the basis rows B of each degree k.
        Checked on the first call and kept."""
        if self._d_squared is None:
            delta = self.ambient_delta
            self._d_squared = all(
                (delta[k + 1] @ (delta[k] @ self.forms[k].basis_matrix().transpose())).is_zero()
                for k in range(self.cap))
        return self._d_squared

    def to_dict(self):
        return {
            "algebra": self.algebra.name,
            "derivations": {"even": len(self.ext.evens), "odd": len(self.ext.odds)},
            "dims": [s.dim for s in self.forms],
            "d_squared_zero": self.d_squared_is_zero(),
        }
