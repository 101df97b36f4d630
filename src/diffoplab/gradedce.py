"""Chevalley–Eilenberg complex of the graded derivation superalgebra.

Cochains at degree k are K-linear maps from the graded exterior power of
the derivation space to the algebra.  Monomial normal form: even-parity
generators first with strictly increasing indices (they anticommute), then
odd generators with weakly increasing indices (they commute); mixed swaps
cost a sign of −1.  The complex is ``cecalc.form_complex``, the one
construction the ungraded complex shares, on the graded derivations and the
basis of A: A-linearity is imposed in the first slot by one block of rows
per generator of A among its basis vectors
(:meth:`FiniteAlgebra.generators`); an algebra on which that reduction
fails, a non-associative one, is refused.  The coboundary is
``cecalc.coboundary`` with the superbracket; its docstring holds the
normal-form sign expansion.
"""

from __future__ import annotations

from .algebra import AlgebraError, FiniteAlgebra
from .bimodule import regular_bimodule
from .cecalc import DegreeCapError, form_complex
from .derivations import derivations

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
        # δ_0..δ_cap in ambient coordinates: d_squared_is_zero reads δ_cap too
        self.ext, self.ambient_delta, self.forms, self.d = form_complex(
            self.der, map(algebra.basis_vector, range(algebra.dim)), cap, cap + 1)
        self._d_squared = None

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
