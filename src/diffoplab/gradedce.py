"""Chevalley–Eilenberg complex of the graded derivation superalgebra.

Cochains at degree k are K-linear maps from the graded exterior power of
the derivation space to the algebra.  Monomial normal form: even-parity
generators first with strictly increasing indices (they anticommute), then
odd generators with weakly increasing indices (they commute); mixed swaps
cost a sign of −1.  The coboundary follows the normal-form expansion

    δc(ε_1..ε_r, ϵ_1..ϵ_s) =
        Σ_i (−1)^{i−1} ε_i c(..ε̂_i.., ϵ..)
      + Σ_j (−1)^r     ϵ_j c(ε.., ..ϵ̂_j..)
      + Σ_{i<j} (−1)^{i+j} c([ε_i,ε_j] ∧ ..ε̂_i..ε̂_j.., ϵ..)
      − Σ_{i<j}            c([ϵ_i,ϵ_j] ∧ ε.., ..ϵ̂_i..ϵ̂_j..)
      + Σ_{i,j} (−1)^{i+r+1} c([ε_i,ϵ_j] ∧ ..ε̂_i.., ..ϵ̂_j..)

with the superbracket throughout.  The second sum acts by the omitted odd
generator ϵ_j, the mixed sum runs over all i ≤ r, and the odd-odd bracket
sum carries an overall minus: that sign is forced, since with + the square
of δ has a nonzero residual already on two odd generators (checked
mechanically; δ∘δ = 0 is asserted, never assumed).  All signs agree with
the Koszul-rule expansion where each argument crosses the ones before it.
"""

from __future__ import annotations

from .algebra import AlgebraError, FiniteAlgebra, flat_parities
from .bimodule import regular_bimodule
from .cecalc import DegreeCapError, SuperExterior, linearity_rows
from .derivations import DerivationSpace, derivations, super_bracket
from .linalg import Matrix, Subspace, kernel_on, restrict_operator

GRADED_DEGREE_CAP = 2


class GradedCochainComplex:
    """A → C^1 → C^2 → … restricted to the algebra-linear subcomplex."""

    def __init__(self, algebra: FiniteAlgebra, cap: int = GRADED_DEGREE_CAP,
                 der: DerivationSpace = None):
        if not algebra.graded:
            raise AlgebraError("graded complex needs a graded algebra")
        if algebra.field.char == 2:
            raise AlgebraError("graded operations refuse characteristic 2")
        if cap > GRADED_DEGREE_CAP:
            raise DegreeCapError(f"degree {cap} exceeds cap {GRADED_DEGREE_CAP}")
        self.algebra = algebra
        self.cap = cap
        self.der = der if der is not None else derivations(
            algebra, regular_bimodule(algebra), graded=True)
        self.ext = SuperExterior(self.der.basis_parities())
        self.maps = self.der.basis_maps()
        d = self.der.dim
        self._bracket = {}
        for i in range(d):
            for j in range(d):
                br = super_bracket(self.maps[i], self.ext.parities[i],
                                   self.maps[j], self.ext.parities[j])
                self._bracket[(i, j)] = self.der.coords_of(br)
        # per basis element e_a, its left multiplication and the derivation
        # coordinates of e_a·u_i, read by the A-linearity rows
        self._scalings = [(la.row_entries(), [self.der.coords_of(la @ u) for u in self.maps])
                          for la in map(algebra.left_mult_basis, range(algebra.dim))]
        self.ambient_delta = [self._delta_matrix(k) for k in range(cap + 1)]
        self.forms = [self._a_linear_subspace(k) for k in range(cap + 1)]
        self.d = [restrict_operator(self.ambient_delta[k], self.forms[k], self.forms[k + 1])
                  for k in range(cap)]
        self._d_squared = None

    # -- flat spaces -----------------------------------------------------------

    def flat_dim(self, k: int) -> int:
        return self.algebra.dim * len(self.ext.monomials(k))

    def _slice(self, k: int, monomial):
        n = self.algebra.dim
        base = self.ext.index(k, monomial) * n
        return base, base + n

    # -- coboundary ---------------------------------------------------------------

    def _delta_matrix(self, k: int) -> Matrix:
        """Ambient coboundary C^k → C^{k+1}."""
        algebra = self.algebra
        f = algebra.field
        n = algebra.dim
        ext = self.ext
        rows_dim = self.flat_dim(k + 1)
        cols_dim = self.flat_dim(k)
        out = [{} for _ in range(rows_dim)]  # {col: value} per row, plain sums
        map_rows = [u.row_entries() for u in self.maps]

        def add_eval(row_base, coeff, factors):
            """+= coeff · (identity on values) · c(factors) into target rows."""
            norm = ext.normalize(factors)
            if norm is None:
                return
            sign, monomial = norm
            lo, _hi = self._slice(k, monomial)
            v = sign * coeff
            for m in range(n):
                row = out[row_base + m]
                row[lo + m] = row.get(lo + m, 0) + v

        def add_acted(row_base, coeff, actor, factors):
            """+= coeff · U_actor @ c(factors)."""
            norm = ext.normalize(factors)
            if norm is None:
                return
            sign, monomial = norm
            lo, _hi = self._slice(k, monomial)
            u = map_rows[actor]
            v = sign * coeff
            for m in range(n):
                row = out[row_base + m]
                for m2, x in u[m]:
                    row[lo + m2] = row.get(lo + m2, 0) + v * x

        one = f.one()
        for monomial in ext.monomials(k + 1):
            ev, od = monomial
            r, s = len(ev), len(od)
            row_base = self.ext.index(k + 1, monomial) * n
            for i in range(r):
                coeff = one if i % 2 == 0 else f.neg(one)
                add_acted(row_base, coeff, ev[i], list(ev[:i] + ev[i + 1:] + od))
            for j in range(s):
                coeff = one if r % 2 == 0 else f.neg(one)
                add_acted(row_base, coeff, od[j], list(ev + od[:j] + od[j + 1:]))
            for i in range(r):
                for j in range(i + 1, r):
                    coeff = one if (i + 1 + j + 1) % 2 == 0 else f.neg(one)
                    rest = [x for t, x in enumerate(ev) if t not in (i, j)] + list(od)
                    for b, c in enumerate(self._bracket[(ev[i], ev[j])]):
                        if c != 0:
                            add_eval(row_base, f.mul(coeff, c), [b] + rest)
            for i in range(s):
                for j in range(i + 1, s):
                    rest = list(ev) + [x for t, x in enumerate(od) if t not in (i, j)]
                    for b, c in enumerate(self._bracket[(od[i], od[j])]):
                        if c != 0:
                            add_eval(row_base, f.neg(c), [b] + rest)
            for i in range(r):
                for j in range(s):
                    coeff = one if (i + 1 + r + 1) % 2 == 0 else f.neg(one)
                    rest = ([x for t, x in enumerate(ev) if t != i]
                            + [x for t, x in enumerate(od) if t != j])
                    for b, c in enumerate(self._bracket[(ev[i], od[j])]):
                        if c != 0:
                            add_eval(row_base, f.mul(coeff, c), [b] + rest)
        return Matrix.from_entries(f, [row.items() for row in out], cols_dim)

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
