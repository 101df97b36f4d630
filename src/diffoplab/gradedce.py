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

from itertools import combinations, combinations_with_replacement, product

from .algebra import AlgebraError, FiniteAlgebra
from .bimodule import regular_bimodule
from .cecalc import DegreeCapError
from .derivations import DerivationSpace, derivations, super_bracket
from .linalg import Matrix, Subspace, kernel, restrict_operator, vstack

GRADED_DEGREE_CAP = 2


class SuperExterior:
    """Monomial bookkeeping for graded exterior powers of the derivations."""

    def __init__(self, der: DerivationSpace):
        self.der = der
        self.parities = der.basis_parities()
        self.evens = [i for i, p in enumerate(self.parities) if p == 0]
        self.odds = [i for i, p in enumerate(self.parities) if p == 1]
        self._monomials = {}
        self._index = {}

    def monomials(self, k: int):
        """All degree-k normal-form monomials as (evens, odds) index tuples."""
        if k not in self._monomials:
            out = []
            for r in range(min(k, len(self.evens)), -1, -1):
                s = k - r
                for ev in combinations(self.evens, r):
                    for od in combinations_with_replacement(self.odds, s):
                        out.append((ev, od))
            out.sort()
            self._monomials[k] = out
            self._index[k] = {m: i for i, m in enumerate(out)}
        return self._monomials[k]

    def index(self, k: int, monomial) -> int:
        self.monomials(k)
        return self._index[k][monomial]

    def normalize(self, factors):
        """Sort a factor list into normal form; returns (sign, monomial) or None.

        Swapping adjacent factors costs −1 unless both are odd; a repeated
        even factor kills the monomial.
        """
        fs = list(factors)
        par = self.parities
        sign = 1
        for i in range(len(fs)):
            for j in range(len(fs) - 1 - i):
                a, b = fs[j], fs[j + 1]
                swap = (par[a], a) > (par[b], b)
                if swap:
                    fs[j], fs[j + 1] = b, a
                    if not (par[a] and par[b]):
                        sign = -sign
        for x, y in zip(fs, fs[1:]):
            if x == y and par[x] == 0:
                return None
        ev = tuple(x for x in fs if par[x] == 0)
        od = tuple(x for x in fs if par[x] == 1)
        return sign, (ev, od)

    def monomial_parity(self, monomial) -> int:
        return len(monomial[1]) % 2


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
        self.ext = SuperExterior(self.der)
        self.maps = self.der.basis_maps()
        d = self.der.dim
        self._bracket = {}
        for i in range(d):
            for j in range(d):
                br = super_bracket(self.maps[i], self.ext.parities[i],
                                   self.maps[j], self.ext.parities[j])
                self._bracket[(i, j)] = self.der.coords_of(br)
        # (e_a · u_i) in derivation coordinates, read by the A-linearity rows
        self._scaled = {(a, i): self.der.coords_of(algebra.left_mult_basis(a) @ self.maps[i])
                        for a in range(algebra.dim) for i in range(d)}
        self.ambient_delta = [self._delta_matrix(k) for k in range(cap + 1)]
        self.forms = [self._a_linear_subspace(k) for k in range(cap + 1)]
        self.d = [restrict_operator(self.ambient_delta[k], self.forms[k], self.forms[k + 1])
                  for k in range(cap)]

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
        monos = ext.monomials(k)
        flat = self.flat_dim(k)
        left_rows = [algebra.left_mult_basis(ai).row_entries() for ai in range(n)]

        def rows():
            """The A-linearity rows one at a time, as ``{col: value}`` items with plain sums."""
            # constraints come from every argument tuple, not only the
            # normal-form ones: scaling one slot of a degenerate tuple
            # still relates honest monomial values
            for factors in product(range(self.der.dim), repeat=k):
                factors = list(factors)
                base = ext.normalize(factors)
                for t in range(k):
                    prefix_par = sum(ext.parities[x] for x in factors[:t]) % 2
                    for ai in range(n):
                        apar = algebra.parity[ai]
                        # scaling slot t crosses the earlier factors only:
                        # v_1∧…∧(a·v_t)∧… = (−1)^{[a]([v_1]+…+[v_{t−1}])} a·(v_1∧…)
                        sign_neg = (apar * prefix_par) % 2 == 1
                        la = left_rows[ai]
                        scaled = self._scaled[(ai, factors[t])]
                        for m in range(n):
                            row = {}
                            for b, c in enumerate(scaled):
                                if c == 0:
                                    continue
                                norm = ext.normalize(factors[:t] + [b] + factors[t + 1:])
                                if norm is None:
                                    continue
                                sgn, mono2 = norm
                                lo, _ = self._slice(k, mono2)
                                row[lo + m] = row.get(lo + m, 0) + (c if sgn > 0 else -c)
                            if base is not None:
                                bsgn, bmono = base
                                lo0, _ = self._slice(k, bmono)
                                s = 1 if (bsgn < 0) != sign_neg else -1
                                for m2, v in la[m]:
                                    row[lo0 + m2] = row.get(lo0 + m2, 0) + s * v
                            # a row that sums to zero, as each row for a = 1
                            # does, constrains nothing and is not stored
                            if any(row.values()):
                                yield row.items()

        shared = Matrix.from_entries(f, rows(), flat)
        total = None
        for par in (0, 1):
            # homogeneity selector: coords off the parity-π support vanish
            selector = []
            for monomial in monos:
                mpar = ext.monomial_parity(monomial)
                lo, _ = self._slice(k, monomial)
                selector += [[(lo + m, 1)] for m in range(n)
                             if (algebra.parity[m] + mpar) % 2 != par]
            space = kernel(vstack([shared, Matrix.from_pairs(f, selector, flat)]))
            total = space if total is None else total.sum(space)
        return total

    # -- reports -----------------------------------------------------------------

    def d_squared_is_zero(self) -> bool:
        """δ∘δ = 0 on the algebra-linear subcomplex, checked in ambient coords:
        δ_{k+1}·(δ_k·Bᵀ) vanishes for the basis rows B of each degree k."""
        for k in range(self.cap):
            images = self.ambient_delta[k] @ self.forms[k].basis_matrix().transpose()
            if not (self.ambient_delta[k + 1] @ images).is_zero():
                return False
        return True

    def to_dict(self):
        return {
            "algebra": self.algebra.name,
            "derivations": {"even": len(self.ext.evens), "odd": len(self.ext.odds)},
            "dims": [s.dim for s in self.forms],
            "d_squared_zero": self.d_squared_is_zero(),
        }
