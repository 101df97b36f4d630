"""Chevalley–Eilenberg differential calculus over a (not necessarily
commutative) algebra.

Degree-k forms are center-multilinear alternating maps from k-tuples of
derivations to the algebra.  They are solved on the normal-form monomials
of a :class:`SuperExterior` by one solver, :func:`form_kernel`: the
increasing tuples here, the super-monomials in ``gradedce``, with one block
of linearity rows per generator (:meth:`FiniteAlgebra.generators`) of the
center here and of A there.  The coboundary is the usual alternating sum

    dφ(u_0..u_k) = Σ (−1)^i u_i(φ(..û_i..)) + Σ (−1)^{i+j} φ([u_i,u_j],..û_i..û_j..)

built by one function, :func:`coboundary`, on the same monomials; its
docstring holds the graded sign expansion.  Both complexes are built by
:func:`form_complex`.  The monomials are the only coordinates a form has:
:func:`ce_forms`, :func:`ce_coboundary_matrix`, the shuffle :func:`wedge`
and the minimal calculus, the bimodule-and-wedge closure of the exact
one-forms, all work on n·C(d, k) (increasing tuple, value coordinate)
coordinates.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, combinations_with_replacement
from math import comb

from .algebra import FiniteAlgebra, flat_parities
from .bimodule import Bimodule, regular_bimodule
from .derivations import DerivationSpace, derivations, super_bracket
from .homspace import HomSpace
from .linalg import (
    Matrix,
    Subspace,
    composition_image,
    kernel,
    kernel_on,
    kron,
    rank,
    restrict_operator,
)

DEGREE_CAP = 3


class DegreeCapError(ValueError):
    pass


class SuperExterior:
    """Monomial bookkeeping for graded exterior powers of the derivations.

    ``parities`` are those of the derivation basis; with all of them even
    this is the plain exterior power, whose monomials are the increasing
    tuples.
    """

    def __init__(self, parities):
        self.parities = list(parities)
        self.evens = [i for i, p in enumerate(self.parities) if p == 0]
        self.odds = [i for i, p in enumerate(self.parities) if p == 1]
        self._monomials = {}
        self._index = {}
        self._inserted = {}

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

    def insert(self, x: int, monomial):
        """(sign, index) of u_x ∧ ``monomial`` in normal form, the index among
        the monomials one degree up, or None where a repeated even factor
        kills it.  Memoized per (x, monomial)."""
        key = (x, monomial)
        if key not in self._inserted:
            ev, od = monomial
            norm = self.normalize((x,) + ev + od)
            self._inserted[key] = (None if norm is None else
                                   (norm[0], self.index(len(ev) + len(od) + 1, norm[1])))
        return self._inserted[key]

    def monomial_parity(self, monomial) -> int:
        return len(monomial[1]) % 2


def linearity_rows(ext: SuperExterior, degree: int, n: int, scalings):
    """The rows φ(s·u_b ∧ u_R) − s·φ(u_b ∧ u_R) = 0 on normal-form coordinates.

    The coordinates are (monomial of ``ext``, value coordinate), n to a
    monomial.  There is one row block per generator s, from
    :meth:`FiniteAlgebra.generators`: one row per normal-form R of
    degree − 1, generator s, derivation b and value coordinate m, as
    ``{col: value}`` items with plain sums.  Linearity under the generators
    gives linearity under the subalgebra they generate.  ``scalings``
    holds, per s, the row entries of its left multiplication and the
    derivation coordinates of s·u_b for each b.  Linearity in the first slot
    is enough: moving any other slot to the front and back costs the same
    sign on both sides.  A b that repeats an even factor of R is kept,
    since φ(u_b ∧ u_R) vanishes there but the terms of s·u_b need not.
    """
    for tail in ext.monomials(degree - 1):
        # (column start, sign) of u_r ∧ u_R for each derivation r, None where it vanishes
        wedged = [None if w is None else (w[1] * n, w[0])
                  for w in (ext.insert(r, tail) for r in range(len(ext.parities)))]
        for lmul, coords in scalings:
            for b, scaled in enumerate(coords):
                terms = [(w[0], w[1] * c) for w, c in zip(wedged, scaled)
                         if c and w is not None]
                for m in range(n):
                    row = {}
                    for lo, c in terms:
                        row[lo + m] = row.get(lo + m, 0) + c
                    if wedged[b] is not None:
                        lo, sign = wedged[b]
                        for m2, v in lmul[m]:
                            row[lo + m2] = row.get(lo + m2, 0) - sign * v
                    yield row.items()


def form_scalings(der: DerivationSpace, generators):
    """Per generator s, the row entries of its left multiplication and the
    derivation coordinates of s·u_b for each basis derivation u_b: the
    ``scalings`` of :func:`linearity_rows`."""
    maps = der.basis_maps()
    return [(ls.row_entries(), [der.coords_of(ls @ u) for u in maps])
            for ls in map(der.algebra.left_mult, generators)]


def bracket_table(der: DerivationSpace, parities):
    """[u_i, u_j] in derivation coordinates for every basis pair: the
    superbracket, which is the Lie bracket when every parity is even.  It is
    taken once per unordered pair; [u_j, u_i] = −(−1)^{[u_i][u_j]} [u_i, u_j]
    fills the other entry."""
    maps = der.basis_maps()
    neg = der.algebra.field.neg
    table = [[None] * len(maps) for _ in maps]
    for i, (u, pu) in enumerate(zip(maps, parities)):
        for j in range(i, len(maps)):
            table[i][j] = der.coords_of(super_bracket(u, pu, maps[j], parities[j]))
            if j > i:
                table[j][i] = (table[i][j] if pu and parities[j]
                               else [neg(x) for x in table[i][j]])
    return table


def coboundary(der: DerivationSpace, ext: SuperExterior, bracket, k: int) -> Matrix:
    """δ: C^k → C^{k+1} on the normal-form coordinates of ``ext``, n to a monomial.

    ``bracket`` is :func:`bracket_table` for ``ext``'s parities.  On a
    monomial of r even generators ε and s odd ones ϵ,

        δc(ε_1..ε_r, ϵ_1..ϵ_s) =
            Σ_i (−1)^{i−1} ε_i c(..ε̂_i.., ϵ..)
          + Σ_j (−1)^r     ϵ_j c(ε.., ..ϵ̂_j..)
          + Σ_{i<j} (−1)^{i+j} c([ε_i,ε_j] ∧ ..ε̂_i..ε̂_j.., ϵ..)
          − Σ_{i<j}            c([ϵ_i,ϵ_j] ∧ ε.., ..ϵ̂_i..ϵ̂_j..)
          + Σ_{i,j} (−1)^{i+r+1} c([ε_i,ϵ_j] ∧ ..ε̂_i.., ..ϵ̂_j..)

    with the superbracket throughout.  Dropping one factor leaves a
    normal-form monomial as it is, with sign +1; each bracket is put back
    in front of the rest by :meth:`SuperExterior.insert`.  With every parity even
    only the first and third sums remain: the Chevalley–Eilenberg
    coboundary on increasing tuples.  The odd-odd bracket sum carries an
    overall minus: that sign is forced, since with + the square of δ has a
    nonzero residual already on two odd generators (checked mechanically;
    δ∘δ = 0 is asserted, never assumed).  All signs agree with the
    Koszul-rule expansion where each argument crosses the ones before it.
    """
    n = der.algebra.dim
    map_rows = [u.row_entries() for u in der.basis_maps()]
    start = {mono: i * n for i, mono in enumerate(ext.monomials(k))}
    out = []  # {col: value} per row, plain sums

    for ev, od in ext.monomials(k + 1):
        r, s = len(ev), len(od)
        rows = [{} for _ in range(n)]
        # u_actor · c(rest), each rest a normal-form monomial already
        actors = ([((-1) ** i, ev[i], (ev[:i] + ev[i + 1:], od)) for i in range(r)]
                  + [((-1) ** r, od[j], (ev, od[:j] + od[j + 1:])) for j in range(s)])
        for sign, actor, rest in actors:
            lo = start[rest]
            for row, acted in zip(rows, map_rows[actor]):
                for m2, x in acted:
                    row[lo + m2] = row.get(lo + m2, 0) + sign * x
        brackets = ([((-1) ** (i + j), ev[i], ev[j], (ev[:i] + ev[i + 1:j] + ev[j + 1:], od))
                     for i in range(r) for j in range(i + 1, r)]
                    + [(-1, od[i], od[j], (ev, od[:i] + od[i + 1:j] + od[j + 1:]))
                       for i in range(s) for j in range(i + 1, s)]
                    + [((-1) ** (i + r), ev[i], od[j], (ev[:i] + ev[i + 1:], od[:j] + od[j + 1:]))
                       for i in range(r) for j in range(s)])
        for sign, a, b, rest in brackets:
            for x, c in enumerate(bracket[a][b]):
                if c and (wedged := ext.insert(x, rest)) is not None:
                    v = wedged[0] * sign * c
                    lo = wedged[1] * n
                    for m, row in enumerate(rows):
                        row[lo + m] = row.get(lo + m, 0) + v
        out.extend(row.items() for row in rows)
    return Matrix.from_entries(der.algebra.field, out, n * len(ext.monomials(k)))


def form_kernel(der: DerivationSpace, ext: SuperExterior, degree: int, scalings) -> Subspace:
    """The forms of one degree on the normal-form monomials of ``ext``, n
    value coordinates to a monomial: the kernel of :func:`linearity_rows`,
    or for graded derivations the sum of one ``kernel_on`` solve of those
    rows per parity.  Degree 0 is all of A."""
    algebra = der.algebra
    f, n = algebra.field, algebra.dim
    if degree == 0:
        return Subspace.full(f, n)
    monomials = ext.monomials(degree)
    system = Matrix.from_entries(f, linearity_rows(ext, degree, n, scalings), n * len(monomials))
    if not der.graded:
        return kernel(system)
    flat = flat_parities([ext.monomial_parity(mono) for mono in monomials], algebra.parity)
    even, odd = (kernel_on(system, [j for j, p in enumerate(flat) if p == par]) for par in (0, 1))
    return even.sum(odd)


def form_complex(der: DerivationSpace, scalars, cap: int, top: int):
    """The construction both form complexes share, on the derivations ``der``
    of A into its regular module: the exterior on their parities (all even
    if ``der`` is ungraded), the forms of degrees 0..cap linear under the
    generators among ``scalars``, the coboundaries δ of degrees below
    ``top``, and d_k, δ_k restricted between the forms (restrict_operator
    raises if d leaves them).  Returns (ext, δ, forms, d)."""
    algebra = der.algebra
    ext = SuperExterior(der.basis_parities() if der.graded else [0] * der.dim)
    scalings = form_scalings(der, algebra.generators(scalars))
    forms = [form_kernel(der, ext, k, scalings) for k in range(cap + 1)]
    bracket = bracket_table(der, ext.parities)
    delta = [coboundary(der, ext, bracket, k) for k in range(top)]
    d = [restrict_operator(delta[k], forms[k], forms[k + 1]) for k in range(cap)]
    return ext, delta, forms, d


def ce_forms(algebra: FiniteAlgebra, degree: int) -> Subspace:
    """The alternating center-multilinear forms of one degree, on the
    derivations of A into its regular module: :func:`form_kernel` on the
    increasing tuples, one block of rows per generator of the center.  This
    is ``CochainComplex(algebra, cap).forms[degree]`` for any cap ≥ degree.
    """
    if not 0 <= degree <= DEGREE_CAP:
        raise DegreeCapError(f"degree {degree} outside 0..{DEGREE_CAP}")
    der = derivations(algebra, regular_bimodule(algebra))
    scalings = form_scalings(der, algebra.generators(algebra.center().basis))
    return form_kernel(der, SuperExterior([0] * der.dim), degree, scalings)


def ce_coboundary_matrix(algebra: FiniteAlgebra, der: DerivationSpace,
                         degree: int) -> Matrix:
    """δ: C^k → C^{k+1} on increasing tuples, for k in 0..DEGREE_CAP − 1:
    :func:`coboundary` on the plain exterior of the derivations ``der`` of A
    into its regular module."""
    if not 0 <= degree < DEGREE_CAP:
        raise DegreeCapError(f"coboundary degree {degree} outside 0..{DEGREE_CAP - 1}")
    ext = SuperExterior([0] * der.dim)
    return coboundary(der, ext, bracket_table(der, ext.parities), degree)


def exact_one_form(algebra: FiniteAlgebra, der: DerivationSpace, a_coords):
    """da as a flat one-form: (da)(u) = u(a)."""
    return [x for u in der.basis_maps() for x in u.apply(list(a_coords))]


def wedge(algebra: FiniteAlgebra, der: DerivationSpace,
          phi_flat, r: int, psi_flat, s: int):
    """The shuffle product φ∧ψ of an r-form and an s-form on increasing tuples.

    Each pair of increasing tuples I, J with no common argument is one
    shuffle of I ∪ J, whose sign is that of sorting I + J
    (:meth:`SuperExterior.normalize`): φ(u_I)·ψ(u_J) goes to I ∪ J with it.
    """
    if r < 0 or s < 0 or r + s > DEGREE_CAP:
        raise DegreeCapError(f"wedge degrees {r} + {s} outside 0..{DEGREE_CAP}")
    n = algebra.dim
    f = algebra.field
    ext = SuperExterior([0] * der.dim)
    out = [f.zero()] * (n * len(ext.monomials(r + s)))
    for i, (left, _) in enumerate(ext.monomials(r)):
        for j, (right, _) in enumerate(ext.monomials(s)):
            if (norm := ext.normalize(left + right)) is None:
                continue
            sign, union = norm
            lo = ext.index(r + s, union) * n
            val = algebra.multiply(phi_flat[i * n:(i + 1) * n], psi_flat[j * n:(j + 1) * n])
            for m, x in enumerate(val):
                if x != 0:
                    out[lo + m] = f.add(out[lo + m], x if sign > 0 else f.neg(x))
    return out


def form_ambient(algebra: FiniteAlgebra, der: DerivationSpace, degree: int) -> Bimodule:
    """The k-cochains on increasing tuples as a bimodule, under the algebra
    multiplications I_{C(d,k)} ⊗ L_i and I_{C(d,k)} ⊗ R_i: the ambient that
    the minimal calculus is generated in, degree by degree."""
    eye = Matrix.identity(algebra.field, comb(der.dim, degree))
    return Bimodule(algebra, eye.rows * algebra.dim,
                    [kron(eye, algebra.left_mult_basis(i)) for i in range(algebra.dim)],
                    [kron(eye, algebra.right_mult_basis(i)) for i in range(algebra.dim)],
                    name=f"C{degree}({algebra.name})", derived_from=())


class CochainComplex:
    """O^0 → O^1 → … with restricted coboundaries; d∘d = 0 exactly.  Its
    ``forms[k]`` live on increasing tuples (:func:`form_complex`)."""

    def __init__(self, algebra: FiniteAlgebra, cap: int = DEGREE_CAP):
        if not 0 <= cap <= DEGREE_CAP:
            raise DegreeCapError(f"degree {cap} outside 0..{DEGREE_CAP}")
        self.algebra = algebra
        self.der = derivations(algebra, regular_bimodule(algebra))
        self.cap = cap
        _, _, self.forms, self.d = form_complex(self.der, algebra.center().basis, cap, cap)
        self._d_squared = None

    def d_squared_is_zero(self) -> bool:
        """Checked on the first call and kept."""
        if self._d_squared is None:
            self._d_squared = all((self.d[k + 1] @ self.d[k]).is_zero()
                                  for k in range(len(self.d) - 1))
        return self._d_squared

    def betti_data(self):
        ranks = [rank(m) for m in self.d]
        out = []
        for k in range(self.cap + 1):
            dim_k = self.forms[k].dim
            ker_dim = dim_k - ranks[k] if k < len(ranks) else dim_k
            img_below = ranks[k - 1] if k > 0 else 0
            out.append({"degree": k, "dim": dim_k, "kernel": ker_dim,
                        "image_from_below": img_below,
                        "betti": ker_dim - img_below})
        return out

    def to_dict(self):
        return {
            "algebra": self.algebra.name,
            "dims": [fs.dim for fs in self.forms],
            "d_matrices": [m.formatted() for m in self.d],
            "d_squared_zero": self.d_squared_is_zero(),
            "betti": self.betti_data(),
        }


class MinimalCalculus:
    """The differential subalgebra generated by the exact one-forms.

    Degree 1 is the sub-bimodule of the one-cochains (:func:`form_ambient`)
    that the da generate; degree 2 is the one that the wedges of degree-1
    elements generate, and is only built when first read.  Both live on
    increasing tuples, as the forms of :class:`CochainComplex` do.
    """

    def __init__(self, algebra: FiniteAlgebra):
        self.algebra = algebra
        self.der = derivations(algebra, regular_bimodule(algebra))
        # the one-cochains and the exact one-forms d(e_i), kept for
        # one_forms_bimodule and d0_matrix
        self.ambient = form_ambient(algebra, self.der, 1)
        self.exact = [exact_one_form(algebra, self.der, algebra.basis_vector(i))
                      for i in range(algebra.dim)]
        self.one_forms = self.ambient.generated(self.exact)

    @cached_property
    def two_forms(self) -> Subspace:
        algebra, der = self.algebra, self.der
        pair_wedges = [wedge(algebra, der, w1, 1, w2, 1)
                       for w1 in self.one_forms.basis for w2 in self.one_forms.basis]
        return form_ambient(algebra, der, 2).generated(pair_wedges)

    def one_forms_bimodule(self) -> Bimodule:
        return self.ambient.restrict(self.one_forms, f"O1({self.algebra.name})")

    def d0_matrix(self) -> Matrix:
        """d: A → O^1 in minimal-calculus coordinates."""
        cols = [self.one_forms.coords_of(g) for g in self.exact]
        return Matrix(self.algebra.field, cols, self.one_forms.dim).transpose()

    def d1_matrix(self) -> Matrix:
        """d: O^1 → O^2 in minimal-calculus coordinates."""
        amb = ce_coboundary_matrix(self.algebra, self.der, 1)
        return restrict_operator(amb, self.one_forms, self.two_forms)


class DualityReport:
    def __init__(self, der_dim, hom_dim, round_trip_ok):
        self.der_dim = der_dim
        self.hom_dim = hom_dim
        self.round_trip_ok = round_trip_ok

    @property
    def ok(self):
        return self.der_dim == self.hom_dim and self.round_trip_ok

    def to_dict(self):
        return {"derivations": self.der_dim, "bimodule_dual": self.hom_dim,
                "round_trip": self.round_trip_ok, "ok": self.ok}


def duality_round_trip(hom: HomSpace, hom_space: Subspace, d0: Matrix,
                       der: DerivationSpace) -> bool:
    """Whether Φ: F ↦ F∘d0 maps ``hom_space`` one to one onto ``der.space``.

    ``hom_space`` is a subspace of ``hom``, and d0 maps A into the source of
    ``hom``.  Φ must be injective, and its image must be the derivation
    space.  That is the round trip u ↦ φ_u ↦ u and φ ↦ u_φ ↦ φ with
    φ_u∘d0 = u unique.
    """
    injective, image = composition_image(hom_space, hom.target.dim, d0)
    return injective and image == der.space


def ce_duality_check(algebra: FiniteAlgebra) -> DualityReport:
    """Derivations ≅ bimodule maps O^1 → A via u ↦ (da ↦ u(a))."""
    minimal = MinimalCalculus(algebra)
    # Hom_{A-A}(O^1, A): maps that commute with both actions
    hom = HomSpace(minimal.one_forms_bimodule(), regular_bimodule(algebra))
    hom_space = hom.common_kernel("delta", "bar_delta")
    # columns of d0: the coordinates of d(e_i) in the O^1 basis; the d e_i
    # generate O^1, so φ_u with φ_u(d e_i) = u(e_i) is unique if it exists
    round_trip = duality_round_trip(hom, hom_space, minimal.d0_matrix(), minimal.der)
    return DualityReport(minimal.der.dim, hom_space.dim, round_trip)
