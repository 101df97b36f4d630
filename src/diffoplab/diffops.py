"""The five notions of differential operator as computable subspaces.

All of them live inside Hom_K(P, Q) and are cut out by exact linear
conditions built from the delta operators:

  * grothendieck: iterated deltas vanish (the classical commutative
    definition; still a linear condition over a noncommutative ring, where
    it is computed as the "naive" foil),
  * graded: same with Koszul-signed deltas,
  * dv_first_order: mixed condition δ_a∘δ̄_b Δ = 0,
  * lunts_left / lunts_right: inductive filtration by centers of quotients,
  * two_sided: simultaneous left/right presentation of the inductive form.

Every one of them is a chain of preimages {Φ : δ_aΦ ∈ prev} under a δ
family, which ``HomSpace.preimage`` solves once per family and target.  The
builders take the one ``HomSpace.between(P, Q)`` of their module pair, so
definitions that coincide (all of them, over a commutative algebra) reuse
each other's solves instead of repeating them.
"""

from __future__ import annotations

import warnings
from itertools import product

from .algebra import AlgebraError
from .bimodule import Bimodule
from .homspace import HomSpace, LinMap
# ``kernel`` is not called here (HomSpace solves every kernel and preimage,
# ``kernel_on`` the graded split); the name stays bound because
# perfbench/tests/test_tracer.py checks that the tracer rebinds it in this module
from .linalg import Matrix, Subspace, kernel, kernel_on  # noqa: F401

MAX_ORDER = 4


class OrderCapError(ValueError):
    pass


def _check_order(k: int):
    if k < 0:
        raise ValueError("order must be >= 0")
    if k > MAX_ORDER:
        raise OrderCapError(f"order {k} exceeds the configured cap {MAX_ORDER}")


class DiffSpace:
    """One definition's operators of a fixed order, as a canonical subspace."""

    def __init__(self, definition: str, order: int, space: Subspace,
                 hom: HomSpace, naive: bool = False, chain=None):
        self.definition = definition
        self.order = order
        self.space = space
        self.hom = hom
        self.naive = naive
        self.chain = chain

    @property
    def dim(self):
        return self.space.dim

    def contains(self, phi: LinMap) -> bool:
        return self.space.contains(phi.flatten())

    def basis_maps(self):
        hom = self.hom
        return [LinMap(hom.source, hom.target, m) for m in hom.basis_maps(self.space)]

    def __repr__(self):
        tag = f"{self.definition}[naive]" if self.naive else self.definition
        return f"DiffSpace({tag}, order {self.order}, dim {self.dim})"


class Filtration:
    """Increasing chain I_0 ⊆ I_1 ⊆ … of operator subspaces."""

    def __init__(self, definition: str, side, terms, hom: HomSpace):
        self.definition = definition
        self.side = side
        self.terms = list(terms)
        self.hom = hom

    def __getitem__(self, r: int) -> Subspace:
        return self.terms[r]

    def __len__(self):
        return len(self.terms)

    @property
    def dims(self):
        return [t.dim for t in self.terms]

    def monotone(self) -> bool:
        return all(self.terms[r + 1].contains_space(self.terms[r])
                   for r in range(len(self.terms) - 1))

    def contains(self, phi: LinMap, r: int) -> bool:
        return self.terms[r].contains(phi.flatten())


def vanishing_chain(hom: HomSpace, kind: str, k):
    """T_0 ⊆ … ⊆ T_k with T_j = {x : op x ∈ T_{j−1} for all ops}, T_{-1} = 0,
    for the ops of the family ``kind`` of ``hom``.

    Peeling the innermost application shows T_j equals the solution set of
    all (j+1)-fold op-composites, so the full tuple condition reduces to
    this recursion.
    """
    chain = [hom.common_kernel(kind)]
    for _ in range(k):
        chain.append(hom.preimage(kind, chain[-1]))
    return chain


def grothendieck_diff(p: Bimodule, q: Bimodule, k: int) -> DiffSpace:
    """Operators with all (k+1)-fold iterated deltas vanishing."""
    _check_order(k)
    hom = HomSpace.between(p, q)
    naive = not p.algebra.is_commutative()
    if naive:
        warnings.warn(
            "algebra is noncommutative: the iterated-delta condition is "
            "computed as stated (naive) and need not have its usual meaning",
            stacklevel=2)
    chain = vanishing_chain(hom, "delta", k)
    return DiffSpace("grothendieck", k, chain[k], hom, naive=naive, chain=chain)


def graded_diff(p: Bimodule, q: Bimodule, k: int) -> DiffSpace:
    """Koszul-signed variant for graded commutative algebras."""
    _check_order(k)
    hom = HomSpace.between(p, q)
    a = p.algebra
    if not a.graded:
        raise AlgebraError("graded differential operators need a graded algebra")
    if not a.is_graded_commutative():
        warnings.warn("algebra is not graded commutative", stacklevel=2)
    chain = vanishing_chain(hom, "graded_delta", k)
    space = chain[k]
    cons, flat = space.constraint_matrix(), hom.coordinate_parity()
    even, odd = (kernel_on(cons, [j for j, p in enumerate(flat) if p == par]) for par in (0, 1))
    assembled = even.sum(odd)
    if assembled != space:
        raise AssertionError("graded solution space failed to split by parity")
    out = DiffSpace("graded", k, assembled, hom, chain=chain)
    out.even = even
    out.odd = odd
    return out


def dv_first_order(p: Bimodule, q: Bimodule) -> DiffSpace:
    """First-order operators on bimodules: δ_a∘δ̄_b Δ = 0 for all a, b,
    i.e. every δ̄_b Δ lies in the common kernel of the δ_a."""
    hom = HomSpace.between(p, q)
    space = hom.preimage("bar_delta", hom.common_kernel("delta"))
    return DiffSpace("dv_first_order", 1, space, hom)


class DvSplit:
    """The two derivation components of a dv first-order operator."""

    def __init__(self, hom: HomSpace, delta: LinMap):
        p, q = hom.source, hom.target
        a = hom.algebra
        self.hom = hom
        self.delta = delta
        m = delta.matrix
        self.arrow_right = [m @ p.left[i] - q.left[i] @ m for i in range(a.dim)]
        self.arrow_left = [m @ p.right[i] - q.right[i] @ m for i in range(a.dim)]

    def check(self) -> dict:
        """Linearity, Leibniz, and reconstruction identities, all exact."""
        hom = self.hom
        p, q = hom.source, hom.target
        a = hom.algebra
        n = a.dim
        right_linear = all(
            q.right[j] @ self.arrow_right[i] == self.arrow_right[i] @ p.right[j]
            for i, j in product(range(n), repeat=2))
        left_linear = all(
            q.left[j] @ self.arrow_left[i] == self.arrow_left[i] @ p.left[j]
            for i, j in product(range(n), repeat=2))
        leibniz_right = all(
            Matrix.combination(self.arrow_right, a.sc[i][j])
            == self.arrow_right[i] @ p.left[j] + q.left[i] @ self.arrow_right[j]
            for i, j in product(range(n), repeat=2))
        leibniz_left = all(
            Matrix.combination(self.arrow_left, a.sc[i][j])
            == q.right[j] @ self.arrow_left[i] + self.arrow_left[j] @ p.right[i]
            for i, j in product(range(n), repeat=2))
        m = self.delta.matrix
        reconstruction = all(
            m @ p.left[i] @ p.right[j]
            == q.right[j] @ self.arrow_right[i]
            + q.left[i] @ q.right[j] @ m
            + q.left[i] @ self.arrow_left[j]
            for i, j in product(range(n), repeat=2))
        return {
            "arrow_right_is_right_linear": right_linear,
            "arrow_left_is_left_linear": left_linear,
            "arrow_right_leibniz": leibniz_right,
            "arrow_left_leibniz": leibniz_left,
            "reconstruction": reconstruction,
        }


def dv_split(p: Bimodule, q: Bimodule, delta: LinMap) -> DvSplit:
    space = dv_first_order(p, q)
    if not space.contains(delta):
        raise ValueError("operator is not first order in the bimodule sense")
    split = DvSplit(space.hom, delta)
    checks = split.check()
    if not all(checks.values()):
        raise AssertionError(f"split identities failed: {checks}")
    return split


# side -> (delta family, multiplications, bullet multiplications)
_SIDES = {"left": ("delta", "left", "left_bullet"),
          "right": ("bar_delta", "right", "right_bullet")}


def _step(hom: HomSpace, side: str, prev: Subspace, presented: bool) -> Subspace:
    """The next filtration term after ``prev`` on one side.

    Both forms start from the preimage {Φ : δ_aΦ ∈ prev for all a}, which
    for prev = 0 is the common δ kernel.  The center form takes its closure
    under both actions of the side; the presented form spans its images
    under the multiplications, plus prev (``HomSpace.action_span``: the
    closure under the generators' multiplications where the modules follow
    their laws).  Both are cached on the HomSpace, so where the two sides'
    families are aliases, as over a commutative algebra, each is taken once.
    """
    if side not in _SIDES:
        raise ValueError("side must be 'left' or 'right'")
    kind, mult, bullet = _SIDES[side]
    if not presented:
        return hom.action_closure(kind, prev, (mult, bullet))
    return hom.action_span(kind, prev, mult).sum(prev)


def _one_sided_terms(hom: HomSpace, side: str, r: int, presented: bool):
    terms = [_step(hom, side, Subspace.zero(hom.algebra.field, hom.dim), presented)]
    for _ in range(r):
        terms.append(_step(hom, side, terms[-1], presented))
    return terms


def lunts_filtration(p: Bimodule, q: Bimodule, r: int, side: str = "left") -> Filtration:
    """Inductive filtration by centers of successive quotients.

    I_0 is the action closure of {Φ : δ_aΦ = 0}; I_r is the action closure
    of the preimage {Φ : δ_aΦ ∈ I_{r−1} for all a}.  The preimage condition
    is exactly the center condition of Hom/I_{r−1}, so the quotient is never
    materialized.  The right side mirrors with δ̄ and the right actions.
    """
    _check_order(r)
    hom = HomSpace.between(p, q)
    return Filtration("lunts", side, _one_sided_terms(hom, side, r, False), hom)


def lunts_filtration_presented(p: Bimodule, q: Bimodule, r: int,
                               side: str = "left") -> Filtration:
    """The sum-presentation form: I_r = span{b·Φ : δ_aΦ ∈ I_{r−1}} + I_{r−1}.

    Used to cross-check the center-based construction; the two agree on the
    catalog (asserted in tests rather than assumed).
    """
    _check_order(r)
    hom = HomSpace.between(p, q)
    return Filtration("lunts_presented", side, _one_sided_terms(hom, side, r, True), hom)


def two_sided_filtration(p: Bimodule, q: Bimodule, r: int) -> Filtration:
    """Operators presentable in both the left and the right inductive form.

    Order 0 is the span of the left and right zero-order spaces (the
    definitions' "either" reading is set-theoretic; the span is the smallest
    subspace containing both, and all higher terms are spans anyway).
    """
    _check_order(r)
    hom = HomSpace.between(p, q)
    zero = Subspace.zero(hom.algebra.field, hom.dim)
    left_zero = _step(hom, "left", zero, presented=False)
    right_zero = _step(hom, "right", zero, presented=False)
    ts = left_zero.sum(right_zero)
    # the set-theoretic "either left or right" base is the plain union; when
    # neither side contains the other, the union is not a subspace and the
    # span genuinely enlarges it — recorded so reports can distinguish them
    union_is_subspace = (left_zero.contains_space(right_zero)
                         or right_zero.contains_space(left_zero))
    terms = [ts]
    for _ in range(r):
        prev = terms[-1]
        terms.append(_step(hom, "left", prev, presented=True)
                     .intersect(_step(hom, "right", prev, presented=True)))
    out = Filtration("two_sided", None, terms, hom)
    out.base_union_is_subspace = union_is_subspace
    out.base_dims = {"left_zero": left_zero.dim, "right_zero": right_zero.dim,
                     "span": ts.dim}
    return out


def composition_order_check(p: Bimodule, d1: LinMap, n: int, d2: LinMap, m: int) -> bool:
    """Δ1 ∈ I_n and Δ2 ∈ I_m (left, regular) imply Δ1∘Δ2 ∈ I_{n+m}."""
    _check_order(n + m)
    filtration = lunts_filtration(p, p, n + m, "left")
    if not filtration.contains(d1, n):
        raise ValueError("first operator is not in the stated filtration term")
    if not filtration.contains(d2, m):
        raise ValueError("second operator is not in the stated filtration term")
    return filtration.contains(d1.compose(d2), n + m)


# ---------------------------------------------------------------------------
# Comparison machinery
# ---------------------------------------------------------------------------


def _relation(x: Subspace, y: Subspace):
    """How x sits against y, read from their canonical bases.

    Equal subspaces have equal bases.  A subspace inside another of the same
    dimension is that other one, so unequal spaces of equal dimension are
    incomparable; otherwise only the smaller can lie inside the larger, and
    that one containment is solved.
    """
    if x == y:
        return "equal"
    if x.dim == y.dim:
        return "incomparable"
    if x.dim < y.dim:
        return "subset" if y.contains_space(x) else "incomparable"
    return "superset" if x.contains_space(y) else "incomparable"


def _difference_witness(x: Subspace, y: Subspace):
    """First canonical basis vector of x outside y (None if x ⊆ y)."""
    ech = y.to_echelon()
    for row in x.basis:
        if not ech.contains(row):
            return list(row)
    return None


class ComparisonReport:
    def __init__(self, hom, order, definitions, relations, witnesses, naive_grothendieck):
        self.hom = hom                      # the HomSpace the definitions live in
        self.order = order
        self.definitions = definitions      # name -> DiffSpace/Subspace dims
        self.relations = relations          # (name1, name2) -> relation
        self.witnesses = witnesses          # (name1, name2) -> flat vector
        self.naive_grothendieck = naive_grothendieck

    def all_equal(self) -> bool:
        return all(rel == "equal" for rel in self.relations.values())

    def to_dict(self):
        hom = self.hom
        f = hom.algebra.field
        mp = hom.source.dim

        def fmt(flat):
            return [[f.fmt(x) for x in flat[r * mp:(r + 1) * mp]]
                    for r in range(hom.target.dim)]
        return {
            "order": self.order,
            "algebra": hom.algebra.name,
            "source": hom.source.name,
            "target": hom.target.name,
            "dims": {k: v.dim for k, v in self.definitions.items()},
            "naive_grothendieck": self.naive_grothendieck,
            "relations": [
                {"pair": list(pair), "relation": rel}
                for pair, rel in sorted(self.relations.items())
            ],
            "witnesses": [
                {"pair": list(pair), "vector": fmt(w)}
                for pair, w in sorted(self.witnesses.items()) if w is not None
            ],
        }


def compare_definitions(p: Bimodule, q: Bimodule, k: int) -> ComparisonReport:
    """All applicable definitions at order k with pairwise subspace relations."""
    _check_order(k)
    a = p.algebra
    hom = HomSpace.between(p, q)
    spaces = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        g = grothendieck_diff(p, q, k)
    spaces["grothendieck"] = g.space
    if a.graded and p.parity is not None and q.parity is not None \
            and a.field.char != 2:
        spaces["graded"] = graded_diff(p, q, k).space
    if k == 1:
        spaces["dv_first_order"] = dv_first_order(p, q).space
    spaces["lunts_left"] = lunts_filtration(p, q, k, "left")[k]
    spaces["lunts_right"] = lunts_filtration(p, q, k, "right")[k]
    spaces["two_sided"] = two_sided_filtration(p, q, k)[k]
    names = sorted(spaces)
    relations = {}
    witnesses = {}
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            rel = _relation(spaces[x], spaces[y])
            relations[(x, y)] = rel
            if rel in ("superset", "incomparable"):
                witnesses[(x, y)] = _difference_witness(spaces[x], spaces[y])
            if rel in ("subset", "incomparable"):
                witnesses[(y, x)] = _difference_witness(spaces[y], spaces[x])
    return ComparisonReport(hom, k, spaces, relations, witnesses,
                            naive_grothendieck=not a.is_commutative())
