import random
import warnings
from fractions import Fraction
from itertools import product

import pytest

from diffoplab.algebra import catalog, grassmann, matrix_algebra, trunc_poly
from diffoplab.bimodule import Bimodule, free_module, regular_bimodule
from diffoplab.derivations import derivations, inner_derivation
from diffoplab.diffops import (
    OrderCapError,
    _relation,
    compare_definitions,
    composition_order_check,
    dv_first_order,
    dv_split,
    graded_diff,
    grothendieck_diff,
    lunts_filtration,
    lunts_filtration_presented,
    two_sided_filtration,
)
from diffoplab.fields import QQ, Field
from diffoplab.homspace import HomSpace, LinMap
from diffoplab.linalg import Matrix, Subspace

from oracles import gauss_nullspace, nullity


COMMUTATIVE = ["trunc_poly:3", "square_zero:2", "group_z:3"]


def reg_pair(spec):
    a = catalog(spec)
    reg = regular_bimodule(a)
    return a, reg


def flat(m):
    return [x for row in m.data for x in row]


def dv_condition_rows(a, reg):
    """Direct assembly of aΔ(p)b − aΔ(pb) − Δ(ap)b + Δ(apb) = 0.

    Independent of HomSpace: loops over basis triples (i, j, l) and output
    coordinates, writing coefficients of the unknown table Δ(e_m) directly.
    """
    n = a.dim
    rows = []
    for i, j, l in product(range(n), repeat=3):
        ei, ej, el = a.basis_vector(i), a.basis_vector(j), a.basis_vector(l)
        # expansions of the four arguments/attached multiplications
        terms = []  # (vector of coefficients over Δ-argument m, pre, post)
        terms.append((el, ei, ej))                      # +a Δ(p) b
        terms.append((a.multiply(el, ej), ei, None))    # -a Δ(pb)
        terms.append((a.multiply(ei, el), None, ej))    # -Δ(ap) b
        terms.append((a.multiply(ei, a.multiply(el, ej)), None, None))  # +Δ(apb)
        signs = [1, -1, -1, 1]
        for out_k in range(n):
            row = [Fraction(0)] * (n * n)
            for (arg, pre, post), sg in zip(terms, signs):
                for m in range(n):
                    if arg[m] == 0:
                        continue
                    # contribution of Δ(e_m) = sum_r Δ[r][m] e_r then pre·(...)·post
                    for r in range(n):
                        v = a.basis_vector(r)
                        if pre is not None:
                            v = a.multiply(pre, v)
                        if post is not None:
                            v = a.multiply(v, post)
                        if v[out_k] != 0:
                            row[r * n + m] += sg * arg[m] * v[out_k]
            rows.append(row)
    return rows


def test_dv_dim_m2_against_oracle():
    a, reg = reg_pair("matrix:2")
    oracle_dim = nullity(dv_condition_rows(a, reg))
    assert oracle_dim == 7
    space = dv_first_order(reg, reg)
    assert space.dim == 7
    # decomposition: 4 left-zero-order + 3 derivations
    der = derivations(a, reg)
    zero_left = Subspace.from_spanning(
        QQ, 16, [flat(a.left_mult(a.basis_vector(q))) for q in range(4)])
    assert zero_left.dim == 4 and der.dim == 3
    assert zero_left.sum(der.space) == space.space
    assert zero_left.intersect(der.space).dim == 0
    # the right-sided split differs exactly by inner derivations
    zero_right = Subspace.from_spanning(
        QQ, 16, [flat(a.right_mult(a.basis_vector(q))) for q in range(4)])
    assert zero_right.sum(der.space) == space.space


@pytest.mark.parametrize("spec", ["matrix:2", "quaternion", "trunc_poly:3"])
def test_dv_space_against_oracle(spec):
    a, reg = reg_pair(spec)
    oracle = Subspace.from_spanning(QQ, a.dim ** 2,
                                    gauss_nullspace(dv_condition_rows(a, reg)))
    assert dv_first_order(reg, reg).space == oracle


def test_dv_reduces_to_grothendieck_on_commutative():
    for spec in COMMUTATIVE:
        a, reg = reg_pair(spec)
        assert dv_first_order(reg, reg).space == grothendieck_diff(reg, reg, 1).space


def test_bimodule_morphisms_are_dv_members():
    a, reg = reg_pair("matrix:2")
    space = dv_first_order(reg, reg)
    # p ↦ z p for central z is a bimodule morphism
    for z in a.center().basis:
        assert space.space.contains(flat(a.left_mult(list(z))))


def test_dv_split_reconstruction():
    a, reg = reg_pair("matrix:2")
    hom = HomSpace(reg, reg)
    # inner derivation ad(e12)
    u = LinMap(reg, reg, inner_derivation(reg, a.basis_vector(1)))
    split = dv_split(reg, reg, u)
    checks = split.check()
    assert all(checks.values())
    # Δ(a) = a·e12 is left-linear (left zero order): the forward part vanishes
    lz = LinMap(reg, reg, a.right_mult(a.basis_vector(1)))
    split2 = dv_split(reg, reg, lz)
    assert all(m.is_zero() for m in split2.arrow_right)
    assert not all(m.is_zero() for m in split2.arrow_left)
    # Δ(a) = e12·a is right-linear: the backward part vanishes instead
    rz = dv_split(reg, reg, LinMap(reg, reg, a.left_mult(a.basis_vector(1))))
    assert all(m.is_zero() for m in rz.arrow_left)
    # bimodule morphism: both parts vanish
    z = LinMap(reg, reg, Matrix.identity(QQ, 4))
    split3 = dv_split(reg, reg, z)
    assert all(m.is_zero() for m in split3.arrow_right + split3.arrow_left)
    with pytest.raises(ValueError):
        bad = LinMap(reg, reg, Matrix.from_rows(QQ, [[0] * 4] * 3 + [[1, 0, 0, 0]]))
        dv_split(reg, reg, bad)


def test_grothendieck_zero_order_is_multiplications():
    a, reg = reg_pair("trunc_poly:3")
    d0 = grothendieck_diff(reg, reg, 0)
    mults = Subspace.from_spanning(
        QQ, 9, [flat(a.left_mult(a.basis_vector(i))) for i in range(3)])
    assert d0.space == mults
    assert d0.dim == 3


def test_grothendieck_trunc3_dims():
    a, reg = reg_pair("trunc_poly:3")
    d1 = grothendieck_diff(reg, reg, 1)
    assert d1.dim == 5  # dim A + dim derivations = 3 + 2
    assert d1.chain[0].dim == 3


def test_derivation_fails_naive_first_order_on_m2():
    a, reg = reg_pair("matrix:2")
    u = inner_derivation(reg, a.basis_vector(1))  # ad(e12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        naive = grothendieck_diff(reg, reg, 1)
    assert naive.naive
    assert not naive.space.contains(flat(u))
    hom = HomSpace(reg, reg)
    assert not hom.iterated_delta_vanishes(LinMap(reg, reg, u), 1)


def test_lunts_zero_order_m2_is_everything():
    # a ↦ c a c' spans all of End(M2): the two-sided multiplication closure
    a, reg = reg_pair("matrix:2")
    flt = lunts_filtration(reg, reg, 1, "left")
    assert flt.dims == [16, 16]
    # derivations are inside I_1 (and here even I_0)
    der = derivations(a, reg)
    for u in der.basis_maps():
        assert flt.contains(LinMap(reg, reg, u), 1)


def test_lunts_collapse_commutative():
    for spec in COMMUTATIVE:
        a, reg = reg_pair(spec)
        g = grothendieck_diff(reg, reg, 2)
        left = lunts_filtration(reg, reg, 2, "left")
        right = lunts_filtration(reg, reg, 2, "right")
        ts = two_sided_filtration(reg, reg, 2)
        for k in range(3):
            assert left[k] == g.chain[k]
            assert right[k] == g.chain[k]
            assert ts[k] == g.chain[k]
        assert left.monotone() and right.monotone() and ts.monotone()


def test_lunts_presented_form_agrees():
    for spec in ["trunc_poly:3", "matrix:2", "quaternion"]:
        a, reg = reg_pair(spec)
        center_based = lunts_filtration(reg, reg, 2, "left")
        presented = lunts_filtration_presented(reg, reg, 2, "left")
        assert center_based.terms == presented.terms
        rb = lunts_filtration(reg, reg, 2, "right")
        rp = lunts_filtration_presented(reg, reg, 2, "right")
        assert rb.terms == rp.terms


def test_lunts_action_closure_all_four_structures():
    # on bimodules the filtration terms carry the right structures too
    for spec in ["matrix:2", "trunc_poly:3"]:
        a, reg = reg_pair(spec)
        flt = lunts_filtration(reg, reg, 1, "left")
        hom = flt.hom
        for term in flt.terms:
            ops = (hom.action_ops("left") + hom.action_ops("left_bullet")
                   + hom.action_ops("right") + hom.action_ops("right_bullet"))
            for row in term.basis:
                for op in ops:
                    assert term.contains(op.apply(list(row)))


def test_two_sided_contains_derivations_and_compositions():
    a, reg = reg_pair("matrix:2")
    ts = two_sided_filtration(reg, reg, 2)
    der = derivations(a, reg)
    maps = der.basis_maps()
    for u in maps:
        assert ts[1].contains(flat(u))
    for u, v in product(maps[:2], repeat=2):
        assert ts[2].contains(flat(u @ v))
    assert ts.monotone()


def test_composition_order_check():
    a, reg = reg_pair("trunc_poly:4")
    # two multiplications: order 0 composes to order 0
    m1 = LinMap(reg, reg, a.left_mult(a.basis_vector(1)))
    assert composition_order_check(reg, m1, 0, m1, 0)
    # derivation ∘ derivation is order 2 (commutative oracle: grothendieck)
    xd = LinMap(reg, reg, Matrix.from_rows(
        QQ, [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3]]))
    assert composition_order_check(reg, xd, 1, xd, 1)
    g2 = grothendieck_diff(reg, reg, 2)
    assert g2.space.contains(flat(xd.matrix @ xd.matrix))
    with pytest.raises(ValueError):
        composition_order_check(reg, xd, 0, xd, 1)


def test_compare_definitions_commutative_all_equal():
    for spec in COMMUTATIVE:
        a, reg = reg_pair(spec)
        rep = compare_definitions(reg, reg, 1)
        assert rep.all_equal()
        assert not rep.naive_grothendieck
        d = rep.to_dict()
        assert d["witnesses"] == []


def test_compare_definitions_m2():
    a, reg = reg_pair("matrix:2")
    rep = compare_definitions(reg, reg, 1)
    assert rep.naive_grothendieck
    rels = rep.relations
    # dv is strictly inside lunts-left here (lunts saturates at dim 16)
    assert rels[("dv_first_order", "lunts_left")] == "subset"
    assert rep.witnesses[("lunts_left", "dv_first_order")] is not None
    dims = {k: v.dim for k, v in rep.definitions.items()}
    assert dims["dv_first_order"] == 7
    assert dims["lunts_left"] == 16
    assert dims["two_sided"] == 16


def test_graded_diff_grassmann():
    g1 = grassmann(1)
    reg = regular_bimodule(g1)
    d1 = graded_diff(reg, reg, 1)
    assert d1.dim == 4  # A ⊕ graded derivations = 2 + 2
    d0 = graded_diff(reg, reg, 0)
    # zero order graded ops = graded A-linear morphisms; ∂/∂θ1 is order 1
    m = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    assert not d0.space.contains(flat(m))
    assert d1.space.contains(flat(m))
    assert d1.even.dim + d1.odd.dim == d1.dim


def test_graded_diff_partial_theta_on_grassmann2():
    g2 = grassmann(2)
    reg = regular_bimodule(g2)
    d1 = graded_diff(reg, reg, 1)
    m = [[0] * 4 for _ in range(4)]
    m[0][1] = 1
    m[2][3] = 1
    assert d1.space.contains([Fraction(x) for row in m for x in row])


def test_order_cap_enforced():
    a, reg = reg_pair("trunc_poly:2")
    with pytest.raises(OrderCapError):
        grothendieck_diff(reg, reg, 5)


def test_non_regular_bimodules():
    a = matrix_algebra(2)
    reg = regular_bimodule(a)
    p2 = free_module(a, 2)
    assert p2.validate().ok
    dv = dv_first_order(p2, reg)
    left = lunts_filtration(p2, reg, 1, "left")
    # M2 is separable: left zero order already saturates Hom
    assert left.dims == [32, 32]
    assert left[1].contains_space(dv.space)


def augmented_bimodule(a, op=False):
    """A acting on itself on the left, and on the right through the augmentation.

    The augmentation sends the unit basis vector to 1 and the others (all
    nilpotent in the local catalog algebras used here) to 0.  Left and right
    operator spaces differ on it, unlike on the regular bimodules of the
    catalog.  With ``op`` the two actions trade places, which gives the same
    space as a bimodule over the opposite algebra.
    """
    f = a.field
    unit_index = a.unit.index(f.one())
    aug = [Matrix.identity(f, a.dim) if i == unit_index else Matrix.zeros(f, a.dim, a.dim)
           for i in range(a.dim)]
    left = [a.left_mult_basis(i) for i in range(a.dim)]
    if op:
        m = Bimodule(a.opposite(), a.dim, aug, left, name="aug^op")
    else:
        m = Bimodule(a, a.dim, left, aug, name="aug")
    assert m.validate().ok
    return m


def module_of(a, name):
    if name == "free:2":
        return free_module(a, 2)
    if name == "aug":
        return augmented_bimodule(a)
    return regular_bimodule(a)


def relations_one_by_one(spaces):
    """Pairwise relations and first canonical difference witnesses, from scratch."""
    relations, witnesses = {}, {}

    def witness(x, y):
        return next(list(r) for r in x.basis if not y.contains(list(r)))

    names = sorted(spaces)
    for i, x in enumerate(names):
        for y in names[i + 1:]:
            x_in_y = spaces[y].contains_space(spaces[x])
            y_in_x = spaces[x].contains_space(spaces[y])
            rel = {(True, True): "equal", (True, False): "subset",
                   (False, True): "superset", (False, False): "incomparable"}[(x_in_y, y_in_x)]
            relations[(x, y)] = rel
            if not x_in_y:
                witnesses[(x, y)] = witness(spaces[x], spaces[y])
            if not y_in_x:
                witnesses[(y, x)] = witness(spaces[y], spaces[x])
    return relations, witnesses


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("spec,source,target", [
    ("matrix:2", "free:2", "regular"), ("quaternion", "regular", "regular"),
    ("trunc_poly:3", "regular", "regular"), ("grassmann:2", "regular", "regular"),
    # left and right operators differ on the augmented bimodule
    ("trunc_poly:3", "aug", "regular"), ("square_zero:2", "regular", "aug")])
def test_compare_definitions_matches_public_builders(spec, source, target, k, field):
    a = catalog(spec, field)
    p, q = module_of(a, source), module_of(a, target)
    rep = compare_definitions(p, q, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        spaces = {"grothendieck": grothendieck_diff(p, q, k).space}
    if p.graded and q.graded:
        spaces["graded"] = graded_diff(p, q, k).space
    if k == 1:
        spaces["dv_first_order"] = dv_first_order(p, q).space
    spaces["lunts_left"] = lunts_filtration(p, q, k, "left")[k]
    spaces["lunts_right"] = lunts_filtration(p, q, k, "right")[k]
    spaces["two_sided"] = two_sided_filtration(p, q, k)[k]
    assert rep.definitions == spaces
    relations, witnesses = relations_one_by_one(spaces)
    assert rep.relations == relations
    assert {pair: w for pair, w in rep.witnesses.items() if w is not None} == witnesses
    assert rep.hom.source is p and rep.hom.target is q


def test_compare_definitions_builds_one_hom_space(monkeypatch):
    import diffoplab.diffops as diffops

    built = []

    class CountingHomSpace(HomSpace):
        def __init__(self, p, q):
            super().__init__(p, q)
            built.append(self)

    monkeypatch.setattr(diffops, "HomSpace", CountingHomSpace)
    a = catalog("grassmann:2")
    reg = regular_bimodule(a)
    rep = compare_definitions(reg, reg, 1)
    assert built == [rep.hom]
    # every builder on the same module objects shares the one HomSpace
    assert lunts_filtration(reg, reg, 1).hom is rep.hom
    assert dv_first_order(reg, reg).hom is rep.hom
    assert built == [rep.hom]
    # new module objects get a new one, even for the same algebra
    other = Bimodule.from_json_dict(reg.to_json_dict(), a)
    assert lunts_filtration(other, other, 1).hom is not rep.hom
    assert lunts_filtration(reg, other, 1).hom not in (rep.hom, built[1])
    assert len(built) == 3


def _commutative_collapse():
    from diffoplab.scenarios import _check_commutative_collapse

    ok, _ = _check_commutative_collapse(catalog("trunc_poly:3"))
    assert ok


def _compare_trunc_poly():
    reg = regular_bimodule(catalog("trunc_poly:5"))
    assert compare_definitions(reg, reg, 2).all_equal()


@pytest.mark.parametrize("build", [_compare_trunc_poly, _commutative_collapse],
                         ids=["compare-trunc_poly:5", "commutative-collapse"])
def test_no_kernel_system_is_solved_twice(build, monkeypatch):
    import diffoplab.homspace as homspace
    import diffoplab.linalg as linalg

    solved = []
    original = linalg.kernel

    def counting_kernel(m):
        solved.append((m.cols, tuple(map(tuple, m.row_entries()))))
        return original(m)

    for module in (linalg, homspace):
        monkeypatch.setattr(module, "kernel", counting_kernel)
    build()
    assert solved
    assert len(set(solved)) == len(solved)


def test_each_closure_is_taken_once(monkeypatch):
    # over trunc_poly:5 the left and right filtrations have equal preimages
    # and equal action families, so the closures of orders 0, 1 and 2 are
    # taken once for both sides: three, not six.  The two-sided terms of
    # orders 1 and 2 span the same preimages under the multiplications alone,
    # as their closures under x (``HomSpace.action_span``), once for both
    # sides too: two more, on the seeds of the center-form closures of orders
    # 1 and 2 but under other operators
    import diffoplab.diffops as diffops
    import diffoplab.homspace as homspace
    import diffoplab.linalg as linalg

    seeds = []
    original = linalg.closure

    def counting_closure(field, ambient_dim, gens, operators):
        seeds.append((tuple(map(tuple, gens)), tuple(map(id, operators))))
        return original(field, ambient_dim, gens, operators)

    for module in (linalg, homspace, diffops):
        monkeypatch.setattr(module, "closure", counting_closure, raising=False)
    _compare_trunc_poly()
    assert len(seeds) == len(set(seeds)) == 5
    assert len({seed for seed, _ in seeds}) == 3


OPPOSITE_CASES = ["matrix:2", "quaternion", "trunc_poly:3", "square_zero:2", "group_z:3",
                  "grassmann:2"]


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec", OPPOSITE_CASES)
def test_opposite_algebra_swaps_lunts_sides(spec, field):
    # the regular bimodule of A^op has the right multiplications of A on the
    # left and vice versa, in the same coordinates, so δ and δ̄ trade places
    a = catalog(spec, field)
    pairs = [(regular_bimodule(a), regular_bimodule(a.opposite()))]
    if spec in ("trunc_poly:3", "square_zero:2", "grassmann:2"):
        pairs.append((augmented_bimodule(a), augmented_bimodule(a, op=True)))
    for m, m_op in pairs:
        for k in (1, 2):
            for side, other in (("left", "right"), ("right", "left")):
                assert (lunts_filtration(m, m, k, side).terms
                        == lunts_filtration(m_op, m_op, k, other).terms), (m.name, side, k)


def _relation_by_both_containments(x, y):
    x_in_y, y_in_x = y.contains_space(x), x.contains_space(y)
    if x_in_y and y_in_x:
        return "equal"
    return "subset" if x_in_y else "superset" if y_in_x else "incomparable"


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
def test_relation_reads_the_canonical_bases(field, monkeypatch):
    rng = random.Random(43)
    n = 5
    spaces = [Subspace.from_spanning(field, n, [[field.coerce(rng.choice([0, 0, 0, 1, -1, 3]))
                                                  for _ in range(n)]
                                                 for _ in range(rng.randrange(0, 4))])
              for _ in range(12)]
    spaces.append(spaces[0].sum(spaces[1]))
    spaces.append(Subspace.from_spanning(field, n, spaces[2].basis))  # equal, built anew
    expected = {(i, j): _relation_by_both_containments(x, y)
                for i, x in enumerate(spaces) for j, y in enumerate(spaces)}
    solved = []
    original = Subspace.contains_space

    def counting_contains_space(self, other):
        solved.append((self, other))
        return original(self, other)

    monkeypatch.setattr(Subspace, "contains_space", counting_contains_space)
    seen = set()
    for (i, j), want in expected.items():
        x, y = spaces[i], spaces[j]
        before = len(solved)
        assert _relation(x, y) == want, (i, j)
        seen.add(want)
        # equal bases and equal dimensions answer without a solve; otherwise
        # only the smaller space is tested inside the larger
        if x == y or x.dim == y.dim:
            assert len(solved) == before
        else:
            small, large = (x, y) if x.dim < y.dim else (y, x)
            assert solved[before:] == [(large, small)]
    assert seen == {"equal", "subset", "superset", "incomparable"}
    assert any(x != y and x.dim == y.dim for x in spaces for y in spaces)
