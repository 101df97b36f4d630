import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from diffoplab import cecalc
from diffoplab.algebra import catalog, matrix_algebra, quaternion, trunc_poly
from diffoplab.bimodule import regular_bimodule
from diffoplab.cecalc import (
    CochainComplex,
    MinimalCalculus,
    ce_coboundary_matrix,
    ce_duality_check,
    ce_forms,
    duality_round_trip,
    exact_one_form,
    form_bimodule,
    wedge,
)
from diffoplab.derivations import DerivationSpace, derivations
from diffoplab.diffops import dv_first_order
from diffoplab.fields import QQ, Field
from diffoplab.homspace import HomSpace, LinMap
from diffoplab.linalg import Matrix, Subspace, kernel, kron
from oracles import ce_coboundary_all_tuples, duality_round_trip_by_factoring


def der_of(a):
    return derivations(a, regular_bimodule(a))


def test_form_space_dims():
    # O^0 = A always
    a2 = trunc_poly(2)
    assert ce_forms(a2, 0).dim == 2
    d2 = der_of(a2)
    assert d2.dim == 1
    # x·(x∂) = 0 forces the value of a one-form into the annihilator of x
    assert ce_forms(a2, 1).dim == 1
    # alternating one-dimensional argument space: no two-forms
    assert ce_forms(a2, 2).dim == 0

    m2 = matrix_algebra(2)
    dm = der_of(m2)
    assert dm.dim == 3
    # center is scalar: one-forms are the full linear dual, 3·4 = 12
    assert ce_forms(m2, 1).dim == 12

    a3 = trunc_poly(3)
    d3 = der_of(a3)
    assert ce_forms(a3, 1).dim == 2


def test_exact_one_form_is_evaluation():
    # (da)(u) = u(a) coordinatewise
    a3 = trunc_poly(3)
    d3 = der_of(a3)
    for i in range(3):
        flat = exact_one_form(a3, d3, a3.basis_vector(i))
        fs = ce_forms(a3, 1)
        for t, u in enumerate(d3.basis_maps()):
            assert fs.value_at(flat, (t,)) == u.apply(a3.basis_vector(i))
        assert fs.contains(flat)
    # d(1) = 0
    assert all(x == 0 for x in exact_one_form(a3, d3, a3.unit))


def test_coboundary_squares_to_zero_on_catalog():
    for spec in ["trunc_poly:2", "trunc_poly:3", "square_zero:2", "group_z:3",
                 "matrix:2", "quaternion"]:
        a = catalog(spec)
        cx = CochainComplex(a, cap=3)
        assert cx.d_squared_is_zero(), spec
    g2 = catalog("grassmann:2")
    cx = CochainComplex(g2, cap=2)
    assert cx.d_squared_is_zero()


def test_dd_zero_on_basis_elements():
    a3 = trunc_poly(3)
    cx = CochainComplex(a3, cap=2)
    for i in range(3):
        da = cx.d[0].apply(a3.basis_vector(i))
        dda = cx.d[1].apply(da)
        assert all(x == 0 for x in dda)


def test_wedge_with_degree_zero_unit():
    a3 = trunc_poly(3)
    d3 = der_of(a3)
    phi = exact_one_form(a3, d3, a3.basis_vector(1))
    wedged = wedge(a3, d3, list(a3.unit), 0, phi, 1)
    assert wedged == phi


def test_central_exact_forms_anticommute():
    # da∧da' = -da'∧da for central a, a'
    a3 = trunc_poly(3)
    d3 = der_of(a3)
    dx = exact_one_form(a3, d3, a3.basis_vector(1))
    dx2 = exact_one_form(a3, d3, a3.basis_vector(2))
    lhs = wedge(a3, d3, dx, 1, dx2, 1)
    rhs = wedge(a3, d3, dx2, 1, dx, 1)
    assert lhs == [QQ.neg(x) for x in rhs]


def test_ce_central_one_forms_commute_with_algebra():
    # a·(da') = (da')·a inside the CE calculus (values commute for
    # commutative algebras); this is the counterpoint to the universal
    # calculus where it fails
    a2 = trunc_poly(2)
    d2 = der_of(a2)
    dx = exact_one_form(a2, d2, a2.basis_vector(1))
    x = a2.basis_vector(1)
    left = []
    for t in range(d2.dim):
        left.extend(a2.multiply(x, dx[t * 2:(t + 1) * 2]))
    right = []
    for t in range(d2.dim):
        right.extend(a2.multiply(dx[t * 2:(t + 1) * 2], x))
    assert left == right


def rand_form_element(rng, fs):
    coords = [Fraction(rng.randrange(-3, 4)) for _ in range(fs.dim)]
    return fs.space.linear_combination(coords)


@pytest.mark.parametrize("spec", ["trunc_poly:3", "matrix:2"])
def test_wedge_leibniz_random_pairs(spec):
    # with d = 2 derivations (trunc_poly:3) every degree-3 side vanishes, so
    # only matrix:2 (d = 3) sees δ_2
    a = catalog(spec)
    der = der_of(a)
    forms = [ce_forms(a, k) for k in range(4)]
    dmats = [ce_coboundary_matrix(a, der, k) for k in range(3)]
    rng = random.Random(42)
    degree3 = []
    for _ in range(25):
        r, s = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1), (0, 2)])
        phi = rand_form_element(rng, forms[r])
        psi = rand_form_element(rng, forms[s])
        w = wedge(a, der, phi, r, psi, s)
        lhs = dmats[r + s].apply(w)
        dphi = dmats[r].apply(phi) if r < 3 else None
        dpsi = dmats[s].apply(psi)
        term1 = wedge(a, der, dphi, r + 1, psi, s)
        term2 = wedge(a, der, phi, r, dpsi, s + 1)
        if r % 2 == 1:
            term2 = [QQ.neg(x) for x in term2]
        rhs = [QQ.add(x, y) for x, y in zip(term1, term2)]
        assert lhs == rhs
        if r + s == 2:
            degree3.append(lhs)
    assert any(any(x) for x in degree3) == (der.dim >= 3)


def test_wedge_graded_commutative_on_commutative_algebra():
    a3 = trunc_poly(3)
    d3 = der_of(a3)
    forms = [ce_forms(a3, k) for k in range(3)]
    rng = random.Random(7)
    for _ in range(15):
        r, s = rng.choice([(0, 1), (1, 1), (0, 2), (1, 2)])
        phi = rand_form_element(rng, forms[r])
        psi = rand_form_element(rng, forms[s])
        lhs = wedge(a3, d3, phi, r, psi, s)
        rhs = wedge(a3, d3, psi, s, phi, r)
        if (r * s) % 2 == 1:
            rhs = [QQ.neg(x) for x in rhs]
        assert lhs == rhs


def test_minimal_calculus_trunc3():
    a3 = trunc_poly(3)
    mc = MinimalCalculus(a3)
    assert mc.one_forms.dim == 2
    o1 = mc.one_forms_bimodule()
    assert o1.validate().ok
    d0 = mc.d0_matrix()
    assert all(x == 0 for x in d0.apply(a3.unit))


def test_duality_dims():
    # derivations ≅ Hom_{A-A}(O^1, A): 2 for trunc3, 3 for M2, 3 for quaternions
    rep = ce_duality_check(trunc_poly(3))
    assert rep.der_dim == 2 and rep.hom_dim == 2 and rep.ok
    rep = ce_duality_check(matrix_algebra(2))
    assert rep.der_dim == 3 and rep.hom_dim == 3 and rep.ok
    rep = ce_duality_check(quaternion())
    assert rep.der_dim == 3 and rep.hom_dim == 3 and rep.ok
    # no derivations at all: both sides zero
    rep = ce_duality_check(trunc_poly(1))
    assert rep.der_dim == 0 and rep.hom_dim == 0 and rep.ok


def test_d_is_first_order_commutative():
    a3 = trunc_poly(3)
    cx = CochainComplex(a3, cap=2)
    for k in range(2):
        src = form_bimodule(a3, cx.der, k, cx.forms[k].space, f"O{k}")
        dst = form_bimodule(a3, cx.der, k + 1, cx.forms[k + 1].space, f"O{k+1}")
        hom = HomSpace(src, dst)
        dmap = LinMap(src, dst, cx.d[k])
        assert hom.iterated_delta_vanishes(dmap, 1)
        assert not hom.iterated_delta_vanishes(dmap, 0) or cx.d[k].is_zero()


def test_d_on_minimal_calculus_is_bimodule_first_order_m2():
    m2 = matrix_algebra(2)
    mc = MinimalCalculus(m2)
    o1 = mc.one_forms_bimodule()
    reg = regular_bimodule(m2)
    d0 = LinMap(reg, o1, mc.d0_matrix())
    assert dv_first_order(reg, o1).contains(d0)


def test_derivations_preserve_center_via_forms():
    # reported at the algebra level; asserted here where derivations live
    for spec in ["matrix:2", "quaternion"]:
        a = catalog(spec)
        z = a.center()
        for u in der_of(a).basis_maps():
            for row in z.basis:
                assert z.contains(u.apply(list(row)))


def test_complex_report_dict():
    a3 = trunc_poly(3)
    cx = CochainComplex(a3, cap=2)
    d = cx.to_dict()
    assert d["d_squared_zero"] is True
    assert d["dims"][0] == 3
    assert len(d["betti"]) == 3


def test_forms_are_solved_once_on_increasing_tuples(monkeypatch):
    # Der(M_3) = sl_3 has dimension 8: one system in 9·C(8, 3) unknowns, not
    # 9·8³, with one row per (derivation, increasing pair, value coordinate)
    # and generator of the center; the center K·1 has none, so no rows
    systems = []

    def recording(m):
        systems.append(m)
        return kernel(m)

    monkeypatch.setattr(cecalc, "kernel", recording)
    a = catalog("matrix:3")
    fs = ce_forms(a, 3)
    assert [(m.rows, m.cols) for m in systems] == [(0, 9 * comb(8, 3))]
    assert fs.space.ambient_dim == 9 * 8 ** 3


def random_alternating(rng, field, n, d, k):
    """A random alternating k-cochain on all n·d^k coordinates: random values
    on the increasing tuples, spread over their permutations with the signs."""
    flat = [field.zero()] * (n * d ** k)
    for increasing in combinations(range(d), k):
        values = [field.coerce(rng.randrange(-5, 6)) for _ in range(n)]
        for t in permutations(increasing):
            inversions = sum(1 for i in range(k) for j in range(i + 1, k) if t[i] > t[j])
            at = sum(x * d ** (k - 1 - i) for i, x in enumerate(t)) * n
            flat[at:at + n] = values if inversions % 2 == 0 else [field.neg(v) for v in values]
    return flat


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec", ["matrix:2", "quaternion", "trunc_poly:2+matrix:2"])
def test_tuple_coboundary_is_the_all_tuple_coboundary_on_alternating_cochains(spec, field):
    # spread · δ · select reads each alternating cochain once per increasing
    # tuple; reading the sum over its permutations instead scales degree 2 by 2
    a = catalog(spec, field)
    der = der_of(a)
    rng = random.Random(2024)
    for k in range(3):
        forms = ce_forms(a, k)
        cochains = [random_alternating(rng, field, a.dim, der.dim, k) for _ in range(3)]
        cochains += [forms.space.linear_combination(
            [field.coerce(rng.randrange(-3, 4)) for _ in range(forms.dim)]) for _ in range(3)]
        tuple_view = ce_coboundary_matrix(a, der, k)
        oracle = ce_coboundary_all_tuples(a, der, k)
        for phi in cochains:
            assert tuple_view.apply(phi) == oracle.apply(phi)
        assert any(any(oracle.apply(phi)) for phi in cochains)


DUALITY_CASES = ["trunc_poly:1", "trunc_poly:3", "trunc_poly:4", "matrix:2", "quaternion",
                 "square_zero:3", "group_z:3", "grassmann:2", "trunc_poly:2+matrix:2"]


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec", DUALITY_CASES)
def test_duality_round_trip_is_the_factoring_loop(spec, field):
    a = catalog(spec, field)
    mc = MinimalCalculus(a)
    der = mc.der
    hom = HomSpace(mc.one_forms_bimodule(), regular_bimodule(a))
    space = hom.common_kernel("delta", "bar_delta")
    d0 = mc.d0_matrix()
    # d0 with its last column doubled, and with it set to zero: the images of
    # the Hom space then miss every derivation that is non-zero at that basis
    # vector, so the round trip fails wherever there is a derivation
    doubled, dropped = ([[field.mul(x, c) if j == d0.cols - 1 else x
                          for j, x in enumerate(row)] for row in d0.data] for c in (2, 0))
    zero_der = DerivationSpace(a, der.target, Subspace.zero(field, der.space.ambient_dim), False)
    # the maps F with F∘d0 = 0, vec(F∘d0) = (I ⊗ d0ᵀ) vec(F): added to the Hom
    # space they leave the images as they are but make F ↦ F∘d0 non-injective
    # (where the d e_i do not span O^1 as a vector space: matrix:2, for one)
    killed = kernel(kron(Matrix.identity(field, a.dim), d0.transpose()))
    cases = [(space, d0, der, True),
             (space, Matrix(field, doubled, d0.cols), der, None),
             (space, Matrix(field, dropped, d0.cols), der, der.dim == 0),
             # a Hom space of dimension 0 against Der, and H against Der = 0
             (Subspace.zero(field, hom.dim), d0, der, der.dim == 0),
             (space, d0, zero_der, space.dim == 0),
             (space.sum(killed), d0, der, killed.dim == 0)]
    for hs, d, ders, want in cases:
        got = duality_round_trip(hom, hs, d, ders)
        assert got == duality_round_trip_by_factoring(hom, hs, d, ders)
        assert want is None or got == want
    assert ce_duality_check(a).round_trip_ok
