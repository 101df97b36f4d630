"""Deeper cross-checks spanning several modules at once."""

from diffoplab.algebra import catalog, grassmann, matrix_algebra, quaternion, trunc_poly
from diffoplab.bimodule import free_module, regular_bimodule
from diffoplab.cecalc import MinimalCalculus, wedge
from diffoplab.derivations import derivations, first_order_decomposition, inner_derivation
from diffoplab.diffops import compare_definitions, dv_first_order, lunts_filtration
from diffoplab.fields import QQ
from diffoplab.linalg import Matrix
from diffoplab.universal import Calculus, UniversalCalculus, extend_hom


def test_dv_splits_both_ways_general_target():
    # Diff_1(A, Q) = zero-left ⊕ derivations = zero-right ⊕ derivations,
    # the two zero parts differing by the inner derivations
    for spec in ["matrix:2", "quaternion"]:
        a = catalog(spec)
        reg = regular_bimodule(a)
        for q in (reg, free_module(a, 2)):
            dv = dv_first_order(reg, q)
            left = first_order_decomposition(a, q, dv.space, side="left")
            right = first_order_decomposition(a, q, dv.space, side="right")
            assert left.direct, (spec, q.name)
            assert right.direct, (spec, q.name)
            assert left.dims["zero"] == q.dim
            assert right.dims["zero"] == q.dim


def test_inner_derivations_lie_in_both_zero_sums():
    a = matrix_algebra(2)
    reg = regular_bimodule(a)
    dv = dv_first_order(reg, reg)
    for i in range(4):
        u = inner_derivation(reg, a.basis_vector(i))
        assert dv.space.contains([x for row in u.data for x in row])


def test_compare_definitions_includes_graded_on_grassmann():
    g1 = grassmann(1)
    reg = regular_bimodule(g1)
    rep = compare_definitions(reg, reg, 1)
    assert "graded" in rep.definitions
    dims = {k: v.dim for k, v in rep.definitions.items()}
    # graded order-1 operators fill the whole Hom space on Λ(θ); the
    # ungraded iterated condition carves out something smaller
    assert dims["graded"] == 4
    assert dims["grothendieck"] < 4
    d = rep.to_dict()
    assert d["algebra"] == "grassmann:1"


def test_extend_hom_degree2_into_ce_minimal():
    # the canonical surjection intertwines differentials through degree 2
    for spec in ["trunc_poly:2", "trunc_poly:3"]:
        a = catalog(spec)
        uc = UniversalCalculus(a, cap=2)
        mc = MinimalCalculus(a)
        n = a.dim
        der_d = mc.der.dim

        def lift1(coords, mc=mc):
            return mc.one_forms.linear_combination(coords)

        def mul(r, s, x, y, a=a, mc=mc, n=n, der_d=der_d):
            if r == 0 and s == 0:
                return a.multiply(x, y)
            if r == 0 and s == 1:
                amb = lift1(y)
                out = []
                for t in range(der_d):
                    out.extend(a.multiply(x, amb[t * n:(t + 1) * n]))
                return mc.one_forms.coords_of(out)
            if r == 1 and s == 0:
                amb = lift1(x)
                out = []
                for t in range(der_d):
                    out.extend(a.multiply(amb[t * n:(t + 1) * n], y))
                return mc.one_forms.coords_of(out)
            if r == 1 and s == 1:
                w = wedge(a, mc.der, lift1(x), 1, lift1(y), 1)
                return mc.two_forms.coords_of(w)
            raise ValueError((r, s))

        d1 = mc.d1_matrix()
        target = Calculus(a, [n, mc.one_forms.dim, mc.two_forms.dim],
                          [mc.d0_matrix(), d1], mul)
        rho = Matrix.identity(QQ, n)
        res = extend_hom(uc, rho, target)
        assert res.well_defined
        assert res.intertwining_ok
        assert len(res.maps) == 3


def test_filtration_deterministic_across_runs():
    a = matrix_algebra(2)
    reg = regular_bimodule(a)
    f1 = lunts_filtration(reg, reg, 2, "left")
    f2 = lunts_filtration(reg, reg, 2, "left")
    assert [t.basis for t in f1.terms] == [t.basis for t in f2.terms]


def test_one_dimensional_algebra_degenerate_paths():
    k = trunc_poly(1)
    reg = regular_bimodule(k)
    assert derivations(k, reg).dim == 0
    assert dv_first_order(reg, reg).dim == 1
    assert lunts_filtration(reg, reg, 2, "left").dims == [1, 1, 1]
    uc = UniversalCalculus(k, cap=1)
    assert uc.omega1.dim == 0
    rep = compare_definitions(reg, reg, 1)
    assert rep.all_equal()
