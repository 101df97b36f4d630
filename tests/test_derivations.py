from fractions import Fraction
from itertools import product

import pytest

from diffoplab.algebra import AlgebraError, catalog, grassmann, matrix_algebra, trunc_poly
from diffoplab.bimodule import free_module, regular_bimodule
from diffoplab.derivations import (
    DerivationSpace,
    derivations,
    first_order_decomposition,
    inner_derivation,
    is_derivation,
    lie_bracket,
    split_operator,
    super_bracket,
)
from diffoplab.diffops import grothendieck_diff
from diffoplab.fields import QQ, Field
from diffoplab.linalg import Matrix, Subspace

from oracles import leibniz_solution_dim


def table_of(a):
    return [[a.sc[i][j] for j in range(a.dim)] for i in range(a.dim)]


def test_derivations_trunc3_against_oracle():
    # hand expansion: u(x) = a + bx + cx^2 and 3x²·u(x) = 0 forces a = 0
    a = trunc_poly(3)
    assert leibniz_solution_dim(table_of(a), 3) == 2
    d = derivations(a, regular_bimodule(a))
    assert d.dim == 2
    # x∂ and x²∂ span it
    xd = Matrix.from_rows(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    x2d = Matrix.from_rows(QQ, [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert d.contains(xd) and d.contains(x2d)


def test_derivations_m2_all_inner():
    a = matrix_algebra(2)
    assert leibniz_solution_dim(table_of(a), 4) == 3
    reg = regular_bimodule(a)
    d = derivations(a, reg)
    assert d.dim == 3  # dim A - dim center
    inner = Subspace.from_spanning(
        QQ, 16,
        [[x for row in inner_derivation(reg, a.basis_vector(i)).data for x in row]
         for i in range(4)])
    assert inner.dim == 3
    for u in d.basis_maps():
        assert inner.contains([x for row in u.data for x in row])


def test_derivations_of_the_ground_field():
    a = trunc_poly(1)
    d = derivations(a, regular_bimodule(a))
    assert d.dim == 0


def test_derivations_of_separable_group_algebra():
    z3 = catalog("group_z:3")
    assert derivations(z3, regular_bimodule(z3)).dim == 0


def test_lie_bracket_closure_and_identity():
    a = trunc_poly(3)
    reg = regular_bimodule(a)
    d = derivations(a, reg)
    xd = Matrix.from_rows(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    x2d = Matrix.from_rows(QQ, [[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    br = lie_bracket(xd, x2d)
    # polynomial oracle: [x∂, x²∂] = x²∂
    assert br == x2d
    assert d.contains(br)
    assert lie_bracket(xd, xd).is_zero()


def test_bracket_closure_on_m2():
    a = matrix_algebra(2)
    d = derivations(a, regular_bimodule(a))
    maps = d.basis_maps()
    for u, v in product(maps, repeat=2):
        assert d.contains(lie_bracket(u, v))


def test_derivations_preserve_center():
    for spec in ["matrix:2", "quaternion", "trunc_poly:3", "grassmann:2"]:
        a = catalog(spec)
        z = a.center()
        d = derivations(a, regular_bimodule(a))
        for u in d.basis_maps():
            for zrow in z.basis:
                assert z.contains(u.apply(list(zrow)))


def test_graded_derivations_grassmann():
    g1 = grassmann(1)
    d = derivations(g1, regular_bimodule(g1), graded=True)
    assert d.dim == 2
    assert sorted(d.basis_parities()) == [0, 1]
    g2 = grassmann(2)
    d2 = derivations(g2, regular_bimodule(g2), graded=True)
    assert d2.dim == 8
    assert sorted(d2.basis_parities()) == [0, 0, 0, 0, 1, 1, 1, 1]


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
def test_basis_parities_match_a_scan_of_the_basis_maps(g, field):
    a = grassmann(g, field)
    reg = regular_bimodule(a)
    d = derivations(a, reg, graded=True)
    scanned = []
    for u in d.basis_maps():
        pars = {(reg.parity[i] + a.parity[j]) % 2
                for i, row in enumerate(u.row_entries()) for j, _ in row}
        assert len(pars) == 1
        scanned.append(pars.pop())
    assert d.basis_parities() == scanned


def test_basis_parities_refuse_a_mixed_basis_and_an_ungraded_space():
    g1 = grassmann(1)
    reg = regular_bimodule(g1)
    d = derivations(g1, reg, graded=True)
    # the map 1 ↦ 1 + θ, θ ↦ 0 is the sum of the even 1 ↦ 1 and the odd 1 ↦ θ
    mixed = Subspace.from_spanning(QQ, 4, [[1, 0, 1, 0]])
    with pytest.raises(AlgebraError, match="^derivation basis vector is not homogeneous$"):
        DerivationSpace(g1, reg, mixed, True).basis_parities()
    with pytest.raises(AlgebraError, match="^ungraded derivation space has no parities$"):
        DerivationSpace(g1, reg, d.space, False).basis_parities()


def test_graded_ungraded_differ_on_grassmann():
    # ungraded Leibniz on Λ(θ) only sees even-type derivations
    g1 = grassmann(1)
    plain = derivations(g1, regular_bimodule(g1), graded=False)
    graded = derivations(g1, regular_bimodule(g1), graded=True)
    assert plain.dim < graded.dim


def test_super_bracket_odd_square():
    g1 = grassmann(1)
    d = derivations(g1, regular_bimodule(g1), graded=True)
    odd = [m for m, p in zip(d.basis_maps(), d.basis_parities()) if p == 1]
    u = odd[0]
    assert super_bracket(u, 1, u, 1) == (u @ u).scale(Fraction(2))
    assert d.contains(super_bracket(u, 1, u, 1))


def test_first_order_decomposition_trunc3():
    a = trunc_poly(3)
    reg = regular_bimodule(a)
    diff1 = grothendieck_diff(reg, reg, 1)
    split = first_order_decomposition(a, reg, diff1.space)
    assert split.dims == {"zero": 3, "derivation": 2, "total": 5}
    assert split.direct
    # A-linear map has zero derivation part
    mulx = a.left_mult(a.basis_vector(1))
    q, zero_m, der_m = split_operator(a, reg, mulx)
    assert der_m.is_zero()
    assert q == a.basis_vector(1)


def test_first_order_decomposition_graded():
    from diffoplab.diffops import graded_diff
    g1 = grassmann(1)
    reg = regular_bimodule(g1)
    diff1 = graded_diff(reg, reg, 1)
    split = first_order_decomposition(g1, reg, diff1.space, graded=True)
    assert split.direct
    assert split.dims["zero"] == 2
    assert split.dims["derivation"] == 2
    assert split.dims["total"] == 4


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec, dim", [("trunc_poly:2+matrix:2", 4),
                                       ("quaternion+trunc_poly:3", 5),
                                       ("square_zero:2+group_z:3", 4),
                                       ("grassmann:1+trunc_poly:2", 2)])
def test_derivations_of_a_product_split(spec, dim, field):
    # Der(A × B) = Der(A) ⊕ Der(B): a derivation keeps the central
    # idempotents of the factors, so it cannot mix them
    def der_dim(s):
        a = catalog(s, field)
        return derivations(a, regular_bimodule(a)).dim
    assert der_dim(spec) == sum(der_dim(part) for part in spec.split("+")) == dim


def test_basis_maps_are_built_once():
    for spec in ["matrix:2", "trunc_poly:3", "grassmann:2"]:
        a = catalog(spec)
        d = derivations(a, regular_bimodule(a))
        maps = d.basis_maps()
        assert type(maps) is tuple and d.basis_maps() is maps
        assert list(maps) == d.space.basis_maps(a.dim, a.dim)


def test_derivations_are_solved_once_per_target_and_grading():
    g = grassmann(2)
    reg = regular_bimodule(g)
    plain, graded = derivations(g, reg), derivations(g, reg, graded=True)
    assert derivations(g, reg) is plain and derivations(g, reg, graded=True) is graded
    # the graded and the ungraded spaces are kept apart: here they differ
    assert (plain.graded, graded.graded, plain.dim, graded.dim) == (False, True, 6, 8)
    assert reg.derivation_spaces == {False: plain, True: graded}
    assert derivations(g, free_module(g, 1)) is not plain
    # a refused solve keeps nothing and is refused again
    a = trunc_poly(3)
    for _ in range(2):
        with pytest.raises(AlgebraError):
            derivations(a, regular_bimodule(a), graded=True)
    assert regular_bimodule(a).derivation_spaces == {}


@pytest.mark.parametrize("spec", ["trunc_poly:3", "matrix:2", "quaternion", "square_zero:2"])
def test_is_derivation_is_membership_in_the_solved_space(spec):
    a = catalog(spec)
    for q in (regular_bimodule(a), free_module(a, 2)):
        der = derivations(a, q)
        e00 = Matrix.from_entries(a.field, [[(0, 1)]] + [[]] * (q.dim - 1), a.dim)
        candidates = list(der.basis_maps()) + [u + e00 for u in der.basis_maps()] + [e00]
        for m in candidates:
            assert is_derivation(a, q, m) == der.contains(m)
        assert not is_derivation(a, q, Matrix.zeros(a.field, q.dim, a.dim + 1))
