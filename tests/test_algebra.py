import json
from fractions import Fraction

import pytest

from diffoplab.algebra import (
    AlgebraError,
    FiniteAlgebra,
    catalog,
    direct_product,
    grassmann,
    group_z,
    matrix_algebra,
    quaternion,
    square_zero,
    trunc_poly,
)
from diffoplab.fields import Field, QQ

from oracles import center_dim


def test_catalog_entries_validate():
    for spec in ["trunc_poly:2", "trunc_poly:3", "trunc_poly:4", "square_zero:2",
                 "matrix:2", "quaternion", "grassmann:1", "grassmann:2",
                 "group_z:3", "trunc_poly:2+matrix:2"]:
        a = catalog(spec)
        rep = a.validate()
        assert rep.ok, f"{spec}: {rep.failures}"


def test_matrix_algebra_known_products():
    m2 = matrix_algebra(2)
    # e12 * e21 = e11
    e12, e21 = m2.basis_element(1), m2.basis_element(2)
    assert (e12 * e21).coords == m2.basis_vector(0)
    assert (e21 * e12).coords == m2.basis_vector(3)
    # unit acts as identity
    a = m2.element([1, 2, 3, "5/2"])
    assert (m2.one() * a) == a and (a * m2.one()) == a


def test_trunc_poly_truncation():
    a3 = trunc_poly(3)
    x, x2 = a3.basis_element(1), a3.basis_element(2)
    assert (x * x2).is_zero()
    assert (x * x).coords == a3.basis_vector(2)


def test_broken_associativity_reported_with_witness():
    m2 = matrix_algebra(2)
    sc = [[[v for v in row] for row in plane] for plane in m2.sc]
    sc[0][0][0] = Fraction(2)  # break e11*e11
    bad = FiniteAlgebra(QQ, 4, m2.basis_names, sc, m2.unit)
    rep = bad.validate()
    assert not rep.ok
    kinds = {f["kind"] for f in rep.failures}
    assert "associativity" in kinds or "left_unit_law" in kinds
    assoc = [f for f in rep.failures if f["kind"] == "associativity"]
    if assoc:
        w = assoc[0]["witness"]
        assert set(w) == {"i", "j", "k", "l"}


def test_center_dims_against_oracle():
    # oracle assembles [e_i, z] = 0 directly from the tables
    m2 = matrix_algebra(2)
    m2_table = [[m2.sc[i][j] for j in range(4)] for i in range(4)]
    assert center_dim(m2_table, 4) == 1
    assert m2.center().dim == 1
    assert m2.center().contains(m2.unit)

    h = quaternion()
    h_table = [[h.sc[i][j] for j in range(4)] for i in range(4)]
    assert center_dim(h_table, 4) == 1
    assert h.center().dim == 1

    a3 = trunc_poly(3)
    assert a3.center().dim == 3  # commutative: full


def test_center_closed_under_multiplication():
    for spec in ["matrix:2", "quaternion", "grassmann:2", "trunc_poly:3"]:
        a = catalog(spec)
        z = a.center()
        for r1 in z.basis:
            for r2 in z.basis:
                assert z.contains(a.multiply(list(r1), list(r2)))
        assert z.contains(a.unit)


def test_commutativity_flags():
    assert trunc_poly(3).is_commutative()
    assert not matrix_algebra(2).is_commutative()
    g2 = grassmann(2)
    assert not g2.is_commutative()
    assert g2.is_graded_commutative()
    # theta1*theta2 = -theta2*theta1 straight from the table
    t1, t2 = g2.basis_element(1), g2.basis_element(2)
    lhs = (t1 * t2).coords
    rhs = (t2 * t1).coords
    assert lhs == [QQ.neg(x) for x in rhs]
    with pytest.raises(AlgebraError):
        trunc_poly(2).is_graded_commutative()
    # x odd in K[x]/(x^3): the grading is consistent and A is commutative, but
    # x·x = −x·x fails, and only the diagonal shows it
    spec = trunc_poly(3).to_json_dict()
    spec["parity"] = [0, 1, 0]
    odd_x = FiniteAlgebra.from_json_dict(spec)
    assert odd_x.validate().ok and odd_x.is_commutative()
    assert not odd_x.is_graded_commutative()


@pytest.mark.parametrize("spec", ["trunc_poly:3", "matrix:2", "quaternion", "grassmann:2",
                                  "grassmann:3", "group_z:3", "trunc_poly:2+grassmann:1"])
@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
def test_commutation_flags_are_the_all_pairs_comparison(spec, field):
    a = catalog(spec, field)
    pairs = [(i, j) for i in range(a.dim) for j in range(a.dim)]
    assert a.is_commutative() == all(a.sc[i][j] == a.sc[j][i] for i, j in pairs)
    if a.graded:
        def signed(i, j):
            odd = a.parity[i] and a.parity[j]
            return [field.neg(x) if odd else x for x in a.sc[j][i]]
        assert a.is_graded_commutative() == all(a.sc[i][j] == signed(i, j) for i, j in pairs)


def test_grassmann_structure():
    g1 = grassmann(1)
    assert g1.dim == 2
    assert g1.parity == (0, 1)
    th = g1.basis_element(1)
    assert (th * th).is_zero()
    g2 = grassmann(2)
    assert g2.dim == 4
    assert g2.validate().ok


def test_group_algebra_and_product():
    z3 = group_z(3)
    assert z3.is_commutative()
    g = z3.basis_element(1)
    assert (g * g * g) == z3.one()
    prod = direct_product(trunc_poly(2), matrix_algebra(2))
    assert prod.dim == 6
    assert prod.validate().ok
    assert prod.center().dim == 2 + 1


def test_element_parity():
    g2 = grassmann(2)
    th12 = g2.basis_element(3)
    assert th12.parity() == 0
    assert g2.basis_element(1).parity() == 1
    mixed = g2.element([0, 1, 0, 1])
    with pytest.raises(AlgebraError):
        mixed.parity()


def test_json_round_trip(tmp_path):
    for spec in ["trunc_poly:3", "matrix:2", "grassmann:2", "quaternion"]:
        a = catalog(spec)
        path = tmp_path / "alg.json"
        a.save(path)
        b = FiniteAlgebra.load(path)
        assert b.to_json_dict() == a.to_json_dict()
        assert b.sc == a.sc and b.unit == a.unit and b.parity == a.parity


def test_json_over_prime_field(tmp_path):
    a = catalog("trunc_poly:3", field=Field(5))
    path = tmp_path / "alg5.json"
    a.save(path)
    b = FiniteAlgebra.load(path)
    assert b.field.char == 5
    assert b.sc == a.sc


def test_opposite_algebra():
    m2 = matrix_algebra(2)
    op = m2.opposite()
    assert op.validate().ok
    e12, e21 = 1, 2
    assert op.multiply(op.basis_vector(e12), op.basis_vector(e21)) == \
        m2.multiply(m2.basis_vector(e21), m2.basis_vector(e12))


def test_unknown_catalog_name():
    with pytest.raises(AlgebraError):
        catalog("weyl:1")
