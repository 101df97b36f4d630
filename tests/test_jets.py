import copy
from itertools import product

import pytest

from diffoplab.algebra import AlgebraError, catalog, matrix_algebra, trunc_poly
from diffoplab.bimodule import free_module, regular_bimodule, tensor_algebra_module
from diffoplab.diffops import dv_first_order, grothendieck_diff
from diffoplab.fields import QQ, Field
from diffoplab.homspace import LinMap
from diffoplab.jets import (
    hom_space_out_of_jet,
    jet_module,
    jk_is_diffop,
    left_jet_identity_witness,
    two_sided_jet,
    two_sided_representability,
)
from diffoplab.linalg import Matrix, closure, quotient_projection
from oracles import factorize, two_sided_representability_by_factoring


def test_order_zero_jet_collapses_to_module():
    for spec in ["trunc_poly:2", "trunc_poly:3", "group_z:3"]:
        a = catalog(spec)
        reg = regular_bimodule(a)
        jm = jet_module(a, reg, 0)
        assert jm.dim == reg.dim
        # J_0 is an isomorphism: explicit mutually inverse maps
        from diffoplab.linalg import rank
        assert rank(jm.jk) == reg.dim
        from oracles import inverse
        inv = inverse(jm.jk)
        assert inv @ jm.jk == Matrix.identity(QQ, reg.dim)
        assert jk_is_diffop(jm)


def test_first_jet_relation_instance():
    # 1⊗(abp) − a⊗(bp) − b⊗(ap) + ab⊗p lies in the order-1 relations
    a = trunc_poly(2)
    reg = regular_bimodule(a)
    jm = jet_module(a, reg, 1)
    n = a.dim
    f = a.field
    for ai, bi, pi in product(range(n), repeat=3):
        vec = [f.zero()] * jm.ambient_dim
        abp = a.multiply(a.sc[ai][bi], a.basis_vector(pi))
        bp = a.multiply(a.basis_vector(bi), a.basis_vector(pi))
        ap = a.multiply(a.basis_vector(ai), a.basis_vector(pi))
        ab = a.sc[ai][bi]
        for i, u in enumerate(a.unit):
            if u != 0:
                for m, c in enumerate(abp):
                    if c != 0:
                        vec[i * n + m] = f.add(vec[i * n + m], f.mul(u, c))
        for m, c in enumerate(bp):
            if c != 0:
                vec[ai * n + m] = f.sub(vec[ai * n + m], c)
        for m, c in enumerate(ap):
            if c != 0:
                vec[bi * n + m] = f.sub(vec[bi * n + m], c)
        for i, c in enumerate(ab):
            if c != 0:
                vec[i * n + pi] = f.add(vec[i * n + pi], c)
        assert jm.mu.contains(vec)


def test_jk_is_diffop_orders():
    a3 = trunc_poly(3)
    reg = regular_bimodule(a3)
    jm1 = jet_module(a3, reg, 1)
    assert jk_is_diffop(jm1)
    a2 = trunc_poly(2)
    jm2 = jet_module(a2, regular_bimodule(a2), 2)
    assert jk_is_diffop(jm2)


def test_representability_dimension_identity():
    # dim Diff_k(P, Q) = dim Hom_A(J^k(P), Q), both sides independently
    a = trunc_poly(3)
    reg = regular_bimodule(a)
    two = free_module(a, 2)
    for k in (0, 1, 2):
        for p in (reg, two):
            jm = jet_module(a, p, k)
            for q in (reg, two):
                hom = hom_space_out_of_jet(jm, q)
                g = grothendieck_diff(p, q, k)
                assert hom.dim == g.dim, (k, p.name, q.name)
                # forward direction: every module map out of the jet gives
                # an operator of order k
                for row in hom.basis:
                    jd, mq = jm.dim, q.dim
                    fmat = Matrix(QQ, [list(row[r * jd:(r + 1) * jd])
                                       for r in range(mq)], jd)
                    composed = fmat @ jm.jk
                    assert g.space.contains(
                        [x for rr in composed.data for x in rr])


def test_factorization_residual_and_uniqueness():
    a = trunc_poly(3)
    reg = regular_bimodule(a)
    jm = jet_module(a, reg, 1)
    g1 = grothendieck_diff(reg, reg, 1)
    hom = hom_space_out_of_jet(jm, reg)
    for row in g1.space.basis:
        delta = Matrix(QQ, [list(row[r * 3:(r + 1) * 3]) for r in range(3)], 3)
        res = factorize(jm, reg, delta, hom_space=hom)
        assert res.ok
    # an operator of too-high order cannot factor: d/dx is not order 1 here
    ddx = Matrix.from_rows(QQ, [[0, 1, 0], [0, 0, 2], [0, 0, 0]])
    res = factorize(jm, reg, ddx, hom_space=hom)
    assert not res.residual_zero or not res.unique


def test_zero_order_factorization_identity():
    a = trunc_poly(2)
    reg = regular_bimodule(a)
    jm = jet_module(a, reg, 0)
    mulx = LinMap(reg, reg, a.left_mult(a.basis_vector(1)))
    res = factorize(jm, reg, mulx.matrix)
    assert res.ok


def test_jet_requires_commutative_by_default():
    m2 = matrix_algebra(2)
    with pytest.raises(AlgebraError):
        jet_module(m2, regular_bimodule(m2), 1)
    jm = jet_module(m2, regular_bimodule(m2), 1, allow_noncommutative=True)
    assert jm.dim >= 0


def test_left_jet_identity_fails_noncommutative():
    m2 = matrix_algebra(2)
    w = left_jet_identity_witness(m2, regular_bimodule(m2))
    assert w is not None
    assert any(x != "0" for x in w["difference"])
    # and holds on a commutative algebra
    a3 = trunc_poly(3)
    assert left_jet_identity_witness(a3, regular_bimodule(a3)) is None


def test_two_sided_jet_zero_module():
    a = trunc_poly(2)
    zero = free_module(a, 1)
    # zero module: build an honest rank-0 module by hand
    from diffoplab.bimodule import Bimodule
    z = Bimodule(a, 0, [Matrix.zeros(QQ, 0, 0)] * 2, [Matrix.zeros(QQ, 0, 0)] * 2,
                 name="zero")
    jm = two_sided_jet(a, z)
    assert jm.dim == 0


def test_two_sided_jet_commutative_matches_dv_dimension():
    a = trunc_poly(3)
    reg = regular_bimodule(a)
    jm = two_sided_jet(a, reg)
    rep = two_sided_representability(jm, reg)
    assert rep["ok"]
    assert rep["hom_dim"] == dv_first_order(reg, reg).dim


def test_two_sided_jet_m2_representability():
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    jm = two_sided_jet(m2, reg)
    rep = two_sided_representability(jm, reg)
    assert rep["ok"]
    assert rep["operator_dim"] == 7


def unreduced_jet_parts(algebra, p, k):
    """μ, proj, the free columns and J_k from the full (k+1)-fold image list, unreduced."""
    f = algebra.field
    ambient = tensor_algebra_module(algebra, p)
    deltas = [ambient.left[i] - ambient.right[i] for i in range(algebra.dim)]
    level = [ambient.basis_vector(i) for i in range(ambient.dim)]
    for _ in range(k + 1):
        level = [d.apply(v) for v in level for d in deltas]
    mu = closure(f, ambient.dim, level, ambient.left + ambient.right)
    free, proj = quotient_projection(mu)
    units = [[f.mul(u, x) for u in algebra.unit for x in p.basis_vector(l)]
             for l in range(p.dim)]
    jk = proj @ Matrix(f, units, ambient.dim).transpose()
    return mu, proj, free, jk


@pytest.mark.parametrize("spec,k", [("trunc_poly:3", 1), ("trunc_poly:3", 2),
                                    ("matrix:2", 1), ("matrix:2", 2)])
def test_jet_module_matches_unreduced_level_expansion(spec, k):
    a = catalog(spec)
    reg = regular_bimodule(a)
    jm = jet_module(a, reg, k, allow_noncommutative=True)
    mu, proj, free, jk = unreduced_jet_parts(a, reg, k)
    assert jm.mu == mu
    assert jm.mu.basis == mu.basis
    assert jm.proj == proj
    assert jm.free == free
    assert jm.jk == jk


REPRESENTABILITY_CASES = ["trunc_poly:1", "trunc_poly:3", "matrix:2", "quaternion",
                          "square_zero:2", "group_z:3", "grassmann:1"]


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec", REPRESENTABILITY_CASES)
def test_two_sided_representability_is_the_factoring_loop(spec, field):
    a = catalog(spec, field)
    reg = regular_bimodule(a)
    jm = two_sided_jet(a, reg)
    # J as it is, with its last column doubled, and with it set to zero: the
    # images of the maps may then leave the operator space, miss operators, or
    # (with the column zero) collapse two maps, and the last case always fails
    results = []
    for c in (1, 2, 0):
        moved = copy.copy(jm)
        moved.jk = Matrix(field, [[field.mul(x, c) if j == jm.jk.cols - 1 else x
                                   for j, x in enumerate(row)] for row in jm.jk.data],
                          jm.jk.cols)
        got = two_sided_representability(moved, reg)
        assert got == two_sided_representability_by_factoring(moved, reg)
        results.append(got["ok"])
    assert results[0]
    assert not results[2]
    # the jet ⊕ A with J into the jet: the module maps on A make F ↦ F∘J not
    # one to one, while its image, the operator space, stays as it is
    padded = copy.copy(jm)
    padded.free = jm.free + [None] * a.dim  # read only for the dimension
    padded.left_ops = [block_diagonal(m, e) for m, e in zip(jm.left_ops, reg.left)]
    padded.second_ops = [block_diagonal(m, e) for m, e in zip(jm.second_ops, reg.right)]
    padded.jk = Matrix(field, jm.jk.data + [[0] * jm.jk.cols] * a.dim, jm.jk.cols)
    got = two_sided_representability(padded, reg)
    assert got == two_sided_representability_by_factoring(padded, reg)
    assert got["forward_ok"] and not got["backward_ok"]


def block_diagonal(m, e):
    return Matrix(m.field, [row + [0] * e.cols for row in m.data]
                  + [[0] * m.cols + row for row in e.data], m.cols + e.cols)


def test_two_sided_representability_solves_no_factorization(monkeypatch):
    import diffoplab.jets
    import diffoplab.linalg

    calls = []

    def counting(original):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        return wrapper

    # jets does not import it at all; the one factorization left is an oracle
    assert not hasattr(diffoplab.jets, "factor_through")
    monkeypatch.setattr(diffoplab.linalg, "factor_through",
                        counting(diffoplab.linalg.factor_through))
    a = catalog("matrix:2")
    reg = regular_bimodule(a)
    assert two_sided_representability(two_sided_jet(a, reg), reg)["ok"]
    assert calls == []
