from fractions import Fraction

import pytest

from diffoplab.algebra import catalog, matrix_algebra, trunc_poly
from diffoplab.bimodule import (
    Bimodule,
    ModuleError,
    SandwichModule,
    direct_sum,
    free_module,
    regular_bimodule,
    tensor_algebra_module,
)
from diffoplab.cecalc import MinimalCalculus
from diffoplab.fields import QQ
from diffoplab.homspace import left_dual, right_dual
from diffoplab.linalg import Matrix

from oracles import two_sided_dual_space


def test_regular_bimodule_shapes():
    a = trunc_poly(2)
    reg = regular_bimodule(a)
    assert reg.dim == 2
    assert reg.validate().ok
    # commutative: left and right actions coincide
    assert reg.left == reg.right
    m2 = matrix_algebra(2)
    regm = regular_bimodule(m2)
    assert regm.validate().ok
    assert regm.left != regm.right


def test_free_and_direct_sum_dims():
    a = matrix_algebra(2)
    assert free_module(a, 1).dim == 4
    f2 = free_module(a, 2)
    assert f2.dim == 8
    assert f2.validate().ok
    p = regular_bimodule(a)
    s = direct_sum(p, f2)
    assert s.dim == 12
    assert s.validate().ok


def test_tensor_with_algebra_structures():
    # x·(1⊗1) = x⊗1 and x∙(1⊗1) = 1⊗x over the dual numbers
    a = trunc_poly(2)
    reg = regular_bimodule(a)
    t = tensor_algebra_module(a, reg)
    assert t.dim == 4
    assert t.validate().ok
    one_tensor_one = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
    x_outer = t.left[1].apply(one_tensor_one)
    assert x_outer == [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]  # x⊗1
    x_bullet = t.right[1].apply(one_tensor_one)
    assert x_bullet == [Fraction(0), Fraction(1), Fraction(0), Fraction(0)]  # 1⊗x
    # the two left structures commute even over a noncommutative base
    m2 = matrix_algebra(2)
    tm = tensor_algebra_module(m2, regular_bimodule(m2))
    assert tm.second_kind == "left_bullet"
    assert tm.validate().ok
    for i in range(4):
        for j in range(4):
            assert tm.left[i] @ tm.right[j] == tm.right[j] @ tm.left[i]


def test_sandwich_module_dims():
    m2 = matrix_algebra(2)
    sw = SandwichModule(m2, regular_bimodule(m2))
    assert sw.dim == 64
    assert sw.bimodule.validate().ok
    assert sw.middle("left", 1) is sw.middle("left", 1) is not sw.middle("right", 1)


def test_two_sided_jet_builds_the_generators_middle_actions_only(monkeypatch):
    import diffoplab.bimodule as bimodule
    from diffoplab.jets import two_sided_jet

    calls = []
    kron = bimodule.kron
    monkeypatch.setattr(bimodule, "kron", lambda x, y: calls.append(1) or kron(x, y))
    a = catalog("quaternion")
    two_sided_jet(a, regular_bimodule(a))
    # one kron per outer action of the four basis elements on each side, and
    # two per middle action of the generators i and j on each side
    assert len(calls) == 2 * 4 + 2 * 2 * 2


def test_regular_bimodule_is_kept_on_its_algebra():
    a = catalog("matrix:2")
    reg = regular_bimodule(a)
    assert regular_bimodule(a) is reg
    assert regular_bimodule(catalog("matrix:2")) is not reg


def test_free_module_of_rank_one_leaves_the_regular_module_its_name():
    a = trunc_poly(3)
    reg = regular_bimodule(a)
    free = free_module(a, 1)
    assert free is not reg
    assert (free.name, reg.name) == ("trunc_poly:3^1", "trunc_poly:3[reg]")
    assert (free.left, free.right, free.parity) == (reg.left, reg.right, reg.parity)
    assert free.follows_generators()


def test_right_dual_of_regular_is_regular():
    # u ↦ u(1) identifies the right dual of A with A itself
    for spec in ["trunc_poly:3", "matrix:2"]:
        a = catalog(spec)
        reg = regular_bimodule(a)
        dual = right_dual(reg)
        assert dual.dim == a.dim
        assert dual.bimodule.validate().ok
        # evaluation at 1 is a bijection on basis functionals
        ev = Matrix(QQ, [[dual.as_map(
            [QQ.one() if i == r else QQ.zero() for i in range(dual.dim)]
        ).apply(list(a.unit))[m] for r in range(dual.dim)] for m in range(a.dim)],
            dual.dim)
        from diffoplab.linalg import rank
        assert rank(ev) == a.dim


def test_right_dual_of_ce_one_forms_m2():
    m2 = matrix_algebra(2)
    mc = MinimalCalculus(m2)
    q = mc.one_forms_bimodule()
    dual = right_dual(q)
    # the constraint solve fixes the dimension; must match the left dual of
    # the mirrored module by symmetry
    assert dual.dim == left_dual(q).dim
    assert dual.bimodule.validate().ok


def test_right_dual_of_zero_module():
    a = trunc_poly(2)
    z = Bimodule(a, 0, [Matrix.zeros(QQ, 0, 0)] * 2, [Matrix.zeros(QQ, 0, 0)] * 2,
                 name="zero")
    assert right_dual(z).dim == 0


def test_two_sided_dual_inside_one_sided():
    m2 = matrix_algebra(2)
    reg = regular_bimodule(m2)
    both = two_sided_dual_space(reg)
    r = right_dual(reg)
    assert r.space.contains_space(both)


def test_module_json_round_trip(tmp_path):
    a = matrix_algebra(2)
    m = free_module(a, 2)
    path = tmp_path / "mod.json"
    m.save(path)
    back = Bimodule.load(path, a)
    assert back.to_json_dict() == m.to_json_dict()
    assert back.left == m.left and back.right == m.right
    wrong = catalog("trunc_poly:2")
    with pytest.raises(ModuleError):
        Bimodule.load(path, wrong)


def test_module_validation_catches_broken_action():
    a = trunc_poly(2)
    reg = regular_bimodule(a)
    rows = [list(r) for r in reg.left[1].data]
    rows[0][0] = Fraction(1)  # x no longer acts nilpotently
    bad_left = [reg.left[0], Matrix(a.field, rows)]
    bad = Bimodule(a, 2, bad_left, reg.right)
    rep = bad.validate()
    assert not rep.ok
    kinds = {f["kind"] for f in rep.failures}
    assert "left_action_law" in kinds or "actions_commute" in kinds
