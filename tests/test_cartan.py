import pytest

from diffoplab import homspace
from diffoplab.algebra import catalog, trunc_poly
from diffoplab.bimodule import regular_bimodule
from diffoplab.cartan import (
    CartanPair,
    build_cartan_pair,
    cartan_vs_definitions,
    first_order_violation_witness,
    mirror_pair_agrees,
    two_sided_hats_are_first_order,
)
from diffoplab.bimodule import Bimodule
from diffoplab.cecalc import MinimalCalculus
from diffoplab.fields import QQ, field_from_name
from diffoplab.linalg import Matrix
from diffoplab.universal import UniversalCalculus
from oracles import cartan_relations_by_elements


def universal_pair(spec, side="right"):
    a = catalog(spec)
    uc = UniversalCalculus(a, cap=1)
    q = uc.omega1_bimodule()
    return a, build_cartan_pair(a, q, uc.d0, side)


def test_pair_builds_and_relations_hold_m2():
    a, pair = universal_pair("matrix:2")
    assert pair.relations_hold()
    assert pair.dual.dim > 0


def test_zero_dual_element_gives_zero_hat():
    a, pair = universal_pair("trunc_poly:2")
    zero = [QQ.zero()] * pair.dual.dim
    assert pair.hat(zero).is_zero()


def test_non_derivation_rejected():
    a = trunc_poly(2)
    reg = regular_bimodule(a)
    not_a_der = Matrix.identity(QQ, 2)
    with pytest.raises(ValueError):
        build_cartan_pair(a, reg, not_a_der)


def test_commutative_hats_recover_vector_fields():
    # with Q the minimal one-forms, the functional "evaluate at u" has hat u
    a = trunc_poly(3)
    mc = MinimalCalculus(a)
    q = mc.one_forms_bimodule()
    pair = build_cartan_pair(a, q, mc.d0_matrix())
    der = mc.der
    fs_eval = mc.one_forms
    for u_idx, u in enumerate(der.basis_maps()):
        # evaluation functional on one-form coordinates
        cols = []
        d = der.dim
        n = a.dim
        for row in fs_eval.basis:
            val = [row[t * n + m] for t in range(d) for m in range(n)]
            # evaluate the form at the basis derivation u_idx
            cols.append(row[u_idx * n:(u_idx + 1) * n])
        ev = Matrix(QQ, [[cols[c][r] for c in range(len(cols))] for r in range(n)],
                    fs_eval.dim)
        flat = [x for rr in ev.data for x in rr]
        assert pair.dual.space.contains(flat)
        coords = pair.dual.space.coords_of(flat)
        assert pair.hat(coords) == u


def test_commutative_hats_are_honest_operators():
    # the calculus piece must be central for the collapse: use the
    # center-multilinear one-forms (the universal one-forms are not central
    # even over a commutative algebra, and their hats may genuinely fail)
    a = trunc_poly(3)
    mc = MinimalCalculus(a)
    pair = build_cartan_pair(a, mc.one_forms_bimodule(), mc.d0_matrix())
    rep = cartan_vs_definitions(pair)
    assert rep["all_dv"]
    assert rep["violation_witness"] is None
    assert all(e["lunts_left_1"] for e in rep["entries"])


def test_m2_hat_fails_bimodule_first_order_with_witness():
    a, pair = universal_pair("matrix:2")
    rep = cartan_vs_definitions(pair)
    assert not rep["all_dv"]
    w = rep["violation_witness"]
    assert w is not None
    assert set(w) >= {"a", "b", "p", "residual"}
    # reproduce the residual by direct expansion at the witness triple
    idx = w["dual_index"]
    coords = [QQ.one() if i == idx else QQ.zero() for i in range(pair.dual.dim)]
    op = pair.hat(coords)
    i, j, k = w["a"], w["b"], w["p"]
    la, rb = a.left_mult_basis(i), a.right_mult_basis(j)
    residual = la @ rb @ op - la @ op @ rb - rb @ op @ la + op @ la @ rb
    assert [a.field.fmt(x) for x in residual.col(k)] == w["residual"]
    assert any(x != "0" for x in w["residual"])


def test_two_sided_dual_hats_satisfy_bimodule_condition():
    for spec in ["matrix:2", "trunc_poly:3"]:
        a, pair = universal_pair(spec)
        assert two_sided_hats_are_first_order(pair)


def test_mirror_pair():
    for spec in ["matrix:2", "trunc_poly:2"]:
        a = catalog(spec)
        uc = UniversalCalculus(a, cap=1)
        assert mirror_pair_agrees(a, uc.omega1_bimodule(), uc.d0)


def test_left_pair_relations():
    a, pair = universal_pair("matrix:2", side="left")
    assert pair.relations_hold()


def e00(field, rows, cols):
    return Matrix.from_pairs(field, [[(0, 1)]] + [[] for _ in range(rows - 1)], cols)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("spec", ["matrix:2", "trunc_poly:3"])
def test_relations_hold_rejects_a_perturbed_derivation(spec, side):
    # d + E_00 is no derivation; the pair is built around the check in
    # build_cartan_pair, so only relations_hold can notice
    a = catalog(spec)
    uc = UniversalCalculus(a, cap=1)
    q = uc.omega1_bimodule()
    assert CartanPair(a, q, uc.d0, side).relations_hold()
    assert not CartanPair(a, q, uc.d0 + e00(a.field, q.dim, a.dim), side).relations_hold()


@pytest.mark.parametrize("spec", ["matrix:2", "trunc_poly:3"])
def test_build_cartan_pair_checks_d_without_a_solve(spec, monkeypatch):
    import diffoplab.derivations as derivations_module

    solved = []
    kernel = derivations_module.kernel
    monkeypatch.setattr(derivations_module, "kernel", lambda m: solved.append(m) or kernel(m))
    a = catalog(spec)
    uc = UniversalCalculus(a, cap=1)
    q = uc.omega1_bimodule()
    build_cartan_pair(a, q, uc.d0)
    with pytest.raises(ValueError):
        build_cartan_pair(a, q, uc.d0 + e00(a.field, q.dim, a.dim))
    assert solved == []


def calculus_of(spec, field_name):
    """(algebra, Q, d) for the universal one-forms of a catalog algebra, or for
    the minimal (center-multilinear) one-forms when the spec starts with ``minimal/``."""
    a = catalog(spec.removeprefix("minimal/"), field_from_name(field_name))
    if spec.startswith("minimal/"):
        mc = MinimalCalculus(a)
        return a, mc.one_forms_bimodule(), mc.d0_matrix()
    uc = UniversalCalculus(a, cap=1)
    return a, uc.omega1_bimodule(), uc.d0


@pytest.mark.parametrize("field_name", ["q", "p:32003"])
@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("spec", ["matrix:2", "quaternion", "trunc_poly:3", "grassmann:2",
                                  "minimal/trunc_poly:3"])
def test_operator_relations_agree_with_elementwise_oracle(spec, side, perturbed, field_name):
    a, q, d = calculus_of(spec, field_name)
    if perturbed:
        d = d + e00(a.field, q.dim, a.dim)
    pair = CartanPair(a, q, d, side)
    assert pair.relations_hold() == cartan_relations_by_elements(pair)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("spec", ["matrix:2", "trunc_poly:3"])
def test_relations_hold_checks_the_scaling_action(spec, side):
    # (bu)^ = b·û holds for every d, so only a wrong dual action breaks it:
    # add E_00 to the action of e_0 that this identity reads
    a, pair = universal_pair(spec, side)
    dual = pair.dual.bimodule
    left, right = list(dual.left), list(dual.right)
    bad = e00(a.field, dual.dim, dual.dim)
    if side == "right":
        left[0] = left[0] + bad
    else:
        right[0] = right[0] + bad
    pair.dual.__dict__["bimodule"] = Bimodule(a, dual.dim, left, right, name=dual.name)
    assert not pair.relations_hold()
    assert not cartan_relations_by_elements(pair)


def test_cartan_report_solves_the_bimodule_first_order_space_once(monkeypatch):
    """Both comparisons read the pair's own regular bimodule, so they share
    one Hom_K(A, A) and its first-order preimage."""
    homs, solves = [], []
    init, solve = homspace.HomSpace.__init__, homspace.preimage

    def counting_init(self, *args):
        homs.append(self)
        init(self, *args)

    def counting_preimage(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(homspace.HomSpace, "__init__", counting_init)
    monkeypatch.setattr(homspace, "preimage", counting_preimage)
    a, pair = universal_pair("matrix:2")
    cartan_vs_definitions(pair)
    assert two_sided_hats_are_first_order(pair)
    assert len(homs) == 2  # Hom_K(Ω¹, A) for the dual, Hom_K(A, A) for the definitions
    assert len(solves) == 2
