import json
from fractions import Fraction

import pytest

from diffoplab.algebra import AlgebraError, FiniteAlgebra, catalog, matrix_algebra, trunc_poly
from diffoplab.bimodule import regular_bimodule
from diffoplab.cecalc import MinimalCalculus
from diffoplab.cli import main
from diffoplab.derivations import derivations, inner_derivation
from diffoplab.fields import QQ, Field
from diffoplab.linalg import Matrix, Subspace, kernel, quotient_projection
from diffoplab.universal import (
    Calculus,
    UniversalCalculus,
    exact_form_ambient,
    extend_hom,
    universal_factorize,
    zero_calculus,
)

from oracles import multiplication_matrix, nullity


def test_omega1_is_multiplication_kernel():
    for spec in ["trunc_poly:2", "trunc_poly:3", "square_zero:2", "matrix:2",
                 "quaternion", "group_z:3", "grassmann:2"]:
        uc = UniversalCalculus(catalog(spec), cap=1)
        assert uc.omega1_equals_multiplication_kernel(), spec


def test_omega1_dims_against_oracle():
    # oracle: nullity of the explicit multiplication matrix
    m2 = matrix_algebra(2)
    table = [[m2.sc[i][j] for j in range(4)] for i in range(4)]
    assert nullity(multiplication_matrix(table, 4)) == 12
    uc = UniversalCalculus(m2, cap=1)
    assert uc.omega1.dim == 12

    a2 = trunc_poly(2)
    table2 = [[a2.sc[i][j] for j in range(2)] for i in range(2)]
    assert nullity(multiplication_matrix(table2, 2)) == 2
    assert UniversalCalculus(a2, cap=1).omega1.dim == 2


def test_universal_d_is_a_derivation():
    for spec in ["trunc_poly:3", "matrix:2"]:
        uc = UniversalCalculus(catalog(spec), cap=1)
        assert uc.leibniz_holds()
        # d(1) = 0
        assert all(x == 0 for x in exact_form_ambient(uc.algebra, uc.algebra.unit))


def test_omega1_bimodule_axioms():
    for spec in ["trunc_poly:2", "matrix:2"]:
        uc = UniversalCalculus(catalog(spec), cap=1)
        assert uc.omega1_bimodule().validate().ok


def test_degree_two_and_juxtaposition():
    for spec in ["trunc_poly:2", "trunc_poly:3", "matrix:2"]:
        uc = UniversalCalculus(catalog(spec), cap=2)
        assert uc.juxtaposition_rule_holds(), spec


# unit e0, x·x = y, x·y = x and every other product of x, y zero:
# (x·x)·x = 0 but x·(x·x) = x
NON_ASSOCIATIVE = {"dim": 3, "basis": ["e0", "x", "y"], "unit": ["1", "0", "0"],
                   "name": "nonassoc",
                   "sc": [[0, 0, 0, "1"], [0, 1, 1, "1"], [0, 2, 2, "1"], [1, 0, 1, "1"],
                          [2, 0, 2, "1"], [1, 1, 2, "1"], [1, 2, 1, "1"]]}


def test_non_associative_spec_stops_before_degree_two(tmp_path, capsys):
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(NON_ASSOCIATIVE))
    # degree 1 is still built, and the one-forms disagree with ker μ
    assert main(["universal", str(path), "--max-degree", "1"]) == 1
    assert "kernel of multiplication: False" in capsys.readouterr().out
    # Ω¹ ⊗_A Ω¹ is read off A⊗A⊗A only for a unital associative algebra
    assert main(["universal", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    a = FiniteAlgebra.from_json_dict(NON_ASSOCIATIVE)
    with pytest.raises(AlgebraError):
        UniversalCalculus(a, cap=2)
    # an associative algebra whose stated unit is not one is refused as well
    d = trunc_poly(2).to_json_dict()
    d["unit"] = ["0", "1"]
    with pytest.raises(AlgebraError):
        UniversalCalculus(FiniteAlgebra.from_json_dict(d), cap=2)


def test_d_squared_zero_into_degree_two():
    # d(da) = 0: the composite d1 ∘ d0 vanishes
    for spec in ["trunc_poly:3", "matrix:2"]:
        uc = UniversalCalculus(catalog(spec), cap=2)
        assert (uc.d1 @ uc.d0).is_zero()


def test_central_commutation_witness_dual_numbers():
    # x·dx − dx·x = 2 x⊗x in A⊗A for A = Q[x]/(x²); oracle by hand expansion:
    # x(1⊗x − x⊗1) = x⊗x,  (1⊗x − x⊗1)x = −x⊗x
    a2 = trunc_poly(2)
    uc = UniversalCalculus(a2, cap=1)
    w = uc.central_commutation_witness()
    assert w is not None
    n = 2
    expected = [Fraction(0)] * 4
    expected[1 * n + 1] = Fraction(2)  # 2·(x⊗x)
    assert w["difference"] == expected
    # contrast: no witness in a one-dimensional algebra
    assert UniversalCalculus(trunc_poly(1), cap=1).central_commutation_witness() is None


def test_universal_factorization():
    # every derivation-basis element into A and into Ω¹ factors uniquely
    for spec in ["trunc_poly:3", "matrix:2"]:
        a = catalog(spec)
        uc = UniversalCalculus(a, cap=1)
        reg = regular_bimodule(a)
        targets = [reg, uc.omega1_bimodule()]
        for target in targets:
            ders = derivations(a, target)
            for u in ders.basis_maps():
                res = universal_factorize(uc, target, u)
                assert res.ok, (spec, target.name)
    # zero derivation gives the zero map
    a = trunc_poly(3)
    uc = UniversalCalculus(a, cap=1)
    reg = regular_bimodule(a)
    res = universal_factorize(uc, reg, Matrix.zeros(QQ, 3, 3))
    assert res.ok and res.f_matrix.is_zero()


def test_factorize_d_itself_gives_identity():
    a = matrix_algebra(2)
    uc = UniversalCalculus(a, cap=1)
    o1 = uc.omega1_bimodule()
    # d as a map A → Ω¹ in Ω¹ coordinates is exactly d0
    res = universal_factorize(uc, o1, uc.d0)
    assert res.ok
    assert res.f_matrix == Matrix.identity(QQ, uc.omega1.dim)


def test_factorize_inner_derivation_m2():
    a = matrix_algebra(2)
    uc = UniversalCalculus(a, cap=1)
    reg = regular_bimodule(a)
    u = inner_derivation(reg, a.basis_vector(1))
    res = universal_factorize(uc, reg, u)
    assert res.ok
    assert (res.f_matrix @ uc.d0) == u


def test_extend_hom_identity():
    a = trunc_poly(2)
    uc = UniversalCalculus(a, cap=2)
    rho = Matrix.identity(QQ, 2)
    res = extend_hom(uc, rho, uc.as_calculus())
    assert res.ok
    assert res.maps[1] == Matrix.identity(QQ, uc.omega1.dim)


def test_extend_hom_to_zero_calculus():
    # x ↦ 0 into the ground field with zero higher degrees kills dx
    a = trunc_poly(2)
    k = trunc_poly(1)
    uc = UniversalCalculus(a, cap=1)
    rho = Matrix.from_rows(QQ, [[1, 0]])
    res = extend_hom(uc, rho, zero_calculus(k))
    assert res.ok
    assert res.maps[1].rows == 0


def test_extend_hom_to_ce_minimal():
    # the canonical surjection onto the center-multilinear calculus
    for spec in ["trunc_poly:3", "matrix:2"]:
        a = catalog(spec)
        uc = UniversalCalculus(a, cap=1)
        mc = MinimalCalculus(a)
        def mul(r, s, x, y, mc=mc, a=a):
            if r == 0 and s == 0:
                return a.multiply(x, y)
            if r == 0 and s == 1:
                amb = mc.one_forms.linear_combination(y)
                der_d = mc.der.dim
                out = []
                for t in range(der_d):
                    out.extend(a.multiply(x, amb[t * a.dim:(t + 1) * a.dim]))
                return mc.one_forms.coords_of(out)
            raise ValueError

        from diffoplab.universal import Calculus
        target = Calculus(a, [a.dim, mc.one_forms.dim], [mc.d0_matrix()], mul)
        rho = Matrix.identity(QQ, a.dim)
        res = extend_hom(uc, rho, target)
        assert res.well_defined and res.intertwining_ok


@pytest.mark.parametrize("spec", ["trunc_poly:2", "matrix:2"])
def test_extend_hom_is_ill_defined_when_d_does_not_kill_the_unit(spec):
    # d' = identity sends 1 to itself, while d1 = 0 in Ω¹: the value
    # e_i·d'(1) = e_i of the spanning vector e_i d1 = 0 cannot be met
    a = catalog(spec)
    n = a.dim
    uc = UniversalCalculus(a, cap=1)
    target = Calculus(a, [n, n], [Matrix.identity(QQ, n)],
                      lambda r, s, x, y: a.multiply(x, y))
    res = extend_hom(uc, Matrix.identity(QQ, n), target)
    assert not res.well_defined
    assert res.maps[1] is None


def test_extend_hom_rejects_non_homomorphism():
    a = trunc_poly(2)
    uc = UniversalCalculus(a, cap=1)
    bad = Matrix.from_rows(QQ, [[1, 1], [0, 1]])  # x ↦ 1+x is not multiplicative
    from diffoplab.algebra import AlgebraError
    with pytest.raises(AlgebraError):
        extend_hom(uc, bad, uc.as_calculus())


def degree_two_one_by_one(uc):
    """Ω², its projection and d1, rebuilt with every image and product taken anew."""
    f = uc.algebra.field
    n = uc.algebra.dim
    t = uc.omega1.dim
    unit = [[f.one() if x == i else f.zero() for x in range(t)] for i in range(t)]
    rel_vecs = []
    for a_i in range(n):
        for wi in range(t):
            for ei in range(t):
                rw = uc.right1[a_i].apply(unit[wi])
                le = uc.left1[a_i].apply(unit[ei])
                vec = [f.zero()] * (t * t)
                for x, c in enumerate(rw):
                    vec[x * t + ei] = f.add(vec[x * t + ei], c)
                for y, c in enumerate(le):
                    vec[wi * t + y] = f.sub(vec[wi * t + y], c)
                rel_vecs.append(vec)
    free, proj = quotient_projection(Subspace.from_spanning(f, t * t, rel_vecs))

    def product(w, e):
        return proj.apply([f.mul(x, y) for x in w for y in e])

    des = [uc.d0.col(i) for i in range(n)]
    cols = []
    for row in uc.omega1.basis:
        acc = [f.zero()] * len(free)
        for i in range(n):
            for j in range(n):
                term = product(des[i], des[j])
                acc = [f.add(x, f.mul(row[i * n + j], y)) for x, y in zip(acc, term)]
        cols.append(acc)
    d1 = Matrix(f, [[c[m] for c in cols] for m in range(len(free))], t)
    return free, proj, d1


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec", ["matrix:2", "quaternion", "trunc_poly:3"])
def test_degree_two_matches_one_by_one_construction(spec, field):
    uc = UniversalCalculus(catalog(spec, field), cap=2)
    free, proj, d1 = degree_two_one_by_one(uc)
    assert uc.omega2_dim == len(free)
    assert uc.free2 == free
    assert uc.proj2 == proj
    assert uc.d1 == d1
    assert uc.juxtaposition_rule_holds()


def test_cli_universal_leaves_d1_unbuilt(monkeypatch, tmp_path, capsys):
    built = []
    init = UniversalCalculus.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(UniversalCalculus, "__init__", recording_init)
    assert main(["universal", "matrix:2", "--json", str(tmp_path / "u.json")]) == 0
    [uc] = built
    assert uc.cap == 2 and "d1" not in vars(uc)
    # read now, d1 is the matrix of the one-by-one construction
    assert uc.d1 == degree_two_one_by_one(uc)[2]
    assert (uc.d1 @ uc.d0).is_zero()


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
def test_juxtaposition_rule_detects_a_mutated_calculus(field):
    uc = UniversalCalculus(catalog("matrix:2", field), cap=2)
    uc.left1[0], uc.left1[1] = uc.left1[1], uc.left1[0]
    assert not uc.juxtaposition_rule_holds()


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec", ["matrix:2", "quaternion", "trunc_poly:3"])
def test_left_action_on_omega2_moves_into_the_first_factor(spec, field):
    # a·(class of w⊗e) = class of (a·w)⊗e, for basis a and unit w, e of Ω¹
    a = catalog(spec, field)
    uc = UniversalCalculus(a, cap=2)
    t = uc.omega1.dim
    units = [[int(x == i) for x in range(t)] for i in range(t)]
    for i in range(a.dim):
        e_i = a.basis_vector(i)
        for w in units:
            aw = uc._left1_coords(e_i, w)
            for e in units:
                assert uc.left2(e_i, uc.mu11(w, e)) == uc.mu11(aw, e)
