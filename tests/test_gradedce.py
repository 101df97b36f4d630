import pytest

from diffoplab import gradedce
from diffoplab.algebra import AlgebraError, catalog, direct_product, grassmann, trunc_poly
from diffoplab.bimodule import regular_bimodule
from diffoplab.cecalc import bracket_table
from diffoplab.derivations import derivations, super_bracket
from diffoplab.fields import QQ, Field
from diffoplab.gradedce import GradedCochainComplex, SuperExterior
from diffoplab.linalg import Matrix, kernel_on
from oracles import super_normal_form


def test_super_exterior_monomials():
    g2 = grassmann(2)
    der = derivations(g2, regular_bimodule(g2), graded=True)
    ext = SuperExterior(der.basis_parities())
    assert len(ext.evens) == 4 and len(ext.odds) == 4
    assert len(ext.monomials(1)) == 8
    # C(4,2) even pairs + 4·4 mixed + C(5,2) odd-with-repetition
    assert len(ext.monomials(2)) == 6 + 16 + 10


def test_normalize_signs():
    g2 = grassmann(2)
    der = derivations(g2, regular_bimodule(g2), graded=True)
    ext = SuperExterior(der.basis_parities())
    e = ext.evens
    o = ext.odds
    # even-even swap flips sign
    s1, m1 = ext.normalize([e[1], e[0]])
    assert s1 == -1 and m1 == ((e[0], e[1]), ())
    # repeated even kills
    assert ext.normalize([e[0], e[0]]) is None
    # odd-odd swap keeps sign
    s2, m2 = ext.normalize([o[1], o[0]])
    assert s2 == 1 and m2 == ((), (o[0], o[1]))
    # repeated odd survives
    s3, m3 = ext.normalize([o[0], o[0]])
    assert s3 == 1 and m3 == ((), (o[0], o[0]))
    # moving an even past an odd costs a sign
    s4, m4 = ext.normalize([o[0], e[0]])
    assert s4 == -1 and m4 == ((e[0],), (o[0],))


def test_insert_is_normalize_with_the_factor_in_front():
    parities = [0, 1, 0, 1, 1, 0]
    ext = SuperExterior(parities)
    killed = 0
    for k in range(4):
        for mono in ext.monomials(k):
            for x in range(len(parities)):
                factors = (x,) + mono[0] + mono[1]
                norm = ext.normalize(factors)
                assert norm == super_normal_form(factors, parities)
                if norm is None:
                    killed += 1
                    assert ext.insert(x, mono) is None
                else:
                    assert ext.insert(x, mono) == (norm[0], ext.index(k + 1, norm[1]))
    # u_x ∧ monomial vanishes exactly when x is an even factor of the monomial
    assert killed == sum(len(mono[0]) for k in range(4) for mono in ext.monomials(k))


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec", ["grassmann:2", "trunc_poly:2+grassmann:1", "matrix:2"])
def test_bracket_table_is_the_superbracket_of_every_pair(spec, field):
    a = catalog(spec, field)
    der = derivations(a, regular_bimodule(a), graded=a.graded)
    parities = der.basis_parities() if a.graded else [0] * der.dim
    maps = der.basis_maps()
    assert bracket_table(der, parities) == [
        [der.coords_of(super_bracket(u, pu, v, pv)) for v, pv in zip(maps, parities)]
        for u, pu in zip(maps, parities)]


def test_degree_zero_coboundary_is_evaluation():
    g1 = grassmann(1)
    cx = GradedCochainComplex(g1, cap=2)
    n = g1.dim
    for i in range(n):
        img = cx.ambient_delta[0].apply(g1.basis_vector(i))
        for t, mono in enumerate(cx.ext.monomials(1)):
            u = cx.maps[(mono[0] + mono[1])[0]]
            assert img[t * n:(t + 1) * n] == u.apply(g1.basis_vector(i))
    # unit is killed
    assert all(x == 0 for x in cx.ambient_delta[0].apply(list(g1.unit)))


def test_delta_squared_zero_grassmann():
    for g in (1, 2):
        cx = GradedCochainComplex(grassmann(g), cap=2)
        assert cx.d_squared_is_zero()
        assert (cx.d[1] @ cx.d[0]).is_zero()


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("g", [1, 2])
def test_delta_squared_detects_a_perturbed_coboundary(g, k):
    # E_00 added to δ_1 spoils δ_1∘δ_0; added to δ_2 it spoils only δ_2∘δ_1
    cx = GradedCochainComplex(grassmann(g), cap=2)
    d = cx.ambient_delta[k]
    e00 = Matrix.from_pairs(d.field, [[(0, 1)]] + [[] for _ in range(d.rows - 1)], d.cols)
    cx.ambient_delta[k] = d + e00
    assert not cx.d_squared_is_zero()


def test_delta_squared_zero_even_odd_product():
    a = direct_product(trunc_poly(2), grassmann(1))
    cx = GradedCochainComplex(a, cap=2)
    assert cx.d_squared_is_zero()
    assert (cx.d[1] @ cx.d[0]).is_zero()


def test_purely_even_reduces_to_plain_complex():
    # an all-even graded algebra gives the same numbers as the ungraded complex
    from diffoplab.cecalc import CochainComplex
    a3 = trunc_poly(3)
    graded_a3 = type(a3)(a3.field, a3.dim, a3.basis_names, a3.sc, a3.unit,
                         parity=[0, 0, 0], name="trunc3[even]")
    gcx = GradedCochainComplex(graded_a3, cap=2)
    cx = CochainComplex(a3, cap=2)
    assert gcx.d_squared_is_zero()
    # all-even super-monomials are the increasing tuples on which the plain
    # complex solves its forms, and both build δ there with the same builder
    assert gcx.forms == [fs.normal for fs in cx.forms]
    assert gcx.d == cx.d


def test_a_linear_forms_are_closed_under_delta():
    for a in (grassmann(1), grassmann(2)):
        cx = GradedCochainComplex(a, cap=2)
        for k in range(2):
            for row in cx.forms[k].basis:
                img = cx.ambient_delta[k].apply(list(row))
                assert cx.forms[k + 1].contains(img)


def test_char2_refused():
    with pytest.raises(AlgebraError):
        GradedCochainComplex(trunc_poly(2, field=Field(2)), cap=1)
    with pytest.raises(AlgebraError):
        GradedCochainComplex(trunc_poly(2), cap=1)  # ungraded algebra


def test_report_dict():
    cx = GradedCochainComplex(grassmann(1), cap=2)
    d = cx.to_dict()
    assert d["d_squared_zero"] is True
    assert d["derivations"] == {"even": 1, "odd": 1}


def test_a_linearity_rows_come_from_the_first_slot_on_normal_form_tails(monkeypatch):
    # one row per (derivation b, tail monomial, value coordinate, generator
    # a of A), shared by both parities: d·#monomials(k − 1)·n·#generators rows
    systems = []

    def recording(m, cols):
        systems.append(m)
        return kernel_on(m, cols)

    monkeypatch.setattr(gradedce, "kernel_on", recording)
    cx = GradedCochainComplex(grassmann(2), cap=2)
    n, d = cx.algebra.dim, cx.der.dim
    generators = cx.algebra.generators(map(cx.algebra.basis_vector, range(n)))
    assert len(generators) == 2  # θ1, θ2
    assert [m.rows for m in systems] == [d * len(cx.ext.monomials(k - 1)) * n * len(generators)
                                         for k in (1, 1, 2, 2)]
