"""The whole pipeline over a prime field: nothing below assumes rationals."""

import random

import pytest

from diffoplab.algebra import AlgebraError, catalog
from diffoplab.bimodule import regular_bimodule
from diffoplab.cecalc import CochainComplex, ce_duality_check, ce_forms
from diffoplab.derivations import derivations, first_order_decomposition
from diffoplab.diffops import (
    compare_definitions,
    dv_first_order,
    grothendieck_diff,
    lunts_filtration,
    two_sided_filtration,
)
from diffoplab.fields import QQ, Field
from diffoplab.gradedce import GradedCochainComplex
from diffoplab.jets import hom_space_out_of_jet, jet_module
from diffoplab.linalg import Matrix, closure, kernel
from diffoplab.universal import UniversalCalculus, universal_factorize

GF7 = Field(7)
GF5 = Field(5)
GF32003 = Field(32003)


def test_catalog_validates_mod_p():
    for spec in ["trunc_poly:3", "matrix:2", "group_z:2", "grassmann:2"]:
        a = catalog(spec, field=GF7)
        assert a.validate().ok


def test_commutative_collapse_mod_p():
    a = catalog("trunc_poly:3", field=GF7)
    reg = regular_bimodule(a)
    g = grothendieck_diff(reg, reg, 2)
    left = lunts_filtration(reg, reg, 2, "left")
    ts = two_sided_filtration(reg, reg, 2)
    for k in range(3):
        assert left[k] == g.chain[k] == ts[k]
    # derivations over F_7: same shape as over Q for this algebra
    assert derivations(a, reg).dim == 2
    split = first_order_decomposition(a, reg, g.chain[1])
    assert split.direct and split.dims == {"zero": 3, "derivation": 2, "total": 5}


def test_truncated_poly_derivations_jump_when_p_divides_n():
    # u(x) = a + bx + cx² needs n·x^{n-1}·u(x) = 0; over F_3 with n = 3 the
    # constraint disappears and d/dx itself becomes a derivation
    a3 = catalog("trunc_poly:3", field=Field(3))
    der = derivations(a3, regular_bimodule(a3))
    assert der.dim == 3
    q7 = catalog("trunc_poly:3", field=GF7)
    assert derivations(q7, regular_bimodule(q7)).dim == 2


def test_matrix_algebra_mod_p():
    a = catalog("matrix:2", field=GF5)
    reg = regular_bimodule(a)
    assert a.center().dim == 1
    assert derivations(a, reg).dim == 3
    assert dv_first_order(reg, reg).dim == 7
    flt = lunts_filtration(reg, reg, 1, "left")
    assert flt.dims == [16, 16]
    rep = compare_definitions(reg, reg, 1)
    assert rep.definitions["dv_first_order"].dim == 7


def test_ce_complex_mod_p():
    for spec in ["trunc_poly:3", "matrix:2"]:
        a = catalog(spec, field=GF5)
        cx = CochainComplex(a, cap=2)
        assert cx.d_squared_is_zero()
    rep = ce_duality_check(catalog("matrix:2", field=GF5))
    assert rep.ok and rep.der_dim == 3


def test_universal_calculus_mod_p():
    a = catalog("matrix:2", field=GF5)
    uc = UniversalCalculus(a, cap=1)
    assert uc.omega1_equals_multiplication_kernel()
    assert uc.omega1.dim == 12
    reg = regular_bimodule(a)
    for u in derivations(a, reg).basis_maps():
        assert universal_factorize(uc, reg, u).ok


def test_jets_mod_p():
    a = catalog("trunc_poly:3", field=GF7)
    reg = regular_bimodule(a)
    for k in (0, 1, 2):
        jm = jet_module(a, reg, k)
        assert hom_space_out_of_jet(jm, reg).dim == grothendieck_diff(reg, reg, k).dim


def test_graded_complex_mod_p():
    a = catalog("grassmann:2", field=GF7)
    cx = GradedCochainComplex(a, cap=2)
    assert cx.d_squared_is_zero()


def test_char2_graded_paths_refuse():
    with pytest.raises(AlgebraError):
        catalog("grassmann:1", field=Field(2))
    a = catalog("trunc_poly:2", field=Field(2))
    assert a.validate().ok  # ungraded char-2 algebra itself is fine
    reg = regular_bimodule(a)
    assert grothendieck_diff(reg, reg, 1).dim >= 2  # ungraded ops still work


def test_products_mod_p_reduce_the_rational_ones():
    # integer matrices: the GF(32003) products are the Q products mod p
    rng = random.Random(31)
    p = GF32003.char
    for rows, inner, cols in [(0, 3, 2), (4, 0, 3), (6, 8, 5), (9, 9, 9)]:
        data_a = [[rng.choice((0, 0, 0, rng.randrange(-40000, 40000)))
                   for _ in range(inner)] for _ in range(rows)]
        data_b = [[rng.choice((0, 0, rng.randrange(-9, 10)))
                   for _ in range(cols)] for _ in range(inner)]
        vec = [rng.randrange(-50, 50) for _ in range(inner)]
        qa, qb = Matrix(QQ, data_a, inner), Matrix(QQ, data_b, cols)
        pa = Matrix(GF32003, [[x % p for x in r] for r in data_a], inner)
        pb = Matrix(GF32003, [[x % p for x in r] for r in data_b], cols)
        assert (pa @ pb).data == [[x % p for x in r] for r in (qa @ qb).data]
        assert pa.apply([x % p for x in vec]) == [x % p for x in qa.apply(vec)]


def test_mod_p_kernels_and_closures_stay_reduced():
    rng = random.Random(17)
    p = GF32003.char
    for _ in range(10):
        n = rng.randrange(2, 8)
        m = Matrix(GF32003, [[rng.choice((0, rng.randrange(p))) for _ in range(n)]
                             for _ in range(rng.randrange(1, 6))], n)
        k = kernel(m)
        for r in k.basis:
            assert all(type(x) is int and 0 <= x < p for x in r)
            assert m.apply(list(r)) == [0] * m.rows
        op = Matrix(GF32003, [[rng.choice((0, 0, rng.randrange(p))) for _ in range(n)]
                              for _ in range(n)], n)
        c = closure(GF32003, n, [[rng.randrange(p) for _ in range(n)]], [op])
        assert all(type(x) is int and 0 <= x < p for r in c.basis for x in r)
        for r in c.basis:
            assert c.contains(op.apply(list(r)))


def _trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_field_characteristics_are_exactly_the_primes():
    for n in range(1, 3000):
        is_field = True
        try:
            Field(n)
        except ValueError:
            is_field = False
        assert is_field == _trial_division_is_prime(n), n
    # strong pseudoprimes to the bases 2..7 and to 2..23 (they fool shorter
    # Miller–Rabin runs), and 10**18 + 1
    for n in (3215031751, 3825123056546413051, 1000000000000000001):
        with pytest.raises(ValueError, match="prime"):
            Field(n)
    for p in (1000000000000000003, 2 ** 61 - 1, 18446744073709551557):  # 2**64 − 59
        assert Field(p).inv(2) * 2 % p == 1
    for n in (2 ** 64, 18446744073709551629):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            Field(n)


def _der_and_forms_dims(a):
    """dim Der(A, A) and dim of the degree-2 Chevalley–Eilenberg forms."""
    der = derivations(a, regular_bimodule(a))
    return der.dim, ce_forms(a, 2).dim


@pytest.mark.parametrize("spec", ["matrix:2", "quaternion", "trunc_poly:3", "square_zero:2",
                                  "group_z:3", "grassmann:2", "trunc_poly:2+matrix:2"])
def test_integer_constants_keep_dims_at_a_large_prime(spec):
    # with integer structure constants these spaces are kernels of integer
    # systems: mod p the rank can only drop, so a dimension can only grow,
    # and at a large prime it grows on none of the catalog
    dims = {}
    for field in (QQ, GF32003):
        a = catalog(spec, field)
        reg = regular_bimodule(a)
        report = compare_definitions(reg, reg, 1)
        dims[field.char] = (_der_and_forms_dims(a),
                            {name: s.dim for name, s in report.definitions.items()})
    assert dims[0] == dims[32003]
    over_3 = _der_and_forms_dims(catalog(spec, Field(3)))
    assert all(x >= y for x, y in zip(over_3, dims[0][0]))
