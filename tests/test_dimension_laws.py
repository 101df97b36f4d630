"""Derivation and form dimensions fixed by classical results, checked over
GF(32003).

These laws hold at sizes the brute-force oracles cannot reach, so they guard
the generator and normal-form solves where no oracle runs.
"""

from math import comb

import pytest

from diffoplab.algebra import catalog
from diffoplab.bimodule import regular_bimodule
from diffoplab.cecalc import ce_forms
from diffoplab.derivations import derivations
from diffoplab.fields import Field
from diffoplab.gradedce import GradedCochainComplex
from diffoplab.universal import UniversalCalculus

GF32003 = Field(32003)


# spec -> dim Der(A): sl_K for M_K, d/dx times x^0, …, x^(N−2) for
# K[x]/(x^N), gl(V) for K ⊕ V with V² = 0, and none for K[Z/3] with 3 ∤ p
DERIVATION_DIMS = {"matrix:2": 3, "matrix:3": 8, "matrix:4": 15, "trunc_poly:3": 2,
                   "trunc_poly:5": 4, "trunc_poly:6": 5, "square_zero:2": 4,
                   "square_zero:3": 9, "group_z:3": 0}


@pytest.mark.parametrize("spec,dim", list(DERIVATION_DIMS.items()))
def test_derivation_dimensions(spec, dim):
    a = catalog(spec, GF32003)
    assert derivations(a, regular_bimodule(a)).dim == dim


@pytest.mark.parametrize("generators", [3, 4])
def test_grassmann_graded_derivations_are_free_of_rank_g(generators):
    # the graded derivations of grassmann:G are A-linear combinations of the
    # G odd derivations ∂/∂θ_i, freely: G·2^G
    a = catalog(f"grassmann:{generators}", GF32003)
    assert derivations(a, regular_bimodule(a), graded=True).dim == generators * 2 ** generators


@pytest.mark.parametrize("size", [2, 3, 4])
def test_matrix_algebra_forms_are_all_of_the_exterior_dual(size):
    # Der(M_K) = sl_K and the center of M_K is K, so center-linearity is no
    # condition: the k-forms are Hom_K(Λ^k sl_K, M_K), of dimension
    # K²·C(K² − 1, k); matrix:3 gives [9, 72, 252, 504]
    a = catalog(f"matrix:{size}", GF32003)
    der = derivations(a, regular_bimodule(a))
    n = size * size
    assert [ce_forms(a, k).dim for k in range(4)] == [n * comb(n - 1, k)
                                                            for k in range(4)]


@pytest.mark.parametrize("generators", [1, 2, 3])
def test_grassmann_graded_forms_are_free_on_super_monomials(generators):
    # graded Der of grassmann:G is free of rank G over A, with G odd
    # generators, so the A-linear k-cochains are A-valued functions on the
    # degree-k super-monomials in G commuting letters: 2^G·C(G + k − 1, k);
    # grassmann:3 gives [8, 24, 48]
    cx = GradedCochainComplex(catalog(f"grassmann:{generators}", GF32003), cap=2)
    assert [s.dim for s in cx.forms] == [2 ** generators * comb(generators + k - 1, k)
                                         for k in range(3)]


@pytest.mark.parametrize("spec", ["matrix:2", "matrix:3", "matrix:4", "trunc_poly:3",
                                  "trunc_poly:5", "trunc_poly:6", "square_zero:2",
                                  "square_zero:3", "group_z:3"])
def test_universal_forms_have_the_bar_dimensions(spec):
    # μ: A⊗A → A is onto, so Ω¹ = ker μ has dimension n(n − 1), and
    # Ω² = Ω¹ ⊗_A Ω¹ ≅ A ⊗ Ā ⊗ Ā with Ā = A/K·1 has dimension n(n − 1)²
    uc = UniversalCalculus(catalog(spec, GF32003), cap=2)
    n = uc.algebra.dim
    assert (uc.omega1.dim, uc.omega2_dim) == (n * (n - 1), n * (n - 1) ** 2)
