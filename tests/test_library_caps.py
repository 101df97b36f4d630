"""The stated caps hold in the library, not only behind the CLI's flag checks.

Form degree 3, graded degree 2, operator order 4 and jet order 2: each is
reached without error, and one past it raises from every constructor or
builder that takes it.  A negative degree or order raises too.
"""

import pytest

from diffoplab.algebra import AlgebraError, grassmann, matrix_algebra, trunc_poly
from diffoplab.bimodule import regular_bimodule
from diffoplab.cecalc import (
    DEGREE_CAP,
    CochainComplex,
    DegreeCapError,
    ce_coboundary_matrix,
    ce_forms,
    exact_one_form,
    wedge,
)
from diffoplab.derivations import derivations
from diffoplab.diffops import (
    MAX_ORDER,
    OrderCapError,
    compare_definitions,
    grothendieck_diff,
    graded_diff,
    lunts_filtration,
    lunts_filtration_presented,
    two_sided_filtration,
)
from diffoplab.gradedce import GRADED_DEGREE_CAP, GradedCochainComplex
from diffoplab.jets import JET_ORDER_CAP, jet_module


def test_form_degree_cap_is_3():
    assert DEGREE_CAP == 3
    a = trunc_poly(2)
    assert len(CochainComplex(a, cap=DEGREE_CAP).forms) == DEGREE_CAP + 1
    with pytest.raises(DegreeCapError):
        CochainComplex(a, cap=DEGREE_CAP + 1)
    with pytest.raises(DegreeCapError):
        ce_forms(a, DEGREE_CAP + 1)


def test_coboundary_degrees_stop_below_the_form_cap():
    # δ_k maps degree k to k + 1, so the last one lands on the cap
    a = matrix_algebra(2)
    der = derivations(a, regular_bimodule(a))
    top = ce_coboundary_matrix(a, der, DEGREE_CAP - 1)
    assert top.cols == a.dim * 3 and top.rows == a.dim
    for degree in (DEGREE_CAP, -1):
        with pytest.raises(DegreeCapError):
            ce_coboundary_matrix(a, der, degree)


def test_wedge_degrees_stay_within_the_form_cap():
    a = matrix_algebra(2)
    der = derivations(a, regular_bimodule(a))
    one = exact_one_form(a, der, a.basis_vector(1))
    two = wedge(a, der, one, 1, one, 1)
    assert len(wedge(a, der, one, 1, two, 2)) == a.dim
    for r, s in [(-1, 1), (1, -1), (2, 2), (DEGREE_CAP, 1)]:
        with pytest.raises(DegreeCapError):
            wedge(a, der, one, r, one, s)


def test_negative_degrees_are_refused():
    with pytest.raises(DegreeCapError):
        ce_forms(matrix_algebra(2), -1)
    with pytest.raises(DegreeCapError):
        CochainComplex(trunc_poly(2), cap=-1)
    with pytest.raises(DegreeCapError):
        GradedCochainComplex(grassmann(1), cap=-1)
    a = trunc_poly(2)
    with pytest.raises(AlgebraError, match="negative"):
        jet_module(a, regular_bimodule(a), -1)


def test_graded_degree_cap_is_2():
    assert GRADED_DEGREE_CAP == 2
    a = grassmann(1)
    assert len(GradedCochainComplex(a, cap=GRADED_DEGREE_CAP).forms) == GRADED_DEGREE_CAP + 1
    with pytest.raises(DegreeCapError):
        GradedCochainComplex(a, cap=GRADED_DEGREE_CAP + 1)


def test_operator_order_cap_is_4():
    assert MAX_ORDER == 4
    reg = regular_bimodule(trunc_poly(2))
    greg = regular_bimodule(grassmann(1))
    assert grothendieck_diff(reg, reg, MAX_ORDER).space.is_full
    builders = [lambda k: grothendieck_diff(reg, reg, k),
                lambda k: graded_diff(greg, greg, k),
                lambda k: lunts_filtration(reg, reg, k),
                lambda k: lunts_filtration_presented(reg, reg, k),
                lambda k: two_sided_filtration(reg, reg, k),
                lambda k: compare_definitions(reg, reg, k)]
    for build in builders:
        with pytest.raises(OrderCapError):
            build(MAX_ORDER + 1)


def test_jet_order_cap_is_2():
    assert JET_ORDER_CAP == 2
    a = trunc_poly(2)
    reg = regular_bimodule(a)
    assert jet_module(a, reg, JET_ORDER_CAP).dim > 0
    with pytest.raises(AlgebraError):
        jet_module(a, reg, JET_ORDER_CAP + 1)
