"""The stated caps hold in the library, not only behind the CLI's flag checks.

Form degree 3, graded degree 2, operator order 4 and jet order 2: each is
reached without error, and one past it raises from every constructor or
builder that takes it.  A negative degree raises too.
"""

import pytest

from diffoplab.algebra import AlgebraError, grassmann, matrix_algebra, trunc_poly
from diffoplab.bimodule import regular_bimodule
from diffoplab.cecalc import DEGREE_CAP, CochainComplex, DegreeCapError, ce_forms
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


def test_negative_degrees_are_refused():
    with pytest.raises(DegreeCapError):
        ce_forms(matrix_algebra(2), -1)
    with pytest.raises(DegreeCapError):
        CochainComplex(trunc_poly(2), cap=-1)
    with pytest.raises(DegreeCapError):
        GradedCochainComplex(grassmann(1), cap=-1)


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
