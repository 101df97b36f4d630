"""Form linearity imposed on algebra generators, against every basis vector.

The form builders impose linearity only under the generators that
``FiniteAlgebra.generators`` keeps; the oracles of ``oracles.py`` impose it
under every center basis element (``ce``) or every basis vector of A
(``graded-ce``).  Both systems must have the same kernel.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from diffoplab.algebra import AlgebraError, FiniteAlgebra, catalog
from diffoplab.bimodule import regular_bimodule
from diffoplab.cecalc import ce_forms
from diffoplab.cli import main
from diffoplab.derivations import derivations
from diffoplab.fields import QQ, Field
from diffoplab.gradedce import GradedCochainComplex
from diffoplab.linalg import closure
from oracles import all_basis_a_linear_forms, all_basis_ce_forms, permuted_spec
from test_universal import NON_ASSOCIATIVE

FIELDS = pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])

PERMUTED = permuted_spec(catalog("trunc_poly:2+grassmann:1"), 3)


def spec_id(spec):
    return "permuted" if isinstance(spec, dict) else spec


def algebra_of(spec, field):
    if isinstance(spec, dict):
        return FiniteAlgebra.from_json_dict(dict(spec, char=field.char))
    return catalog(spec, field)


def basis_vectors(a):
    return [a.basis_vector(i) for i in range(a.dim)]


@pytest.mark.parametrize("spec,vectors,count", [
    ("trunc_poly:4", "center", 1),
    ("trunc_poly:2+matrix:2", "center", 2),
    ("matrix:3", "center", 0),
    ("grassmann:2", "basis", 2),
    ("grassmann:4", "basis", 4),
])
def test_generators_span_every_vector(spec, vectors, count):
    a = catalog(spec)
    given = a.center().basis if vectors == "center" else basis_vectors(a)
    kept = a.generators(given)
    assert len(kept) == count
    sub = closure(a.field, a.dim, [a.unit], [a.left_mult(g) for g in kept])
    assert all(sub.contains(v) for v in given)


@FIELDS
@pytest.mark.parametrize("spec", ["trunc_poly:4", "trunc_poly:2+matrix:2", "quaternion",
                                  "grassmann:2", PERMUTED], ids=spec_id)
def test_ce_forms_from_generators_are_the_all_basis_forms(spec, field):
    a = algebra_of(spec, field)
    der = derivations(a, regular_bimodule(a))
    for k in (1, 2, 3):
        assert ce_forms(a, k).normal == all_basis_ce_forms(a, der, k)


@FIELDS
@pytest.mark.parametrize("spec", ["grassmann:2", "grassmann:3", "trunc_poly:2+grassmann:1",
                                  PERMUTED], ids=spec_id)
def test_graded_forms_from_generators_are_the_all_basis_forms(spec, field):
    a = algebra_of(spec, field)
    cx = GradedCochainComplex(a, cap=2)
    assert cx.forms[1:] == [all_basis_a_linear_forms(a, cx.der, k) for k in (1, 2)]


def test_non_associative_algebra_is_refused_by_graded_ce(tmp_path, capsys):
    # e0 is the unit; x·(x·x) = x·y = x but (x·x)·x = y·x = 0, so A-linearity
    # under x does not give A-linearity under x·x = y
    spec = dict(NON_ASSOCIATIVE, parity=[0, 0, 0])
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(spec))
    assert main(["graded-ce", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
    with pytest.raises(AlgebraError):
        GradedCochainComplex(FiniteAlgebra.from_json_dict(spec))


def test_ce_report_on_a_non_associative_algebra_is_unchanged(tmp_path):
    # its center K·1 gives no generator, so nothing is checked; the digest was
    # recorded while every center basis element still had its own row block
    spec_path = tmp_path / "nonassoc.json"
    spec_path.write_text(json.dumps(dict(NON_ASSOCIATIVE, parity=[0, 0, 0])))
    report = tmp_path / "report.json"
    with redirect_stdout(io.StringIO()) as out:
        assert main(["ce", str(spec_path), "--json", str(report)]) == 0
    assert out.getvalue().splitlines()[0] == ("center-multilinear complex over nonassoc: "
                                              "dims [3, 0, 0, 0]")
    assert (hashlib.sha256(report.read_bytes()).hexdigest()
            == "de4f8bf62169f8c25719104f8a123483067d4381d747a144b1753f1a1878b646")


def test_a_unit_that_is_not_one_is_refused():
    d = catalog("trunc_poly:2").to_json_dict()
    d["unit"] = ["0", "1"]
    a = FiniteAlgebra.from_json_dict(d)
    with pytest.raises(AlgebraError):
        a.generators(basis_vectors(a))
