"""The sparse elimination core against the plain-elimination oracles.

``Echelon`` holds (col, value) rows and ``kernel`` reads a system through
its row entries, whether it was built from dense rows or from
``{col: value}`` rows through ``Matrix.from_entries``, so every canonical
basis here is compared with ``gauss_rref`` / ``gauss_nullspace`` computed
densely on the same rows.
"""

import random
from fractions import Fraction

import pytest

from diffoplab import cecalc, gradedce
from diffoplab.algebra import catalog
from diffoplab.cecalc import ce_forms
from diffoplab.fields import QQ, Field
from diffoplab.gradedce import GradedCochainComplex
from diffoplab.linalg import Echelon, Matrix, Subspace, kernel

from oracles import gauss_nullspace, gauss_rref, random_rational

GF32003 = Field(32003)
FIELDS = pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])


def random_rows(rng, field, rows, cols, density):
    """Seeded rows with about ``density`` non-zero entries, plus zero and repeated rows."""
    data = [[field.coerce(random_rational(rng)) if rng.random() < density else field.zero()
             for _ in range(cols)] for _ in range(rows)]
    if data:
        data.append([field.zero()] * cols)
        data.append(list(rng.choice(data)))
        rng.shuffle(data)
    return data


def as_lists(rows):
    return [list(r) for r in rows]


def oracle_kernel(field, rows, cols=None):
    """Canonical kernel basis by the oracles; ``cols`` is needed when there are no rows."""
    rows = rows or [[field.zero()] * cols]
    return gauss_rref(gauss_nullspace(rows, field.char), field.char)


def sparse_system(field, rows, cols):
    """The system of dense ``rows`` fed to ``from_entries`` as ``{col: value}`` rows, zeros included."""
    return Matrix.from_entries(field, [dict(enumerate(r)).items() for r in rows], cols)


@FIELDS
def test_echelon_add_contains_basis_rows_match_oracle(field):
    rng = random.Random(41)
    for _ in range(40):
        cols = rng.randrange(1, 9)
        rows = random_rows(rng, field, rng.randrange(1, 8), cols,
                           rng.choice((0.15, 0.5, 1.0)))
        ech = Echelon(field, cols)
        grew = [ech.add(r) for r in rows]
        expected = gauss_rref(rows, field.char)
        assert as_lists(ech.basis_rows()) == expected
        assert sum(grew) == ech.rank == len(expected)
        assert sorted(ech.pivots) == [next(j for j, x in enumerate(r) if x)
                                      for r in expected]
        for r in rows:
            assert ech.contains(r)
        for _ in range(3):
            probe = [field.coerce(random_rational(rng)) for _ in range(cols)]
            assert ech.contains(probe) == (
                len(gauss_rref(rows + [probe], field.char)) == len(expected))


@FIELDS
def test_kernel_matches_oracle_on_dense_and_sparse_systems(field):
    rng = random.Random(43)
    for _ in range(40):
        cols = rng.randrange(1, 10)
        rows = random_rows(rng, field, rng.randrange(1, 9), cols,
                           rng.choice((0.1, 0.4, 1.0)))
        expected = oracle_kernel(field, rows)
        dense = kernel(Matrix(field, rows, cols))
        sparse = kernel(sparse_system(field, rows, cols))
        assert as_lists(dense.basis) == expected
        assert sparse == dense and sparse.pivot_cols == dense.pivot_cols
        for v in dense.basis:
            assert all(x == 0 for x in Matrix(field, rows, cols).apply(list(v)))


@FIELDS
def test_zero_duplicate_and_empty_inputs(field):
    z, o = field.zero(), field.one()
    ech = Echelon(field, 3)
    assert not ech.add([z, z, z])
    assert ech.rank == 0 and ech.basis_rows() == [] and ech.contains([z, z, z])
    assert ech.add([z, field.coerce(2), o])
    assert not ech.add([z, field.coerce(2), o])
    assert not ech.add([z, field.coerce(4), field.coerce(2)])
    assert ech.rank == 1
    # only zero rows: the kernel is everything
    assert kernel(Matrix(field, [[z] * 4, [z] * 4], 4)) == Subspace.full(field, 4)
    empty_rows = Matrix.from_entries(field, [{}.items(), {2: z}.items()], 4)
    assert kernel(empty_rows) == Subspace.full(field, 4)
    # all-zero rows are kept, with no entries
    assert empty_rows.rows == 2 and empty_rows.row_entries() == [[], []]
    # width 0
    assert Echelon(field, 0).basis_rows() == []
    assert not Echelon(field, 0).add([])
    assert kernel(Matrix(field, [[]], 0)).dim == 0
    assert kernel(Matrix.from_entries(field, [{}.items()], 0)).dim == 0
    assert kernel(Matrix.from_entries(field, [], 0)).dim == 0
    # no rows at all
    assert kernel(Matrix.from_entries(field, [], 3)) == Subspace.full(field, 3)
    assert kernel(Matrix.zeros(field, 0, 3)) == Subspace.full(field, 3)


def test_fraction_entries_over_q():
    rows = [[Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 6)],
            [Fraction(3, 4), 1, Fraction(-1, 5), 0],
            [Fraction(1, 2), Fraction(-2, 3), 0, Fraction(5, 6)],
            [Fraction(4, 2), 0, Fraction(7, 3), Fraction(1, 9)]]
    ech = Echelon(QQ, 4)
    for r in rows:
        ech.add(r)
    basis = ech.basis_rows()
    assert as_lists(basis) == gauss_rref(rows)
    for x in (x for r in basis for x in r):
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1)
    assert ech.contains([Fraction(5, 4), Fraction(1, 3), Fraction(-1, 5), Fraction(5, 6)])
    assert as_lists(kernel(Matrix(QQ, rows, 4)).basis) == oracle_kernel(QQ, rows)
    assert kernel(sparse_system(QQ, rows, 4)) == kernel(Matrix(QQ, rows, 4))


@FIELDS
def test_fully_dense_rows(field):
    rng = random.Random(47)
    cols = 12
    rows = [[field.coerce(rng.choice((-1, 1)) * rng.randrange(1, 9)) for _ in range(cols)]
            for _ in range(9)]
    rows.append([field.add(x, y) for x, y in zip(rows[0], rows[1])])
    ech = Echelon(field, cols)
    for r in rows:
        ech.add(r)
    assert as_lists(ech.basis_rows()) == gauss_rref(rows, field.char)
    assert as_lists(kernel(Matrix(field, rows, cols)).basis) == oracle_kernel(field, rows)
    assert kernel(sparse_system(field, rows, cols)) == kernel(Matrix(field, rows, cols))


def recorded_kernels(monkeypatch, module):
    """Replace ``module.kernel`` by a wrapper that keeps every system it solves."""
    calls = []

    def recording(m):
        calls.append(m)
        return kernel(m)

    monkeypatch.setattr(module, "kernel", recording)
    return calls


def dense_rows(system):
    """The rows of a system written densely, repeated rows dropped."""
    out = {}
    for pairs in system.row_entries():
        row = [0] * system.cols
        for j, x in pairs:
            row[j] = x
        out[tuple(row)] = row
    return list(out.values())


@pytest.mark.parametrize("spec,degrees", [("matrix:2", (1, 2)), ("trunc_poly:3", (1, 2, 3))])
@FIELDS
def test_ce_forms_space_is_the_oracle_kernel(monkeypatch, spec, degrees, field):
    algebra = catalog(spec, field)
    for k in degrees:
        calls = recorded_kernels(monkeypatch, cecalc)
        space = ce_forms(algebra, k).space
        assert len(calls) == 1  # one system of alternating and center-linearity rows
        system = calls[0]
        assert system.cols == space.ambient_dim
        rows = dense_rows(system)
        assert as_lists(space.basis) == oracle_kernel(field, rows, system.cols)


@FIELDS
def test_graded_a_linear_subspace_is_the_oracle_kernel(monkeypatch, field):
    cx = GradedCochainComplex(catalog("grassmann:2", field), cap=1)
    for k in (1, 2):
        calls = recorded_kernels(monkeypatch, gradedce)
        space = cx._a_linear_subspace(k)
        assert len(calls) == 2  # one homogeneous system per parity
        vectors = [v for system in calls
                   for v in oracle_kernel(field, dense_rows(system), system.cols)]
        assert as_lists(space.basis) == gauss_rref(vectors, field.char)
