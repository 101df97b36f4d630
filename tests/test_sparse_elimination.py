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

from diffoplab.algebra import catalog
from diffoplab.bimodule import regular_bimodule
from diffoplab.cecalc import ce_forms
from diffoplab.derivations import derivations
from diffoplab.fields import QQ, Field
from diffoplab.gradedce import GradedCochainComplex
from diffoplab import linalg
from diffoplab.linalg import Echelon, Matrix, Subspace, kernel, kernel_on, vstack

from oracles import (
    ce_form_rows,
    gauss_nullspace,
    gauss_rref,
    graded_a_linear_rows,
    increasing_values,
    random_rational,
)

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


def unit_rows_off(field, cols, n):
    """The unit rows e_j for every column j < n outside ``cols``."""
    keep = set(cols)
    return Matrix.from_pairs(field, [[(j, 1)] for j in range(n) if j not in keep], n)


@FIELDS
def test_kernel_on_is_the_kernel_with_unit_rows_off_the_columns(field):
    rng = random.Random(47)
    for trial in range(60):
        n = rng.randrange(1, 10)
        rows = random_rows(rng, field, 0 if trial % 10 == 0 else rng.randrange(1, 8), n,
                           rng.choice((0.15, 0.5, 1.0)))
        m = sparse_system(field, rows, n)
        for cols in ([], list(range(n)), sorted(rng.sample(range(n), rng.randrange(n + 1)))):
            expected = kernel(vstack([m, unit_rows_off(field, cols, n)]))
            got = kernel_on(m, cols)
            assert got == expected
            assert got.basis == expected.basis


@FIELDS
def test_full_subspace_constraints_are_read_off_without_a_kernel(monkeypatch, field):
    calls = recorded_kernels(monkeypatch, linalg)
    cons = Subspace.full(field, 5).constraint_matrix()
    assert (cons.rows, cons.cols) == (0, 5)
    assert calls == []
    assert kernel(cons) == Subspace.full(field, 5)


def recorded_kernels(monkeypatch, module):
    """Replace ``module.kernel`` by a wrapper that keeps every system it solves."""
    calls = []

    def recording(m):
        calls.append(m)
        return kernel(m)

    monkeypatch.setattr(module, "kernel", recording)
    return calls


def dense(m):
    """A matrix's rows as dense lists of field scalars."""
    return [list(r) for r in m.data]


@pytest.mark.parametrize("spec,degrees", [("matrix:2", (1, 2, 3)), ("trunc_poly:3", (1, 2, 3))])
@FIELDS
def test_ce_forms_space_is_the_oracle_kernel(spec, degrees, field):
    # the oracle solves every tuple coordinate under alternation and
    # center-linearity in every slot, built apart from ce_forms; an
    # alternating form is fixed by its values at the increasing tuples
    algebra = catalog(spec, field)
    der = derivations(algebra, regular_bimodule(algebra))
    n, d = algebra.dim, der.dim
    lzs = [algebra.left_mult(list(z)) for z in algebra.center().basis]
    mults = [dense(lz) for lz in lzs]
    coords = [[der.coords_of(lz @ u) for u in der.basis_maps()] for lz in lzs]
    for k in degrees:
        space = ce_forms(algebra, k)
        rows = ce_form_rows(n, d, k, mults, coords)
        assert len(rows[0]) == n * d ** k
        oracle = gauss_nullspace(rows, field.char)
        assert len(oracle) == space.dim
        assert as_lists(space.basis) == gauss_rref(
            [increasing_values(v, n, d, k) for v in oracle], field.char)


@FIELDS
def test_graded_a_linear_subspace_is_the_oracle_kernel(field):
    # the oracle imposes A-linearity from every argument tuple and every
    # slot, each parity apart, with its own normal form of the monomials
    algebra = catalog("grassmann:2", field)
    cx = GradedCochainComplex(algebra, cap=2)
    n = algebra.dim
    mults = [dense(algebra.left_mult_basis(a)) for a in range(n)]
    scaled = [[cx.der.coords_of(algebra.left_mult_basis(a) @ u) for u in cx.der.basis_maps()]
              for a in range(n)]
    for k in (1, 2):
        rows, parities = graded_a_linear_rows(n, cx.der.basis_parities(), algebra.parity,
                                              mults, scaled, k)
        rows = list({tuple(r): r for r in rows if any(r)}.values())
        vectors = []
        for par in (0, 1):
            units = [[int(i == j) for i in range(len(parities))]
                     for j, p in enumerate(parities) if p != par]
            vectors += gauss_nullspace(rows + units, field.char)
        space = cx.forms[k]
        assert space.ambient_dim == len(parities)
        assert as_lists(space.basis) == gauss_rref(vectors, field.char)
