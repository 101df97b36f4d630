import random
from fractions import Fraction
from itertools import product

import pytest

from diffoplab.fields import Field, QQ, field_from_name
from diffoplab.linalg import (
    AffineSolution,
    Echelon,
    Matrix,
    Subspace,
    closure,
    factor_through,
    hstack,
    image_span,
    is_invariant,
    kernel,
    kron,
    kron_difference,
    preimage,
    quotient_basis,
    quotient_projection,
    rank,
    restrict_operator,
    rref,
    solve_affine,
    vstack,
)

from oracles import (
    closure_by_images,
    field_form,
    from_flat,
    gauss_nullspace,
    gauss_rank,
    gauss_rref,
    inverse,
    inversion_quotient_projection,
    mat_add,
    mat_hstack,
    mat_identity,
    mat_kron,
    mat_scale,
    mat_transpose,
    multiplication_matrix,
    nullity,
    random_rational,
    restricted_action,
)

GF2 = Field(2)
GF5 = Field(5)
GF32003 = Field(32003)


def M(rows, field=QQ):
    return Matrix.from_rows(field, rows)


def test_field_parsing():
    assert field_from_name("q").char == 0
    assert field_from_name("p:7").char == 7
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ZeroDivisionError):
        GF5.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    assert GF5.coerce("2/3") == (2 * pow(3, 3, 5)) % 5


def test_rref_permutation_of_identity():
    assert rref(M([[0, 1], [1, 0]])) == M([[1, 0], [0, 1]])


def test_rref_rank_one():
    r = rref(M([[2, 4], [1, 2]]))
    assert r.data[0] == [Fraction(1), Fraction(2)]
    assert all(x == 0 for x in r.data[1])
    # zero row dropped by the Subspace constructor
    s = Subspace.from_spanning(QQ, 2, [[2, 4], [1, 2]])
    assert s.dim == 1
    assert s.basis == ((Fraction(1), Fraction(2)),)


def test_rref_char2():
    r = rref(M([[1, 1], [1, 1]], GF2))
    assert r.data[0] == [1, 1]
    assert r.data[1] == [0, 0]


def test_rref_idempotent():
    rng = random.Random(7)
    for _ in range(25):
        rows = [[Fraction(rng.randrange(-4, 5), rng.randrange(1, 3))
                 for _ in range(5)] for _ in range(4)]
        m = M(rows)
        assert rref(rref(m)) == rref(m)


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0
    assert kernel(Matrix.zeros(QQ, 2, 3)).dim == 3


def test_kernel_multiplication_map_dual_numbers():
    # Q[x]/(x^2): e0 = 1, e1 = x.  Oracle: rank-nullity on the explicit
    # 2x4 matrix of m(a⊗b) = ab.
    table = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    mm = multiplication_matrix(table, 2)
    assert nullity(mm) == 2
    k = kernel(M(mm))
    assert k.dim == 2
    # rank-nullity on every kernel call
    assert k.dim + rank(M(mm)) == 4


def test_subspace_sum_intersect_trivial():
    e1 = Subspace.from_spanning(QQ, 2, [[1, 0]])
    e2 = Subspace.from_spanning(QQ, 2, [[0, 1]])
    diag = Subspace.from_spanning(QQ, 2, [[1, 1]])
    assert e1.sum(e2) == Subspace.full(QQ, 2)
    assert diag.intersect(e1).dim == 0
    # full and zero operands, against spans the oracle reduces
    for field in (QQ, GF32003):
        p = field.char
        n = 4
        full, zero = Subspace.full(field, n), Subspace.zero(field, n)
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert [list(r) for r in full.basis] == gauss_rref(eye, p)
        assert full.pivot_cols == tuple(range(n)) and full.is_full and not zero.is_full
        assert all(type(x) is int for r in full.basis for x in r)
        plane = Subspace.from_spanning(field, n, [[1, 2, 0, 3], [0, 5, 1, 0]])
        for s in (full, zero, plane):
            assert full.sum(s) == s.sum(full) == full
            assert zero.sum(s) == s.sum(zero) == s
            assert full.intersect(s) == s.intersect(full) == s
            assert zero.intersect(s) == s.intersect(zero) == zero
            assert full.contains_space(s) and s.contains_space(zero)
            assert s.contains_space(full) == (s == full)
            assert full.contains([field.coerce(Fraction(3, 7))] * n)
        assert [list(r) for r in plane.sum(full).basis] == gauss_rref(eye, p)
        with pytest.raises(ValueError):
            full.contains([1] * (n + 1))


def test_grassmann_identity_random():
    # dim(a) + dim(b) == dim(a+b) + dim(a∩b), ranks via the oracle
    rng = random.Random(11)
    for _ in range(12):
        va = [[Fraction(rng.randrange(-3, 4)) for _ in range(6)] for _ in range(3)]
        vb = [[Fraction(rng.randrange(-3, 4)) for _ in range(6)] for _ in range(3)]
        a = Subspace.from_spanning(QQ, 6, va)
        b = Subspace.from_spanning(QQ, 6, vb)
        assert a.dim == gauss_rank(va)
        assert b.dim == gauss_rank(vb)
        assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


def test_subspace_canonical_equality():
    a = Subspace.from_spanning(QQ, 3, [[1, 2, 3], [0, 1, 1]])
    b = Subspace.from_spanning(QQ, 3, [[2, 4, 6], [1, 3, 4], [3, 7, 10]])
    assert a == b
    assert a.basis == b.basis


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
def test_equal_subspaces_hash_alike(field):
    rng = random.Random(11)
    for _ in range(20):
        vecs = [[field.coerce(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)]
        a = Subspace.from_spanning(field, 6, vecs)
        # another spanning set of the same span: mixed, scaled and repeated
        mixed = [[field.add(x, field.mul(field.coerce(c), y)) for x, y in zip(vecs[0], v)]
                 for c, v in ((2, vecs[1]), (-1, vecs[2]))]
        b = Subspace.from_spanning(field, 6, mixed + vecs[1:] + [vecs[0]])
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert a.intersect(b) is a
    assert hash(Subspace.full(field, 4)) == hash(Subspace.from_spanning(
        field, 4, [[1 if i == j else 0 for j in range(4)] for i in range(4)]))
    assert Subspace.zero(field, 4) != Subspace.zero(field, 5)


def test_contains_and_coords():
    s = Subspace.from_spanning(QQ, 3, [[1, 0, 2], [0, 1, -1]])
    v = [Fraction(2), Fraction(3), Fraction(1)]
    assert s.contains(v)
    coords = s.coords_of(v)
    assert s.linear_combination(coords) == v
    assert not s.contains([1, 0, 0])
    with pytest.raises(ValueError):
        s.coords_of([Fraction(1), Fraction(0), Fraction(0)])


def test_quotient_basis():
    amb = Subspace.full(QQ, 3)
    sub = Subspace.from_spanning(QQ, 3, [[1, 1, 0]])
    reps = quotient_basis(amb, sub)
    assert len(reps) == 2
    ech_dim = Subspace.from_spanning(QQ, 3, list(sub.basis) + reps).dim
    assert ech_dim == 3
    with pytest.raises(ValueError):
        quotient_basis(sub, amb)


def test_solve_affine_tautology_and_inconsistent():
    eye = Matrix.identity(QQ, 1)
    # x = x rewritten as 0·x = 0
    sol = solve_affine([(Matrix.zeros(QQ, 1, 1), [Fraction(0)])])
    assert sol.consistent and sol.homogeneous.dim == 1
    bad = solve_affine([(eye, [Fraction(1)]), (eye, [Fraction(2)])])
    assert not bad.consistent
    good = solve_affine([(eye, [Fraction(1)])])
    assert good.is_unique and good.point == [Fraction(1)]


def test_preimage():
    m = M([[1, 0], [0, 0]])
    target = Subspace.zero(QQ, 2)
    pre = preimage([m], target)
    assert pre.dim == 1 and pre.contains([0, 1])
    # two operators and a non-zero target, against all of GF(3)^3
    gf3 = Field(3)
    rows1 = [[1, 1, 0], [2, 2, 1], [0, 0, 1]]  # alone: preimage of dim 2
    rows2 = [[0, 1, 1], [0, 2, 2], [1, 0, 2]]  # alone: preimage of dim 2
    gen = [1, 2, 0]
    pre = preimage([M(rows1, gf3), M(rows2, gf3)], Subspace.from_spanning(gf3, 3, [gen]))

    def image(rows, v):
        return tuple(sum(a * b for a, b in zip(r, v)) % 3 for r in rows)

    line = {tuple(c * x % 3 for x in gen) for c in range(3)}
    expected = {v for v in product(range(3), repeat=3)
                if image(rows1, v) in line and image(rows2, v) in line}
    spanned = {tuple(sum(c * b[j] for c, b in zip(cs, pre.basis)) % 3 for j in range(3))
               for cs in product(range(3), repeat=pre.dim)}
    assert spanned == expected and pre.dim == 1
    # a full target takes every vector: the whole domain of a non-square family
    for field in (QQ, gf3):
        wide = [M([[1, 0], [2, 1], [0, 0]], field), M([[0, 0], [0, 0], [1, 1]], field)]
        pre = preimage(wide, Subspace.full(field, 3))
        assert pre == Subspace.full(field, 2) and pre.pivot_cols == (0, 1)
        assert [list(r) for r in pre.basis] == gauss_rref([[1, 0], [0, 1]], field.char)


@pytest.mark.parametrize("field", [QQ, GF32003])
def test_inverse_and_quotient_projection(field):
    m = M([[2, 1, 0], [0, 1, 3], [1, 0, 1]], field)
    assert inverse(m) @ m == Matrix.identity(field, 3)
    with pytest.raises(ValueError):
        inverse(M([[1, 2], [2, 4]], field))
    sub = Subspace.from_spanning(field, 3, [[1, 1, 0], [0, 2, 1]])
    free, proj = quotient_projection(sub)
    assert len(free) == 1 and proj.rows == 1 and proj.cols == 3
    assert all(x == 0 for b in sub.basis for x in proj.apply(list(b)))
    assert proj.col(free[0]) == [1]


def test_factor_through():
    # F @ J = Δ with F in the 2×2 upper triangular maps and J = [[1, 1], [0, 1]]
    upper = Subspace.from_spanning(QQ, 4, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
    j = M([[1, 1], [0, 1]])
    fac = factor_through(upper, j, M([[2, 5], [0, 4]]))
    assert fac.ok and fac.f_matrix == M([[2, 3], [0, 4]])
    assert fac.f_matrix @ j == M([[2, 5], [0, 4]])
    miss = factor_through(upper, j, M([[0, 0], [1, 1]]))
    assert not miss.ok and miss.f_matrix is None
    # J with a zero row leaves that column of F free: exact but not unique
    loose = factor_through(upper, M([[1, 0], [0, 0]]), M([[1, 0], [0, 0]]))
    assert loose.residual_zero and not loose.unique and not loose.ok


def test_closure_generates_invariant_subspace():
    # nilpotent shift on Q^3: closure of e0 under shift^T is everything it reaches
    shift = M([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    c = closure(QQ, 3, [[Fraction(1), Fraction(0), Fraction(0)]], [shift])
    assert c.dim == 3
    c2 = closure(QQ, 3, [[Fraction(0), Fraction(0), Fraction(1)]], [shift])
    assert c2.dim == 1


def test_restrict_operator():
    m = M([[2, 0, 0], [0, 3, 0], [0, 0, 5]])
    s = Subspace.from_spanning(QQ, 3, [[1, 0, 0], [0, 0, 1]])
    r = restrict_operator(m, s)
    assert r == M([[2, 0], [0, 5]])


def test_modp_subspaces():
    s = Subspace.from_spanning(GF5, 3, [[1, 2, 3], [2, 4, 2]])
    assert s.dim == 2
    t = Subspace.from_spanning(GF5, 3, [[1, 2, 3]])
    assert s.contains_space(t)
    assert s.intersect(t) == t
    k = kernel(Matrix.from_rows(GF5, [[1, 2, 3]]))
    assert k.dim == 2
    for row in k.basis:
        assert sum(x * y for x, y in zip([1, 2, 3], row)) % 5 == 0


def test_vstack_and_matmul():
    a = M([[1, 2]])
    b = M([[3, 4]])
    assert vstack([a, b]) == M([[1, 2], [3, 4]])
    assert (M([[1, 2], [3, 4]]) @ M([[1], [1]])).col(0) == [Fraction(3), Fraction(7)]


# -- sparse-row products and integer-first rationals --------------------------

# (rows, inner, cols): empty shapes on every side, thin and square ones
PRODUCT_SHAPES = [(0, 4, 3), (3, 0, 4), (4, 3, 0), (0, 0, 0), (1, 9, 1),
                  (5, 7, 6), (12, 12, 12)]


def random_rows(rng, field, rows, cols, density):
    """Seeded dense rows with about ``density`` non-zero entries; some rows all zero."""
    data = []
    for _ in range(rows):
        zero_row = rng.random() < 0.2
        data.append([field.coerce(random_rational(rng))
                     if not zero_row and rng.random() < density else field.zero()
                     for _ in range(cols)])
    return data


def random_matrix(rng, field, rows, cols, density):
    return Matrix(field, random_rows(rng, field, rows, cols, density), cols)


def dense_product(field, a, b, cols):
    """Row-by-column sums over every entry, zeros included."""
    p = field.char
    out = [[sum(r[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
           for r in a]
    return [[x % p for x in r] for r in out] if p else out


def dense_apply(field, a, vec):
    return [r[0] for r in dense_product(field, a, [[x] for x in vec], 1)]


def assert_integer_first(values):
    for x in values:
        assert type(x) is int or (type(x) is Fraction and x.denominator > 1), repr(x)


def check_against_lists(rng, field, data_a, b):
    """Every Matrix operation on a (built from ``data_a``) and b against the
    plain-list reference of ``oracles``, and the ways of building a matrix
    against each other."""
    p = field.char
    rows, inner = len(data_a), b.rows
    a = Matrix(field, data_a, inner)
    data_b = b.data
    data_c = random_rows(rng, field, rows, inner, 0.5)
    c = Matrix(field, data_c, inner)
    # the dense view, and the same matrix built from pairs, entries, a flat
    # vector and Fraction rows
    assert a.data == data_a and (a.rows, a.cols) == (rows, inner)
    pairs = [[(j, x) for j, x in enumerate(r) if x] for r in data_a]
    assert a.row_entries() == pairs
    assert Matrix.from_pairs(field, pairs, inner) == a
    entries = [[(j, Fraction(x)) for j, x in enumerate(r)][::-1] for r in data_a]
    assert Matrix.from_entries(field, entries, inner) == a
    flat = [x for r in data_a for x in r]
    assert a.flatten() == flat and from_flat(field, flat, rows, inner) == a
    if rows:  # from_rows reads the width off the first row
        assert Matrix.from_rows(field, [[Fraction(x) for x in r] for r in data_a]) == a
    assert [a.row(i) for i in range(rows)] == data_a
    assert [a.col(j) for j in range(inner)] == mat_transpose(data_a, inner)
    assert a.is_zero() == all(x == 0 for r in data_a for x in r)
    assert a.formatted() == [[field.fmt(x) for x in r] for r in data_a]
    # arithmetic against the reference
    s = field.coerce(random_rational(rng))
    got = {
        "add": (a + c, mat_add(data_a, data_c)),
        "sub": (a - c, mat_add(data_a, data_c, -1)),
        "neg": (-a, mat_scale(-1, data_a)),
        "scale": (a.scale(s), mat_scale(s, data_a)),
        "scale0": (a.scale(0), mat_scale(0, data_a)),
        "transpose": (a.transpose(), mat_transpose(data_a, inner)),
        "vstack": (vstack([a, c]), data_a + data_c),
        "hstack": (hstack([a, c, a]), mat_hstack(mat_hstack(data_a, data_c), data_a)),
        "kron": (kron(a, b), mat_kron(data_a, data_b)),
        "identity": (Matrix.identity(field, inner), mat_identity(inner)),
        "zeros": (Matrix.zeros(field, rows, inner), mat_scale(0, data_a)),
    }
    if rows == inner:
        eye_a, eye_b = mat_identity(rows), mat_identity(inner)
        got["kron_difference"] = (kron_difference(a, c), mat_add(
            mat_kron(data_a, eye_b), mat_kron(eye_a, data_c), -1))
    for name, (m, want) in got.items():
        want = field_form(want, p)
        assert m.data == want, name
        assert m == Matrix(field, want, m.cols), name
        assert all(x for r in m.row_entries() for _, x in r), name
        if p:
            assert all(0 <= x < p for r in m.data for x in r), name
        else:
            assert_integer_first([x for r in m.data for x in r])
    assert a.transpose().transpose() == a
    assert a + Matrix.zeros(field, rows, inner) == a
    # equality needs the same shape, not only the same non-zero entries
    assert Matrix.zeros(field, 0, inner) != Matrix.zeros(field, 0, inner + 1)
    assert Matrix.zeros(field, rows, inner) != Matrix.zeros(field, rows + 1, inner)
    assert (a == a + a) == a.is_zero()


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])
def test_products_match_dense_reference(field):
    rng = random.Random(2024)
    for rows, inner, cols in PRODUCT_SHAPES:
        for density in (0.0, 0.05, 0.3, 1.0):
            data_a = random_rows(rng, field, rows, inner, density)
            a = Matrix(field, data_a, inner)
            b = random_matrix(rng, field, inner, cols, density)
            vec = [field.coerce(random_rational(rng)) for _ in range(inner)]
            check_against_lists(rng, field, data_a, b)
            prod = a @ b
            assert (prod.rows, prod.cols) == (rows, cols)
            assert prod.data == dense_product(field, a.data, b.data, cols)
            applied = a.apply(vec)
            assert applied == dense_apply(field, a.data, vec)
            # a second use reads the cached non-zero rows and must agree
            assert a @ b == prod and a.apply(vec) == applied
            assert a.column_entries() == [[(i, r[j]) for i, r in enumerate(a.data) if r[j]]
                                          for j in range(inner)]
            # the sparse product under apply: sorted non-zero (row, value)
            # pairs, also for the zero vector and for raw Fraction inputs
            pairs = []
            for v in (vec, [field.zero()] * inner, [Fraction(x) for x in vec]):
                got = a._apply_pairs([(j, x) for j, x in enumerate(v) if x])
                assert got == [(i, x) for i, x in enumerate(dense_apply(field, a.data, v)) if x]
                pairs += [x for _, x in got]
            if field == QQ:
                assert_integer_first([x for r in prod.data for x in r] + applied + pairs)
            else:
                assert all(0 <= x < field.char for r in prod.data for x in r)
                assert all(0 < x < field.char for x in pairs)


def test_rational_field_arithmetic_is_integer_first():
    rng = random.Random(5)
    samples = ([random_rational(rng) for _ in range(30)]
               + [Fraction(4, 2), Fraction(-3), Fraction(0), 7, -1, 0])
    out = [QQ.zero(), QQ.one()]
    for x in samples:
        out += [QQ.coerce(x), QQ.coerce(str(x)), QQ.neg(x)]
        for y in samples[::3]:
            out += [QQ.add(x, y), QQ.sub(x, y), QQ.mul(x, y)]
            if y != 0:
                out += [QQ.inv(y), QQ.div(x, y)]
    assert_integer_first(out)
    assert QQ.coerce("6/3") == 2 and type(QQ.coerce("6/3")) is int


def test_rational_inverse_is_exact():
    for x in [1, -1, 2, -3, 7, Fraction(2, 3), Fraction(-5, 4), Fraction(6, 3)]:
        inv = QQ.inv(x)
        assert type(inv) is not float
        assert inv * x == 1
    assert QQ.inv(3) == Fraction(1, 3) and QQ.inv(-1) == -1
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)


def test_kernel_basis_rows_closure_canonical_and_integer_first():
    rng = random.Random(13)
    for _ in range(25):
        rows, cols = rng.randrange(1, 6), rng.randrange(1, 8)
        m = random_matrix(rng, QQ, rows, cols, rng.choice((0.3, 0.7)))
        k = kernel(m)
        assert [list(r) for r in k.basis] == gauss_rref(gauss_nullspace(m.data))
        for r in k.basis:
            assert_integer_first(r)
            assert all(x == 0 for x in m.apply(list(r)))
        ech = Echelon(QQ, cols)
        for r in m.data:
            ech.add(r)
        basis = ech.basis_rows()
        assert [list(r) for r in basis] == gauss_rref(m.data)
        assert_integer_first([x for r in basis for x in r])
        # closure of one vector under one operator: the Krylov span
        op = random_matrix(rng, QQ, cols, cols, 0.4)
        seed = [QQ.coerce(random_rational(rng)) for _ in range(cols)]
        krylov = [seed]
        for _ in range(cols):
            krylov.append(dense_apply(QQ, op.data, krylov[-1]))
        c = closure(QQ, cols, [seed], [op])
        assert [list(r) for r in c.basis] == gauss_rref(krylov)
        assert_integer_first([x for r in c.basis for x in r])


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])
def test_kron_difference_matches_kron_pair(field):
    rng = random.Random(5)
    cases = [(Matrix.identity(field, 1), Matrix.identity(field, 1)),
             (Matrix.from_rows(field, [[Fraction(-2, 3)]]), Matrix.from_rows(field, [[5]])),
             (Matrix.zeros(field, 3, 3), Matrix.zeros(field, 2, 2)),
             (Matrix.identity(field, 3), Matrix.identity(field, 2)),
             (Matrix.identity(field, 2), Matrix.zeros(field, 4, 4))]
    for m, n in [(1, 3), (3, 1), (2, 2), (4, 3), (5, 5)]:
        for density in (0.2, 1.0):
            cases.append((random_matrix(rng, field, m, m, density),
                          random_matrix(rng, field, n, n, density)))
    for a, b in cases:
        got = kron_difference(a, b)
        want = (kron(a, Matrix.identity(field, b.rows))
                - kron(Matrix.identity(field, a.rows), b))
        assert got == want
        assert (got.rows, got.cols) == (a.rows * b.rows, a.rows * b.rows)
        if field == QQ:
            assert_integer_first([x for r in got.data for x in r])
    with pytest.raises(ValueError):
        kron_difference(Matrix.zeros(field, 2, 3), Matrix.identity(field, 2))


def typed(rows):
    return [[(type(x), x) for x in r] for r in rows]


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])
def test_quotient_projection_matches_inversion_oracle(field):
    rng = random.Random(31)
    one, zero = field.one(), field.zero()
    # span(e0 + e1): leading pivot 0, trailing pivot 1, so the free columns are 0, 2
    subs = [Subspace.from_spanning(field, 3, [[one, one, zero]]),
            Subspace.zero(field, 4), Subspace.full(field, 4), Subspace.zero(field, 0)]
    for _ in range(40):
        n = rng.randrange(1, 9)
        rows = random_matrix(rng, field, rng.randrange(0, n + 1), n,
                             rng.choice((0.2, 0.6, 1.0))).data
        subs.append(Subspace.from_spanning(field, n, rows))
    assert quotient_projection(subs[0])[0] == [0, 2]
    for sub in subs:
        n = sub.ambient_dim
        free, proj = quotient_projection(sub)
        # the representatives are the unit vectors at the free columns
        reps = [[int(i == c) for i in range(n)] for c in free]
        want_reps, want_proj = inversion_quotient_projection(sub.basis, n, field.char)
        assert typed(reps) == typed(want_reps)
        assert typed(proj.data) == typed(want_proj)
        assert (proj.rows, proj.cols) == (n - sub.dim, n)
        assert all(x == 0 for b in sub.basis for x in proj.apply(list(b)))
        assert proj @ Matrix(field, reps, n).transpose() == Matrix.identity(field, n - sub.dim)


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])
def test_coords_of_rejects_non_members(field):
    rng = random.Random(17)
    p = field.char
    checked = 0
    for _ in range(40):
        n = rng.randrange(2, 9)
        rows = random_matrix(rng, field, rng.randrange(1, n), n, rng.choice((0.3, 1.0))).data
        sub = Subspace.from_spanning(field, n, rows)
        # the echelon hands its sparse reduced rows over as the cached entries
        assert sub._basis_entries() == [[(j, x) for j, x in enumerate(r) if x]
                                        for r in sub.basis]
        coords = [field.coerce(random_rational(rng)) for _ in range(sub.dim)]
        member = sub.linear_combination(coords)
        assert sub.coords_of(member) == coords
        # the same member written as raw Fractions, or unreduced mod p
        sub.coords_of([x + p for x in member] if p else [Fraction(x) for x in member])
        free = [j for j in range(n) if j not in sub.pivot_cols]
        if not free:
            continue
        bad = list(member)
        j = rng.choice(free)  # a non-pivot column: the coordinates read the same
        bad[j] = field.add(bad[j], field.coerce(random_rational(rng)) or field.one())
        with pytest.raises(ValueError):
            sub.coords_of(bad)
        checked += 1
    assert checked > 20


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])
def test_closure_is_the_smallest_invariant_span(field):
    rng = random.Random(23)
    p = field.char
    cases = []
    for _ in range(25):
        n = rng.randrange(1, 8)
        ops = [random_matrix(rng, field, n, n, rng.choice((0.2, 0.5)))
               for _ in range(rng.randrange(1, 4))]
        seeds = [[field.coerce(random_rational(rng)) if rng.random() < 0.4 else field.zero()
                  for _ in range(n)] for _ in range(rng.randrange(0, 3))]
        cases.append((n, ops, seeds))
    # closures that reach all of K^n: e_0 under the cyclic shift, alone, with
    # a second seed, and with a random operator after the shift
    for n in range(1, 8):
        shift = Matrix.from_pairs(field, [[((i - 1) % n, 1)] for i in range(n)], n)
        e0 = [1] + [0] * (n - 1)
        extra = random_matrix(rng, field, n, n, 0.5)
        cases += [(n, [shift], [e0]), (n, [shift], [e0, e0[::-1]]),
                  (n, [shift, extra], [e0])]
    full_cases = 0
    for n, ops, seeds in cases:
        # the fixed point of S -> span(S ∪ op S), by the plain-elimination oracle
        span = gauss_rref(seeds, p)
        while True:
            grown = gauss_rref(span + [dense_apply(field, op.data, v)
                                       for v in span for op in ops], p)
            if len(grown) == len(span):
                break
            span = grown
        c = closure(field, n, seeds, ops)
        assert [list(r) for r in c.basis] == span
        if len(span) == n:
            full_cases += 1
            assert c.pivot_cols == tuple(range(n)) and c == Subspace.full(field, n)
        # image_span of the closure: the span of every op applied to its basis
        img = image_span(ops, c)
        assert [list(r) for r in img.basis] == gauss_rref(
            [dense_apply(field, op.data, list(v)) for v in c.basis for op in ops], p)
    assert full_cases >= 5


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])
def test_combination_matches_repeated_sum(field):
    rng = random.Random(31)
    p = field.char
    # zero, negative, integer and Fraction coefficients (in field form over GF(p))
    fixed = [0, -2, 3, Fraction(-5, 3), Fraction(7, 2)]
    fixed = [field.coerce(c) if p else c for c in fixed] + [-1, 0]
    for rows, cols in [(1, 1), (3, 4), (5, 5), (0, 3), (4, 0), (8, 8)]:
        for _ in range(6):
            mats = [random_matrix(rng, field, rows, cols, rng.choice((0.0, 0.2, 0.6)))
                    for _ in range(rng.randrange(1, 5))]
            coords = [rng.choice(fixed) if rng.random() < 0.6
                      else field.coerce(random_rational(rng)) for _ in mats]
            # the oracle: the repeated sum of scaled plain lists (``scale`` itself
            # is a combination of one matrix, so it cannot be the reference)
            want = [[0] * cols for _ in range(rows)]
            for c, m in zip(coords, mats):
                want = mat_add(want, mat_scale(c, m.data))
            got = Matrix.combination(mats, coords)
            assert got.data == field_form(want, p) and (got.rows, got.cols) == (rows, cols)
            assert all(x for r in got.row_entries() for _, x in r)
            if p:
                assert all(0 <= x < p for r in got.data for x in r)
            else:
                assert_integer_first([x for r in got.data for x in r])
    # unit coordinates pick out their matrix as is; every coefficient zero gives zero
    m, m2 = random_matrix(rng, field, 3, 3, 0.5), random_matrix(rng, field, 3, 3, 0.5)
    assert Matrix.combination([m, m2], [0, 1]) is m2 and m2.scale(1) is m2
    assert Matrix.combination([m, m], [0, 0]) == Matrix.zeros(field, 3, 3)
    # matrices of different shapes cannot be combined
    with pytest.raises(ValueError):
        Matrix.combination([m, Matrix.zeros(field, 3, 2)], [1, 1])


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])
def test_restrict_operator_between_two_subspaces(field):
    rng = random.Random(37)
    p = field.char
    checked = raised = 0
    for _ in range(30):
        n, n2 = rng.randrange(1, 7), rng.randrange(1, 7)
        m = random_matrix(rng, field, n2, n, rng.choice((0.3, 0.7)))
        source = Subspace.from_spanning(field, n, random_rows(rng, field, rng.randrange(0, 4), n, 0.6))
        images = [dense_apply(field, m.data, list(b)) for b in source.basis]
        extra = random_rows(rng, field, rng.randrange(0, 3), n2, 0.5)
        target = Subspace.from_spanning(field, n2, images + extra)
        # the oracle: coordinates of m·b_k read at the pivots of target, which
        # must rebuild m·b_k exactly
        cols = []
        for img in images:
            coords = [img[c] for c in target.pivot_cols]
            rebuilt = [sum(c * t[j] for c, t in zip(coords, target.basis)) for j in range(n2)]
            assert field_form([rebuilt], p) == field_form([img], p)
            cols.append(coords)
        r = restrict_operator(m, source, target)
        assert (r.rows, r.cols) == (target.dim, source.dim)
        assert r.data == field_form(mat_transpose(cols, target.dim), p)
        checked += 1
        # a target that misses part of the image is refused
        image = Subspace.from_spanning(field, n2, images)
        if image.dim:
            smaller = Subspace.from_spanning(field, n2, [list(b) for b in image.basis[1:]])
            with pytest.raises(ValueError):
                restrict_operator(m, source, smaller)
            raised += 1
    assert checked == 30 and raised >= 10
    # without a target, the space itself: an invariant subspace maps into itself
    shift = Matrix.from_pairs(field, [[]] + [[(i, 1)] for i in range(3)], 4)  # e_i -> e_i+1
    tail = Subspace.from_spanning(field, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert restrict_operator(shift, tail) == restrict_operator(shift, tail, tail)
    assert restrict_operator(shift, tail).data == [[0, 0], [1, 0]]


def oracle_closure(field, seeds, ops):
    """The fixed point of S -> span(S ∪ op S), by plain elimination."""
    p = field.char
    span = gauss_rref(seeds, p)
    while True:
        grown = gauss_rref(span + [dense_apply(field, op.data, v) for v in span for op in ops], p)
        if len(grown) == len(span):
            return span
        span = grown


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])
def test_pair_native_subspaces_match_the_oracle(field):
    rng = random.Random(41)
    p = field.char
    contained = invariant = 0
    for _ in range(40):
        n = rng.randrange(1, 9)
        rows_a = random_rows(rng, field, rng.randrange(0, n + 2), n, rng.choice((0.2, 0.5, 1.0)))
        if rows_a and rng.random() < 0.4:  # b inside a: combinations of the rows of a
            rows_b = field_form([[sum(c * r[j] for c, r in zip(cs, rows_a)) for j in range(n)]
                                 for cs in ([field.coerce(random_rational(rng)) for _ in rows_a]
                                            for _ in range(rng.randrange(1, 4)))], p)
        else:
            rows_b = random_rows(rng, field, rng.randrange(0, n + 2), n, 0.4)
        a = Subspace.from_spanning(field, n, rows_a)
        b = Subspace.from_spanning(field, n, rows_b)
        # the stored pairs, their pivots and the lazy dense view
        assert [list(r) for r in a.basis] == gauss_rref(rows_a, p)
        assert a.basis is a.basis and all(type(r) is tuple for r in a.basis)
        assert a._basis_entries() == [[(j, x) for j, x in enumerate(r) if x] for r in a.basis]
        assert a.pivot_cols == tuple(next(j for j, x in enumerate(r) if x) for r in a.basis)
        # to_echelon loads the pivot rows that elimination of the basis stores
        ech = Echelon(field, n)
        for r in a.basis:
            ech.add(r)
        loaded = a.to_echelon()
        assert loaded.pivots == ech.pivots and loaded.subspace() == a
        # sum and containment, through the pairs of the other operand
        both = gauss_rref(rows_a + rows_b, p)
        assert [list(r) for r in a.sum(b).basis] == both == [list(r) for r in b.sum(a).basis]
        assert a.contains_space(b) == (len(both) == a.dim)
        assert b.contains_space(a) == (len(both) == b.dim)
        assert a.contains_space(a.sum(b)) == (len(both) == a.dim) and a.contains_space(a)
        contained += a.contains_space(b)
        # the combination of a space of flattened matrices, as a matrix
        coords = [field.coerce(random_rational(rng)) for _ in range(a.dim)]
        shape = (2, n // 2) if n % 2 == 0 else (1, n)
        assert a.combination_matrix(coords, *shape) == from_flat(
            field, a.linear_combination(coords), *shape)
        # and its basis, one matrix per stored row; a shape of another size is refused
        assert a.basis_maps(*shape) == [from_flat(field, r, *shape) for r in a.basis]
        with pytest.raises(ValueError):
            a.basis_maps(shape[0] + 1, shape[1])
        # closure of random seeds, and the operators restricted to it
        ops = [random_matrix(rng, field, n, n, rng.choice((0.2, 0.5)))
               for _ in range(rng.randrange(1, 3))]
        seeds = random_rows(rng, field, rng.randrange(0, 3), n, 0.4)
        c = closure(field, n, seeds, ops)
        span = oracle_closure(field, seeds, ops)
        assert [list(r) for r in c.basis] == span
        if 0 < c.dim < n:
            invariant += 1
        for op in ops:
            assert restrict_operator(op, c).data == restricted_action(op.data, span, p)
    assert contained >= 10 and invariant >= 5
    for n in range(8):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        full = Subspace.full(field, n)
        assert full == Subspace.from_spanning(field, n, eye)
        assert full.to_echelon().pivots == Subspace.from_spanning(field, n, eye).to_echelon().pivots
        assert [list(r) for r in full.basis] == eye
        for s in (full, Subspace.zero(field, n)):
            assert s.basis_maps(1, n) == [from_flat(field, r, 1, n) for r in s.basis]


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])
def test_closure_is_the_closure_by_images(field):
    rng = random.Random(47)
    cases = []
    for _ in range(40):
        n = rng.randrange(1, 9)
        ops = [random_matrix(rng, field, n, n, rng.choice((0.15, 0.3, 0.6)))
               for _ in range(rng.randrange(0, 4))]
        seeds = random_rows(rng, field, rng.randrange(0, 4), n, rng.choice((0.3, 0.7)))
        cases.append((n, ops, seeds))
    for n in (1, 4, 7):
        shift = Matrix.from_pairs(field, [[((i - 1) % n, 1)] for i in range(n)], n)
        e0 = [field.one()] + [field.zero()] * (n - 1)
        eye = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
        cases += [
            (n, [shift], []),                                   # no seeds
            (n, [Matrix.zeros(field, n, n)], [e0]),             # a zero operator
            (n, [Matrix.zeros(field, n, n), shift], [e0]),      # zero, then full rank
            (n, [shift, random_matrix(rng, field, n, n, 0.5)], [e0]),
            (n, [random_matrix(rng, field, n, n, 0.5)], eye + [e0]),  # full from the seeds
        ]
    full = rational = 0
    for n, ops, seeds in cases:
        got = closure(field, n, seeds, ops)
        assert got == closure_by_images(field, n, seeds, ops)
        full += got.is_full
        rational += any(type(x) is Fraction for op in ops for r in op.row_entries()
                        for _, x in r)
    assert full >= 9
    if not field.char:  # operators with Fraction entries, against integer pivot rows
        assert rational >= 20


@pytest.mark.parametrize("field", [QQ, GF32003], ids=["q", "gf32003"])
def test_a_space_is_invariant_iff_it_is_its_own_closure(field):
    rng = random.Random(53)
    invariant = 0
    for _ in range(60):
        n = rng.randrange(1, 8)
        ops = [random_matrix(rng, field, n, n, rng.choice((0.15, 0.3, 0.6)))
               for _ in range(rng.randrange(0, 3))]
        seeds = random_rows(rng, field, rng.randrange(0, 4), n, rng.choice((0.3, 0.7)))
        space = Subspace.from_spanning(field, n, seeds)
        # closures are invariant; a random span mostly is not
        for s in (space, closure(field, n, seeds, ops)):
            got = is_invariant(s, ops)
            assert got == (closure(field, n, s.basis, ops) == s)
            invariant += got
    assert 0 < invariant < 120
