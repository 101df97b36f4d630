"""Independent brute-force oracles used to freeze expected test values.

Deliberately naive and separate from the package under test: plain
Fraction Gauss elimination, hand-assembled constraint systems.  Anything
asserted against package output was first computed here (or by hand).
The last section holds the few helpers that only tests call, kept out of
the package.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

from diffoplab.algebra import FiniteAlgebra, flat_parities
from diffoplab.bimodule import SandwichModule, regular_bimodule, tensor_algebra_module
from diffoplab.cecalc import SuperExterior, form_scalings, linearity_rows
from diffoplab.homspace import ACTION_KINDS, HomSpace
from diffoplab.jets import hom_space_out_of_jet
from diffoplab.linalg import (
    Echelon,
    Matrix,
    Subspace,
    closure,
    factor_through,
    image_span,
    kernel,
    kernel_on,
    preimage,
    vstack,
)


def frac_rows(rows):
    return [[Fraction(x) for x in r] for r in rows]


def gauss_rank(rows):
    """Row reduce a list of Fraction rows, returning the rank."""
    m = [r[:] for r in frac_rows(rows)]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / pr[c]
                m[i] = [a - f * b for a, b in zip(m[i], pr)]
        rank += 1
    return rank


def nullity(rows):
    cols = len(rows[0])
    return cols - gauss_rank(rows)


def gauss_solve(rows, rhs):
    """Solve A x = b; returns one solution or None if inconsistent."""
    m = [r[:] + [b] for r, b in zip(frac_rows(rows), [Fraction(x) for x in rhs])]
    cols = len(rows[0])
    rank = 0
    pivots = []
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / pr[c]
                m[i] = [a - f * b for a, b in zip(m[i], pr)]
        pivots.append(c)
        rank += 1
    for i in range(rank, len(m)):
        if m[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = m[r][cols] / m[r][c]
    return x


def _scalars(rows, p):
    """Fraction rows, or rows of residues mod p when p is given."""
    if not p:
        return frac_rows(rows)
    return [[Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p
             for x in r] for r in rows]


def _div(a, b, p):
    return a * pow(b, -1, p) % p if p else a / b


def _sub_mul(a, f, b, p):
    return (a - f * b) % p if p else a - f * b


def gauss_nullspace(rows, p=0):
    """Basis of {x : A x = 0} by plain elimination (independent route).

    Over the rationals, or over GF(p) when ``p`` is given.
    """
    m = _scalars(rows, p)
    cols = len(m[0]) if m else 0
    rank = 0
    pivots = []
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = _div(m[i][c], pr[c], p)
                m[i] = [_sub_mul(a, f, b, p) for a, b in zip(m[i], pr)]
        pivots.append(c)
        rank += 1
    pivot_set = set(pivots)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    out = []
    for fc in range(cols):
        if fc in pivot_set:
            continue
        v = [zero] * cols
        v[fc] = one
        for r, pc in enumerate(pivots):
            v[pc] = _sub_mul(zero, one, _div(m[r][fc], m[r][pc], p), p)
        out.append(v)
    return out


def gauss_rref(rows, p=0):
    """Non-zero rows of the reduced row echelon form, by plain elimination.

    Over the rationals, or over GF(p) when ``p`` is given.
    """
    m = _scalars(rows, p)
    cols = len(m[0]) if m else 0
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        m[rank] = [_div(x, m[rank][c], p) for x in m[rank]]
        pr = m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [_sub_mul(a, f, b, p) for a, b in zip(m[i], pr)]
        rank += 1
    return m[:rank]


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def multiplication_matrix(table, n):
    """The multiplication map A⊗A → A of an n-dim algebra as an n × n² matrix.

    ``table[i][j]`` is the coordinate list of e_i e_j.
    """
    cols = []
    for i in range(n):
        for j in range(n):
            cols.append([Fraction(x) for x in table[i][j]])
    return [[cols[c][r] for c in range(n * n)] for r in range(n)]


def leibniz_solution_dim(table, n):
    """dim of {u : K^n→K^n linear, u(e_i e_j) = u(e_i)e_j + e_i u(e_j)}.

    Hand assembly: unknowns u[r][c] flattened row-major; one constraint row
    per (i, j, output coordinate).
    """
    def mul_coords(x, y):
        out = [Fraction(0)] * n
        for i in range(n):
            if x[i] == 0:
                continue
            for j in range(n):
                if y[j] == 0:
                    continue
                for k in range(n):
                    out[k] += x[i] * y[j] * Fraction(table[i][j][k])
        return out

    def basis(i):
        v = [Fraction(0)] * n
        v[i] = Fraction(1)
        return v

    rows = []
    for i in range(n):
        for j in range(n):
            prod_ij = [Fraction(table[i][j][k]) for k in range(n)]
            for out_k in range(n):
                row = [Fraction(0)] * (n * n)
                # u(e_i e_j) term
                for m in range(n):
                    if prod_ij[m] != 0:
                        row[out_k * n + m] += prod_ij[m]
                # -u(e_i) e_j term: (u(e_i) e_j)_k = sum_m u[m][i] (e_m e_j)_k
                for m in range(n):
                    row[m * n + i] -= Fraction(table[m][j][out_k])
                # -e_i u(e_j) term
                for m in range(n):
                    row[m * n + j] -= Fraction(table[i][m][out_k])
                rows.append(row)
    return nullity(rows)


def center_dim(table, n):
    """dim of {z : z e_i = e_i z for all i} by direct constraint assembly."""
    rows = []
    for i in range(n):
        for k in range(n):
            row = [Fraction(table[j][i][k]) - Fraction(table[i][j][k])
                   for j in range(n)]
            rows.append(row)
    return nullity(rows)


def random_rational(rng, span=6):
    num = rng.randrange(-span, span + 1)
    den = rng.randrange(1, 4)
    return Fraction(num, den)



def _integer_first(x):
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


def gauss_inverse(rows, p=0):
    """Inverse of a square matrix by plain elimination on [A | I]; None if singular.

    Over the rationals (entries in integer-first form: an int when integral),
    or over GF(p) when ``p`` is given.
    """
    n = len(rows)
    red = gauss_rref([list(r) + [int(i == j) for j in range(n)]
                      for i, r in enumerate(rows)], p)
    if any(red[i][i] != 1 for i in range(n)):
        return None
    return [[_integer_first(x) for x in r[n:]] for r in red]


def inverse(m):
    """Inverse of a square package matrix, by ``gauss_inverse`` on its entries."""
    if m.cols != m.rows:
        raise ValueError("matrix is not square")
    rows = gauss_inverse(m.data, m.field.char)
    if rows is None:
        raise ValueError("matrix is singular")
    return type(m)(m.field, rows, m.rows)


def inversion_quotient_projection(basis, n, p=0):
    """Coset representatives of K^n/span(basis) and the projection onto them.

    The construction the inversion-free ``quotient_projection`` replaced:
    the representatives are the first unit vectors that extend the
    (independent) ``basis``, and the projection is the trailing rows of the
    inverse of the matrix whose columns are [basis | reps].
    """
    reps = []
    for j in range(n):
        unit = [int(i == j) for i in range(n)]
        if len(gauss_rref(list(basis) + reps + [unit], p)) > len(basis) + len(reps):
            reps.append(unit)
    columns = list(basis) + reps
    inv = gauss_inverse([[c[i] for c in columns] for i in range(n)], p)
    return reps, inv[len(basis):]


# -- plain-list matrix reference ------------------------------------------------
#
# Lists of rows, every entry written out, zeros included; the arithmetic is
# plain ``+``/``*`` on ints and Fractions, and ``field_form`` brings the
# result into the form the package keeps its scalars in.


def field_form(rows, p=0):
    """Entries as residues mod p, or (p = 0) as integer-first rationals."""
    return [[x % p if p else _integer_first(Fraction(x)) for x in r] for r in rows]


def mat_add(a, b, sign=1):
    return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in r] for r in a]


def mat_transpose(a, cols):
    """Transpose of the len(a)×cols matrix a (cols is needed when a has no rows)."""
    return [[r[j] for r in a] for j in range(cols)]


def mat_identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_kron(a, b):
    """Kronecker product: entry (i·rows(b) + k, j·cols(b) + l) is a[i][j]·b[k][l]."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def mat_hstack(a, b):
    return [ra + rb for ra, rb in zip(a, b)]


# -- one-sided duals -------------------------------------------------------------
#
# A functional u: Q → A is the (dim A)×(dim Q) matrix U, flattened row-major,
# so U ↦ X U Y is the Kronecker product X ⊗ Yᵀ.  The constraint families are
# written out from the action matrices of A and Q, with no Hom space.


def dual_flat_families(a_left, a_right, q_left, q_right, q_dim):
    """U ↦ L_A(e_i)U, R_A(e_i)U, U L_Q(e_i), U R_Q(e_i), each a list over i."""
    eye_a, eye_q = mat_identity(len(a_left)), mat_identity(q_dim)
    return ([mat_kron(x, eye_q) for x in a_left], [mat_kron(x, eye_q) for x in a_right],
            [mat_kron(eye_a, mat_transpose(x, q_dim)) for x in q_left],
            [mat_kron(eye_a, mat_transpose(x, q_dim)) for x in q_right])


def dual_oracle(a_left, a_right, q_left, q_right, q_dim, p=0):
    """The right, left and two-sided duals of Q as reduced echelon bases.

    Right A-linear: u(x e_i) = u(x) e_i, the kernels of
    kron(I, R_Q(e_i)ᵀ) − kron(R_A(e_i), I), acted on by L_A (left) and the
    precomposition with L_Q (right).  Left A-linear mirrors it:
    kron(I, L_Q(e_i)ᵀ) − kron(L_A(e_i), I), acted on by the precomposition
    with R_Q (left) and by R_A (right).  Returns {side: (basis, left
    actions, right actions)} for "right" and "left", and the basis of the
    two-sided dual under "both".
    """
    la, ra, lq, rq = dual_flat_families(a_left, a_right, q_left, q_right, q_dim)
    right = [row for x, y in zip(rq, ra) for row in mat_add(x, y, -1)]
    left = [row for x, y in zip(lq, la) for row in mat_add(x, y, -1)]

    def ker(rows):
        return gauss_rref(gauss_nullspace(rows, p), p)

    return {"right": (ker(right), la, lq), "left": (ker(left), rq, ra),
            "both": ker(right + left)}


def restricted_action(op, basis, p=0):
    """The matrix of ``op`` on span(basis), for a reduced echelon ``basis`` that
    ``op`` keeps: column j holds the pivot entries of op·b_j."""
    pivots = [next(c for c, x in enumerate(b) if x != 0) for b in basis]
    cols = []
    for b in basis:
        img = [sum(x * y for x, y in zip(row, b) if x and y) for row in op]
        coords = [img[c] for c in pivots]
        for k, x in enumerate(img):
            rest = x - sum(c * v[k] for c, v in zip(coords, basis) if c and v[k])
            if rest % p if p else rest:
                raise ValueError("the operator does not keep the span")
        cols.append(coords)
    return field_form(mat_transpose(cols, len(basis)), p)


def cartan_relations_by_elements(pair):
    """The structure identities of a Cartan pair checked one element at a time:
    per dual basis functional u_r, (bu)^ = b·û for each basis b, and
    û(ba) = û(b)a + (ub)^(a) for each basis pair (left pair mirrored), each
    hat built through ``pair.hat`` from a dense column of a dual action."""
    alg = pair.algebra
    f = alg.field
    n = alg.dim
    # a dual action on the r-th basis functional is column r of its matrix
    left, right = pair.dual.bimodule.left, pair.dual.bimodule.right
    for r, u_hat in enumerate(pair.hat_basis()):
        for i in range(n):
            scaled = left[i].col(r) if pair.side == "right" else right[i].col(r)
            lhs = pair.hat(scaled)
            rhs = (alg.left_mult_basis(i) @ u_hat if pair.side == "right"
                   else alg.right_mult_basis(i) @ u_hat)
            if lhs != rhs:
                return False
        for i, j in product(range(n), repeat=2):
            if pair.side == "right":
                moved = right[i].col(r)                       # ub
                lhs = u_hat.apply(alg.sc[i][j])               # û(e_i e_j)
                rhs = alg.right_mult_basis(j).apply(
                    u_hat.col(i))                             # û(e_i)·e_j
                rhs2 = pair.hat(moved).col(j)                 # (u e_i)^(e_j)
            else:
                moved = left[j].col(r)                        # bu
                lhs = u_hat.apply(alg.sc[i][j])               # û(e_i e_j)
                rhs = alg.left_mult_basis(i).apply(
                    u_hat.col(j))                             # e_i·û(e_j)
                rhs2 = pair.hat(moved).col(i)                 # (e_j u)^(e_i)
            want = [f.add(x, y) for x, y in zip(rhs, rhs2)]
            if lhs != want:
                return False
    return True


def _tuple_position(t, d):
    """Position of the tuple ``t`` among all tuples over range(d), lexicographically."""
    pos = 0
    for x in t:
        pos = pos * d + x
    return pos


def ce_form_rows(n, d, degree, center_mults, center_coords):
    """Dense constraint rows of the alternating, center-multilinear degree-k
    forms on all n·d^k (tuple, value coordinate) coordinates.

    ``center_mults[z]`` is the dense left multiplication by the z-th center
    basis element, ``center_coords[z][i]`` the coordinates of z·u_i in the
    derivation basis.  Alternation: φ(t) + φ(t with slots s, s+1 swapped) = 0
    for every tuple and adjacent pair (a repeated pair gives 2φ(t) = 0).
    Center-linearity in every slot: φ(.., z·u_{t_s}, ..) − z·φ(t) = 0.
    """
    width = n * d ** degree
    rows = []
    for t in product(range(d), repeat=degree):
        at = _tuple_position(t, d) * n
        for s in range(degree - 1):
            swapped = list(t)
            swapped[s], swapped[s + 1] = swapped[s + 1], swapped[s]
            to = _tuple_position(swapped, d) * n
            for m in range(n):
                row = [0] * width
                row[at + m] += 1
                row[to + m] += 1
                rows.append(row)
        for lz, zc in zip(center_mults, center_coords):
            for s in range(degree):
                for m in range(n):
                    row = [0] * width
                    for r, c in enumerate(zc[t[s]]):
                        replaced = list(t)
                        replaced[s] = r
                        row[_tuple_position(replaced, d) * n + m] += c
                    for m2, v in enumerate(lz[m]):
                        row[at + m2] -= v
                    rows.append(row)
    return rows


def ce_coboundary_all_tuples(algebra, der, degree):
    """The Chevalley–Eilenberg coboundary on every argument tuple, one term at
    a time: the Matrix of

        dφ(u_0..u_k) = Σ (−1)^i u_i(φ(..û_i..))
                     + Σ_{i<j} (−1)^{i+j} φ([u_i,u_j], ..û_i..û_j..)

    from all n·d^k (tuple, value coordinate) coordinates to all n·d^(k+1).
    Exact on every multilinear cochain, alternating or not."""
    n = algebra.dim
    d = der.dim
    maps = der.basis_maps()
    bracket = [[der.coords_of(u @ v - v @ u) for v in maps] for u in maps]
    map_rows = [u.row_entries() for u in maps]
    out = [{} for _ in range(n * d ** (degree + 1))]  # {col: value} per row, plain sums
    for t in product(range(d), repeat=degree + 1):
        at = _tuple_position(t, d) * n
        for i in range(degree + 1):
            to = _tuple_position(t[:i] + t[i + 1:], d) * n
            for m in range(n):
                for m2, v in map_rows[t[i]][m]:
                    out[at + m][to + m2] = out[at + m].get(to + m2, 0) + (-1) ** i * v
        for i in range(degree + 1):
            for j in range(i + 1, degree + 1):
                rest = tuple(x for s, x in enumerate(t) if s not in (i, j))
                for r, c in enumerate(bracket[t[i]][t[j]]):
                    if c:
                        to = _tuple_position((r,) + rest, d) * n
                        for m in range(n):
                            out[at + m][to + m] = out[at + m].get(to + m, 0) + (-1) ** (i + j) * c
    return Matrix.from_entries(algebra.field, [row.items() for row in out], n * d ** degree)


def spread_alternating(field, normal, n, d, k):
    """An alternating k-cochain given on the n·C(d, k) increasing-tuple
    coordinates, spread over all n·d^k: each tuple takes the values of its
    sorted tuple with the sign of the sorting, zero where an argument repeats."""
    flat = [field.zero()] * (n * d ** k)
    for at, increasing in enumerate(combinations(range(d), k)):
        values = list(normal[at * n:(at + 1) * n])
        for t in permutations(increasing):
            inversions = sum(1 for i in range(k) for j in range(i + 1, k) if t[i] > t[j])
            lo = _tuple_position(t, d) * n
            flat[lo:lo + n] = values if inversions % 2 == 0 else [field.neg(v) for v in values]
    return flat


def increasing_values(flat, n, d, k):
    """A k-cochain on all n·d^k coordinates read at the increasing tuples only."""
    return [x for t in combinations(range(d), k)
            for x in flat[_tuple_position(t, d) * n:(_tuple_position(t, d) + 1) * n]]


def all_tuple_wedge(algebra, d, phi_flat, r, psi_flat, s):
    """The shuffle product of an r-cochain and an s-cochain on all tuples:

        (φ∧ψ)(t) = Σ_S sign(S) φ(t_S)·ψ(t_{S^c})

    over every r-subset S of the positions, the sign that of the shuffle
    S, S^c; a degree-0 factor multiplies every value."""
    n = algebra.dim
    f = algebra.field

    def value(flat, t):
        at = _tuple_position(t, d) * n
        return flat[at:at + n]

    out = []
    for t in product(range(d), repeat=r + s):
        acc = [f.zero()] * n
        for subset in combinations(range(r + s), r):
            comp = [x for x in range(r + s) if x not in subset]
            inversions = sum(1 for a in subset for b in comp if a > b)
            val = algebra.multiply(value(phi_flat, [t[x] for x in subset]),
                                   value(psi_flat, [t[x] for x in comp]))
            for m in range(n):
                if val[m] != 0:
                    acc[m] = f.add(acc[m], val[m] if inversions % 2 == 0 else f.neg(val[m]))
        out.extend(acc)
    return out


def super_normal_form(factors, parity):
    """A super wedge of derivation basis elements in normal form, by insertion sort.

    Returns (sign, (evens, odds)) with the even indices strictly and the odd
    ones weakly increasing, or None when a repeated even factor kills it.
    Passing one factor over another costs −1 unless both are odd.
    """
    fs = list(factors)
    sign = 1
    for i in range(1, len(fs)):
        j = i
        while j > 0 and (parity[fs[j - 1]], fs[j - 1]) > (parity[fs[j]], fs[j]):
            if not (parity[fs[j - 1]] and parity[fs[j]]):
                sign = -sign
            fs[j - 1], fs[j] = fs[j], fs[j - 1]
            j -= 1
    if any(x == y and not parity[x] for x, y in zip(fs, fs[1:])):
        return None
    return sign, (tuple(x for x in fs if not parity[x]), tuple(x for x in fs if parity[x]))


def graded_a_linear_rows(n, der_parity, alg_parity, left_mults, scaled, degree):
    """Dense A-linearity rows of the graded degree-k cochains, from every
    argument tuple and every slot, and the parity of each flat coordinate.

    The coordinates are (normal-form monomial, value coordinate), with the
    monomials in sorted (evens, odds) order.  ``left_mults[a]`` is the dense
    left multiplication by e_a and ``scaled[a][i]`` the coordinates of e_a·u_i.
    Scaling slot t crosses the factors before it:
    c(..a·u_{i_t}..) − (−1)^{[a]([u_{i_1}]+…+[u_{i_{t−1}}])} a·c(..u_{i_t}..) = 0.
    """
    d = len(der_parity)
    tuples = list(product(range(d), repeat=degree))
    monomials = sorted({nf[1] for t in tuples
                        if (nf := super_normal_form(t, der_parity)) is not None})
    at = {mono: i * n for i, mono in enumerate(monomials)}
    width = n * len(monomials)
    rows = []
    for t in tuples:
        base = super_normal_form(t, der_parity)
        for s in range(degree):
            prefix = sum(der_parity[x] for x in t[:s]) % 2
            for a in range(n):
                cross = -1 if alg_parity[a] and prefix else 1
                for m in range(n):
                    row = [0] * width
                    for b, c in enumerate(scaled[a][t[s]]):
                        nf = super_normal_form(t[:s] + (b,) + t[s + 1:], der_parity)
                        if c and nf is not None:
                            row[at[nf[1]] + m] += nf[0] * c
                    if base is not None:
                        for m2, v in enumerate(left_mults[a][m]):
                            row[at[base[1]] + m2] -= cross * base[0] * v
                    rows.append(row)
    parities = [(len(mono[1]) + alg_parity[m]) % 2 for mono in monomials for m in range(n)]
    return rows, parities


# The two systems below are the package's own linearity rows with one row
# block per basis vector, not per generator: they differ from the builders
# only in the reduction to generators, which is what they check.


def all_basis_ce_forms(algebra, der, degree):
    """The increasing-tuple kernel of the degree-k center-multilinear forms,
    under one block of linearity rows per center basis element."""
    n = algebra.dim
    ext = SuperExterior([0] * der.dim)
    rows = linearity_rows(ext, degree, n, form_scalings(der, algebra.center().basis))
    return kernel(Matrix.from_entries(algebra.field, rows, n * len(ext.monomials(degree))))


def all_basis_a_linear_forms(algebra, der, degree):
    """The A-linear graded degree-k cochains, under one block of linearity
    rows per basis vector of A, each parity apart."""
    n = algebra.dim
    ext = SuperExterior(der.basis_parities())
    scalings = form_scalings(der, map(algebra.basis_vector, range(n)))
    system = Matrix.from_entries(algebra.field, linearity_rows(ext, degree, n, scalings),
                                 n * len(ext.monomials(degree)))
    flat = flat_parities([ext.monomial_parity(mono) for mono in ext.monomials(degree)],
                         algebra.parity)
    even, odd = (kernel_on(system, [j for j, p in enumerate(flat) if p == par])
                 for par in (0, 1))
    return even.sum(odd)


# The operator-layer systems below impose each "for all a in A" condition
# once per basis element of A, with every family member: the package solves
# them on the generators of A, which is what they check.


def all_basis_family(hom, kind):
    """Every member of the flat family ``kind`` of ``hom``, one per basis element."""
    if kind in ACTION_KINDS:
        return hom.action_ops(kind)
    return {"delta": hom.delta_ops, "bar_delta": hom.bar_delta_ops,
            "graded_delta": hom.graded_delta_ops}[kind]()


def all_basis_common_kernel(hom, *kinds):
    return kernel(vstack([m for kind in kinds for m in all_basis_family(hom, kind)]))


def all_basis_preimage(hom, kind, target):
    return preimage(all_basis_family(hom, kind), target)


def all_basis_action_closure(hom, kind, target, actions):
    ops = [m for name in actions for m in all_basis_family(hom, name)]
    return closure(hom.algebra.field, hom.dim, all_basis_preimage(hom, kind, target).basis, ops)


def all_basis_lunts(hom, side, r):
    """The center-form inductive filtration I_0 ⊆ … ⊆ I_r of one side."""
    kind, actions = {"left": ("delta", ("left", "left_bullet")),
                     "right": ("bar_delta", ("right", "right_bullet"))}[side]
    terms = [Subspace.zero(hom.algebra.field, hom.dim)]
    for _ in range(r + 1):
        terms.append(all_basis_action_closure(hom, kind, terms[-1], actions))
    return terms[1:]


def all_basis_vanishing_chain(hom, kind, k):
    chain = [all_basis_preimage(hom, kind, Subspace.zero(hom.algebra.field, hom.dim))]
    for _ in range(k):
        chain.append(all_basis_preimage(hom, kind, chain[-1]))
    return chain


def all_basis_dv_first_order(hom):
    return all_basis_preimage(hom, "bar_delta", all_basis_common_kernel(hom, "delta"))


def all_basis_action_span(hom, kind, target, action):
    """The span of mΦ for every member m of the action family ``action`` and
    every Φ in the all-basis preimage of ``target``."""
    return image_span(all_basis_family(hom, action), all_basis_preimage(hom, kind, target))


def _all_basis_presented_step(hom, side, prev):
    kind, action = {"left": ("delta", "left"), "right": ("bar_delta", "right")}[side]
    return all_basis_action_span(hom, kind, prev, action).sum(prev)


def all_basis_lunts_presented(hom, side, r):
    """The presented inductive filtration I_0 ⊆ … ⊆ I_r of one side:
    I_r = span{b·Φ : δ_aΦ ∈ I_{r−1} for all a} + I_{r−1}."""
    terms = [Subspace.zero(hom.algebra.field, hom.dim)]
    for _ in range(r + 1):
        terms.append(_all_basis_presented_step(hom, side, terms[-1]))
    return terms[1:]


def all_basis_two_sided(hom, r):
    """The two-sided filtration: the span of the center-form order-0 terms of
    both sides, then the meet of the two presented steps."""
    terms = [all_basis_lunts(hom, "left", 0)[0].sum(all_basis_lunts(hom, "right", 0)[0])]
    for _ in range(r):
        prev = terms[-1]
        terms.append(_all_basis_presented_step(hom, "left", prev)
                     .intersect(_all_basis_presented_step(hom, "right", prev)))
    return terms


def all_pairs_derivations(algebra, target, graded=False):
    """The Q-valued derivations of A, or the graded ones, from the Leibniz rule
    on every pair of basis elements: one dense row per pair (i, j) and
    coordinate r of Q, of U(e_i e_j) − U(e_i)e_j − s·e_i U(e_j) = 0."""
    n, mq = algebra.dim, target.dim

    def system(odd):
        rows = []
        for i, j, r in product(range(n), range(n), range(mq)):
            sign = -1 if odd and algebra.parity[i] else 1
            row = [0] * (mq * n)
            for m, x in enumerate(algebra.sc[i][j]):
                row[r * n + m] += x
            right, left = target.right[j].row(r), target.left[i].row(r)
            for s in range(mq):
                row[s * n + i] -= right[s]
                row[s * n + j] -= sign * left[s]
            rows.append(row)
        return Matrix.from_rows(algebra.field, rows)

    if not graded:
        return kernel(system(False))
    flat = flat_parities(target.parity, algebra.parity)
    even, odd = (kernel_on(system(par), [c for c, p in enumerate(flat) if p == par])
                 for par in (0, 1))
    return even.sum(odd)


def all_pairs_two_sided_jet_relations(algebra, p):
    """μ¹ inside A ⊗ P ⊗ A: the closure of δ_bδ̄_c(1⊗e_l⊗1) for every pair
    (b, c) of basis elements and every basis vector e_l of P, under all 2n
    outer actions."""
    f, n, m = algebra.field, algebra.dim, p.dim
    sw = SandwichModule(algebra, p)
    units = []
    for l in range(m):
        vec = [0] * sw.dim
        for x, y in product(range(n), repeat=2):
            vec[(x * m + l) * n + y] = f.mul(algebra.unit[x], algebra.unit[y])
        units.append(vec)
    seeds = [(sw.bimodule.right[c] - sw.middle("right", c)).apply(
                 (sw.bimodule.left[b] - sw.middle("left", b)).apply(vec))
             for vec in units for b, c in product(range(n), repeat=2)]
    return closure(f, sw.dim, seeds, sw.bimodule.left + sw.bimodule.right)


def all_basis_jet_relations(algebra, p, k):
    """μ^{k+1} inside A ⊗ P: the closure of the (k+1)-fold δ images under
    both actions of every basis element."""
    ambient = tensor_algebra_module(algebra, p)
    n = algebra.dim
    deltas = [ambient.left[i] - ambient.right[i] for i in range(n)]
    level = Subspace.full(algebra.field, ambient.dim)
    for _ in range(k + 1):
        level = image_span(deltas, level)
    return closure(algebra.field, ambient.dim, level.basis, ambient.left + ambient.right)


def all_basis_iterated_delta_vanishes(hom, phi, k):
    level = Subspace.from_spanning(hom.algebra.field, hom.dim, [phi.flatten()])
    for _ in range(k + 1):
        level = image_span(hom.delta_ops(), level)
    return level.dim == 0


def truncated_free_algebra(letters, length, field):
    """K⟨letters⟩ modulo the words of ``length`` letters or more: the words
    shorter than that, multiplied by concatenation."""
    words = [""] + ["".join(w) for m in range(1, length) for w in product(letters, repeat=m)]
    at = {w: i for i, w in enumerate(words)}
    n = len(words)
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for u, v in product(words, repeat=2):
        if len(u + v) < length:
            sc[at[u]][at[v]][at[u + v]] = 1
    return FiniteAlgebra(field, n, [w or "1" for w in words], sc, [1] + [0] * (n - 1),
                         name=f"free({letters})/{length}")


def changed_basis(algebra, seed):
    """``algebra`` in the basis f_i = Σ_k S[k][i] e_k, for a seeded integer S
    of determinant ±1 (a permuted product of unitriangular factors), so the
    new structure constants, unit and S⁻¹ stay integral over every field."""
    rng = random.Random(seed)
    n = algebra.dim
    low = [[int(i == j) if i <= j else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
    up = [[int(i == j) if i >= j else rng.randint(-2, 2) for j in range(n)] for i in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    s = [mat_mul(low, up)[perm[i]] for i in range(n)]
    inv = gauss_inverse(s)
    sc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, j in product(range(n), repeat=2):
        prod_ij = [0] * n  # f_i f_j in the old basis
        for a, b in product(range(n), repeat=2):
            c = s[a][i] * s[b][j]
            if c:
                for k, x in enumerate(algebra.sc[a][b]):
                    if x:
                        prod_ij[k] += c * int(x)
        for m in range(n):
            sc[i][j][m] = sum(inv[m][k] * prod_ij[k] for k in range(n))
    unit = [sum(inv[m][k] * int(algebra.unit[k]) for k in range(n)) for m in range(n)]
    return FiniteAlgebra(algebra.field, n, [f"f{i}" for i in range(n)], sc, unit,
                         name=f"{algebra.name}[basis{seed}]")


# -- helpers that only tests call ------------------------------------------------


def permuted_spec(algebra, seed):
    """The JSON spec of ``algebra`` with its basis relabelled by a seeded
    permutation: structure constants, unit, names and parities move along."""
    rng = random.Random(seed)
    n = algebra.dim
    new = list(range(n))
    rng.shuffle(new)  # basis vector i becomes basis vector new[i]
    old = sorted(range(n), key=new.__getitem__)
    spec = algebra.to_json_dict()
    spec["basis"] = [spec["basis"][i] for i in old]
    spec["unit"] = [spec["unit"][i] for i in old]
    spec["sc"] = [[new[i], new[j], new[k], v] for i, j, k, v in spec["sc"]]
    if "parity" in spec:
        spec["parity"] = [spec["parity"][i] for i in old]
    spec["name"] += f"[perm{seed}]"
    return spec


def from_flat(field, flat, rows, cols):
    """The rows×cols ``Matrix`` whose row-major flattening is the dense vector
    ``flat``, of scalars in the field's form."""
    if len(flat) != rows * cols:
        raise ValueError("flat vector length does not match the shape")
    return Matrix(field, [list(flat[i * cols:(i + 1) * cols]) for i in range(rows)], cols)


def two_sided_dual_space(q):
    """Functionals on Q that are both left and right A-linear, in the flat
    coordinates of Hom_K(Q, A): the bimodule maps Q → A."""
    return HomSpace(q, regular_bimodule(q.algebra)).common_kernel("delta", "bar_delta")


def closure_by_images(field, ambient_dim, seeds, operators):
    """``linalg.closure`` as it was first written sparse: it queues each seed
    and each image that adds to the span, as its sorted pairs in the field's
    scalar form, and reduces every image from those pairs."""
    ech = Echelon(field, ambient_dim)
    added = [s for s in ([(j, x) for j, x in enumerate(v) if x] for v in seeds)
             if ech.rank < ambient_dim and ech.add_entries(s)]
    for v in added:  # the list grows while it is walked
        for op in operators:
            if ech.rank == ambient_dim:
                return ech.subspace()
            w = op._apply_pairs(v)
            if ech.add_entries(w):
                added.append(w)
    return ech.subspace()


def duality_round_trip_by_factoring(hom, hom_space, d0, der):
    """The round trip of ``cecalc.ce_duality_check`` one map at a time: each
    basis derivation u factors uniquely as φ_u∘d0 with φ_u in ``hom_space``,
    and each basis map φ of ``hom_space`` gives a derivation φ∘d0 that
    factors back to φ itself; 2·dim Der solves of ``factor_through``."""
    ok = True
    for u in der.basis_maps():
        if not factor_through(hom_space, d0, u).ok:
            ok = False
    for fmat in hom.basis_maps(hom_space):
        u = fmat @ d0
        if not der.contains(u):
            ok = False
            continue
        back = factor_through(hom_space, d0, u)
        if not back.ok or back.f_matrix != fmat:
            ok = False
    return ok


def factorize(jm, q, delta, hom_space=None):
    """Write an order-k operator as (module map out of the jet) ∘ J_k: one
    ``factor_through`` solve over the module maps out of the jet."""
    if hom_space is None:
        hom_space = hom_space_out_of_jet(jm, q)
    return factor_through(hom_space, jm.jk, delta)


def two_sided_representability_by_factoring(jm, q):
    """``jets.two_sided_representability`` one map at a time: each basis map F
    out of the jet must give an operator F∘J, and each basis operator must
    factor as F∘J with F unique; one ``factor_through`` solve per operator."""
    from diffoplab.diffops import dv_first_order

    hom = hom_space_out_of_jet(jm, q)
    dv = dv_first_order(jm.source, q)
    forward_ok = True
    for fmat in hom.basis_maps(q.dim, jm.dim):
        if not dv.space.contains((fmat @ jm.jk).flatten()):
            forward_ok = False
    backward_ok = True
    for delta in dv.hom.basis_maps(dv.space):
        if not factorize(jm, q, delta, hom_space=hom).ok:
            backward_ok = False
    return {"hom_dim": hom.dim, "operator_dim": dv.dim, "dims_equal": hom.dim == dv.dim,
            "forward_ok": forward_ok, "backward_ok": backward_ok,
            "ok": hom.dim == dv.dim and forward_ok and backward_ok}
