import random
from fractions import Fraction
from itertools import product

import pytest

from diffoplab.algebra import AlgebraError, catalog, grassmann, trunc_poly
from diffoplab.bimodule import Bimodule, free_module, regular_bimodule
from diffoplab.cecalc import MinimalCalculus
from diffoplab.fields import Field, QQ
from diffoplab.homspace import HomSpace, LinMap, left_dual, right_dual
from diffoplab.linalg import Subspace, kernel, kron_difference, preimage, vstack
from diffoplab.universal import UniversalCalculus

from oracles import dual_oracle, field_form, restricted_action, two_sided_dual_space


def hom_of(spec):
    a = catalog(spec)
    p = regular_bimodule(a)
    return a, p, HomSpace(p, p)


def test_bimodule_axioms_on_regular():
    for spec in ["trunc_poly:3", "matrix:2", "quaternion", "grassmann:2"]:
        a = catalog(spec)
        reg = regular_bimodule(a)
        assert reg.validate().ok
        assert reg.is_central()


def test_act_unit_is_identity():
    a, p, h = hom_of("matrix:2")
    phi = h.linmap([[1, 0, 2, 0], [0, 1, 0, 0], [0, 0, 3, 0], [1, 0, 0, 1]])
    assert h.act("left", a.unit, phi) == phi
    assert h.act("right_bullet", a.unit, phi) == phi


def test_act_left_on_identity_is_left_multiplication():
    a, p, h = hom_of("matrix:2")
    ident = h.linmap([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    e12 = a.basis_vector(1)
    acted = h.act("left", e12, ident)
    assert acted.matrix == a.left_mult(e12)


def test_bullet_equals_left_for_identity_on_commutative_regular():
    a, p, h = hom_of("trunc_poly:3")
    ident = h.linmap([[1 if i == j else 0 for j in range(3)] for i in range(3)])
    x = a.basis_vector(1)
    assert h.act("left_bullet", x, ident) == h.act("left", x, ident)


def test_delta_hand_expansion_dual_numbers():
    # A = Q[x]/(x^2), Φ = d/dx (1↦0, x↦1):  δ_x Φ = [[-1,0],[0,1]] by hand
    a = trunc_poly(2)
    p = regular_bimodule(a)
    h = HomSpace(p, p)
    ddx = h.linmap([[0, 1], [0, 0]])
    dx = h.delta(a.basis_vector(1), ddx)
    assert dx.matrix.data == [[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(1)]]
    # on p = 1 the value is -1
    assert dx([Fraction(1), Fraction(0)]) == [Fraction(-1), Fraction(0)]


def test_delta_of_unit_kills_everything():
    a, p, h = hom_of("matrix:2")
    rng = random.Random(3)
    for _ in range(5):
        phi = h.linmap([[rng.randrange(-3, 4) for _ in range(4)] for _ in range(4)])
        assert h.delta(a.unit, phi).is_zero()
        assert h.bar_delta(a.unit, phi).is_zero()


def test_delta_and_bar_delta_commute():
    # flat operators commute exactly, and on random samples
    for spec in ["matrix:2", "quaternion", "trunc_poly:3"]:
        a, p, h = hom_of(spec)
        d = h.delta_ops()
        b = h.bar_delta_ops()
        for i, j in product(range(a.dim), repeat=2):
            assert d[i] @ b[j] == b[j] @ d[i]
    rng = random.Random(5)
    a, p, h = hom_of("matrix:2")
    for _ in range(5):
        phi = h.linmap([[rng.randrange(-3, 4) for _ in range(4)] for _ in range(4)])
        ea = a.basis_vector(rng.randrange(4))
        eb = a.basis_vector(rng.randrange(4))
        assert h.delta(ea, h.bar_delta(eb, phi)) == h.bar_delta(eb, h.delta(ea, phi))


def test_delta_equals_bar_delta_on_commutative_central():
    a, p, h = hom_of("trunc_poly:3")
    rng = random.Random(9)
    for _ in range(5):
        phi = h.linmap([[rng.randrange(-3, 4) for _ in range(3)] for _ in range(3)])
        for i in range(3):
            e = a.basis_vector(i)
            # aΦ = Φa when L = R on both sides, hence δ_a = δ̄_a
            assert h.act("left", e, phi) == h.act("right", e, phi)
            assert h.delta(e, phi) == h.bar_delta(e, phi)


def test_delta_linearity_in_algebra_slot():
    a, p, h = hom_of("matrix:2")
    rng = random.Random(13)
    for _ in range(5):
        phi = h.linmap([[rng.randrange(-3, 4) for _ in range(4)] for _ in range(4)])
        lam = [Fraction(rng.randrange(-3, 4)) for _ in range(4)]
        combo = h.delta(lam, phi).matrix
        parts = None
        for i, c in enumerate(lam):
            term = h.delta(a.basis_vector(i), phi).matrix.scale(c)
            parts = term if parts is None else parts + term
        assert combo == parts


def test_graded_delta_signs():
    g1 = grassmann(1)
    reg = regular_bimodule(g1)
    h = HomSpace(reg, reg)
    # ∂/∂θ: 1 ↦ 0, θ ↦ 1 is odd
    dth = LinMap(reg, reg, h.linmap([[0, 1], [0, 0]]).matrix, parity=1)
    assert h.map_parity(dth) == 1
    theta = g1.basis_vector(1)
    # odd a, odd Φ: δ_θ Φ = θΦ + Φ∙θ
    expected = g1.left_mult(theta) @ dth.matrix + dth.matrix @ g1.left_mult(theta)
    assert h.graded_delta(theta, dth).matrix == expected
    # even a reduces to the ungraded delta
    one = g1.unit
    assert h.graded_delta(one, dth).is_zero()
    # multiplication by θ is even? no: it shifts parity by 1
    mul_theta = LinMap(reg, reg, g1.left_mult(theta), parity=1)
    assert h.map_parity(mul_theta) == 1


def test_graded_parities_refuse_mixed_inputs():
    g1 = grassmann(1)
    reg = regular_bimodule(g1)
    h = HomSpace(reg, reg)
    # the identity is even, ∂/∂θ odd: their sum is neither
    mixed = LinMap(reg, reg, h.linmap([[1, 1], [0, 1]]).matrix)
    with pytest.raises(AlgebraError, match="^map is not homogeneous$"):
        h.map_parity(mixed)
    with pytest.raises(AlgebraError, match="^map is not homogeneous$"):
        h.graded_delta(g1.unit, mixed)
    dth = LinMap(reg, reg, h.linmap([[0, 1], [0, 0]]).matrix, parity=1)
    with pytest.raises(AlgebraError, match="^element is not homogeneous$"):
        h.graded_delta([1, 1], dth)
    assert h.map_parity(LinMap(reg, reg, h.linmap([[0, 0], [0, 0]]).matrix)) == 0


def iterated_condition_oracle(a, phi_table, k):
    """Direct expansion of the order-k condition on all basis tuples.

    Written against the raw structure constants, independent of HomSpace:
    recursively builds (δ_b Φ)(p) = b·Φ(p) − Φ(b·p) as value tables.
    """
    def delta_table(b, table):
        out = []
        for j in range(a.dim):
            ej = a.basis_vector(j)
            bp = a.multiply(b, ej)
            phi_bp = [sum((table[m][kk] * bp[m] for m in range(a.dim)),
                          start=Fraction(0)) for kk in range(a.dim)]
            b_phip = a.multiply(b, table[j])
            out.append([x - y for x, y in zip(b_phip, phi_bp)])
        return out

    tables = [phi_table]
    for _ in range(k + 1):
        tables = [delta_table(a.basis_vector(i), t)
                  for t in tables for i in range(a.dim)]
    return all(all(x == 0 for x in row) for t in tables for row in t)


def test_iterated_delta_vanishes_orders():
    a = trunc_poly(3)
    p = regular_bimodule(a)
    h = HomSpace(p, p)
    # x·d/dx on Q[x]/(x^3): 1↦0, x↦x, x²↦2x²
    xd = h.linmap([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    # oracle tables hold images of basis vectors, i.e. matrix columns
    xd_table = [xd.matrix.col(j) for j in range(3)]
    assert not iterated_condition_oracle(a, xd_table, 0)
    assert iterated_condition_oracle(a, xd_table, 1)
    assert not h.iterated_delta_vanishes(xd, 0)
    assert h.iterated_delta_vanishes(xd, 1)
    # the naive d/dx table does not descend to the truncated ring: at
    # (a,b,p) = (x,x,x) the first-order expansion leaves -3x²
    ddx = h.linmap([[0, 1, 0], [0, 0, 2], [0, 0, 0]])
    ddx_table = [ddx.matrix.col(j) for j in range(3)]
    assert not iterated_condition_oracle(a, ddx_table, 1)
    assert not h.iterated_delta_vanishes(ddx, 1)
    orders = [k for k in range(5) if h.iterated_delta_vanishes(ddx, k)]
    oracle_orders = [k for k in range(5) if iterated_condition_oracle(a, ddx_table, k)]
    assert orders == oracle_orders and orders and orders[0] > 1
    # multiplication by x is zero order (A-linear)
    mulx = h.linmap([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert h.iterated_delta_vanishes(mulx, 0)
    # any A-linear map at k = 0
    assert h.iterated_delta_vanishes(h.linmap([[0, 0, 0]] * 3), 0)


def test_graded_iterated_on_grassmann():
    g2 = grassmann(2)
    reg = regular_bimodule(g2)
    h = HomSpace(reg, reg)
    # ∂/∂θ1 on Λ(θ1,θ2): θ1↦1, θ1θ2↦θ2, else 0  (odd map)
    m = [[0] * 4 for _ in range(4)]
    m[0][1] = 1   # θ1 -> 1
    m[2][3] = 1   # θ1θ2 -> θ2
    d1 = h.linmap(m)
    assert h.map_parity(d1) == 1
    assert not h.iterated_delta_vanishes(d1, 0, "graded")
    assert h.iterated_delta_vanishes(d1, 1, "graded")


def test_hom_mismatch_errors():
    a = trunc_poly(2)
    b = trunc_poly(3)
    with pytest.raises(ValueError):
        HomSpace(regular_bimodule(a), regular_bimodule(b))


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
def test_delta_families_are_action_differences(field):
    for spec in ["matrix:2", "quaternion", "trunc_poly:3", "grassmann:2"]:
        a = catalog(spec, field)
        reg = regular_bimodule(a)
        for h in (HomSpace(reg, reg), HomSpace(free_module(a, 2), reg),
                  HomSpace(reg, free_module(a, 2))):
            left, left_b = h.action_ops("left"), h.action_ops("left_bullet")
            right, right_b = h.action_ops("right"), h.action_ops("right_bullet")
            for i in range(a.dim):
                assert h.delta_ops()[i] == left[i] - left_b[i], (spec, i)
                assert h.bar_delta_ops()[i] == right[i] - right_b[i], (spec, i)


def unreduced_iterated_vanishes(h, phi, k, ops):
    """Every (k+1)-fold composite applied to phi, one image per operator word."""
    current = [phi.flatten()]
    for _ in range(k + 1):
        current = [op.apply(v) for v in current for op in ops]
    return all(all(x == 0 for x in v) for v in current)


def test_iterated_delta_vanishes_matches_unreduced_expansion():
    rng = random.Random(11)
    seen = set()
    cases = []
    for spec in ["trunc_poly:3", "matrix:2", "square_zero:2"]:
        a = catalog(spec)
        reg = regular_bimodule(a)
        h = HomSpace(reg, reg)
        n = a.dim
        maps = [h.linmap([[1 if i == j else 0 for j in range(n)] for i in range(n)]),
                h.linmap([[0] * n for _ in range(n)]),
                LinMap(reg, reg, a.left_mult(a.basis_vector(1))),
                LinMap(reg, reg, a.right_mult(a.basis_vector(1))),
                h.linmap([[rng.randrange(-2, 3) for _ in range(n)] for _ in range(n)])]
        cases.extend((h, phi, "plain", h.delta_ops()) for phi in maps)
        cases.extend((h, phi, "bar", h.bar_delta_ops()) for phi in maps)
    g2 = grassmann(2)
    reg = regular_bimodule(g2)
    h = HomSpace(reg, reg)
    d1 = [[0] * 4 for _ in range(4)]
    d1[0][1] = d1[2][3] = 1  # ∂/∂θ1, an odd map
    cases.append((h, h.linmap(d1), "graded", h.graded_delta_ops()))
    for h, phi, flavor, ops in cases:
        for k in range(4):
            got = h.iterated_delta_vanishes(phi, k, flavor)
            assert got == unreduced_iterated_vanishes(h, phi, k, ops), (flavor, k)
            seen.add(got)
    assert seen == {True, False}


def dual_test_modules(a):
    return [regular_bimodule(a), free_module(a, 2),
            UniversalCalculus(a, cap=1).omega1_bimodule(),
            MinimalCalculus(a).one_forms_bimodule()]


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec", ["matrix:2", "trunc_poly:3", "quaternion"])
def test_duals_match_the_hand_built_constraints(spec, field):
    rng = random.Random(5)
    p = field.char
    a = catalog(spec, field)
    a_left = [a.left_mult_basis(i).data for i in range(a.dim)]
    a_right = [a.right_mult_basis(i).data for i in range(a.dim)]
    for q in dual_test_modules(a):
        want = dual_oracle(a_left, a_right, [m.data for m in q.left],
                           [m.data for m in q.right], q.dim, p)
        assert [list(r) for r in two_sided_dual_space(q).basis] == want["both"], q.name
        for side, dual in (("right", right_dual(q)), ("left", left_dual(q))):
            basis, left_ops, right_ops = want[side]
            assert [list(r) for r in dual.space.basis] == basis, (q.name, side)
            for i in range(a.dim):
                assert dual.bimodule.left[i].data == restricted_action(left_ops[i], basis, p)
                assert dual.bimodule.right[i].data == restricted_action(right_ops[i], basis, p)
            # a seeded functional, read back as a matrix
            coords = [field.coerce(rng.randrange(-3, 4)) for _ in basis]
            flat = [sum(c * b[k] for c, b in zip(coords, basis))
                    for k in range(a.dim * q.dim)]
            assert dual.as_map(coords).data == field_form(
                [flat[r * q.dim:(r + 1) * q.dim] for r in range(a.dim)], p)


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
def test_common_kernel_of_several_families_is_solved_once(field, monkeypatch):
    import diffoplab.homspace as homspace

    solved = []

    def counting_kernel(m):
        solved.append(m)
        return kernel(m)

    monkeypatch.setattr(homspace, "kernel", counting_kernel)
    rng = random.Random(23)
    for spec in ["matrix:2", "trunc_poly:3", "quaternion", "square_zero:2"]:
        a = catalog(spec, field)
        pool = [regular_bimodule(a), free_module(a, 2), MinimalCalculus(a).one_forms_bimodule()]
        for _ in range(3):
            h = HomSpace(rng.choice(pool), rng.choice(pool))
            both = h.common_kernel("delta", "bar_delta")
            assert both == h.common_kernel("delta").intersect(h.common_kernel("bar_delta"))
            assert both == h.common_kernel("bar_delta", "delta")
            before = len(solved)
            assert h.common_kernel("delta", "bar_delta") is both
            assert h.common_kernel("delta") is h.common_kernel("delta")
            assert len(solved) == before


PREIMAGE_CASES = [("matrix:2", ("delta", "bar_delta")),
                  ("trunc_poly:3", ("delta", "bar_delta")),
                  ("grassmann:2", ("delta", "bar_delta", "graded_delta"))]


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec,kinds", PREIMAGE_CASES, ids=[c[0] for c in PREIMAGE_CASES])
def test_cached_preimage_is_the_linalg_preimage(spec, kinds, field):
    a = catalog(spec, field)
    reg = regular_bimodule(a)
    h = HomSpace.between(reg, reg)
    ops = {"delta": h.delta_ops, "bar_delta": h.bar_delta_ops,
           "graded_delta": h.graded_delta_ops}
    rng = random.Random(5)
    spanned = Subspace.from_spanning(
        a.field, h.dim, [[a.field.coerce(rng.choice([0, 0, 1, -2])) for _ in range(h.dim)]
                         for _ in range(3)])
    for kind in kinds:
        family = ops[kind]()
        targets = [Subspace.zero(a.field, h.dim), h.common_kernel(kind), spanned]
        targets.append(h.preimage(kind, targets[1]))
        for target in targets:
            assert h.preimage(kind, target) == preimage(family, target), (kind, target)
            # an equal target built anew finds the solve of the first
            again = Subspace.from_spanning(a.field, h.dim, target.basis)
            assert again is not target
            assert h.preimage(kind, again) is h.preimage(kind, target)
    # δ̄ = δ on the regular bimodule of a commutative algebra: one family, one solve
    shared = a.is_commutative()
    assert (h.bar_delta_ops() is h.delta_ops()) == shared
    assert (h.common_kernel("bar_delta") is h.common_kernel("delta")) == shared
    assert (h.common_kernel("delta", "bar_delta") is h.common_kernel("delta")) == shared


def test_fresh_modules_get_their_own_hom_space():
    a = catalog("trunc_poly:3")
    first = regular_bimodule(a)
    second = Bimodule.from_json_dict(first.to_json_dict(), a)
    h = HomSpace.between(first, first)
    assert HomSpace.between(first, first) is h
    assert HomSpace.between(second, second) is not h
    assert HomSpace.between(first, second) not in (h, HomSpace.between(second, second))
    assert HomSpace.between(first, second).target is second


# the basis elements each common kernel is solved on: the generators x, g
# and i, j, or every basis element where the generators exceed half of it
SOLVED_ON = {"trunc_poly:3": 1, "square_zero:2": 3, "group_z:3": 1, "matrix:2": 4,
             "quaternion": 2}


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
@pytest.mark.parametrize("spec", list(SOLVED_ON))
def test_families_alias_by_their_factors(spec, field, monkeypatch):
    import diffoplab.homspace as homspace

    built = []

    def counting_kron_difference(a, b):
        built.append((a, b))
        return kron_difference(a, b)

    monkeypatch.setattr(homspace, "kron_difference", counting_kron_difference)
    a = catalog(spec, field)
    reg = regular_bimodule(a)
    h = HomSpace(reg, reg)
    both = h.common_kernel("delta", "bar_delta")
    # δ̄ = δ on a commutative regular module is read off L_i = R_i: one
    # family is built, not a second one to compare with it
    shared = a.is_commutative()
    solved = SOLVED_ON[spec]
    assert len(built) == (solved if shared else 2 * solved)
    assert (h.bar_delta_ops() is h.delta_ops()) == shared
    assert (h.action_ops("right") is h.action_ops("left")) == shared
    assert (h.action_ops("right_bullet") is h.action_ops("left_bullet")) == shared
    # an alias is the family it stands for, element by element
    assert h.bar_delta_ops() == [kron_difference(m, pm.transpose())
                                 for m, pm in zip(reg.right, reg.right)]
    assert both == h.common_kernel("delta").intersect(h.common_kernel("bar_delta"))
    assert len(built) == (a.dim if shared else 2 * a.dim)


def test_graded_delta_is_delta_without_odd_basis_elements():
    a3 = trunc_poly(3)
    even = type(a3)(a3.field, a3.dim, a3.basis_names, a3.sc, a3.unit, parity=[0, 0, 0],
                    name="trunc3[even]")
    reg = regular_bimodule(even)
    h = HomSpace(reg, reg)
    assert h.graded_delta_ops() is h.delta_ops()
    assert h.common_kernel("graded_delta") is h.common_kernel("delta")
    # with an odd basis element the Koszul sign makes them differ
    g = grassmann(2)
    greg = regular_bimodule(g)
    gh = HomSpace(greg, greg)
    assert gh.graded_delta_ops() is not gh.delta_ops()
    assert gh.graded_delta_ops() != gh.delta_ops()


@pytest.mark.parametrize("field", [QQ, Field(32003)], ids=["q", "gf32003"])
def test_each_module_aliases_only_its_own_side(field):
    # over a commutative algebra, universal one-forms act differently on the
    # two sides (a·db ≠ db·a) while the regular module does not
    a = catalog("trunc_poly:3", field)
    reg, omega = regular_bimodule(a), UniversalCalculus(a).omega1_bimodule()
    assert omega.left != omega.right
    for src, tgt in ((omega, reg), (reg, omega)):
        h = HomSpace(src, tgt)
        assert h.bar_delta_ops() is not h.delta_ops()
        assert (h.action_ops("right") is h.action_ops("left")) == (tgt is reg)
        assert (h.action_ops("right_bullet") is h.action_ops("left_bullet")) == (src is reg)
        families = {kind: [kron_difference(q, p.transpose()) for q, p in zip(tq, sp)]
                    for kind, tq, sp in (("delta", tgt.left, src.left),
                                         ("bar_delta", tgt.right, src.right))}
        for kind, ops in families.items():
            assert h.common_kernel(kind) == kernel(vstack(ops))
        assert h.common_kernel("delta", "bar_delta") == kernel(
            vstack(families["delta"] + families["bar_delta"]))
