"""Acceptance gate: one check per headline criterion, one printed line each.

Expected values come from independent oracles (hand expansions frozen in
comments, or the naive Gauss solvers in oracles.py), never from the code
paths under test.
"""

import random
from fractions import Fraction
from itertools import product

from diffoplab.algebra import catalog, grassmann, matrix_algebra, quaternion, trunc_poly
from diffoplab.bimodule import free_module, regular_bimodule
from diffoplab.cecalc import (
    CochainComplex,
    ce_coboundary_matrix,
    ce_duality_check,
    ce_forms,
    exact_one_form,
    wedge,
)
from diffoplab.cli import main
from diffoplab.derivations import derivations, first_order_decomposition
from diffoplab.diffops import (
    dv_first_order,
    graded_diff,
    grothendieck_diff,
    lunts_filtration,
    two_sided_filtration,
)
from diffoplab.fields import QQ
from diffoplab.gradedce import GradedCochainComplex
from diffoplab.jets import (
    hom_space_out_of_jet,
    jet_module,
    two_sided_jet,
    two_sided_representability,
)
from diffoplab.linalg import Matrix, Subspace
from diffoplab.scenarios import canonical_json, run_all
from diffoplab.universal import UniversalCalculus, universal_factorize

from oracles import factorize, gauss_nullspace, leibniz_solution_dim

COMMUTATIVE_CATALOG = ["trunc_poly:3", "square_zero:2", "group_z:3"]
FULL_CATALOG = ["trunc_poly:2", "trunc_poly:3", "square_zero:2", "group_z:3",
                "matrix:2", "quaternion", "grassmann:1", "grassmann:2"]


def _announce(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def flat(m):
    return [x for row in m.data for x in row]


def test_criterion_01_commutative_first_order_decomposition():
    ok = True
    details = []
    for spec in COMMUTATIVE_CATALOG:
        a = catalog(spec)
        reg = regular_bimodule(a)
        table = [[a.sc[i][j] for j in range(a.dim)] for i in range(a.dim)]
        oracle_der_dim = leibniz_solution_dim(table, a.dim)
        diff1 = grothendieck_diff(reg, reg, 1)
        split = first_order_decomposition(a, reg, diff1.space)
        cond = (diff1.dim == a.dim + oracle_der_dim and split.direct
                and split.dims["derivation"] == oracle_der_dim)
        ok = ok and cond
        details.append((spec, diff1.dim, a.dim, oracle_der_dim, split.direct))
    _announce(1, "first-order decomposition over the commutative catalog", ok)
    assert ok, details


def test_criterion_02_filtration_collapse():
    ok = True
    details = []
    for spec in COMMUTATIVE_CATALOG:
        a = catalog(spec)
        reg = regular_bimodule(a)
        g = grothendieck_diff(reg, reg, 2)
        left = lunts_filtration(reg, reg, 2, "left")
        right = lunts_filtration(reg, reg, 2, "right")
        ts = two_sided_filtration(reg, reg, 2)
        for k in range(3):
            cond = (left[k].basis == g.chain[k].basis
                    and right[k].basis == g.chain[k].basis
                    and ts[k].basis == g.chain[k].basis)
            ok = ok and cond
            if not cond:
                details.append((spec, k))
    _announce(2, "filtrations collapse to the iterated condition", ok)
    assert ok, details


def test_criterion_03_ce_calculus():
    ok = True
    # d∘d = 0 at degrees <= 2 on every catalog algebra (cap 3 materializes
    # degree 3 so both composites are checked where affordable)
    for spec in FULL_CATALOG:
        cap = 2 if spec == "grassmann:2" else 3
        cx = CochainComplex(catalog(spec), cap=cap)
        ok = ok and cx.d_squared_is_zero()
    # product rule for the wedge on 100 deterministic pseudo-random pairs
    a3 = trunc_poly(3)
    der = derivations(a3, regular_bimodule(a3))
    forms = [ce_forms(a3, k) for k in range(4)]
    dmats = [ce_coboundary_matrix(a3, der, k) for k in range(3)]
    rng = random.Random(20260808)
    pairs_checked = 0
    while pairs_checked < 100:
        r, s = rng.choice([(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
        phi = forms[r].linear_combination(
            [Fraction(rng.randrange(-4, 5)) for _ in range(forms[r].dim)])
        psi = forms[s].linear_combination(
            [Fraction(rng.randrange(-4, 5)) for _ in range(forms[s].dim)])
        w = wedge(a3, der, phi, r, psi, s)
        lhs = dmats[r + s].apply(w)
        term1 = wedge(a3, der, dmats[r].apply(phi), r + 1, psi, s)
        term2 = wedge(a3, der, phi, r, dmats[s].apply(psi), s + 1)
        if r % 2 == 1:
            term2 = [QQ.neg(x) for x in term2]
        ok = ok and lhs == [QQ.add(x, y) for x, y in zip(term1, term2)]
        pairs_checked += 1
    # graded commutativity of the wedge on commutative entries
    for spec in COMMUTATIVE_CATALOG:
        a = catalog(spec)
        d = derivations(a, regular_bimodule(a))
        f1 = ce_forms(a, 1)
        for r1 in f1.basis:
            for r2 in f1.basis:
                lhs = wedge(a, d, list(r1), 1, list(r2), 1)
                rhs = wedge(a, d, list(r2), 1, list(r1), 1)
                ok = ok and lhs == [QQ.neg(x) for x in rhs]
    # central commutation holds in the center-multilinear calculus and fails
    # in the universal calculus with the recorded witness 2·x⊗x
    a2 = trunc_poly(2)
    d2 = derivations(a2, regular_bimodule(a2))
    dx = exact_one_form(a2, d2, a2.basis_vector(1))
    x = a2.basis_vector(1)
    ce_left, ce_right = [], []
    for t in range(d2.dim):
        seg = dx[t * 2:(t + 1) * 2]
        ce_left.extend(a2.multiply(x, seg))
        ce_right.extend(a2.multiply(seg, x))
    ok = ok and ce_left == ce_right
    uc = UniversalCalculus(a2, cap=1)
    w = uc.central_commutation_witness()
    expected = [Fraction(0), Fraction(0), Fraction(0), Fraction(2)]
    ok = ok and w is not None and w["difference"] == expected
    _announce(3, "center-multilinear calculus identities", ok)
    assert ok


def test_criterion_04_duality():
    ok = True
    details = []
    for spec, want in [("trunc_poly:3", 2), ("matrix:2", 3), ("quaternion", 3)]:
        rep = ce_duality_check(catalog(spec))
        cond = rep.der_dim == want and rep.hom_dim == want and rep.round_trip_ok
        ok = ok and cond
        details.append((spec, rep.der_dim, rep.hom_dim, rep.round_trip_ok))
    _announce(4, "derivation/one-form duality", ok)
    assert ok, details


def test_criterion_05_universal_calculus():
    ok = True
    for spec in FULL_CATALOG:
        uc = UniversalCalculus(catalog(spec), cap=1)
        ok = ok and uc.omega1_equals_multiplication_kernel()
    ok = ok and UniversalCalculus(matrix_algebra(2), cap=1).omega1.dim == 12
    ok = ok and UniversalCalculus(trunc_poly(2), cap=1).omega1.dim == 2
    for spec in FULL_CATALOG:
        a = catalog(spec)
        uc = UniversalCalculus(a, cap=1)
        for target in (regular_bimodule(a), uc.omega1_bimodule()):
            for u in derivations(a, target).basis_maps():
                res = universal_factorize(uc, target, u)
                ok = ok and res.ok
    _announce(5, "universal one-forms and factorization", ok)
    assert ok


def test_criterion_06_jets():
    ok = True
    details = []
    for spec in COMMUTATIVE_CATALOG:
        a = catalog(spec)
        reg = regular_bimodule(a)
        two = free_module(a, 2)
        for p in (reg, two):
            for k in (0, 1, 2):
                jm = jet_module(a, p, k)
                for q in (reg, two):
                    hom = hom_space_out_of_jet(jm, q)
                    g = grothendieck_diff(p, q, k)
                    cond = hom.dim == g.dim
                    ok = ok and cond
                    if not cond:
                        details.append(("dim", spec, p.name, q.name, k,
                                        hom.dim, g.dim))
                    for row in g.space.basis:
                        mp, mq = p.dim, q.dim
                        delta = Matrix(QQ, [list(row[r * mp:(r + 1) * mp])
                                            for r in range(mq)], mp)
                        res = factorize(jm, q, delta, hom_space=hom)
                        ok = ok and res.ok
                        if not res.ok:
                            details.append(("factor", spec, p.name, q.name, k))
    m2 = matrix_algebra(2)
    regm = regular_bimodule(m2)
    jm = two_sided_jet(m2, regm)
    rep = two_sided_representability(jm, regm)
    ok = ok and rep["ok"] and rep["operator_dim"] == dv_first_order(regm, regm).dim
    _announce(6, "jet representability and factorization", ok)
    assert ok, details


def test_criterion_07_dilemma_witnesses():
    report = run_all(only="dilemma-matrix-algebra")
    checks = {c["id"]: c for c in report["scenarios"][0]["checks"]}
    ok = report["all_expectations_met"]
    a = checks["derivation-fails-naive-order1[matrix:2]"]
    ok = ok and a["status"] == "witness"
    b = checks["hat-fails-bimodule-first-order[matrix:2]"]
    ok = ok and b["status"] == "witness"
    c = checks["dv-outside-left-filtration[matrix:2]"]
    ok = ok and (c["status"] == "witness"
                 or (c["status"] == "absence"
                     and "lunts_dims" in c["details"]
                     and "dv_dim" in c["details"]))
    d = checks["left-jet-identity-failure[matrix:2]"]
    ok = ok and d["status"] == "witness"
    exit_code = main(["run-scenarios", "--only", "dilemma-matrix-algebra"])
    ok = ok and exit_code == 0
    _announce(7, "pairwise nonequivalence witnesses", ok)
    assert ok


def test_criterion_08_composition_orders():
    rng = random.Random(1234)
    ok = True
    cases = []
    for spec in ["matrix:2", "trunc_poly:4"]:
        a = catalog(spec)
        reg = regular_bimodule(a)
        flt = lunts_filtration(reg, reg, 3, "left")
        for _ in range(10):
            n_ord, m_ord = rng.choice([(0, 1), (1, 1), (1, 2), (0, 2), (0, 3)])
            d1 = flt[n_ord].linear_combination(
                [Fraction(rng.randrange(-3, 4)) for _ in range(flt[n_ord].dim)])
            d2 = flt[m_ord].linear_combination(
                [Fraction(rng.randrange(-3, 4)) for _ in range(flt[m_ord].dim)])
            nn = a.dim
            m1 = Matrix(QQ, [d1[r * nn:(r + 1) * nn] for r in range(nn)], nn)
            m2 = Matrix(QQ, [d2[r * nn:(r + 1) * nn] for r in range(nn)], nn)
            member = flt[n_ord + m_ord].contains(flat(m1 @ m2))
            ok = ok and member
            cases.append((spec, n_ord, m_ord, member))
    assert len(cases) == 20
    _announce(8, "composition adds orders in the filtration", ok)
    assert ok, cases


def test_criterion_09_graded_suite():
    ok = True
    # graded product-rule solver against the brute-force oracle
    g2 = grassmann(2)
    reg2 = regular_bimodule(g2)
    solver = derivations(g2, reg2, graded=True)
    n = g2.dim
    oracle_vectors = []
    for par in (0, 1):
        rows = []
        for i in range(n):
            for j in range(n):
                sign = -1 if (g2.parity[i] and par) else 1
                for out in range(n):
                    row = [Fraction(0)] * (n * n)
                    prod_ij = g2.sc[i][j]
                    for m in range(n):
                        if prod_ij[m] != 0:
                            row[out * n + m] += Fraction(prod_ij[m])
                    for m in range(n):
                        row[m * n + i] -= Fraction(g2.sc[m][j][out])
                    for m in range(n):
                        v = Fraction(g2.sc[i][m][out])
                        row[m * n + j] -= v if sign > 0 else -v
                    rows.append(row)
        for r in range(n):
            for c in range(n):
                if (g2.parity[r] + g2.parity[c]) % 2 != par:
                    row = [Fraction(0)] * (n * n)
                    row[r * n + c] = Fraction(1)
                    rows.append(row)
        oracle_vectors.extend(gauss_nullspace(rows))
    oracle_space = Subspace.from_spanning(QQ, n * n, oracle_vectors)
    ok = ok and oracle_space.dim == solver.dim
    ok = ok and oracle_space == solver.space
    # graded first-order split is direct and exact
    for g in (grassmann(1), grassmann(2)):
        reg = regular_bimodule(g)
        d1 = graded_diff(reg, reg, 1)
        split = first_order_decomposition(g, reg, d1.space, graded=True)
        ok = ok and split.direct
    # graded coboundary squares to zero at degrees <= 2
    for g in (grassmann(1), grassmann(2)):
        cx = GradedCochainComplex(g, cap=2)
        ok = ok and cx.d_squared_is_zero()
    _announce(9, "graded solver, split, and complex", ok)
    assert ok


def test_criterion_10_determinism():
    first = canonical_json(run_all())
    second = canonical_json(run_all())
    ok = first == second and first.encode() == second.encode()
    _announce(10, "byte-identical reports on repeated runs", ok)
    assert ok
