"""Built-in scenario catalog: the library's headline identities and
nonequivalence witnesses packaged as runnable, deterministic checks.

Each check names an operation, carries the claim tag it certifies, and an
expected outcome kind: "identity" checks must come back true;
"witness-required" checks must produce a concrete witness;
"witness-or-absence" checks accept either a witness or a recorded
exhaustive-search negative.  Mathematical negatives never abort a run;
only malformed inputs do.
"""

from __future__ import annotations

import json
from itertools import product

from . import __version__
from .algebra import catalog
from .bimodule import free_module, regular_bimodule
from .cartan import build_cartan_pair, cartan_vs_definitions, two_sided_hats_are_first_order
from .cecalc import DEGREE_CAP, CochainComplex, ce_forms, exact_one_form, wedge
from .derivations import derivations, first_order_decomposition
from .diffops import (
    MAX_ORDER,
    compare_definitions,
    dv_first_order,
    graded_diff,
    grothendieck_diff,
    lunts_filtration,
    two_sided_filtration,
)
from .gradedce import GRADED_DEGREE_CAP, GradedCochainComplex
from .homspace import HomSpace
from .jets import jet_module, left_jet_identity_witness, two_sided_jet, two_sided_representability
from .universal import UniversalCalculus

# Claims certified by the built-in suite; the coverage test enumerates
# these against the scenario definitions.
REQUIRED_CLAIMS = (
    "delta-and-bar-delta-commute",
    "bimodule-first-order-reduces-to-commutative",
    "left-filtration-reduces-to-commutative",
    "derivation-compositions-in-left-filtration",
    "derivations-and-compositions-two-sided",
    "all-definitions-coincide-commutative-order1",
    "exact-one-form-evaluates-derivations",
    "differential-kills-unit",
    "central-exact-one-forms-anticommute",
    "ce-central-forms-commute",
    "two-sided-dual-hats-are-first-order",
    "first-jet-relation-in-relations-submodule",
)


class Check:
    def __init__(self, check_id, kind, run, claim=None):
        self.check_id = check_id
        self.kind = kind
        self.run = run
        self.claim = claim


class Scenario:
    def __init__(self, scenario_id, description, checks):
        self.scenario_id = scenario_id
        self.description = description
        self.checks = checks


# ---------------------------------------------------------------------------
# Check implementations
# ---------------------------------------------------------------------------


def _check_delta_commutation(spec):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        h = HomSpace(reg, reg)
        d, b = h.delta_ops(), h.bar_delta_ops()
        ok = all(d[i] @ b[j] == b[j] @ d[i]
                 for i, j in product(range(a.dim), repeat=2))
        return ok, {"algebra": spec, "basis_pairs": a.dim * a.dim}
    return run


def _check_commutative_collapse(spec, max_order=2):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        g = grothendieck_diff(reg, reg, max_order)
        left = lunts_filtration(reg, reg, max_order, "left")
        right = lunts_filtration(reg, reg, max_order, "right")
        ts = two_sided_filtration(reg, reg, max_order)
        ok = all(left[k] == g.chain[k] and right[k] == g.chain[k]
                 and ts[k] == g.chain[k] for k in range(max_order + 1))
        return ok, {"algebra": spec, "dims": [s.dim for s in g.chain]}
    return run


def _check_dv_reduction(spec):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        ok = dv_first_order(reg, reg).space == grothendieck_diff(reg, reg, 1).space
        return ok, {"algebra": spec}
    return run


def _check_all_definitions_coincide(spec):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        rep = compare_definitions(reg, reg, 1)
        return rep.all_equal(), {"algebra": spec,
                                 "dims": {k: v.dim for k, v in rep.definitions.items()}}
    return run


def _check_exact_one_form_evaluation(spec):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        der = derivations(a, reg)
        fs = ce_forms(a, 1, der)
        ok = True
        for i in range(a.dim):
            flat = exact_one_form(a, der, a.basis_vector(i))
            for t, u in enumerate(der.basis_maps()):
                if fs.value_at(flat, (t,)) != u.apply(a.basis_vector(i)):
                    ok = False
        return ok, {"algebra": spec, "derivations": der.dim}
    return run


def _check_differential_kills_unit(spec):
    def run():
        a = catalog(spec)
        der = derivations(a, regular_bimodule(a))
        flat = exact_one_form(a, der, a.unit)
        ok = all(x == 0 for x in flat)
        uc = UniversalCalculus(a, cap=1)
        ok = ok and all(x == 0 for x in uc.exact_form_ambient(a.unit))
        return ok, {"algebra": spec}
    return run


def _check_central_anticommutation(spec):
    def run():
        a = catalog(spec)
        der = derivations(a, regular_bimodule(a))
        f = a.field
        center = a.center()
        ok = True
        for z1 in center.basis:
            for z2 in center.basis:
                d1 = exact_one_form(a, der, list(z1))
                d2 = exact_one_form(a, der, list(z2))
                lhs = wedge(a, der, d1, 1, d2, 1)
                rhs = wedge(a, der, d2, 1, d1, 1)
                if lhs != [f.neg(x) for x in rhs]:
                    ok = False
        return ok, {"algebra": spec, "center_dim": center.dim}
    return run


def _check_ce_central_commutation(spec):
    def run():
        a = catalog(spec)
        der = derivations(a, regular_bimodule(a))
        f = a.field
        n = a.dim
        d = der.dim
        center = a.center()
        ok = True
        for z in center.basis:
            for zp in center.basis:
                da = exact_one_form(a, der, list(zp))
                left = []
                right = []
                for t in range(d):
                    seg = da[t * n:(t + 1) * n]
                    left.extend(a.multiply(list(z), seg))
                    right.extend(a.multiply(seg, list(z)))
                if left != right:
                    ok = False
        return ok, {"algebra": spec}
    return run


def _check_ce_d_squared(spec, cap):
    def run():
        a = catalog(spec)
        cx = CochainComplex(a, cap=cap)
        return cx.d_squared_is_zero(), {"algebra": spec,
                                        "dims": [fs.dim for fs in cx.forms]}
    return run


def _check_derivation_compositions_lunts(spec):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        der = derivations(a, reg)
        flt = lunts_filtration(reg, reg, 2, "left")
        maps = der.basis_maps()
        ok = all(flt[1].contains(u.flatten()) for u in maps)
        for u in maps:
            for v in maps:
                if not flt[2].contains((u @ v).flatten()):
                    ok = False
        return ok, {"algebra": spec, "filtration_dims": flt.dims}
    return run


def _check_derivation_compositions_two_sided(spec):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        der = derivations(a, reg)
        ts = two_sided_filtration(reg, reg, 2)
        maps = der.basis_maps()
        ok = all(ts[1].contains(u.flatten()) for u in maps)
        for u in maps:
            for v in maps:
                if not ts[2].contains((u @ v).flatten()):
                    ok = False
        return ok, {"algebra": spec, "filtration_dims": ts.dims}
    return run


def _check_two_sided_dual_hats(spec):
    def run():
        a = catalog(spec)
        uc = UniversalCalculus(a, cap=1)
        pair = build_cartan_pair(a, uc.omega1_bimodule(), uc.d0)
        ok = two_sided_hats_are_first_order(pair)
        return ok, {"algebra": spec, "dual_dim": pair.dual.dim}
    return run


def _check_first_jet_relation(spec):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        jm = jet_module(a, reg, 1)
        n = a.dim
        f = a.field
        ok = True
        for ai, bi, pi in product(range(n), repeat=3):
            vec = [f.zero()] * jm.ambient_dim
            abp = a.multiply(a.sc[ai][bi], a.basis_vector(pi))
            bp = a.multiply(a.basis_vector(bi), a.basis_vector(pi))
            ap = a.multiply(a.basis_vector(ai), a.basis_vector(pi))
            for i, u in enumerate(a.unit):
                if u != 0:
                    for m, c in enumerate(abp):
                        if c != 0:
                            vec[i * n + m] = f.add(vec[i * n + m], f.mul(u, c))
            for m, c in enumerate(bp):
                if c != 0:
                    vec[ai * n + m] = f.sub(vec[ai * n + m], c)
            for m, c in enumerate(ap):
                if c != 0:
                    vec[bi * n + m] = f.sub(vec[bi * n + m], c)
            for i, c in enumerate(a.sc[ai][bi]):
                if c != 0:
                    vec[i * n + pi] = f.add(vec[i * n + pi], c)
            if not jm.mu.contains(vec):
                ok = False
        return ok, {"algebra": spec, "jet_dim": jm.dim}
    return run


def _witness_derivation_fails_naive(spec):
    def run():
        import warnings
        a = catalog(spec)
        reg = regular_bimodule(a)
        der = derivations(a, reg)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            naive = grothendieck_diff(reg, reg, 1)
        flt = lunts_filtration(reg, reg, 1, "left")
        for idx, u in enumerate(der.basis_maps()):
            fl = u.flatten()
            if not naive.space.contains(fl) and flt[1].contains(fl):
                return {"derivation_index": idx,
                        "matrix": u.formatted(),
                        "naive_first_order": False,
                        "in_left_filtration_1": True}, \
                       {"algebra": spec, "derivation_dim": der.dim}
        return None, {"algebra": spec, "derivation_dim": der.dim}
    return run


def _witness_cartan_hat_fails(spec):
    def run():
        a = catalog(spec)
        uc = UniversalCalculus(a, cap=1)
        pair = build_cartan_pair(a, uc.omega1_bimodule(), uc.d0)
        rep = cartan_vs_definitions(pair)
        return rep["violation_witness"], {"algebra": spec,
                                          "dual_dim": rep["dual_dim"]}
    return run


def _witness_or_absence_dv_outside_lunts(spec):
    def run():
        a = catalog(spec)
        p = free_module(a, 2)
        q = regular_bimodule(a)
        dv = dv_first_order(p, q)
        flt = lunts_filtration(p, q, 1, "left")
        for row in dv.space.basis:
            if not flt[1].contains(list(row)):
                return {"vector": [a.field.fmt(x) for x in row]}, \
                       {"algebra": spec, "dv_dim": dv.dim,
                        "lunts_dims": flt.dims, "hom_dim": dv.hom.dim}
        return None, {"algebra": spec, "dv_dim": dv.dim,
                      "lunts_dims": flt.dims, "hom_dim": dv.hom.dim,
                      "search": "exhaustive over the operator basis"}
    return run


def _witness_left_jet_identity_failure(spec):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        w = left_jet_identity_witness(a, reg)
        return w, {"algebra": spec}
    return run


def _witness_universal_central_commutation(spec):
    def run():
        a = catalog(spec)
        uc = UniversalCalculus(a, cap=1)
        w = uc.central_commutation_witness()
        if w is not None:
            f = a.field
            w = {"central": [f.fmt(x) for x in w["central"]],
                 "argument": [f.fmt(x) for x in w["argument"]],
                 "difference": [f.fmt(x) for x in w["difference"]]}
        return w, {"algebra": spec, "omega1_dim": uc.omega1.dim}
    return run


def _check_two_sided_jet_representability(spec):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        jm = two_sided_jet(a, reg)
        rep = two_sided_representability(jm, reg)
        return rep["ok"], {"algebra": spec, "hom_dim": rep["hom_dim"],
                           "operator_dim": rep["operator_dim"]}
    return run


def _check_graded_first_order_decomposition(spec):
    def run():
        a = catalog(spec)
        reg = regular_bimodule(a)
        d1 = graded_diff(reg, reg, 1)
        split = first_order_decomposition(a, reg, d1.space, graded=True)
        return split.direct, {"algebra": spec, "dims": split.dims}
    return run


def _check_graded_ce_squares_to_zero(spec):
    def run():
        a = catalog(spec)
        cx = GradedCochainComplex(a, cap=2)
        return cx.d_squared_is_zero(), {"algebra": spec,
                                        "dims": [s.dim for s in cx.forms]}
    return run


# ---------------------------------------------------------------------------
# The built-in catalog
# ---------------------------------------------------------------------------


def builtin_scenarios():
    commutative = ["trunc_poly:3", "square_zero:2", "group_z:3"]
    scenarios = []

    checks = []
    for spec in ["matrix:2", "quaternion", "trunc_poly:3"]:
        checks.append(Check(f"delta-bar-delta-commute[{spec}]", "identity",
                            _check_delta_commutation(spec),
                            claim="delta-and-bar-delta-commute"))
    scenarios.append(Scenario(
        "difference-operator-commutation",
        "the left and right difference operators commute exactly",
        checks))

    checks = []
    for spec in commutative:
        checks.append(Check(f"collapse[{spec}]", "identity",
                            _check_commutative_collapse(spec),
                            claim="left-filtration-reduces-to-commutative"))
        checks.append(Check(f"dv-reduction[{spec}]", "identity",
                            _check_dv_reduction(spec),
                            claim="bimodule-first-order-reduces-to-commutative"))
        checks.append(Check(f"all-equal-order1[{spec}]", "identity",
                            _check_all_definitions_coincide(spec),
                            claim="all-definitions-coincide-commutative-order1"))
    scenarios.append(Scenario(
        "commutative-collapse",
        "every definition agrees over the commutative catalog",
        checks))

    checks = []
    for spec in ["trunc_poly:3", "matrix:2", "quaternion"]:
        checks.append(Check(f"exact-form-evaluation[{spec}]", "identity",
                            _check_exact_one_form_evaluation(spec),
                            claim="exact-one-form-evaluates-derivations"))
        checks.append(Check(f"unit-killed[{spec}]", "identity",
                            _check_differential_kills_unit(spec),
                            claim="differential-kills-unit"))
        checks.append(Check(f"d-squared[{spec}]", "identity",
                            _check_ce_d_squared(spec, cap=3)))
    for spec in ["trunc_poly:3", "square_zero:2"]:
        checks.append(Check(f"central-anticommute[{spec}]", "identity",
                            _check_central_anticommutation(spec),
                            claim="central-exact-one-forms-anticommute"))
        checks.append(Check(f"central-commute-ce[{spec}]", "identity",
                            _check_ce_central_commutation(spec),
                            claim="ce-central-forms-commute"))
    scenarios.append(Scenario(
        "center-multilinear-calculus",
        "coboundary and wedge identities of the center-multilinear forms",
        checks))

    checks = [
        Check("universal-central-commutation-witness[trunc_poly:2]",
              "witness-required",
              _witness_universal_central_commutation("trunc_poly:2")),
        Check("universal-central-commutation-witness[trunc_poly:3]",
              "witness-required",
              _witness_universal_central_commutation("trunc_poly:3")),
    ]
    scenarios.append(Scenario(
        "universal-forms-noncentrality",
        "central elements fail to commute with exact universal one-forms",
        checks))

    checks = []
    for spec in ["matrix:2", "quaternion"]:
        checks.append(Check(f"derivations-in-filtration[{spec}]", "identity",
                            _check_derivation_compositions_lunts(spec),
                            claim="derivation-compositions-in-left-filtration"))
        checks.append(Check(f"two-sided-compositions[{spec}]", "identity",
                            _check_derivation_compositions_two_sided(spec),
                            claim="derivations-and-compositions-two-sided"))
    scenarios.append(Scenario(
        "filtration-compositions",
        "derivations and their compositions sit in the inductive filtrations",
        checks))

    checks = [
        Check("derivation-fails-naive-order1[matrix:2]", "witness-required",
              _witness_derivation_fails_naive("matrix:2")),
        Check("hat-fails-bimodule-first-order[matrix:2]", "witness-required",
              _witness_cartan_hat_fails("matrix:2")),
        Check("dv-outside-left-filtration[matrix:2]", "witness-or-absence",
              _witness_or_absence_dv_outside_lunts("matrix:2")),
        Check("left-jet-identity-failure[matrix:2]", "witness-required",
              _witness_left_jet_identity_failure("matrix:2")),
    ]
    scenarios.append(Scenario(
        "dilemma-matrix-algebra",
        "pairwise nonequivalence witnesses over the 2x2 matrix algebra",
        checks))

    checks = [
        Check("two-sided-dual-hats[matrix:2]", "identity",
              _check_two_sided_dual_hats("matrix:2"),
              claim="two-sided-dual-hats-are-first-order"),
        Check("two-sided-dual-hats[trunc_poly:3]", "identity",
              _check_two_sided_dual_hats("trunc_poly:3"),
              claim="two-sided-dual-hats-are-first-order"),
    ]
    scenarios.append(Scenario(
        "cartan-pairs",
        "hats of two-sided dual elements satisfy the bimodule condition",
        checks))

    checks = [
        Check("first-jet-relation[trunc_poly:2]", "identity",
              _check_first_jet_relation("trunc_poly:2"),
              claim="first-jet-relation-in-relations-submodule"),
        Check("first-jet-relation[group_z:3]", "identity",
              _check_first_jet_relation("group_z:3"),
              claim="first-jet-relation-in-relations-submodule"),
        Check("two-sided-jet-representability[matrix:2]", "identity",
              _check_two_sided_jet_representability("matrix:2")),
    ]
    scenarios.append(Scenario(
        "jets",
        "jet relations and representability of the two-sided first jets",
        checks))

    checks = [
        Check("graded-first-order-split[grassmann:1]", "identity",
              _check_graded_first_order_decomposition("grassmann:1")),
        Check("graded-first-order-split[grassmann:2]", "identity",
              _check_graded_first_order_decomposition("grassmann:2")),
        Check("graded-ce-d-squared[grassmann:1]", "identity",
              _check_graded_ce_squares_to_zero("grassmann:1")),
        Check("graded-ce-d-squared[grassmann:2]", "identity",
              _check_graded_ce_squares_to_zero("grassmann:2")),
    ]
    scenarios.append(Scenario(
        "graded-suite",
        "graded operators split and the graded coboundary squares to zero",
        checks))

    return scenarios


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_check(check: Check) -> dict:
    result = {"id": check.check_id, "kind": check.kind}
    if check.claim:
        result["claim"] = check.claim
    if check.kind == "identity":
        ok, details = check.run()
        result["status"] = "pass" if ok else "fail"
        result["details"] = details
        result["expected_met"] = bool(ok)
    elif check.kind == "witness-required":
        witness, details = check.run()
        found = witness is not None
        result["status"] = "witness" if found else "fail"
        result["witness"] = witness
        result["details"] = details
        result["expected_met"] = found
    elif check.kind == "witness-or-absence":
        witness, details = check.run()
        result["status"] = "witness" if witness is not None else "absence"
        result["witness"] = witness
        result["details"] = details
        result["expected_met"] = True
    else:
        raise ValueError(f"unknown check kind {check.kind!r}")
    return result


def run_scenario(scenario: Scenario) -> dict:
    checks = [run_check(c) for c in scenario.checks]
    return {
        "scenario": scenario.scenario_id,
        "description": scenario.description,
        "checks": checks,
        "all_expectations_met": all(c["expected_met"] for c in checks),
    }


def run_all(only=None) -> dict:
    scenarios = builtin_scenarios()
    if only:
        scenarios = [s for s in scenarios if s.scenario_id == only]
        if not scenarios:
            raise ValueError(f"unknown scenario {only!r}")
    results = [run_scenario(s) for s in scenarios]
    return {
        "environment": {
            "field": "q",
            "version": __version__,
            "degree_cap": DEGREE_CAP,
            "graded_degree_cap": GRADED_DEGREE_CAP,
            "order_cap": MAX_ORDER,
        },
        "scenarios": results,
        "all_expectations_met": all(r["all_expectations_met"] for r in results),
    }


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
