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
import warnings
from functools import cache, partial
from itertools import product

from . import __version__
from .algebra import catalog
from .bimodule import free_module, regular_bimodule
from .cartan import build_cartan_pair, cartan_vs_definitions, two_sided_hats_are_first_order
from .cecalc import DEGREE_CAP, CochainComplex, exact_one_form, wedge
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
from .fields import QQ
from .gradedce import GRADED_DEGREE_CAP, GradedCochainComplex
from .homspace import HomSpace
from .jets import jet_module, left_jet_identity_witness, two_sided_jet, two_sided_representability
from .universal import UniversalCalculus, exact_form_ambient, formatted_witness

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
# Checks: each is a function of the catalog algebra it runs on; an identity
# returns (holds, details), a witness check (witness or None, details)
# ---------------------------------------------------------------------------


def _check_delta_commutation(a):
    reg = regular_bimodule(a)
    h = HomSpace.between(reg, reg)
    d, b = h.delta_ops(), h.bar_delta_ops()
    ok = all(d[i] @ b[j] == b[j] @ d[i] for i, j in product(range(a.dim), repeat=2))
    return ok, {"algebra": a.name, "basis_pairs": a.dim * a.dim}


def _check_commutative_collapse(a):
    max_order = 2
    reg = regular_bimodule(a)
    g = grothendieck_diff(reg, reg, max_order)
    left = lunts_filtration(reg, reg, max_order, "left")
    right = lunts_filtration(reg, reg, max_order, "right")
    ts = two_sided_filtration(reg, reg, max_order)
    ok = all(left[k] == g.chain[k] and right[k] == g.chain[k] and ts[k] == g.chain[k]
             for k in range(max_order + 1))
    return ok, {"algebra": a.name, "dims": [s.dim for s in g.chain]}


def _check_dv_reduction(a):
    reg = regular_bimodule(a)
    return dv_first_order(reg, reg).space == grothendieck_diff(reg, reg, 1).space, \
        {"algebra": a.name}


def _check_all_definitions_coincide(a):
    reg = regular_bimodule(a)
    rep = compare_definitions(reg, reg, 1)
    return rep.all_equal(), {"algebra": a.name,
                             "dims": {k: v.dim for k, v in rep.definitions.items()}}


def _check_exact_one_form_evaluation(a):
    der = derivations(a, regular_bimodule(a))
    n = a.dim
    ok = True
    for e in map(a.basis_vector, range(n)):
        flat = exact_one_form(a, der, e)
        ok = ok and all(flat[t * n:(t + 1) * n] == u.apply(e)
                        for t, u in enumerate(der.basis_maps()))
    return ok, {"algebra": a.name, "derivations": der.dim}


def _check_differential_kills_unit(a):
    der = derivations(a, regular_bimodule(a))
    ok = (not any(exact_one_form(a, der, a.unit))
          and not any(exact_form_ambient(a, a.unit)))
    return ok, {"algebra": a.name}


def _check_central_anticommutation(a):
    der = derivations(a, regular_bimodule(a))
    center = a.center()
    ds = [exact_one_form(a, der, z) for z in center.basis]
    ok = all(wedge(a, der, d1, 1, d2, 1) == [a.field.neg(x) for x in wedge(a, der, d2, 1, d1, 1)]
             for d1, d2 in product(ds, repeat=2))
    return ok, {"algebra": a.name, "center_dim": center.dim}


def _check_ce_central_commutation(a):
    """z·da' = da'·z for central z and z', compared on each derivation's segment."""
    der = derivations(a, regular_bimodule(a))
    n = a.dim
    center = a.center().basis
    segments = [da[t * n:(t + 1) * n] for da in (exact_one_form(a, der, z) for z in center)
                for t in range(der.dim)]
    ok = all(a.multiply(z, s) == a.multiply(s, z) for z in center for s in segments)
    return ok, {"algebra": a.name}


def _check_ce_d_squared(a):
    cx = CochainComplex(a, cap=3)
    return cx.d_squared_is_zero(), {"algebra": a.name, "dims": [fs.dim for fs in cx.forms]}


def _check_derivation_compositions(a, two_sided):
    """Derivations lie in F_1, and their compositions in F_2, of the left
    inductive filtration or of the two-sided one."""
    reg = regular_bimodule(a)
    maps = derivations(a, reg).basis_maps()
    flt = two_sided_filtration(reg, reg, 2) if two_sided \
        else lunts_filtration(reg, reg, 2, "left")
    ok = (all(flt[1].contains(u.flatten()) for u in maps)
          and all(flt[2].contains((u @ v).flatten()) for u, v in product(maps, repeat=2)))
    return ok, {"algebra": a.name, "filtration_dims": flt.dims}


def _cartan_pair(a):
    uc = UniversalCalculus(a, cap=1)
    return build_cartan_pair(a, uc.omega1_bimodule(), uc.d0)


def _check_two_sided_dual_hats(a):
    pair = _cartan_pair(a)
    return two_sided_hats_are_first_order(pair), {"algebra": a.name, "dual_dim": pair.dual.dim}


def _check_first_jet_relation(a):
    """δ_a δ_b (1⊗p) = 1⊗abp − a⊗bp − b⊗ap + ab⊗p, written out, lies in μ²
    for all basis elements a, b, p."""
    jm = jet_module(a, regular_bimodule(a), 1)
    f, e, mul = a.field, a.basis_vector, a.multiply

    def tensor(x, y):
        return [f.mul(s, t) for s in x for t in y]

    ok = True
    for i, j, p in product(range(a.dim), repeat=3):
        ab = a.sc[i][j]
        plus = zip(tensor(a.unit, mul(ab, e(p))), tensor(ab, e(p)))
        minus = zip(tensor(e(i), mul(e(j), e(p))), tensor(e(j), mul(e(i), e(p))))
        ok = ok and jm.mu.contains([f.sub(f.add(*x), f.add(*y)) for x, y in zip(plus, minus)])
    return ok, {"algebra": a.name, "jet_dim": jm.dim}


def _witness_derivation_fails_naive(a):
    reg = regular_bimodule(a)
    der = derivations(a, reg)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        naive = grothendieck_diff(reg, reg, 1)
    flt = lunts_filtration(reg, reg, 1, "left")
    details = {"algebra": a.name, "derivation_dim": der.dim}
    for idx, u in enumerate(der.basis_maps()):
        fl = u.flatten()
        if not naive.space.contains(fl) and flt[1].contains(fl):
            return {"derivation_index": idx, "matrix": u.formatted(),
                    "naive_first_order": False, "in_left_filtration_1": True}, details
    return None, details


def _witness_cartan_hat_fails(a):
    rep = cartan_vs_definitions(_cartan_pair(a))
    return rep["violation_witness"], {"algebra": a.name, "dual_dim": rep["dual_dim"]}


def _witness_or_absence_dv_outside_lunts(a):
    p, q = free_module(a, 2), regular_bimodule(a)
    dv = dv_first_order(p, q)
    flt = lunts_filtration(p, q, 1, "left")
    details = {"algebra": a.name, "dv_dim": dv.dim, "lunts_dims": flt.dims, "hom_dim": dv.hom.dim}
    for row in dv.space.basis:
        if not flt[1].contains(list(row)):
            return {"vector": [a.field.fmt(x) for x in row]}, details
    return None, dict(details, search="exhaustive over the operator basis")


def _witness_left_jet_identity_failure(a):
    return left_jet_identity_witness(a, regular_bimodule(a)), {"algebra": a.name}


def _witness_universal_central_commutation(a):
    uc = UniversalCalculus(a, cap=1)
    return formatted_witness(a.field, uc.central_commutation_witness()), \
        {"algebra": a.name, "omega1_dim": uc.omega1.dim}


def _check_two_sided_jet_representability(a):
    reg = regular_bimodule(a)
    rep = two_sided_representability(two_sided_jet(a, reg), reg)
    return rep["ok"], {"algebra": a.name, "hom_dim": rep["hom_dim"],
                       "operator_dim": rep["operator_dim"]}


def _check_graded_first_order_decomposition(a):
    reg = regular_bimodule(a)
    split = first_order_decomposition(a, reg, graded_diff(reg, reg, 1).space, graded=True)
    return split.direct, {"algebra": a.name, "dims": split.dims}


def _check_graded_ce_squares_to_zero(a):
    cx = GradedCochainComplex(a, cap=2)
    return cx.d_squared_is_zero(), {"algebra": a.name, "dims": [s.dim for s in cx.forms]}


# ---------------------------------------------------------------------------
# The built-in catalog
# ---------------------------------------------------------------------------

IDENTITY, WITNESS, WITNESS_OR_ABSENCE = "identity", "witness-required", "witness-or-absence"
COMMUTATIVE = ("trunc_poly:3", "square_zero:2", "group_z:3")

# (scenario id, description, groups); a group (specs, checks) runs each of
# its checks (name, kind, check function, claim) on each spec, spec by spec,
# and each check is then named name[spec]
CATALOG = (
    ("difference-operator-commutation",
     "the left and right difference operators commute exactly",
     [(("matrix:2", "quaternion", "trunc_poly:3"),
       [("delta-bar-delta-commute", IDENTITY, _check_delta_commutation,
         "delta-and-bar-delta-commute")])]),
    ("commutative-collapse",
     "every definition agrees over the commutative catalog",
     [(COMMUTATIVE,
       [("collapse", IDENTITY, _check_commutative_collapse,
         "left-filtration-reduces-to-commutative"),
        ("dv-reduction", IDENTITY, _check_dv_reduction,
         "bimodule-first-order-reduces-to-commutative"),
        ("all-equal-order1", IDENTITY, _check_all_definitions_coincide,
         "all-definitions-coincide-commutative-order1")])]),
    ("center-multilinear-calculus",
     "coboundary and wedge identities of the center-multilinear forms",
     [(("trunc_poly:3", "matrix:2", "quaternion"),
       [("exact-form-evaluation", IDENTITY, _check_exact_one_form_evaluation,
         "exact-one-form-evaluates-derivations"),
        ("unit-killed", IDENTITY, _check_differential_kills_unit, "differential-kills-unit"),
        ("d-squared", IDENTITY, _check_ce_d_squared, None)]),
      (("trunc_poly:3", "square_zero:2"),
       [("central-anticommute", IDENTITY, _check_central_anticommutation,
         "central-exact-one-forms-anticommute"),
        ("central-commute-ce", IDENTITY, _check_ce_central_commutation,
         "ce-central-forms-commute")])]),
    ("universal-forms-noncentrality",
     "central elements fail to commute with exact universal one-forms",
     [(("trunc_poly:2", "trunc_poly:3"),
       [("universal-central-commutation-witness", WITNESS,
         _witness_universal_central_commutation, None)])]),
    ("filtration-compositions",
     "derivations and their compositions sit in the inductive filtrations",
     [(("matrix:2", "quaternion"),
       [("derivations-in-filtration", IDENTITY,
         partial(_check_derivation_compositions, two_sided=False),
         "derivation-compositions-in-left-filtration"),
        ("two-sided-compositions", IDENTITY,
         partial(_check_derivation_compositions, two_sided=True),
         "derivations-and-compositions-two-sided")])]),
    ("dilemma-matrix-algebra",
     "pairwise nonequivalence witnesses over the 2x2 matrix algebra",
     [(("matrix:2",),
       [("derivation-fails-naive-order1", WITNESS, _witness_derivation_fails_naive, None),
        ("hat-fails-bimodule-first-order", WITNESS, _witness_cartan_hat_fails, None),
        ("dv-outside-left-filtration", WITNESS_OR_ABSENCE,
         _witness_or_absence_dv_outside_lunts, None),
        ("left-jet-identity-failure", WITNESS, _witness_left_jet_identity_failure, None)])]),
    ("cartan-pairs",
     "hats of two-sided dual elements satisfy the bimodule condition",
     [(("matrix:2", "trunc_poly:3"),
       [("two-sided-dual-hats", IDENTITY, _check_two_sided_dual_hats,
         "two-sided-dual-hats-are-first-order")])]),
    ("jets",
     "jet relations and representability of the two-sided first jets",
     [(("trunc_poly:2", "group_z:3"),
       [("first-jet-relation", IDENTITY, _check_first_jet_relation,
         "first-jet-relation-in-relations-submodule")]),
      (("matrix:2",),
       [("two-sided-jet-representability", IDENTITY,
         _check_two_sided_jet_representability, None)])]),
    ("graded-suite",
     "graded operators split and the graded coboundary squares to zero",
     [(("grassmann:1", "grassmann:2"),
       [("graded-first-order-split", IDENTITY, _check_graded_first_order_decomposition, None)]),
      (("grassmann:1", "grassmann:2"),
       [("graded-ce-d-squared", IDENTITY, _check_graded_ce_squares_to_zero, None)])]),
)

SCENARIO_IDS = tuple(sid for sid, _, _ in CATALOG)


def builtin_scenarios():
    """The catalog as scenarios.  Each check runs on the algebra of its spec,
    built when the first check of that spec runs and shared by the rest of
    this catalog's checks, with what it memoizes."""
    algebra = cache(catalog)
    return [Scenario(sid, description,
                     [Check(f"{name}[{spec}]", kind, lambda fn=fn, spec=spec: fn(algebra(spec)),
                            claim)
                      for specs, checks in groups for spec in specs
                      for name, kind, fn, claim in checks])
            for sid, description, groups in CATALOG]


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_check(check: Check) -> dict:
    if check.kind not in (IDENTITY, WITNESS, WITNESS_OR_ABSENCE):
        raise ValueError(f"unknown check kind {check.kind!r}")
    outcome, details = check.run()
    result = {"id": check.check_id, "kind": check.kind, "details": details}
    if check.claim:
        result["claim"] = check.claim
    if check.kind == IDENTITY:
        result["status"] = "pass" if outcome else "fail"
        result["expected_met"] = bool(outcome)
    else:
        found = outcome is not None
        result["status"] = "witness" if found else "fail" if check.kind == WITNESS else "absence"
        result["witness"] = outcome
        result["expected_met"] = found or check.kind == WITNESS_OR_ABSENCE
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
    """Run the catalog, or the one scenario ``only``.  Each spec's algebra is
    built once per call and shared by its checks, with what it memoizes."""
    scenarios = builtin_scenarios()
    if only is not None:
        scenarios = [s for s in scenarios if s.scenario_id == only]
        if not scenarios:
            raise ValueError(f"unknown scenario {only!r}")
    results = [run_scenario(s) for s in scenarios]
    return {
        "environment": {
            "field": QQ.name,
            "version": __version__,
            "degree_cap": DEGREE_CAP,
            "graded_degree_cap": GRADED_DEGREE_CAP,
            "order_cap": MAX_ORDER,
        },
        "scenarios": results,
        "all_expectations_met": all(r["all_expectations_met"] for r in results),
    }


# the one layout of every canonical report, as a string or written to a file
JSON_LAYOUT = {"sort_keys": True, "indent": 2, "ensure_ascii": False}


def canonical_json(obj) -> str:
    return json.dumps(obj, **JSON_LAYOUT) + "\n"
