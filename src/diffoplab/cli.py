"""Command line interface: batch reports over algebra/module spec files.

Exit codes: 0 = ran and every expectation was met; 1 = some mathematical
expectation was violated; 2 = unusable input (bad spec file, unknown name,
flag misuse).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .algebra import AlgebraError, FiniteAlgebra, catalog, catalog_names
from .bimodule import Bimodule, ModuleError, free_module, regular_bimodule
from .cartan import build_cartan_pair, cartan_vs_definitions, two_sided_hats_are_first_order
from .cecalc import DEGREE_CAP, CochainComplex, ce_duality_check
from .derivations import derivations
from .diffops import (
    OrderCapError,
    compare_definitions,
    dv_first_order,
    graded_diff,
    grothendieck_diff,
    lunts_filtration,
    two_sided_filtration,
)
from .fields import field_from_name
from .gradedce import GRADED_DEGREE_CAP, GradedCochainComplex
from .jets import jet_module, jk_is_diffop, two_sided_jet, two_sided_representability
from .scenarios import canonical_json, run_all
from .universal import UNIVERSAL_DEGREE_CAP, UniversalCalculus

USAGE_ERROR = 2
EXPECTATION_ERROR = 1


class UsageError(Exception):
    pass


def load_algebra(ref: str, field_name: str = None) -> FiniteAlgebra:
    """A catalog shorthand like ``trunc_poly:3`` or a JSON spec path."""
    try:
        field = field_from_name("q" if field_name is None else field_name)
    except ValueError as exc:
        raise UsageError(f"--field {field_name!r}: {exc}") from exc
    if ref.endswith(".json"):
        try:
            a = FiniteAlgebra.load(ref)
        except (OSError, KeyError, ValueError) as exc:
            raise UsageError(f"cannot load algebra spec {ref!r}: {exc}") from exc
        if field_name is not None and a.field != field:
            raise UsageError(
                f"spec file has field {a.field.name!r}, flag says {field_name!r}")
        return a
    try:
        return catalog(ref, field)
    except (AlgebraError, ValueError) as exc:
        raise UsageError(str(exc)) from exc


def pick_module(a: FiniteAlgebra, target: str) -> Bimodule:
    if target in (None, "regular"):
        return regular_bimodule(a)
    if target.startswith("free:"):
        text = target.split(":", 1)[1]
        try:
            rank = int(text)
        except ValueError:
            rank = 0
        if rank < 1:
            raise UsageError(f"free module rank must be an integer >= 1, got {text!r}")
        return free_module(a, rank)
    if target.endswith(".json"):
        try:
            return Bimodule.load(target, a)
        except (OSError, KeyError, ValueError, ModuleError) as exc:
            raise UsageError(f"cannot load module spec {target!r}: {exc}") from exc
    raise UsageError(f"unknown module target {target!r}")


def checked_degree(value: int, cap: int) -> int:
    """A ``--max-degree`` value, which must lie in 1..cap."""
    if not 1 <= value <= cap:
        raise UsageError(f"--max-degree must be between 1 and {cap}, got {value}")
    return value


def emit(report: dict, json_path: str = None, text_lines=None):
    if text_lines:
        for line in text_lines:
            print(line)
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_check_algebra(args):
    a = load_algebra(args.algebra, args.field)
    rep = a.validate()
    report = {"algebra": a.name, "dim": a.dim, "field": a.field.name,
              "center_dim": a.center().dim if rep.ok else None,
              "validation": rep.to_dict()}
    lines = [f"algebra {a.name}: dim {a.dim} over {a.field.name}"]
    if rep.ok:
        lines.append(f"valid; center dimension {a.center().dim}")
    else:
        lines.append(f"INVALID: {len(rep.failures)} failed identities")
        for fail in rep.failures[:10]:
            lines.append(f"  {fail['kind']}: witness {fail['witness']}")
    emit(report, args.json, lines)
    return 0 if rep.ok else EXPECTATION_ERROR


def cmd_check_module(args):
    a = load_algebra(args.algebra, args.field)
    m = pick_module(a, args.module)
    rep = m.validate()
    report = {"module": m.name, "dim": m.dim, "algebra": a.name,
              "central": m.is_central() if rep.ok else None,
              "validation": rep.to_dict()}
    lines = [f"module {m.name}: dim {m.dim} over {a.name}"]
    lines.append("valid" if rep.ok else f"INVALID: {rep.failures}")
    if rep.ok:
        lines.append(f"central over the algebra center: {m.is_central()}")
    emit(report, args.json, lines)
    return 0 if rep.ok else EXPECTATION_ERROR


def cmd_derivations(args):
    a = load_algebra(args.algebra, args.field)
    q = pick_module(a, args.target)
    der = derivations(a, q, graded=args.graded)
    lines = [f"derivations of {a.name} into {q.name}"
             + (" (graded)" if args.graded else ""),
             f"dimension {der.dim}"]
    basis = []
    for u in der.basis_maps():
        rows = u.formatted()
        basis.append(rows)
        lines.append("basis element:")
        lines.extend("  [" + ", ".join(row) + "]" for row in rows)
    report = {"algebra": a.name, "target": q.name, "graded": args.graded,
              "dim": der.dim, "basis": basis}
    emit(report, args.json, lines)
    return 0


def cmd_diff_space(args):
    a = load_algebra(args.algebra, args.field)
    p = pick_module(a, args.module)
    q = pick_module(a, args.target)
    if args.definition == "grothendieck":
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            space = grothendieck_diff(p, q, args.order)
    elif args.definition == "graded":
        space = graded_diff(p, q, args.order)
    elif args.definition == "dv":
        if args.order != 1:
            raise UsageError("the bimodule definition is first-order only")
        space = dv_first_order(p, q)
    else:
        raise UsageError(f"unknown definition {args.definition!r}")
    lines = [f"{space.definition} operators of order {args.order} on "
             f"{p.name} -> {q.name}: dim {space.dim}"
             + (" [naive: noncommutative base]" if space.naive else "")]
    report = {"definition": space.definition, "order": args.order,
              "dim": space.dim, "naive": space.naive,
              "algebra": a.name, "source": p.name, "target": q.name}
    emit(report, args.json, lines)
    return 0


def cmd_lunts(args):
    a = load_algebra(args.algebra, args.field)
    p = pick_module(a, args.module)
    q = pick_module(a, args.target)
    flt = lunts_filtration(p, q, args.order, args.side)
    lines = [f"{args.side} inductive filtration on {p.name} -> {q.name}: "
             f"dims {flt.dims}", f"monotone: {flt.monotone()}"]
    report = {"side": args.side, "order": args.order, "dims": flt.dims,
              "monotone": flt.monotone(), "algebra": a.name}
    emit(report, args.json, lines)
    return 0 if flt.monotone() else EXPECTATION_ERROR


def cmd_two_sided(args):
    a = load_algebra(args.algebra, args.field)
    p = pick_module(a, args.module)
    q = pick_module(a, args.target)
    flt = two_sided_filtration(p, q, args.order)
    lines = [f"two-sided filtration on {p.name} -> {q.name}: dims {flt.dims}",
             f"order-0 base: left/right zero dims {flt.base_dims['left_zero']}"
             f"/{flt.base_dims['right_zero']}, span dim {flt.base_dims['span']}"
             f" (union already a subspace: {flt.base_union_is_subspace})"]
    report = {"order": args.order, "dims": flt.dims, "algebra": a.name,
              "monotone": flt.monotone(),
              "base_dims": flt.base_dims,
              "base_union_is_subspace": flt.base_union_is_subspace}
    emit(report, args.json, lines)
    return 0 if flt.monotone() else EXPECTATION_ERROR


def cmd_ce(args):
    a = load_algebra(args.algebra, args.field)
    cx = CochainComplex(a, cap=checked_degree(args.max_degree, DEGREE_CAP))
    ok = cx.d_squared_is_zero()
    duality = ce_duality_check(a)
    lines = [f"center-multilinear complex over {a.name}: "
             f"dims {[fs.dim for fs in cx.forms]}",
             f"d∘d = 0: {ok}",
             f"derivation/one-form duality: {duality.to_dict()}"]
    report = dict(cx.to_dict(), duality=duality.to_dict())
    emit(report, args.json, lines)
    return 0 if ok and duality.ok else EXPECTATION_ERROR


def cmd_graded_ce(args):
    a = load_algebra(args.algebra, args.field)
    cx = GradedCochainComplex(a, cap=checked_degree(args.max_degree, GRADED_DEGREE_CAP))
    ok = cx.d_squared_is_zero()
    lines = [f"graded complex over {a.name}: dims {[s.dim for s in cx.forms]}",
             f"δ∘δ = 0 on the algebra-linear subcomplex: {ok}"]
    emit(cx.to_dict(), args.json, lines)
    return 0 if ok else EXPECTATION_ERROR


def cmd_universal(args):
    a = load_algebra(args.algebra, args.field)
    cap = checked_degree(args.max_degree, UNIVERSAL_DEGREE_CAP)
    uc = UniversalCalculus(a, cap=cap)
    ker_ok = uc.omega1_equals_multiplication_kernel()
    leib = uc.leibniz_holds()
    witness = uc.central_commutation_witness()
    lines = [f"universal one-forms of {a.name}: dim {uc.omega1.dim} "
             f"(= kernel of multiplication: {ker_ok})",
             f"universal derivation satisfies the product rule: {leib}"]
    if witness is not None:
        lines.append("central commutation fails; witness difference recorded")
    else:
        lines.append("no central commutation failure (exhaustive over the center)")
    report = {"algebra": a.name, "omega1_dim": uc.omega1.dim,
              "kernel_match": ker_ok, "leibniz": leib,
              "central_commutation_witness":
                  None if witness is None else {
                      "central": [a.field.fmt(x) for x in witness["central"]],
                      "argument": [a.field.fmt(x) for x in witness["argument"]],
                      "difference": [a.field.fmt(x) for x in witness["difference"]]}}
    if cap >= 2:
        report["omega2_dim"] = uc.omega2_dim
        report["juxtaposition_rule"] = uc.juxtaposition_rule_holds()
        lines.append(f"degree-2 dim {uc.omega2_dim}; "
                     f"juxtaposition rule: {report['juxtaposition_rule']}")
    emit(report, args.json, lines)
    return 0 if ker_ok and leib else EXPECTATION_ERROR


def cmd_cartan(args):
    a = load_algebra(args.algebra, args.field)
    uc = UniversalCalculus(a, cap=1)
    pair = build_cartan_pair(a, uc.omega1_bimodule(), uc.d0, args.side)
    rep = cartan_vs_definitions(pair)
    rep["two_sided_dual_hats_first_order"] = two_sided_hats_are_first_order(pair)
    lines = [f"{args.side} pair over {a.name}: dual dim {rep['dual_dim']}",
             f"all hats satisfy the bimodule first-order condition: {rep['all_dv']}"]
    if rep["violation_witness"]:
        w = rep["violation_witness"]
        lines.append(f"violation witness: dual #{w['dual_index']} at basis "
                     f"triple (a={w['a']}, b={w['b']}, p={w['p']})")
    emit(rep, args.json, lines)
    return 0


def cmd_jets(args):
    a = load_algebra(args.algebra, args.field)
    p = pick_module(a, args.module)
    if args.two_sided:
        jm = two_sided_jet(a, p)
        rep = two_sided_representability(jm, regular_bimodule(a))
        report = dict(jm.to_dict(), representability=rep)
        lines = [f"two-sided first jet of {p.name}: {jm.to_dict()}",
                 f"representability: {rep}"]
        ok = rep["ok"]
    else:
        jm = jet_module(a, p, args.order,
                        allow_noncommutative=args.allow_noncommutative)
        ok = jk_is_diffop(jm)
        report = dict(jm.to_dict(), canonical_map_has_stated_order=ok)
        lines = [f"order-{args.order} jet of {p.name}: {jm.to_dict()}",
                 f"canonical map is an order-{args.order} operator: {ok}"]
    emit(report, args.json, lines)
    return 0 if ok else EXPECTATION_ERROR


def cmd_compare_defs(args):
    a = load_algebra(args.algebra, args.field)
    p = pick_module(a, args.module)
    q = pick_module(a, args.target)
    rep = compare_definitions(p, q, args.order)
    d = rep.to_dict(rep.hom)
    lines = [f"definitions at order {args.order} on {p.name} -> {q.name}:"]
    for name, dim in sorted(d["dims"].items()):
        lines.append(f"  {name}: dim {dim}")
    for entry in d["relations"]:
        lines.append(f"  {entry['pair'][0]} vs {entry['pair'][1]}: "
                     f"{entry['relation']}")
    emit(d, args.json, lines)
    return 0


def cmd_run_scenarios(args):
    report = run_all(only=args.only)
    lines = []
    for s in report["scenarios"]:
        for c in s["checks"]:
            mark = "ok" if c["expected_met"] else "FAIL"
            lines.append(f"[{mark}] {s['scenario']} :: {c['id']} -> {c['status']}")
        lines.append(f"scenario {s['scenario']}: "
                     + ("all expectations met" if s["all_expectations_met"]
                        else "EXPECTATIONS VIOLATED"))
    lines.append("suite: " + ("all expectations met"
                              if report["all_expectations_met"]
                              else "EXPECTATIONS VIOLATED"))
    emit(report, args.json, lines)
    return 0 if report["all_expectations_met"] else EXPECTATION_ERROR


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The argument parser, built once per process.

    It holds no per-call state and no reference to a command function:
    ``main`` looks ``cmd_<command>`` up by name on every call.
    """
    parser = argparse.ArgumentParser(
        prog="diffoplab",
        description="exact computations with differential operators over "
                    "finite-dimensional algebras")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, module_args=True):
        p.add_argument("algebra",
                       help="catalog shorthand (e.g. trunc_poly:3, matrix:2, "
                            f"one of {', '.join(catalog_names())}; products "
                            "via '+') or a JSON spec path")
        p.add_argument("--field", default=None, help="q or p:PRIME")
        p.add_argument("--json", default=None, help="write a canonical JSON report")
        if module_args:
            p.add_argument("--module", default="regular",
                           help="regular, free:K, or a module JSON path")
            p.add_argument("--target", default="regular",
                           help="regular, free:K, or a module JSON path")

    p = sub.add_parser("check-algebra", help="validate an algebra spec")
    common(p, module_args=False)

    p = sub.add_parser("check-module", help="validate a module spec")
    common(p, module_args=False)
    p.add_argument("--module", required=True, help="module JSON path or shorthand")

    p = sub.add_parser("derivations", help="solve the product-rule system")
    common(p, module_args=False)
    p.add_argument("--target", default="regular")
    p.add_argument("--graded", action="store_true")

    p = sub.add_parser("diff-space", help="one definition at one order")
    common(p)
    p.add_argument("--definition", default="grothendieck",
                   choices=["grothendieck", "graded", "dv"])
    p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("lunts", help="inductive one-sided filtration")
    common(p)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--side", default="left", choices=["left", "right"])

    p = sub.add_parser("two-sided", help="two-sided filtration")
    common(p)
    p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("ce", help="center-multilinear form complex")
    common(p, module_args=False)
    p.add_argument("--max-degree", type=int, default=DEGREE_CAP)

    p = sub.add_parser("graded-ce", help="graded form complex")
    common(p, module_args=False)
    p.add_argument("--max-degree", type=int, default=GRADED_DEGREE_CAP)

    p = sub.add_parser("universal", help="universal one- and two-forms")
    common(p, module_args=False)
    p.add_argument("--max-degree", type=int, default=UNIVERSAL_DEGREE_CAP)

    p = sub.add_parser("cartan", help="vector fields from calculus duals")
    common(p, module_args=False)
    p.add_argument("--side", default="right", choices=["left", "right"])

    p = sub.add_parser("jets", help="jet modules and representability")
    common(p)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--two-sided", action="store_true")
    p.add_argument("--allow-noncommutative", action="store_true")

    p = sub.add_parser("compare-defs", help="pairwise comparison report")
    common(p)
    p.add_argument("--order", type=int, default=1)

    p = sub.add_parser("run-scenarios", help="run the built-in scenario suite")
    p.add_argument("--only", default=None, help="run a single scenario by id")
    p.add_argument("--json", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "order", 0) < 0:  # the builders enforce the order caps
            raise UsageError(f"--order must be >= 0, got {args.order}")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (AlgebraError, ModuleError, OrderCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
