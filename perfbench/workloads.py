"""Workload definitions, seeded inputs and report checks for the benchmark.

A workload is a list of CLI tasks.  For the algebra workloads the seed
permutes the basis of every catalog algebra a task names; the permuted
algebra is written as a JSON spec (``parity`` carried over) and handed to
the CLI in place of the shorthand, and the seed also shuffles task order.
Seed 0 keeps the identity basis and the listed order, so its reports are
byte-identical to the shorthand reports recorded in ``reference.json``.
For ``scenarios`` the seed only shuffles the order of the ``--only`` tasks.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

GFP = "p:32003"

# (command, algebra shorthand, extra arguments)
OPERATOR_TASKS = [
    ("compare-defs", "matrix:2", ["--module", "free:2", "--order", "1"]),
    ("universal", "matrix:2", []),
    ("jets", "trunc_poly:5", ["--order", "2"]),
    ("compare-defs", "trunc_poly:5", ["--order", "2"]),
]
# Elimination-heavy: traced on seed 0, kernel and Echelon take 78% of
# ce trunc_poly:4 and 77% of ce trunc_poly:2+matrix:2, apply and matmul
# under 9% of each.  (ce trunc_poly:5, at 91%, makes a pass too long for
# enough passes per run; the product capped at --max-degree 2 leans on
# apply/closure instead.)
FORM_TASKS = [
    ("ce", "trunc_poly:4", []),
    ("ce", "trunc_poly:2+matrix:2", []),
    ("graded-ce", "grassmann:2", []),
]
ALGEBRA_WORKLOADS = {
    "operators-q": ("q", OPERATOR_TASKS),
    "operators-gfp": (GFP, OPERATOR_TASKS),
    "forms-q": ("q", FORM_TASKS),
}
SCENARIO_IDS = [
    "difference-operator-commutation",
    "commutative-collapse",
    "center-multilinear-calculus",
    "universal-forms-noncentrality",
    "filtration-compositions",
    "dilemma-matrix-algebra",
    "cartan-pairs",
    "jets",
    "graded-suite",
]
# catalog algebras the scenarios build; set-up builds them and their
# regular modules, the analogue of loading the specs of the other workloads
SCENARIO_ALGEBRAS = ["matrix:2", "quaternion", "trunc_poly:2", "trunc_poly:3",
                     "square_zero:2", "group_z:3", "grassmann:1", "grassmann:2"]
WORKLOADS = list(ALGEBRA_WORKLOADS) + ["scenarios"]


class Task:
    """One CLI invocation; ``key`` names it in ``reference.json``."""

    def __init__(self, key, argv, report_path):
        self.key = key
        self.argv = argv
        self.report_path = report_path


def shorthand_argv(command, algebra, extra, field):
    field_args = [] if field == "q" else ["--field", field]
    return [command, algebra] + extra + field_args


def task_key(command, algebra, extra, field):
    return " ".join(shorthand_argv(command, algebra, extra, field))


def spec_file_name(algebra, field):
    safe = algebra.replace(":", "_").replace("+", "-")
    return f"{safe}.{field.replace(':', '_')}.json"


def permuted_spec(spec: dict, seed: int, label: str) -> dict:
    """The algebra spec with its basis permuted by a seeded permutation."""
    n = spec["dim"]
    perm = list(range(n))
    if seed:
        random.Random(f"perfbench:{seed}:{label}").shuffle(perm)
    out = dict(spec)
    basis = [None] * n
    unit = [None] * n
    for old, new in enumerate(perm):
        basis[new] = spec["basis"][old]
        unit[new] = spec["unit"][old]
    out["basis"] = basis
    out["unit"] = unit
    out["sc"] = sorted([perm[i], perm[j], perm[k], v] for i, j, k, v in spec["sc"])
    if "parity" in spec:
        parity = [None] * n
        for old, new in enumerate(perm):
            parity[new] = spec["parity"][old]
        out["parity"] = parity
    return out


def build_tasks(workload: str, seed: int, work_dir: Path):
    """Write the seeded specs; return (tasks in run order, spec paths)."""
    if workload == "scenarios":
        tasks = [Task(f"run-scenarios --only {sid}",
                      ["run-scenarios", "--only", sid,
                       "--json", str(work_dir / f"{i}.json")],
                      work_dir / f"{i}.json")
                 for i, sid in enumerate(SCENARIO_IDS)]
        specs = []
    elif workload in ALGEBRA_WORKLOADS:
        from diffoplab.algebra import catalog
        from diffoplab.fields import field_from_name

        field, listed = ALGEBRA_WORKLOADS[workload]
        tasks, specs = [], {}
        for i, (command, algebra, extra) in enumerate(listed):
            if algebra not in specs:
                spec = catalog(algebra, field_from_name(field)).to_json_dict()
                path = work_dir / spec_file_name(algebra, field)
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(permuted_spec(spec, seed, algebra), fh,
                              indent=2, sort_keys=True)
                specs[algebra] = path
            report = work_dir / f"{i}.json"
            tasks.append(Task(task_key(command, algebra, extra, field),
                              [command, str(specs[algebra])] + extra
                              + ["--json", str(report)],
                              report))
        specs = list(specs.values())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed:
        random.Random(f"perfbench-order:{seed}").shuffle(tasks)
    return tasks, specs


# ---------------------------------------------------------------------------
# Report checks
# ---------------------------------------------------------------------------

# Report fields whose content depends on the chosen basis; only whether
# they are present (and how many entries a list has) is basis-invariant.
BASIS_DEPENDENT = {"witnesses", "witness", "violation_witness", "vector",
                   "central_commutation_witness", "d_matrices", "basis"}


def _is_scalar_string(x):
    if not isinstance(x, str):
        return False
    try:
        Fraction(x)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def summary(report):
    """Basis-invariant fields of a report: dims, labels, Betti numbers, verdicts.

    Returns a flat ``path -> value`` dict.  Basis-dependent subtrees are
    reduced to their presence or length; scalar coordinates are dropped.
    """
    out = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                sub = f"{path}.{key}" if path else key
                if key in BASIS_DEPENDENT:
                    value = node[key]
                    out[sub] = (len(value) if isinstance(value, list)
                                else value is not None)
                else:
                    walk(node[key], sub)
        elif isinstance(node, list):
            if node and all(_is_scalar_string(x) for x in node):
                return
            for i, item in enumerate(node):
                walk(item, f"{path}[{i}]")
        elif isinstance(node, str) and _is_scalar_string(node):
            return
        else:
            out[path] = node

    walk(report, "")
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def check_report(workload, seed, task, data: bytes, reference) -> str:
    """Return '' when the report matches the reference, else the reason."""
    ref = reference[workload].get(task.key)
    if ref is None:
        return "no reference entry"
    if digest(data) == ref["sha256"]:
        return ""
    if seed == 0 or workload == "scenarios":
        return "report differs from the recorded bytes"
    try:
        got = summary(json.loads(data))
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    if got != ref["summary"]:
        diff = sorted(k for k in set(got) | set(ref["summary"])
                      if got.get(k) != ref["summary"].get(k))
        return "basis-invariant fields differ: " + ", ".join(diff[:5])
    return ""
