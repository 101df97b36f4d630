"""Seed 0 reproduces the shorthand reports byte for byte; other seeds keep
every basis-invariant field."""

import io
import json
from contextlib import redirect_stdout

import pytest

from diffoplab.algebra import FiniteAlgebra, catalog
from diffoplab.cli import main as cli_main
from diffoplab.fields import field_from_name
from workloads import (ALGEBRA_WORKLOADS, build_tasks, check_report, digest,
                       load_reference, permuted_spec, summary)


def run_task(task):
    with redirect_stdout(io.StringIO()):
        assert cli_main(task.argv) == 0
    return task.report_path.read_bytes()


@pytest.mark.parametrize("workload", sorted(ALGEBRA_WORKLOADS))
def test_seed_zero_spec_is_the_catalog_algebra(workload, tmp_path):
    field, listed = ALGEBRA_WORKLOADS[workload]
    for _, algebra, _ in listed:
        spec = catalog(algebra, field_from_name(field)).to_json_dict()
        path = tmp_path / "a.json"
        path.write_text(json.dumps(permuted_spec(spec, 0, algebra)))
        assert FiniteAlgebra.load(str(path)).to_json_dict() == spec


@pytest.mark.parametrize("workload", sorted(ALGEBRA_WORKLOADS))
def test_seed_zero_reports_match_shorthand_digests(workload, tmp_path):
    reference = load_reference()[workload]
    tasks, _ = build_tasks(workload, 0, tmp_path)
    assert sorted(t.key for t in tasks) == sorted(reference)
    for task in tasks:
        assert digest(run_task(task)) == reference[task.key]["sha256"], task.key


def test_other_seed_permutes_basis_and_keeps_invariants(tmp_path):
    reference = load_reference()["forms-q"]
    tasks, specs = build_tasks("forms-q", 1, tmp_path)
    moved = 0
    for task in tasks:
        data = run_task(task)
        moved += digest(data) != reference[task.key]["sha256"]
        assert summary(json.loads(data)) == reference[task.key]["summary"], task.key
        assert check_report("forms-q", 1, task, data, {"forms-q": reference}) == ""
    assert moved, "seed 1 should change the basis of some algebra"


def test_summary_drops_basis_dependent_fields():
    report = {"dims": {"a": 3}, "witness": {"vector": ["1/2", "0"]},
              "coords": ["1", "-2"], "ok": True, "relation": "subset"}
    assert summary(report) == {"dims.a": 3, "witness": True, "ok": True,
                               "relation": "subset"}
