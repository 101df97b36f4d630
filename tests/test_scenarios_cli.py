import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from diffoplab.algebra import catalog
from diffoplab.bimodule import regular_bimodule
from diffoplab.cecalc import DEGREE_CAP
from diffoplab import cli
from diffoplab.cli import emit, main
from diffoplab.gradedce import GRADED_DEGREE_CAP
from diffoplab.scenarios import (
    REQUIRED_CLAIMS,
    builtin_scenarios,
    canonical_json,
    run_all,
    run_scenario,
)
from diffoplab.universal import UNIVERSAL_DEGREE_CAP


def test_every_required_claim_is_covered():
    claims = set()
    for s in builtin_scenarios():
        for c in s.checks:
            if c.claim:
                claims.add(c.claim)
    missing = set(REQUIRED_CLAIMS) - claims
    assert not missing, f"claims without a scenario check: {missing}"


def test_check_ids_unique_and_kinds_known():
    seen = set()
    for s in builtin_scenarios():
        for c in s.checks:
            assert c.check_id not in seen
            seen.add(c.check_id)
            assert c.kind in ("identity", "witness-required", "witness-or-absence")


def test_single_scenario_run():
    scenario = [s for s in builtin_scenarios()
                if s.scenario_id == "difference-operator-commutation"][0]
    rep = run_scenario(scenario)
    assert rep["all_expectations_met"]
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_dilemma_scenario_records_witnesses():
    rep = run_all(only="dilemma-matrix-algebra")
    checks = rep["scenarios"][0]["checks"]
    by_id = {c["id"]: c for c in checks}
    a = by_id["derivation-fails-naive-order1[matrix:2]"]
    assert a["status"] == "witness" and a["witness"]["in_left_filtration_1"]
    b = by_id["hat-fails-bimodule-first-order[matrix:2]"]
    assert b["status"] == "witness" and {"a", "b", "p"} <= set(b["witness"])
    c = by_id["dv-outside-left-filtration[matrix:2]"]
    assert c["status"] in ("witness", "absence")
    if c["status"] == "absence":
        assert "lunts_dims" in c["details"] and "hom_dim" in c["details"]
    d = by_id["left-jet-identity-failure[matrix:2]"]
    assert d["status"] == "witness"
    assert rep["all_expectations_met"]


def test_each_spec_is_built_once_per_run(monkeypatch):
    import diffoplab.scenarios as scenarios

    built = []

    def counting_catalog(spec):
        built.append(spec)
        return catalog(spec)

    monkeypatch.setattr(scenarios, "catalog", counting_catalog)
    for runs in (1, 2):
        # three checks on each of the three specs share one algebra per run
        assert run_all(only="commutative-collapse")["all_expectations_met"]
        assert sorted(built) == sorted(["trunc_poly:3", "square_zero:2", "group_z:3"] * runs)


def test_unknown_scenario_rejected():
    with pytest.raises(ValueError):
        run_all(only="not-a-scenario")


def test_cli_check_algebra_exit_codes(tmp_path):
    assert main(["check-algebra", "trunc_poly:3"]) == 0
    assert main(["check-algebra", "nonsense:1"]) == 2
    # a broken spec file: unit law violated
    a = catalog("trunc_poly:2")
    d = a.to_json_dict()
    d["unit"] = ["0", "1"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    assert main(["check-algebra", str(bad)]) == 1


def test_cli_field_flag(tmp_path):
    assert main(["check-algebra", "trunc_poly:3", "--field", "p:5"]) == 0
    a = catalog("trunc_poly:2")
    path = tmp_path / "alg.json"
    a.save(path)
    assert main(["check-algebra", str(path), "--field", "p:5"]) == 2
    assert main(["check-algebra", str(path), "--field", "q"]) == 0


def test_cli_check_module_roundtrip(tmp_path):
    a = catalog("matrix:2")
    apath = tmp_path / "m2.json"
    a.save(apath)
    m = regular_bimodule(a)
    mpath = tmp_path / "reg.json"
    m.save(mpath)
    assert main(["check-module", str(apath), "--module", str(mpath)]) == 0


def test_cli_reports_are_deterministic(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["compare-defs", "matrix:2", "--order", "1",
                 "--json", str(out1)]) == 0
    assert main(["compare-defs", "matrix:2", "--order", "1",
                 "--json", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_emit_streams_the_canonical_json(tmp_path):
    # non-ASCII names, nested lists, a Fraction string and unsorted keys
    report = {"zeta": [1, [2, []], {}], "algebra": "θ1θ2", "dims": [3, 0],
              "nested": {"b": "-1/2", "a": True, "c": None}}
    path = tmp_path / "report.json"
    emit(report, str(path))
    assert path.read_text(encoding="utf-8") == canonical_json(report)


def test_cli_misc_commands(tmp_path):
    assert main(["ce", "trunc_poly:2", "--max-degree", "2"]) == 0
    assert main(["graded-ce", "grassmann:1"]) == 0
    assert main(["derivations", "grassmann:1", "--graded"]) == 0
    assert main(["derivations", "trunc_poly:3", "--target", "free:2"]) == 0
    assert main(["universal", "trunc_poly:2"]) == 0
    assert main(["cartan", "trunc_poly:2"]) == 0
    assert main(["jets", "trunc_poly:2", "--order", "1"]) == 0
    assert main(["jets", "matrix:2", "--two-sided"]) == 0
    assert main(["lunts", "trunc_poly:2", "--order", "1"]) == 0
    assert main(["two-sided", "trunc_poly:2", "--order", "1"]) == 0
    assert main(["diff-space", "trunc_poly:2", "--definition", "dv",
                 "--order", "1"]) == 0
    assert main(["diff-space", "grassmann:1", "--definition", "graded",
                 "--order", "1"]) == 0
    # usage errors
    assert main(["diff-space", "trunc_poly:2", "--definition", "dv",
                 "--order", "2"]) == 2
    assert main(["jets", "matrix:2", "--order", "1"]) == 2  # noncommutative


# what the one error line must name: the parameter and the value given
MESSAGE_NAMES = {
    "check-algebra square_zero:-1": ("square_zero", "-1"),
    "check-algebra group_z:0": ("group_z", "0"),
    "check-algebra trunc_poly:0": ("size", "0"),
    "check-algebra grassmann:-1": ("grassmann", "-1"),
    "check-algebra matrix:abc": ("matrix:abc",),
    "check-algebra trunc_poly:2 --field p:0": ("--field", "p:0"),
    "check-algebra trunc_poly:2 --field p:abc": ("--field", "p:abc"),
    "check-algebra trunc_poly:2 --field p:": ("--field", "p:"),
    "check-algebra list.json --field p:0": ("--field", "p:0"),
    "check-algebra quaternion:3": ("quaternion:3",),
    "check-algebra quaternion:abc": ("quaternion:abc",),
    "check-algebra trunc_poly:2 --field p:18446744073709551629": ("--field", "2**64"),
    "check-algebra trunc_poly:2 --field p:1000000000000000001": ("--field", "prime"),
    "run-scenarios --only no-such-id": ("--only", "no-such-id"),
    "run-scenarios --only ": ("--only", "unknown scenario ''"),
    "jets matrix:2 --two-sided --order 2": ("two-sided", "first-order"),
    "jets trunc_poly:2 --two-sided --order 0": ("two-sided", "first-order"),
}


@pytest.mark.parametrize("argv", [
    ["derivations", "trunc_poly:2", "--target", "free:abc"],
    ["derivations", "trunc_poly:2", "--target", "free:0"],
    ["compare-defs", "trunc_poly:2", "--module", "free:-1"],
    ["ce", "trunc_poly:2", "--max-degree", str(DEGREE_CAP + 1)],
    ["ce", "trunc_poly:2", "--max-degree", "0"],
    ["graded-ce", "grassmann:1", "--max-degree", str(GRADED_DEGREE_CAP + 1)],
    ["graded-ce", "grassmann:1", "--max-degree", "0"],
    ["universal", "trunc_poly:2", "--max-degree", str(UNIVERSAL_DEGREE_CAP + 1)],
    ["universal", "trunc_poly:2", "--max-degree", "-1"],
    ["lunts", "trunc_poly:2", "--order", "-1"],
    ["two-sided", "trunc_poly:2", "--order", "-1"],
    ["compare-defs", "trunc_poly:2", "--order", "-1"],
    ["diff-space", "trunc_poly:2", "--order", "-1"],
    ["jets", "trunc_poly:3", "--order", "-1"],
    ["ce", "matrix:0"],
    ["universal", "matrix:0"],
    ["check-algebra", "matrix:0"],
    ["check-algebra", "list.json"],
    ["check-module", "trunc_poly:2", "--module", "list.json"],
    ["check-algebra", "square_zero:-1"],
    ["check-algebra", "group_z:0"],
    ["check-algebra", "trunc_poly:0"],
    ["check-algebra", "grassmann:-1"],
    ["check-algebra", "matrix:abc"],
    ["check-algebra", "matrix"],
    ["check-algebra", "trunc_poly:2", "--field", "p:0"],
    ["check-algebra", "trunc_poly:2", "--field", "p:abc"],
    ["check-algebra", "trunc_poly:2", "--field", "p:"],
    ["check-algebra", "list.json", "--field", "p:0"],
    ["check-algebra", "quaternion:3"],
    ["check-algebra", "quaternion:abc"],
    ["check-algebra", "trunc_poly:2", "--field", "p:18446744073709551629"],
    ["check-algebra", "trunc_poly:2", "--field", "p:1000000000000000001"],
    ["run-scenarios", "--only", "no-such-id"],
    ["jets", "matrix:2", "--two-sided", "--order", "2"],
    ["jets", "trunc_poly:2", "--two-sided", "--order", "0"],
    ["run-scenarios", "--only", ""],
])
def test_cli_bad_rank_or_degree_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # list.json: a spec whose JSON top level is a list, not an object
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[]")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for fragment in MESSAGE_NAMES.get(" ".join(argv), ()):
        assert fragment in err, (fragment, err)


def test_cli_unexpected_exception_is_exit_3(monkeypatch, capsys):
    # a crash must not read as exit 1, which means "the math disagrees"
    def broken(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_check_algebra", broken)
    assert main(["check-algebra", "trunc_poly:2"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: boom second line\n"


@pytest.mark.parametrize("entry", [[0, 5, 0, "1"], [0, -1, 0, "1"], [0, 0, 1, "1/0"]])
def test_cli_module_entry_out_of_range_is_a_usage_error(entry, tmp_path, capsys):
    a = catalog("trunc_poly:2")
    apath = tmp_path / "alg.json"
    a.save(apath)
    spec = regular_bimodule(a).to_json_dict()
    spec["left"].append(entry)
    mpath = tmp_path / "mod.json"
    mpath.write_text(json.dumps(spec))
    assert main(["check-module", str(apath), "--module", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _append_sc(entry):
    return lambda spec: spec["sc"].append(entry)


BAD_ALGEBRA_SPECS = {
    "sc-index-at-dim": _append_sc([0, 0, 2, "1"]),
    # read by wrapping before, as x·x = 1: a valid algebra, exit 0
    "sc-index-negative": _append_sc([-1, -1, 0, "1"]),
    "sc-entry-too-short": _append_sc([0, 0, 0]),
    "sc-not-a-list": lambda spec: spec.update(sc=5),
    "parity-wrong-length": lambda spec: spec.update(parity=[0]),
    "parity-not-a-list": lambda spec: spec.update(parity=5),
    "zero-denominator-q": _append_sc([1, 1, 0, "1/0"]),
    "zero-denominator-gfp": lambda spec: (spec.update(char=32003),
                                          spec["sc"].append([1, 1, 0, "1/32003"])),
    "sc-index-null": _append_sc([None, 0, 0, "1"]),
    "dim-null": lambda spec: spec.update(dim=None),
    "unit-not-a-list": lambda spec: spec.update(unit=5),
}


@pytest.mark.parametrize("bad", sorted(BAD_ALGEBRA_SPECS))
def test_cli_bad_algebra_spec_is_a_usage_error(bad, tmp_path, capsys):
    spec = catalog("trunc_poly:2").to_json_dict()
    BAD_ALGEBRA_SPECS[bad](spec)
    apath = tmp_path / "alg.json"
    apath.write_text(json.dumps(spec))
    assert main(["check-algebra", str(apath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key,value", [("left", 3), ("right", "x"), ("dim", None),
                                       ("parity", [0]), ("parity", 5)])
def test_cli_bad_module_spec_is_a_usage_error(key, value, tmp_path, capsys):
    a = catalog("trunc_poly:2")
    apath = tmp_path / "alg.json"
    a.save(apath)
    spec = regular_bimodule(a).to_json_dict()
    spec[key] = value
    mpath = tmp_path / "mod.json"
    mpath.write_text(json.dumps(spec))
    assert main(["check-module", str(apath), "--module", str(mpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


WRONGLY_GRADED_RUNS = [
    (["diff-space", "grassmann:2", "--definition", "graded"], ["--module"]),
    (["compare-defs", "grassmann:2"], ["--module"]),
    (["diff-space", "grassmann:1", "--definition", "graded", "--order", "0"], ["--module"]),
    (["compare-defs", "grassmann:1", "--order", "0"], ["--module"]),
    # these solves split by parity all the same; the module is refused before them
    (["diff-space", "grassmann:1", "--definition", "graded"], ["--module"]),
    (["diff-space", "grassmann:2", "--definition", "graded"], ["--module", "--target"]),
    (["compare-defs", "grassmann:2"], ["--module", "--target"]),
]


@pytest.mark.parametrize("argv,flags", WRONGLY_GRADED_RUNS, ids=lambda x: " ".join(x))
def test_cli_wrongly_graded_module_is_a_usage_error(argv, flags, tmp_path, capsys):
    # the regular module with every parity even breaks the parity laws
    spec = regular_bimodule(catalog(argv[1])).to_json_dict()
    spec["parity"] = [0] * len(spec["parity"])
    mpath = tmp_path / "mod.json"
    mpath.write_text(json.dumps(spec))
    assert main(argv + [x for flag in flags for x in (flag, str(mpath))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: module ") and err.count("\n") == 1
    assert "does not follow the grading (left_parity, second_parity)" in err


def test_cli_large_prime_field_is_accepted_quickly(capsys):
    # a 19-digit prime: primality is decided without trial division
    start = time.perf_counter()
    assert main(["check-algebra", "trunc_poly:2", "--field", "p:1000000000000000003"]) == 0
    assert time.perf_counter() - start < 2.0
    assert "over p:1000000000000000003" in capsys.readouterr().out


def test_cli_degree_caps_are_accepted():
    assert main(["derivations", "trunc_poly:2", "--target", "free:1"]) == 0
    assert main(["universal", "trunc_poly:2", "--max-degree", "1"]) == 0
    assert main(["graded-ce", "grassmann:1", "--max-degree", "1"]) == 0


def test_cli_entry_point_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "diffoplab", "check-algebra", "group_z:3"],
        capture_output=True, text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0
    assert "valid" in proc.stdout


def test_run_scenarios_solves_each_leibniz_system_and_hom_space_once(monkeypatch):
    # the regular module and its derivations are kept on each algebra, so each
    # Leibniz system (algebra, parity) and each Hom space (module pair) is
    # built once; the Cartan checks apply the rows to d and solve none
    import diffoplab.derivations as derivations_module
    import diffoplab.homspace as homspace

    systems, pairs = [], []
    for name in ("kernel", "kernel_on"):
        solve = getattr(derivations_module, name)
        monkeypatch.setattr(derivations_module, name,
                            lambda *args, solve=solve: systems.append(args) or solve(*args))
    init = homspace.HomSpace.__init__

    def counting_init(self, source, target):
        pairs.append((source, target))
        init(self, source, target)

    monkeypatch.setattr(homspace.HomSpace, "__init__", counting_init)
    assert run_all()["all_expectations_met"]
    assert len({(id(p), id(q)) for p, q in pairs}) == len(pairs)
    # 30 systems and 29 Hom spaces when each builder solved its own
    assert (len(systems), len(pairs)) == (8, 13)
