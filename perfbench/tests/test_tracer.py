"""Self-checks of the per-layer tracer and of the benchmark's contract."""

import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import diffoplab.cli
import diffoplab.linalg
from tracer import COUNT_METRICS, METRICS, Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def cli(argv):
    with redirect_stdout(io.StringIO()):
        return diffoplab.cli.main(argv)


def test_every_reference_is_patched_and_restored():
    original_kernel = diffoplab.linalg.kernel
    tracer = Tracer()
    tracer.install()
    try:
        tracer.check_patched()
        # bound through "from .linalg import kernel" in other modules too
        for name in ("diffoplab.diffops", "diffoplab.cecalc", "diffoplab.algebra"):
            assert sys.modules[name].kernel is not original_kernel
    finally:
        tracer.uninstall()
    assert diffoplab.linalg.kernel is original_kernel
    assert sys.modules["diffoplab.diffops"].kernel is original_kernel


def test_traced_report_is_byte_identical(tmp_path):
    argv = ["compare-defs", "matrix:2", "--order", "1", "--json"]
    assert cli(argv + [str(tmp_path / "plain.json")]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        assert cli(argv + [str(tmp_path / "traced.json")]) == 0
        values = tracer.metrics(0.0)
    finally:
        tracer.uninstall()
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    assert set(values) == set(METRICS)
    assert values["diffops.dv.calls"] == 1
    assert values["linalg.kernel.calls"] > 0
    assert 0 < values["linalg.apply.useful_frac"] <= 1


def bench(*args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, env=env)


def test_counts_repeat_across_processes():
    from run import spans_file

    spans_path = spans_file("operators-gfp", 2)
    results = []
    for hash_seed in ("1", "2"):
        spans_path.unlink(missing_ok=True)
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = bench("--workload", "operators-gfp", "--seed", "2", "--seconds", "0",
                    "--trace", "1", env=env)
        assert out.returncode == 0, out.stderr
        results.append(json.loads(out.stdout.splitlines()[-1]))
        written = json.loads(spans_path.read_text())
        spans = written["spans"]
        top = [s for s in spans if s[3] is None]
        assert [s[0] for s in top] == ["cli"] * len(written["tasks"])
        assert all(s[3] is None or s[3] < i for i, s in enumerate(spans))
        assert {s[0] for s in spans} >= {"diffops.dv", "linalg.kernel", "linalg.closure"}
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == set(METRICS)
    for name in COUNT_METRICS:
        assert results[0]["metrics"][name] == results[1]["metrics"][name], name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from run import END_TO_END
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == METRICS


def test_design_json_lists_the_harness_tasks():
    from workloads import FORM_TASKS, OPERATOR_TASKS, SCENARIO_IDS, task_key

    design = json.loads((BENCH / "design.json").read_text())["workloads"]
    assert design["operators-q"]["tasks"] == [task_key(*t, "q") for t in OPERATOR_TASKS]
    assert design["forms-q"]["tasks"] == [task_key(*t, "q") for t in FORM_TASKS]
    assert design["scenarios"]["tasks"] == SCENARIO_IDS


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = bench("--workload", "scenarios", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
